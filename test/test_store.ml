(* Tests for the durable store: WAL torn-tail recovery, atomic snapshot
   generations, the combined store's fallback rules, and the controller
   journal — up to the property the subsystem exists for: kill the
   process at any point, reopen the directory, and the recovered
   controller fingerprints identical to the one that died.  The last
   group also pins the contrast the design documents: [rejoin] loses
   the tentative edit that never reached the wire, the journal does
   not. *)

open Dce_core
module Tdoc = Dce_ot.Tdoc
module Codec = Dce_wire.Codec
module Proto = Dce_wire.Proto
module Wal = Dce_store.Wal
module Snapshot = Dce_store.Snapshot
module Store = Dce_store.Store
module Persist = Dce_store.Persist
module Rng = Dce_sim.Rng
module Convergence = Dce_sim.Convergence
open Helpers

(* ----- scratch directories and fault injection ----- *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dce-store-test-%d-%d" (Unix.getpid ()) !n)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* Every test owns a scratch directory and removes it however it exits. *)
let in_dir f () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

let frame_len payload = String.length (Codec.frame payload)

let file_size path = (Unix.stat path).Unix.st_size

let truncate_by path n =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (max 0 (file_size path - n));
  Unix.close fd

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

let wal_path dir gen = Filename.concat dir (Printf.sprintf "wal-%010d.log" gen)

let snap_path dir gen = Filename.concat dir (Snapshot.filename gen)

(* ----- Wal ----- *)

let wal_tests =
  [
    Alcotest.test_case "round-trips records under every fsync policy" `Quick
      (in_dir (fun dir ->
           List.iter
             (fun policy ->
               let path = Filename.concat dir "wal.log" in
               (try Sys.remove path with Sys_error _ -> ());
               let w, r0 = ok_exn "open" (Wal.openfile ~fsync:policy path) in
               Alcotest.(check (list string)) "fresh log is empty" [] r0.Wal.records;
               let records = [ "alpha"; ""; String.make 2000 'z' ] in
               List.iter (Wal.append w) records;
               Alcotest.(check int) "records_written" 3 (Wal.records_written w);
               Wal.close w;
               Wal.close w;
               (* close is idempotent *)
               let w, r = ok_exn "reopen" (Wal.openfile ~fsync:policy path) in
               Alcotest.(check (list string)) "replayed oldest first" records r.Wal.records;
               Alcotest.(check int) "clean tail" 0 r.Wal.truncated_bytes;
               Alcotest.(check int)
                 "valid_bytes is the whole file" (file_size path) r.Wal.valid_bytes;
               Wal.close w)
             [ Wal.Always; Wal.Interval 2; Wal.Never ]));
    Alcotest.test_case "torn tail is dropped and appending continues" `Quick
      (in_dir (fun dir ->
           let path = Filename.concat dir "wal.log" in
           let records = List.init 5 (Printf.sprintf "record-%d") in
           let w, _ = ok_exn "open" (Wal.openfile path) in
           List.iter (Wal.append w) records;
           Wal.close w;
           (* rip off part of the last frame, as a crash mid-write would *)
           truncate_by path 3;
           let w, r = ok_exn "reopen torn" (Wal.openfile path) in
           Alcotest.(check (list string))
             "longest valid prefix survives"
             [ "record-0"; "record-1"; "record-2"; "record-3" ]
             r.Wal.records;
           Alcotest.(check int)
             "exactly the torn frame is gone"
             (frame_len "record-4" - 3)
             r.Wal.truncated_bytes;
           Wal.append w "record-5";
           Wal.close w;
           let w, r = ok_exn "reopen again" (Wal.openfile path) in
           Alcotest.(check (list string))
             "appends after truncation land cleanly"
             [ "record-0"; "record-1"; "record-2"; "record-3"; "record-5" ]
             r.Wal.records;
           Alcotest.(check int) "clean this time" 0 r.Wal.truncated_bytes;
           Wal.close w));
    Alcotest.test_case "mid-file corruption truncates from the bad frame on" `Quick
      (in_dir (fun dir ->
           let path = Filename.concat dir "wal.log" in
           let records = List.init 5 (Printf.sprintf "record-%d") in
           let w, _ = ok_exn "open" (Wal.openfile path) in
           List.iter (Wal.append w) records;
           Wal.close w;
           (* flip a byte inside the third record's frame: everything
              from there on is untrusted and must go *)
           let off = frame_len "record-0" + frame_len "record-1" + 4 in
           flip_byte path off;
           let w, r = ok_exn "reopen corrupt" (Wal.openfile path) in
           Alcotest.(check (list string))
             "records before the corruption survive"
             [ "record-0"; "record-1" ]
             r.Wal.records;
           Alcotest.(check bool) "tail dropped" true (r.Wal.truncated_bytes > 0);
           Alcotest.(check int)
             "file physically truncated to the valid prefix"
             (frame_len "record-0" + frame_len "record-1")
             (file_size path);
           Wal.close w));
    Alcotest.test_case "a file of pure garbage recovers to empty" `Quick
      (in_dir (fun dir ->
           let path = Filename.concat dir "wal.log" in
           let oc = open_out_bin path in
           output_string oc "this was never a frame, not even close";
           close_out oc;
           let size = file_size path in
           let w, r = ok_exn "open garbage" (Wal.openfile path) in
           Alcotest.(check (list string)) "nothing salvaged" [] r.Wal.records;
           Alcotest.(check int) "everything dropped" size r.Wal.truncated_bytes;
           Wal.append w "first real record";
           Wal.close w;
           let w, r = ok_exn "reopen" (Wal.openfile path) in
           Alcotest.(check (list string))
             "log usable afterwards" [ "first real record" ] r.Wal.records;
           Wal.close w));
  ]

(* ----- Wal: adversarial recovery property ----- *)

(* Cumulative end offset of each record's frame, oldest first. *)
let frame_ends records =
  List.rev
    (snd
       (List.fold_left
          (fun (off, acc) r ->
            let e = off + frame_len r in
            (e, e :: acc))
          (0, []) records))

(* How many whole frames fit in the first [size] bytes. *)
let fit_count records size =
  List.length (List.filter (fun e -> e <= size) (frame_ends records))

let take k l = List.filteri (fun i _ -> i < k) l

(* Longest-valid-prefix semantics under layered damage: write a batch,
   tear the tail, recover and append a second batch, then flip a byte
   {e inside} the surviving prefix and tear the tail again — a
   double-torn file with mid-prefix corruption.  Whatever the damage,
   [Wal.openfile] must recover exactly the frames before the first
   damaged byte, physically truncate the file to that prefix, and
   accept appends on top of it. *)
let adversarial_recovery_runs (batch1, batch2, tear1, flip, tear2) =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "wal.log" in
  let w, _ = ok_exn "open" (Wal.openfile path) in
  List.iter (Wal.append w) batch1;
  Wal.close w;
  (* first torn tail: rip up to one frame's worth off the end *)
  let last1 = List.nth batch1 (List.length batch1 - 1) in
  truncate_by path (tear1 mod frame_len last1);
  let keep1 = fit_count batch1 (file_size path) in
  let w, r = ok_exn "reopen after tear 1" (Wal.openfile path) in
  Alcotest.(check (list string))
    "first tear: longest valid prefix" (take keep1 batch1) r.Wal.records;
  List.iter (Wal.append w) batch2;
  Wal.close w;
  let survivors = take keep1 batch1 @ batch2 in
  let nsurv = List.length survivors in
  (* corruption inside the prefix, not just the tail: flip one byte of
     a uniformly chosen surviving frame *)
  let ends = frame_ends survivors in
  let fidx = flip mod nsurv in
  let fstart = if fidx = 0 then 0 else List.nth ends (fidx - 1) in
  let flen = List.nth ends fidx - fstart in
  flip_byte path (fstart + (flip / nsurv mod flen));
  (* second torn tail on top of the flip *)
  let lastr = List.nth survivors (nsurv - 1) in
  truncate_by path (tear2 mod frame_len lastr);
  (* recovery must stop at the first damaged byte: the flipped frame or
     the torn tail, whichever comes first *)
  let expect = min fidx (fit_count survivors (file_size path)) in
  let w, r = ok_exn "reopen after flip + tear 2" (Wal.openfile path) in
  Alcotest.(check (list string))
    "double tear + flip: longest valid prefix" (take expect survivors)
    r.Wal.records;
  Alcotest.(check int)
    "valid_bytes is exactly the kept prefix"
    (List.fold_left (fun a rec_ -> a + frame_len rec_) 0 (take expect survivors))
    r.Wal.valid_bytes;
  Alcotest.(check int)
    "file physically truncated to the valid prefix" r.Wal.valid_bytes
    (file_size path);
  (* the recovered log is a working log *)
  Wal.append w "post-damage";
  Wal.close w;
  let w, r = ok_exn "final reopen" (Wal.openfile path) in
  Alcotest.(check (list string))
    "appends after recovery land cleanly"
    (take expect survivors @ [ "post-damage" ])
    r.Wal.records;
  Alcotest.(check int) "final file is clean" 0 r.Wal.truncated_bytes;
  Wal.close w;
  true

let wal_adversarial_tests =
  let gen =
    QCheck2.Gen.(
      let record = string_size ~gen:(char_range 'a' 'z') (int_bound 40) in
      let batch = list_size (int_range 1 6) record in
      tup5 batch batch (int_bound 10_000) (int_bound 1_000_000) (int_bound 10_000))
  in
  let print (b1, b2, t1, flip, t2) =
    let show b = String.concat ";" (List.map (Printf.sprintf "%S") b) in
    Printf.sprintf "batch1=[%s] batch2=[%s] tear1=%d flip=%d tear2=%d" (show b1)
      (show b2) t1 flip t2
  in
  [
    qtest "double-torn, mid-prefix-corrupted logs recover the longest valid prefix"
      ~count:120 gen print adversarial_recovery_runs;
  ]

(* ----- Snapshot ----- *)

let snapshot_tests =
  [
    Alcotest.test_case "write, load, latest, generations" `Quick
      (in_dir (fun dir ->
           ok_exn "write 1" (Snapshot.write ~dir ~gen:1 "one");
           ok_exn "write 3" (Snapshot.write ~dir ~gen:3 "three");
           ok_exn "write 7" (Snapshot.write ~dir ~gen:7 "seven");
           Alcotest.(check (list int)) "ascending" [ 1; 3; 7 ] (Snapshot.generations ~dir ());
           Alcotest.(check string) "load one gen" "three" (ok_exn "load" (Snapshot.load ~dir ~gen:3 ()));
           (match Snapshot.load_latest ~dir () with
            | Some (7, "seven") -> ()
            | Some (g, _) -> Alcotest.failf "latest picked generation %d" g
            | None -> Alcotest.fail "no snapshot found");
           match Snapshot.load ~dir ~gen:5 () with
           | Error _ -> ()
           | Ok _ -> Alcotest.fail "loaded a generation that does not exist"));
    Alcotest.test_case "a corrupt newest snapshot falls back to the previous" `Quick
      (in_dir (fun dir ->
           ok_exn "write 3" (Snapshot.write ~dir ~gen:3 "three");
           ok_exn "write 7" (Snapshot.write ~dir ~gen:7 "seven");
           flip_byte (snap_path dir 7) (file_size (snap_path dir 7) / 2);
           (match Snapshot.load_latest ~dir () with
            | Some (3, "three") -> ()
            | _ -> Alcotest.fail "expected fallback to generation 3");
           (* a torn (half-written-then-renamed-by-hand) file too *)
           truncate_by (snap_path dir 3) 2;
           Alcotest.(check bool)
             "nothing valid left" true (Snapshot.load_latest ~dir () = None)));
    Alcotest.test_case "prune keeps the newest, never fewer than two" `Quick
      (in_dir (fun dir ->
           List.iter
             (fun g -> ok_exn "write" (Snapshot.write ~dir ~gen:g (string_of_int g)))
             [ 1; 2; 3; 4; 5 ];
           Snapshot.prune ~dir ~keep:3 ();
           Alcotest.(check (list int)) "three newest" [ 3; 4; 5 ] (Snapshot.generations ~dir ());
           Snapshot.prune ~dir ~keep:1 ();
           Alcotest.(check (list int))
             "the fallback pair is untouchable" [ 4; 5 ] (Snapshot.generations ~dir ())));
  ]

(* ----- Store ----- *)

let cfg ?(fsync = Wal.Never) ?(snapshot_every = 1024) ?(keep_generations = 2) () =
  { Store.fsync; snapshot_every; keep_generations }

let store_tests =
  [
    Alcotest.test_case "an empty directory opens at generation zero" `Quick
      (in_dir (fun dir ->
           let s, r = ok_exn "open" (Store.opendir ~config:(cfg ()) dir) in
           Alcotest.(check int) "generation" 0 r.Store.generation;
           Alcotest.(check bool) "no snapshot" true (r.Store.snapshot = None);
           Alcotest.(check (list string)) "no records" [] r.Store.wal_records;
           Store.append s "a";
           Store.append s "b";
           Store.close s;
           let s, r = ok_exn "reopen" (Store.opendir ~config:(cfg ()) dir) in
           Alcotest.(check (list string)) "replayed" [ "a"; "b" ] r.Store.wal_records;
           Alcotest.(check int) "still generation zero" 0 r.Store.generation;
           Store.close s));
    Alcotest.test_case "checkpoint cuts a generation; recovery resumes from it" `Quick
      (in_dir (fun dir ->
           let config = cfg ~snapshot_every:3 () in
           let s, _ = ok_exn "open" (Store.opendir ~config dir) in
           List.iter (Store.append s) [ "a"; "b" ];
           Alcotest.(check bool) "not yet due" false (Store.should_checkpoint s);
           Store.append s "c";
           Alcotest.(check bool) "due after snapshot_every" true (Store.should_checkpoint s);
           ok_exn "checkpoint" (Store.checkpoint s "SNAP-ONE");
           Alcotest.(check int) "new generation" 1 (Store.generation s);
           Alcotest.(check int) "fresh log" 0 (Store.records_since_checkpoint s);
           List.iter (Store.append s) [ "d"; "e" ];
           Store.close s;
           let s, r = ok_exn "reopen" (Store.opendir ~config dir) in
           Alcotest.(check int) "recovered generation" 1 r.Store.generation;
           Alcotest.(check bool) "snapshot back" true (r.Store.snapshot = Some "SNAP-ONE");
           Alcotest.(check (list string))
             "only the records since the cut" [ "d"; "e" ] r.Store.wal_records;
           Store.close s));
    Alcotest.test_case "corrupt newest snapshot falls back to generation g-1 and its log"
      `Quick
      (in_dir (fun dir ->
           let config = cfg () in
           let s, _ = ok_exn "open" (Store.opendir ~config dir) in
           List.iter (Store.append s) [ "a"; "b" ];
           ok_exn "checkpoint 1" (Store.checkpoint s "S1");
           List.iter (Store.append s) [ "c"; "d" ];
           ok_exn "checkpoint 2" (Store.checkpoint s "S2");
           Store.append s "e";
           Store.close s;
           (* checkpoint 2 must have reaped wal-0 (two newer snapshots
              supersede it) but kept wal-1, the fallback's replay log *)
           Alcotest.(check bool) "wal-0 reaped" false (Sys.file_exists (wal_path dir 0));
           Alcotest.(check bool) "wal-1 kept" true (Sys.file_exists (wal_path dir 1));
           flip_byte (snap_path dir 2) (file_size (snap_path dir 2) / 2);
           let s, r = ok_exn "reopen" (Store.opendir ~config dir) in
           Alcotest.(check int) "fell back one generation" 1 r.Store.generation;
           Alcotest.(check bool) "previous snapshot" true (r.Store.snapshot = Some "S1");
           Alcotest.(check (list string))
             "replays that generation's records — exactly the state at checkpoint 2"
             [ "c"; "d" ] r.Store.wal_records;
           Store.close s));
    Alcotest.test_case "checkpoint clears a stale next-generation log" `Quick
      (in_dir (fun dir ->
           (* a previous life may have left wal-1 behind (fallback
              recovery ran from generation 0); its records are not part
              of snapshot 1 and must not resurface after the cut *)
           let s, _ = ok_exn "open" (Store.opendir ~config:(cfg ()) dir) in
           let stale, _ = ok_exn "stale wal" (Wal.openfile (wal_path dir 1)) in
           Wal.append stale "ghost from a previous life";
           Wal.close stale;
           Store.append s "real";
           ok_exn "checkpoint" (Store.checkpoint s "S1");
           Store.close s;
           let s, r = ok_exn "reopen" (Store.opendir ~config:(cfg ()) dir) in
           Alcotest.(check (list string)) "no ghost records" [] r.Store.wal_records;
           Alcotest.(check bool) "snapshot intact" true (r.Store.snapshot = Some "S1");
           Store.close s));
  ]

(* ----- Persist: the controller journal ----- *)

let policy_for users =
  Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

let mk_ctrl ?(users = [ 0; 1; 2 ]) ~site text =
  Controller.create ~eq:Char.equal ~site ~admin:0 ~policy:(policy_for users)
    (Tdoc.of_string text)

let fp c = Proto.fingerprint Proto.char_codec c

let open_journal ?(config = cfg ()) dir =
  Persist.opendir ~config ~eq:Char.equal ~codec:Proto.char_codec dir

let gen_accept c op =
  match Controller.generate c op with
  | c, Controller.Accepted m -> (c, m)
  | _, Controller.Denied e -> Alcotest.failf "edit denied: %s" e

let persist_tests =
  [
    Alcotest.test_case "a fresh store refuses records before the first checkpoint"
      `Quick
      (in_dir (fun dir ->
           let j, r = ok_exn "open" (open_journal dir) in
           Alcotest.(check bool) "no controller yet" true (r.Persist.controller = None);
           let c = mk_ctrl ~site:0 "ab" in
           let op = Tdoc.ins_visible (Controller.document c) 0 'x' in
           (match Persist.record j (Persist.Generated op) with
            | () -> Alcotest.fail "recorded onto a store with no base snapshot"
            | exception Invalid_argument _ -> ());
           ok_exn "checkpoint" (Persist.checkpoint j c);
           Persist.record j (Persist.Generated op);
           Persist.close j));
    Alcotest.test_case "log records without any snapshot refuse to open" `Quick
      (in_dir (fun dir ->
           (* not constructible through Persist (record is gated on the
              checkpoint) — build the broken layout with the raw store *)
           let s, _ = ok_exn "open raw" (Store.opendir dir) in
           Store.append s "orphan";
           Store.close s;
           match open_journal dir with
           | Error _ -> ()
           | Ok (j, _) ->
             Persist.close j;
             Alcotest.fail "opened a log that has no snapshot to replay onto"));
    Alcotest.test_case "replay is fingerprint-exact across all three record kinds"
      `Quick
      (in_dir (fun dir ->
           let j, _ = ok_exn "open" (open_journal dir) in
           let c0 = ref (mk_ctrl ~site:0 "base") in
           let c1 = ref (mk_ctrl ~site:1 "base") in
           ok_exn "checkpoint" (Persist.checkpoint j !c0);
           let live_emitted = ref [] in
           (* Generated: the administrator's own edit *)
           let op = Tdoc.ins_visible (Controller.document !c0) 0 'a' in
           let c, m = gen_accept !c0 op in
           c0 := c;
           Persist.record j (Persist.Generated op);
           live_emitted := !live_emitted @ [ m ];
           (* Admin_cmd: a restrictive authorization *)
           let aop =
             Admin_op.Add_auth
               (0, Auth.deny [ Subject.User 2 ] [ Docobj.Whole ] [ Right.Delete ])
           in
           (match Controller.admin_update !c0 aop with
            | Ok (c, m) ->
              c0 := c;
              Persist.record j (Persist.Admin_cmd aop);
              live_emitted := !live_emitted @ [ m ]
            | Error e -> Alcotest.failf "admin_update: %s" e);
           (* Received: another site's edit, which the administrator
              validates on arrival *)
           let op1 = Tdoc.ins_visible (Controller.document !c1) 0 'b' in
           let c, m1 = gen_accept !c1 op1 in
           c1 := c;
           let c, out = Controller.receive !c0 m1 in
           c0 := c;
           Persist.record j (Persist.Received m1);
           live_emitted := !live_emitted @ out;
           Alcotest.(check bool) "the arrival was validated" true (out <> []);
           let live = fp !c0 in
           Persist.close j;
           let j, r = ok_exn "reopen" (open_journal dir) in
           (match r.Persist.controller with
            | None -> Alcotest.fail "no controller recovered"
            | Some c -> Alcotest.(check string) "exact replay" live (fp c));
           Alcotest.(check int) "all records replayed" 3 r.Persist.replayed;
           let enc = List.map (Proto.encode_message Proto.char_codec) in
           Alcotest.(check (list string))
             "replay re-emits the live broadcasts, in order"
             (enc !live_emitted)
             (enc r.Persist.emitted);
           Persist.close j));
    Alcotest.test_case
      "checkpoint cadence prunes generations; a corrupt snapshot costs nothing" `Quick
      (in_dir (fun dir ->
           let config = cfg ~snapshot_every:2 () in
           let j, _ = ok_exn "open" (open_journal ~config dir) in
           let c0 = ref (mk_ctrl ~site:0 "") in
           ok_exn "checkpoint" (Persist.checkpoint j !c0);
           for _ = 1 to 2 do
             for _ = 1 to 2 do
               let op =
                 Tdoc.ins_visible (Controller.document !c0)
                   (Tdoc.visible_length (Controller.document !c0))
                   'k'
               in
               let c, _m = gen_accept !c0 op in
               c0 := c;
               Persist.record j (Persist.Generated op)
             done;
             Alcotest.(check bool)
               "cadence reached" true
               (ok_exn "maybe" (Persist.maybe_checkpoint j !c0))
           done;
           Alcotest.(check int) "three generations cut" 3 (Persist.generation j);
           Alcotest.(check (list int))
             "only two snapshots retained" [ 2; 3 ] (Snapshot.generations ~dir ());
           Alcotest.(check bool) "wal-1 reaped" false (Sys.file_exists (wal_path dir 1));
           let live = fp !c0 in
           Persist.close j;
           (* kill the newest snapshot: recovery must fall back to
              snapshot 2 plus wal-2 — whose records end exactly where
              snapshot 3 was cut, so the state is still bit-identical *)
           flip_byte (snap_path dir 3) (file_size (snap_path dir 3) / 2);
           let j, r = ok_exn "reopen" (open_journal ~config dir) in
           Alcotest.(check int) "fell back a generation" 2 (Persist.generation j);
           Alcotest.(check int) "replayed that generation's log" 2 r.Persist.replayed;
           (match r.Persist.controller with
            | None -> Alcotest.fail "no controller recovered"
            | Some c ->
              Alcotest.(check string) "fallback is still exact" live (fp c));
           Persist.close j));
  ]

(* ----- recovery: the end-to-end properties ----- *)

(* Deterministic pseudo-random session driver shared by the property
   tests: one admin site (journaled) and one plain peer, messages held
   in explicit queues so a test controls exactly what is in flight. *)
let letter k = Char.chr (Char.code 'a' + (k mod 26))

let random_op rand c =
  let doc = Controller.document c in
  let n = Tdoc.visible_length doc in
  if n = 0 then Tdoc.ins_visible doc 0 (letter (rand 26))
  else
    match rand 10 with
    | 0 | 1 | 2 -> Tdoc.del_visible doc (rand n)
    | 3 | 4 -> Tdoc.up_visible doc (rand n) (Char.uppercase_ascii (letter (rand 26)))
    | _ -> Tdoc.ins_visible doc (rand (n + 1)) (letter (rand 26))

let crash_replay_runs (seed, events) =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = cfg ~fsync:Wal.Never ~snapshot_every:7 () in
  let rng = ref (Rng.of_int seed) in
  let rand n =
    let v, r = Rng.int !rng n in
    rng := r;
    v
  in
  let j, r0 = ok_exn "open" (open_journal ~config dir) in
  if r0.Persist.controller <> None then Alcotest.fail "fresh store not empty";
  let c0 = ref (mk_ctrl ~users:[ 0; 1 ] ~site:0 "seed") in
  let c1 = ref (mk_ctrl ~users:[ 0; 1 ] ~site:1 "seed") in
  ok_exn "checkpoint" (Persist.checkpoint j !c0);
  let to0 = Queue.create () and to1 = Queue.create () in
  let step () =
    match rand 5 with
    | 0 | 1 ->
      let op = random_op rand !c0 in
      (match Controller.generate !c0 op with
       | c, Controller.Accepted m ->
         c0 := c;
         Persist.record j (Persist.Generated op);
         Queue.add m to1
       | c, Controller.Denied _ -> c0 := c)
    | 2 ->
      let op = random_op rand !c1 in
      (match Controller.generate !c1 op with
       | c, Controller.Accepted m ->
         c1 := c;
         Queue.add m to0
       | c, Controller.Denied _ -> c1 := c)
    | 3 ->
      let negatives =
        Controller.policy !c0 |> Policy.auths
        |> List.mapi (fun i a -> (i, a))
        |> List.filter (fun (_, a) -> Auth.is_restrictive a)
      in
      let aop =
        if negatives = [] || rand 10 < 6 then
          Admin_op.Add_auth
            ( 0,
              Auth.deny [ Subject.User 1 ] [ Docobj.Whole ]
                [ List.nth [ Right.Insert; Right.Delete; Right.Update ] (rand 3) ] )
        else
          let i, _ = List.nth negatives (rand (List.length negatives)) in
          Admin_op.Del_auth i
      in
      (match Controller.admin_update !c0 aop with
       | Ok (c, m) ->
         c0 := c;
         Persist.record j (Persist.Admin_cmd aop);
         Queue.add m to1
       | Error _ -> ())
    | _ ->
      if not (Queue.is_empty to0) then begin
        let m = Queue.take to0 in
        let c, out = Controller.receive !c0 m in
        c0 := c;
        Persist.record j (Persist.Received m);
        List.iter (fun m -> Queue.add m to1) out
      end
      else if not (Queue.is_empty to1) then begin
        let m = Queue.take to1 in
        let c, out = Controller.receive !c1 m in
        c1 := c;
        List.iter (fun m -> Queue.add m to0) out
      end
  in
  for _ = 1 to events do
    step ();
    ignore (ok_exn "maybe_checkpoint" (Persist.maybe_checkpoint j !c0))
  done;
  let live = fp !c0 in
  Persist.close j;
  let j, r = ok_exn "reopen" (open_journal ~config dir) in
  Persist.close j;
  match r.Persist.controller with
  | None -> false
  | Some c -> fp c = live

let recovery_tests =
  [
    qtest "crash at any point, reopen, fingerprint-identical state" ~count:40
      QCheck2.Gen.(pair (int_bound 99999) (int_bound 45))
      (fun (seed, events) -> Printf.sprintf "seed %d, crash after %d events" seed events)
      crash_replay_runs;
    Alcotest.test_case "torn-tail recovery plus catch-up reconverges the group" `Quick
      (in_dir (fun dir ->
           let config = cfg ~snapshot_every:100 () in
           let j = ref (fst (ok_exn "open" (open_journal ~config dir))) in
           let sites =
             [| ref (mk_ctrl ~site:0 "base");
                ref (mk_ctrl ~site:1 "base");
                ref (mk_ctrl ~site:2 "base")
             |]
           in
           ok_exn "checkpoint" (Persist.checkpoint !j !(sites.(2)));
           (* immediate full-mesh propagation, journaling site 2 *)
           let rec bcast ~from msgs =
             List.iter
               (fun m ->
                 Array.iteri
                   (fun i c ->
                     if i <> from then begin
                       let c', out = Controller.receive !c m in
                       c := c';
                       if i = 2 then Persist.record !j (Persist.Received m);
                       bcast ~from:i out
                     end)
                   sites)
               msgs
           in
           let edit i ch =
             let c = sites.(i) in
             let op = Tdoc.ins_visible (Controller.document !c) 0 ch in
             let c', m = gen_accept !c op in
             c := c';
             if i = 2 then Persist.record !j (Persist.Generated op);
             bcast ~from:i [ m ]
           in
           edit 2 'x';
           edit 0 'y';
           edit 1 'z';
           edit 2 'w';
           Alcotest.(check bool)
             "session converged before the crash" true
             (Convergence.ok (Convergence.check (List.map ( ! ) (Array.to_list sites))));
           (* kill -9 site 2 and tear its log the way a crash would *)
           let gen = Persist.generation !j in
           Persist.close !j;
           truncate_by (wal_path dir gen) 7;
           let j2, r = ok_exn "reopen torn" (open_journal ~config dir) in
           j := j2;
           Alcotest.(check bool) "tail was dropped" true (r.Persist.truncated_bytes > 0);
           let victim =
             match r.Persist.controller with
             | Some c -> c
             | None -> Alcotest.fail "recovery lost the controller entirely"
           in
           (* reconnect: catch up from a donor that has seen everything,
              then let the returned re-broadcasts settle *)
           let caught, out = Controller.catch_up victim !(sites.(0)) in
           sites.(2) := caught;
           ok_exn "post-catch-up checkpoint" (Persist.checkpoint !j caught);
           bcast ~from:2 out;
           let all = List.map ( ! ) (Array.to_list sites) in
           let report = Convergence.check all in
           if not (Convergence.ok report) then
             Alcotest.failf "recovered session diverged:@.%a@.%a" Convergence.pp report
               Convergence.pp_diff all;
           Persist.close !j));
    Alcotest.test_case
      "donor compacted past a resurrected joiner: full-snapshot fallback converges"
      `Quick
      (in_dir (fun dir ->
           let module Vclock = Dce_ot.Vclock in
           (* Site 2 checkpoints early, then keeps editing without its
              journal seeing any of it (a crash that loses the WAL tail).
              The survivors exchange stability beacons and compact past
              that stale cut; the resurrected site must then be served by
              the degraded catch-up path — adopt the donor's snapshot,
              re-feed its own unacked work — and still converge. *)
           let j = ref (fst (ok_exn "open" (open_journal dir))) in
           let c0 = ref (mk_ctrl ~site:0 "base") in
           let c1 = ref (mk_ctrl ~site:1 "base") in
           let c2 = ref (mk_ctrl ~site:2 "base") in
           let all = [ (0, c0); (1, c1); (2, c2) ] in
           let rec bcast ~from msgs =
             List.iter
               (fun m ->
                 List.iter
                   (fun (i, c) ->
                     if i <> from then begin
                       let c', out = Controller.receive !c m in
                       c := c';
                       bcast ~from:i out
                     end)
                   all)
               msgs
           in
           let edit i ch =
             let c = List.assoc i all in
             let c', m = gen_accept !c (Tdoc.ins_visible (Controller.document !c) 0 ch) in
             c := c';
             bcast ~from:i [ m ]
           in
           (* the durable cut: site 2 has seen nothing yet *)
           ok_exn "early checkpoint" (Persist.checkpoint !j !c2);
           edit 2 'x';
           edit 0 'y';
           edit 1 'z';
           edit 2 'w';
           (* survivors absorb everyone's beacons (site 2 was still up
              when it last beaconed) and compact: the session is
              quiescent, so the frontier reaches the full clock *)
           List.iter
             (fun (i, c) ->
               List.iter
                 (fun (p, pc) ->
                   if p <> i then
                     let clock, version = Controller.beacon !pc in
                     c := Controller.receive_beacon !c ~peer:p ~clock ~version)
                 all;
               c := Controller.compact !c)
             all;
           Alcotest.(check int) "donor window emptied" 0 (Controller.window_len !c0);
           (* kill -9 site 2; resurrect it from the stale journal *)
           Persist.close !j;
           let j2, r = ok_exn "reopen" (open_journal dir) in
           j := j2;
           let victim =
             match r.Persist.controller with
             | Some c -> c
             | None -> Alcotest.fail "no controller recovered"
           in
           Alcotest.(check string) "resurrected state predates everything" "base"
             (Tdoc.visible_string (Controller.document victim));
           Alcotest.(check bool) "donor really compacted past the joiner" false
             (Vclock.leq (Controller.compacted_upto !c0) (Controller.clock victim));
           (* catch up from the compacted donor: the suffix it would need
              is gone, so the fallback adopts the donor's full state *)
           let caught, out = Controller.catch_up victim !c0 in
           c2 := caught;
           ok_exn "post-fallback checkpoint" (Persist.checkpoint !j caught);
           bcast ~from:2 out;
           let final = [ !c0; !c1; !c2 ] in
           let report = Convergence.check final in
           if not (Convergence.ok report) then
             Alcotest.failf "fallback diverged:@.%a@.%a" Convergence.pp report
               Convergence.pp_diff final;
           Alcotest.(check string) "document adopted"
             (Tdoc.visible_string (Controller.document !c0))
             (Tdoc.visible_string (Controller.document !c2));
           Persist.close !j));
    Alcotest.test_case "checkpoint_clock tracks the durable cut" `Quick
      (in_dir (fun dir ->
           let j, r = ok_exn "open" (open_journal dir) in
           Alcotest.(check bool) "fresh store has no durable cut" true
             (r.Persist.controller = None && Persist.checkpoint_clock j = None);
           let c = mk_ctrl ~site:2 "ab" in
           ok_exn "checkpoint" (Persist.checkpoint j c);
           Alcotest.(check bool) "cut is the snapshot clock" true
             (Persist.checkpoint_clock j = Some (Controller.clock c));
           let c', _ = gen_accept c (Tdoc.ins_visible (Controller.document c) 0 'k') in
           ok_exn "checkpoint 2" (Persist.checkpoint j c');
           Alcotest.(check bool) "cut advances with the snapshot" true
             (Persist.checkpoint_clock j = Some (Controller.clock c'));
           Persist.close j;
           (* reopen: the cut is the recovered snapshot's clock, before
              WAL replay *)
           let j, _ = ok_exn "reopen" (open_journal dir) in
           Alcotest.(check bool) "cut survives reopen" true
             (Persist.checkpoint_clock j = Some (Controller.clock c'));
           Persist.close j));
    Alcotest.test_case "rejoin loses the unsent edit; the journal does not" `Quick
      (in_dir (fun dir ->
           let j, _ = ok_exn "open" (open_journal dir) in
           let c0 = ref (mk_ctrl ~site:0 "ab") in
           let c2 = ref (mk_ctrl ~site:2 "ab") in
           ok_exn "checkpoint" (Persist.checkpoint j !c2);
           (* site 2 types 'Z'; the process dies before the message
              reaches the wire *)
           let op = Tdoc.ins_visible (Controller.document !c2) 0 'Z' in
           let c, _unsent = gen_accept !c2 op in
           c2 := c;
           Persist.record j (Persist.Generated op);
           (* the documented snapshot-rejoin path: bootstrap from the
              donor's state — the tentative edit is simply gone *)
           let rejoined = Controller.rejoin ~site:2 !c0 in
           Alcotest.(check string)
             "rejoin forgets the edit" "ab"
             (Tdoc.visible_string (Controller.document rejoined));
           Alcotest.(check int)
             "nothing tentative survives rejoin" 0
             (List.length (Controller.tentative rejoined));
           (* the durable path: replay the journal, catch up, and the
              request goes back onto the wire *)
           Persist.close j;
           let j, r = ok_exn "reopen" (open_journal dir) in
           let recovered =
             match r.Persist.controller with
             | Some c -> c
             | None -> Alcotest.fail "no controller recovered"
           in
           Alcotest.(check string)
             "the journal remembers" "Zab"
             (Tdoc.visible_string (Controller.document recovered));
           Alcotest.(check bool)
             "replay re-emits the unsent request" true (r.Persist.emitted <> []);
           let caught, out = Controller.catch_up recovered !c0 in
           Alcotest.(check bool) "catch-up re-broadcasts it" true (out <> []);
           let validations =
             List.concat_map
               (fun m ->
                 let c, o = Controller.receive !c0 m in
                 c0 := c;
                 o)
               out
           in
           let caught =
             List.fold_left (fun c m -> fst (Controller.receive c m)) caught validations
           in
           Alcotest.(check string)
             "the edit reaches the donor" "Zab"
             (Tdoc.visible_string (Controller.document !c0));
           let report = Convergence.check [ !c0; caught ] in
           if not (Convergence.ok report) then
             Alcotest.failf "catch-up path diverged:@.%a" Convergence.pp report;
           Persist.close j));
  ]

(* ----- Persist.compact: checkpoint-then-clamp ----- *)

module Vclock = Dce_ot.Vclock
module Io = Dce_store.Io

(* Two users: the administrator (site 0) edits and site 1 acknowledges
   with a beacon, so everything generated so far is stable at site 0 —
   an administrator's requests are born valid, so that prefix is
   droppable. *)
let edit_acked (c0, c1) ch =
  let c0, m = gen_accept c0 (Tdoc.ins_visible (Controller.document c0) 0 ch) in
  let c1, _ = Controller.receive c1 m in
  let clock, version = Controller.beacon c1 in
  (Controller.receive_beacon c0 ~peer:1 ~clock ~version, c1)

let pair () = (mk_ctrl ~users:[ 0; 1 ] ~site:0 "ab", mk_ctrl ~users:[ 0; 1 ] ~site:1 "ab")

let mem_journal world =
  fst
    (ok_exn "open"
       (Persist.opendir ~io:(Io.Mem.io world) ~eq:Char.equal ~codec:Proto.char_codec "j"))

let compacted c = Vclock.sum (Controller.compacted_upto c)

let compact_tests =
  [
    Alcotest.test_case "a cut fresh enough compacts without a checkpoint" `Quick (fun () ->
        let j = mem_journal (Io.Mem.create ()) in
        let c, _ = edit_acked (edit_acked (pair ()) 'x') 'y' in
        ok_exn "checkpoint" (Persist.checkpoint j c);
        let gen = Persist.generation j in
        let c', taken = Persist.compact j c in
        Alcotest.(check bool) "no checkpoint needed" true (taken = Ok false);
        Alcotest.(check int) "no new generation" gen (Persist.generation j);
        Alcotest.(check int) "both edits compacted" 2 (compacted c'));
    Alcotest.test_case "a frontier past the cut checkpoints first" `Quick (fun () ->
        let j = mem_journal (Io.Mem.create ()) in
        let c, c1 = pair () in
        ok_exn "checkpoint" (Persist.checkpoint j c);
        let c, _ = edit_acked (edit_acked (c, c1) 'x') 'y' in
        let gen = Persist.generation j in
        let c', taken = Persist.compact j c in
        Alcotest.(check bool) "a checkpoint was cut" true (taken = Ok true);
        Alcotest.(check int) "one new generation" (gen + 1) (Persist.generation j);
        Alcotest.(check bool) "the cut is the compacted state's clock" true
          (Persist.checkpoint_clock j = Some (Controller.clock c));
        Alcotest.(check int) "both edits compacted" 2 (compacted c'));
    Alcotest.test_case "a failed checkpoint clamps to the old cut" `Quick (fun () ->
        let world = Io.Mem.create () in
        let j = mem_journal world in
        let c, c1 = edit_acked (pair ()) 'x' in
        ok_exn "checkpoint" (Persist.checkpoint j c);
        let cut = Controller.clock c in
        let c, _ = edit_acked (c, c1) 'y' in
        (Io.Mem.faults world).Io.Mem.fail_atomic_write_after <- 1;
        let c', taken = Persist.compact j c in
        Alcotest.(check bool) "the error is reported" true (Result.is_error taken);
        Alcotest.(check bool) "the durable cut is unchanged" true
          (Persist.checkpoint_clock j = Some cut);
        Alcotest.(check bool) "compaction stayed within it" true
          (Vclock.leq (Controller.compacted_upto c') cut);
        Alcotest.(check int) "up to it, not past" 1 (compacted c'));
    Alcotest.test_case "no snapshot, no compaction" `Quick (fun () ->
        let world = Io.Mem.create () in
        let j = mem_journal world in
        let c, _ = edit_acked (pair ()) 'x' in
        (Io.Mem.faults world).Io.Mem.fail_atomic_write_after <- 1;
        let c', taken = Persist.compact j c in
        Alcotest.(check bool) "the error is reported" true (Result.is_error taken);
        Alcotest.(check bool) "still no durable cut" true (Persist.checkpoint_clock j = None);
        Alcotest.(check bool) "the controller is returned untouched" true (c' == c));
  ]

let () =
  Alcotest.run "dce_store"
    [
      ("wal", wal_tests);
      ("wal-adversarial", wal_adversarial_tests);
      ("snapshot", snapshot_tests);
      ("store", store_tests);
      ("persist", persist_tests);
      ("recovery", recovery_tests);
      ("compact", compact_tests);
    ]
