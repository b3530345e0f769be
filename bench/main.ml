(* Benchmark harness: regenerates every evaluation artifact of the paper
   (see DESIGN.md §5 for the experiment index).

   E6  Fig. 7        — t1/t2/t1+t2 vs |H| at 0%/50%/100% insertions, and
                       Canonize beside the list log's transposition walk
   E7  Fig. 7 (cmp)  — ours vs the SDT-like and ABT-like baselines
   E8  §5.2          — asymptotic scaling checks (incl. Undo O(|H|²))
   E9  §1 motivation — optimistic vs central-lock responsiveness
   E10 ablation      — security-hole rates with each mechanism disabled

   Run everything: dune exec bench/main.exe
   Run one section: dune exec bench/main.exe -- fig7 *)

open Dce_ot
open Dce_core
module C = Controller
module Obs = Dce_obs

let adm = 0
let user = 1
let bystander = 98
let remote = 99

(* Telemetry (--metrics / --trace FILE, parsed in [main]).  The registry
   starts disabled and the sink null, so an uninstrumented run pays one
   branch per decision point — the property the <5% overhead criterion
   in DESIGN.md leans on.

   A bench trace concatenates every sim run of the selected sections
   into one stream; that is fine for timelines and metric tables, but
   bin/trace.exe's causality audit assumes a single session, so run it
   on single-run traces (replay --seed N) rather than on multi-run
   sections like ablation. *)

let metrics = Obs.Metrics.create ~enabled:false ()
let sink = ref Obs.Trace.null

(* A second, always-enabled registry feeding the machine-readable
   BENCH_<section>.json artifacts, so the perf trajectory is tracked
   across revisions without opting into --metrics.  It only receives
   observations from the bench harness itself (t1/t2 timings, netd
   transport metrics), never from inside the measured controllers, so
   it cannot perturb what is being measured. *)
let bench_metrics = Obs.Metrics.create ()

let json_of_summary (s : Obs.Metrics.summary) =
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int s.count);
      ("sum", Obs.Json.Int s.sum);
      ("min", Obs.Json.Int s.min);
      ("max", Obs.Json.Int s.max);
      ("median", Obs.Json.Float s.p50);
      ("p95", Obs.Json.Float s.p95);
      ("p99", Obs.Json.Float s.p99);
    ]

(* Write BENCH_<section>.json from whatever the section observed into
   [bench_metrics], then clear the registry for the next section. *)
let write_bench_json section =
  let hists =
    List.filter (fun (_, (s : Obs.Metrics.summary)) -> s.count > 0)
      (Obs.Metrics.histograms bench_metrics)
  in
  let counters =
    List.filter (fun (_, v) -> v > 0) (Obs.Metrics.counters bench_metrics)
  in
  (if hists <> [] || counters <> [] then begin
     let file = Printf.sprintf "BENCH_%s.json" section in
     let json =
       Obs.Json.Obj
         [
           ("section", Obs.Json.String section);
           ("counters", Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Int v)) counters));
           ( "histograms",
             Obs.Json.Obj (List.map (fun (n, s) -> (n, json_of_summary s)) hists) );
         ]
     in
     let oc = open_out file in
     output_string oc (Obs.Json.to_string json);
     output_char oc '\n';
     close_out oc;
     Printf.printf "wrote %s\n" file
   end);
  Obs.Metrics.reset bench_metrics

(* ----- timing helpers (wall clock) ----- *)

let now = Unix.gettimeofday

let time_once f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  (now () -. t0) *. 1_000. (* ms *)

let median_ms ?(reps = 5) ?hist f =
  let xs =
    List.init reps (fun _ ->
        let ms = time_once f in
        (match hist with
         | Some h -> Obs.Metrics.observe h (int_of_float (ms *. 1e6))
         | None -> ());
        ms)
  in
  List.nth (List.sort compare xs) (reps / 2)

(* min over reps: the stable estimator for a single-point ratio — a GC
   pause or a scheduling blip inflates the median of a small sample but
   never deflates the min *)
let min_ms ?(reps = 5) f =
  List.fold_left Float.min Float.infinity (List.init reps (fun _ -> time_once f))

let budget_ms = 100.

let flag ms = if ms <= budget_ms then " " else "*"

(* ----- deterministic op streams ----- *)

let rng = ref (Dce_sim.Rng.of_int 2009)

let rand n =
  let x, r = Dce_sim.Rng.int !rng n in
  rng := r;
  x

let letter () = Char.chr (97 + rand 26)

(* a random operation in visible coordinates, honouring the mix *)
let random_op ~ins_pct doc =
  let n = Tdoc.visible_length doc in
  if n = 0 || rand 100 < ins_pct then Tdoc.ins_visible doc (rand (n + 1)) (letter ())
  else if rand 2 = 0 then Tdoc.del_visible doc (rand n)
  else Tdoc.up_visible doc (rand n) (Char.uppercase_ascii (letter ()))

(* ----- the measured site -----

   A session state shaped like the paper's experiment: a policy with
   redundant authorizations (the paper: "we suppose that the policy is
   not optimized"), an administrative log with irrelevant grants and
   revocations (so remote checks really scan L), and a cooperative log
   of |H| requests with the requested insertion percentage. *)

let base_policy =
  let redundant =
    List.concat
      (List.init 12 (fun _ ->
           [
             Auth.grant [ Subject.User bystander ] [ Docobj.Whole ] [ Right.Update ];
             Auth.grant [ Subject.User bystander ] [ Docobj.zone 0 10 ] [ Right.Delete ];
           ]))
  in
  Policy.make
    ~users:[ adm; user; bystander; remote ]
    (redundant @ [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ])

let initial_text = String.init 12_000 (fun i -> Char.chr (97 + (i mod 26)))

(* admin traffic that loads L without concerning [user] or [remote] *)
let admin_noise = 40

let loaded_admin_requests () =
  let a =
    C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy:base_policy
      (Tdoc.of_string initial_text)
  in
  let rec go a acc i =
    if i = admin_noise then List.rev acc
    else
      let op =
        if i mod 2 = 0 then
          Admin_op.Add_auth
            (0, Auth.grant [ Subject.User bystander ] [ Docobj.Whole ] [ Right.Insert ])
        else
          Admin_op.Add_auth
            (0, Auth.deny [ Subject.User bystander ] [ Docobj.Whole ] [ Right.Insert ])
      in
      match C.admin_update a op with
      | Ok (a, m) -> go a (m :: acc) (i + 1)
      | Error e -> failwith e
  in
  go a [] 0

(* Build [user]'s controller with measurement snapshots at each |H|
   checkpoint. *)
let build_site ~ins_pct ~checkpoints =
  let c =
    C.create ~eq:Char.equal ~site:user ~admin:adm ~policy:base_policy ~trace:!sink
      (Tdoc.of_string initial_text)
  in
  let c = List.fold_left (fun c m -> fst (C.receive c m)) c (loaded_admin_requests ()) in
  let max_size = List.fold_left max 0 checkpoints in
  let snapshots = ref [] in
  let rec go c i =
    if List.mem i checkpoints then snapshots := (i, c) :: !snapshots;
    if i >= max_size then ()
    else
      let op = random_op ~ins_pct (C.document c) in
      match C.generate c op with
      | c, C.Accepted _ -> go c (i + 1)
      | _, C.Denied r -> failwith ("bench build: denied: " ^ r)
  in
  go c 0;
  List.rev !snapshots

(* the remote insert request whose processing Fig. 7 measures: concurrent
   with the receiver's whole log *)
let remote_insert serial =
  Request.make ~site:remote ~serial ~op:(Op.ins ~pr:remote 0 'z') ~ctx:Vclock.empty
    ~policy_version:0 ~flag:Request.Tentative ()

let h_t1 = Obs.Metrics.histogram bench_metrics "bench.t1_ns"
let h_t2 = Obs.Metrics.histogram bench_metrics "bench.t2_ns"

let measure_t1 c =
  median_ms ~hist:h_t1 (fun () ->
      match C.generate c (Tdoc.ins_visible (C.document c) 0 'z') with
      | _, C.Accepted _ -> ()
      | _, C.Denied r -> failwith r)

let measure_t2 c = median_ms ~hist:h_t2 (fun () -> C.receive c (C.Coop (remote_insert 1)))

(* ----- core: engine scaling baseline -----

   The perf trajectory of the replication engine itself: local
   generation, remote integration, retroactive undo and snapshot
   encode/decode on documents of n model cells under logs of |H|
   requests.  Every (n, |H|) point lands in BENCH_core.json as a
   latency histogram plus an ops/s counter keyed by the point, so later
   perf PRs diff against this baseline point-by-point.

   The n=100k integration point is additionally measured against the
   pre-stat-tree reference implementation (Tdoc_ref: flat cell array,
   O(n) apply; the log side replays the old whole-log transform fold).
   Both sides run in the same process in the same run, so the resulting
   core.integrate_speedup_n100k_x counter is machine-portable — CI
   gates on it rather than on raw nanoseconds. *)

let core_policy =
  Policy.make
    ~users:[ adm; user; remote ]
    [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

(* a site over an n-cell document with |H| = h random local edits:
   tentative at [user], which is not the administrator, and born valid
   at [adm] *)
let build_core_site ~site ~n ~h =
  let text = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
  let c =
    C.create ~eq:Char.equal ~site ~admin:adm ~policy:core_policy (Tdoc.of_string text)
  in
  let rec go c i =
    if i = h then c
    else
      match C.generate c (random_op ~ins_pct:50 (C.document c)) with
      | c, C.Accepted _ -> go c (i + 1)
      | _, C.Denied r -> failwith ("core bench build: denied: " ^ r)
  in
  go c 0

let size_label n =
  if n >= 1000 && n mod 1000 = 0 then string_of_int (n / 1000) ^ "k"
  else string_of_int n

let core_point ~n ~h c =
  let point = Printf.sprintf "n%s_h%s" (size_label n) (size_label h) in
  let hist what = Obs.Metrics.histogram bench_metrics
      (Printf.sprintf "core.%s_ns.%s" what point)
  in
  let per_s what ms =
    Obs.Metrics.add
      (Obs.Metrics.counter bench_metrics (Printf.sprintf "core.%s_per_s.%s" what point))
      (int_of_float (1000. /. Float.max ms 1e-9))
  in
  let t_gen =
    median_ms ~hist:(hist "generate") (fun () ->
        match C.generate c (Tdoc.ins_visible (C.document c) 0 'z') with
        | _, C.Accepted _ -> ()
        | _, C.Denied r -> failwith r)
  in
  per_s "generate" t_gen;
  let t_recv =
    median_ms ~hist:(hist "integrate") (fun () ->
        ignore (C.receive c (C.Coop (remote_insert 1))))
  in
  per_s "integrate" t_recv;
  (* retroactively cancel the most recent request, document effect
     included (what one enforce step per request costs) *)
  let last_id = { Request.site = user; serial = h } in
  let t_undo =
    median_ms ~hist:(hist "undo") (fun () ->
        match Oplog.undo ~cancel_version:1 last_id (C.oplog c) with
        | Some (op, _) -> ignore (Tdoc.apply ~eq:Char.equal (C.document c) op)
        | None -> failwith "core bench: undo target missing")
  in
  per_s "undo" t_undo;
  let blob = Dce_wire.Proto.Char_proto.encode_state (C.dump c) in
  let t_enc =
    median_ms ~hist:(hist "snapshot_encode") (fun () ->
        ignore (Dce_wire.Proto.Char_proto.encode_state (C.dump c)))
  in
  per_s "snapshot_encode" t_enc;
  let t_dec =
    median_ms ~hist:(hist "snapshot_decode") (fun () ->
        match Dce_wire.Proto.Char_proto.decode_state blob with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  per_s "snapshot_decode" t_dec;
  (* the join side: decoding and then loading, where the document is
     rebuilt from its cells *)
  let t_load =
    median_ms ~hist:(hist "snapshot_load") (fun () ->
        match Dce_wire.Proto.Char_proto.decode_state blob with
        | Error e -> failwith e
        | Ok st -> (
          match C.load ~eq:Char.equal st with Ok _ -> () | Error e -> failwith e))
  in
  per_s "snapshot_load" t_load;
  Printf.printf "%8s %8s %11.4f %11.4f %11.4f %11.3f %11.3f %11.3f\n" (size_label n)
    (size_label h) t_gen t_recv t_undo t_enc t_dec t_load

(* new stack vs the pre-change representation, same run: integrate one
   remote insert at n=100k.  The reference side replays the old code
   path's dominant work — transform against the whole log (the old
   separation moves nothing for an empty-context request), then an O(n)
   array-copying document apply. *)
let core_speedup c =
  let q = remote_insert 1 in
  let arr = Tdoc_ref.of_tdoc (C.document c) in
  let log_ops = Oplog.ops (C.oplog c) in
  (* both sides measured from the same freshly compacted heap, so the
     ratio does not depend on what the surrounding points allocated *)
  Gc.compact ();
  let t_new = min_ms ~reps:15 (fun () -> ignore (C.receive c (C.Coop q))) in
  let t_ref =
    min_ms ~reps:15 (fun () ->
        let op =
          List.fold_left (fun op o -> Transform.it op o) q.Request.op log_ops
        in
        ignore (Tdoc_ref.apply ~eq:Char.equal arr op))
  in
  let speedup = t_ref /. Float.max t_new 1e-9 in
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics k) v in
  put "core.integrate_new_ns_n100k" (int_of_float (t_new *. 1e6));
  put "core.integrate_ref_ns_n100k" (int_of_float (t_ref *. 1e6));
  put "core.integrate_speedup_n100k_x" (int_of_float speedup);
  Printf.printf
    "integrate @ n=100k: new %.4f ms, array/list reference %.3f ms  (%.0fx)\n"
    t_new t_ref speedup

(* ----- steady state: the stability protocol flattening the |H| cliff -----

   A two-site session where the peer beacons its delivery clock back and
   the measured site compacts every [steady_compact_every] generations —
   the regime the live beacon protocol creates for every session.  Total
   history |H| keeps growing, the live window does not, so generation
   cost must stay flat: the gate requires the |H|=10k point to hold at
   least half of the |H|=100 throughput at the same n.  (The
   never-compacted baseline above collapses by ~300x between the same
   two points.) *)

let steady_compact_every = 100

(* only the two live participants: a registered user that never sends
   traffic nor a beacon pins the stability frontier at zero, which is
   exactly the cliff the beacon protocol removes for LIVE groups *)
let steady_policy =
  Policy.make ~users:[ adm; user ]
    [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

let build_steady_site ~n ~h =
  let text = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
  let mk site =
    C.create ~eq:Char.equal ~site ~admin:adm ~policy:steady_policy
      (Tdoc.of_string text)
  in
  (* the measured site is the administrator: its requests are born
     valid, so the stable prefix is actually droppable (a tentative
     backlog stays pinned until validation no matter what the frontier
     says) *)
  let a = ref (mk adm) in
  let b = ref (mk user) in
  for i = 1 to h do
    (match C.generate !a (random_op ~ins_pct:50 (C.document !a)) with
     | a', C.Accepted m ->
       a := a';
       b := fst (C.receive !b m)
     | _, C.Denied r -> failwith ("steady bench build: denied: " ^ r));
    if i mod steady_compact_every = 0 then begin
      let clock, version = C.beacon !b in
      a := C.compact (C.receive_beacon !a ~peer:user ~clock ~version);
      let clock, version = C.beacon !a in
      b := C.compact (C.receive_beacon !b ~peer:adm ~clock ~version)
    end
  done;
  !a

(* One timed batch of a call: at least 10 ms on the monotonic ns clock,
   in rounds of 100 calls between clock reads, so timer resolution and a
   stray GC slice are noise next to it.  Returns the per-call ns. *)
let batch_ns f =
  let t0 = Obs.Clock.now_ns () in
  let iters = ref 0 in
  while Obs.Clock.now_ns () - t0 < 10_000_000 do
    for _ = 1 to 100 do
      f ()
    done;
    iters := !iters + 100
  done;
  max 1 ((Obs.Clock.now_ns () - t0) / !iters)

let run_steady () =
  Printf.printf
    "== core: steady state under the stability protocol (compact every %d) ==\n"
    steady_compact_every;
  Printf.printf "%8s %8s %11s %11s %9s\n" "n" "|H|" "gen(ns)" "gen/s" "window";
  let points = [ (1_000, 100); (1_000, 10_000); (100_000, 100); (100_000, 10_000) ] in
  let sites = List.map (fun (n, h) -> build_steady_site ~n ~h) points in
  let label (n, h) = Printf.sprintf "n%s_h%s" (size_label n) (size_label h) in
  let hists =
    List.map
      (fun p -> Obs.Metrics.histogram bench_metrics ("core.steady_generate_ns." ^ label p))
      points
  in
  (* Rounds interleave the points, one batch each, and each point keeps
     its best batch (same rationale as [min_ms]): a slow spell on a
     shared CPU outlasts one point's batches, and interleaving spreads it
     over every point instead of skewing the |H| ratio gated in CI. *)
  let best = Array.make (List.length points) max_int in
  for _ = 1 to 5 do
    List.iteri
      (fun i (c, hist) ->
        let ns =
          batch_ns (fun () ->
              match C.generate c (Tdoc.ins_visible (C.document c) 0 'z') with
              | _, C.Accepted _ -> ()
              | _, C.Denied r -> failwith r)
        in
        Obs.Metrics.observe hist ns;
        best.(i) <- min best.(i) ns)
      (List.combine sites hists)
  done;
  let rates =
    List.mapi
      (fun i ((n, h), c) ->
        let per_s = 1_000_000_000 / best.(i) in
        Obs.Metrics.add
          (Obs.Metrics.counter bench_metrics ("core.steady_generate_per_s." ^ label (n, h)))
          per_s;
        Printf.printf "%8s %8s %11d %11d %9d\n" (size_label n) (size_label h) best.(i)
          per_s (C.window_len c);
        ((n, h), per_s))
      (List.combine points sites)
  in
  (* the machine-portable cliff gate: worst |H|=10k / |H|=100 ratio *)
  let pct =
    List.fold_left
      (fun acc ((n, h), r10k) ->
        if h = 10_000 then min acc (100 * r10k / max (List.assoc (n, 100) rates) 1)
        else acc)
      max_int rates
  in
  Obs.Metrics.add (Obs.Metrics.counter bench_metrics "core.steady_h10k_vs_h100_pct") pct;
  Printf.printf "steady |H|=10k holds %d%% of the |H|=100 throughput (gate: >= 50)\n" pct

(* ----- delta join vs snapshot join -----

   Both joins replay the same suffix: the snapshot join decodes and
   loads the donor's whole state, and [catch_up] takes the delta from
   the joiner's own clock and version out of it; the delta join decodes
   that suffix alone.  What differs is the bytes and the decoding. *)

let run_delta_sync () =
  let n = 1_000 and h = 2_000 and lag = 50 in
  let text = String.init n (fun i -> Char.chr (97 + (i mod 26))) in
  let mk site =
    C.create ~eq:Char.equal ~site ~admin:adm ~policy:core_policy (Tdoc.of_string text)
  in
  (* the joiner integrates all but the last [lag] requests, then parks —
     the rejoining-laptop shape the hub's Attach_at answers *)
  let donor = ref (mk adm) in
  let joiner = ref (mk user) in
  for i = 1 to h do
    match C.generate !donor (random_op ~ins_pct:50 (C.document !donor)) with
    | d, C.Accepted m ->
      donor := d;
      if i <= h - lag then joiner := fst (C.receive !joiner m)
    | _, C.Denied r -> failwith ("delta bench build: denied: " ^ r)
  done;
  let full_blob = Dce_wire.Proto.Char_proto.encode_state (C.dump !donor) in
  let d =
    match C.delta_since !donor ~clock:(C.clock !joiner) ~version:(C.version !joiner) with
    | Some d -> d
    | None -> failwith "delta bench: donor unexpectedly compacted past the joiner"
  in
  let delta_blob = Dce_wire.Proto.Char_proto.encode_delta d in
  let t_full =
    median_ms ~hist:(Obs.Metrics.histogram bench_metrics "core.fullsync_ns") (fun () ->
        match Dce_wire.Proto.Char_proto.decode_state full_blob with
        | Error e -> failwith e
        | Ok st -> (
          match C.load ~eq:Char.equal st with
          | Error e -> failwith e
          | Ok dn -> ignore (C.catch_up !joiner dn)))
  in
  let t_delta =
    median_ms ~hist:(Obs.Metrics.histogram bench_metrics "core.deltasync_ns") (fun () ->
        match Dce_wire.Proto.Char_proto.decode_delta delta_blob with
        | Error e -> failwith e
        | Ok d -> (
          match C.apply_delta !joiner d with
          | Ok _ -> ()
          | Error e -> failwith e))
  in
  (* the delta path must really reconstruct the donor's state *)
  (match C.apply_delta !joiner d with
   | Error e -> failwith ("delta bench: " ^ e)
   | Ok (j, _) ->
     let fp = Dce_wire.Proto.content_fingerprint Dce_wire.Proto.char_codec in
     if fp j <> fp !donor then
       failwith "delta bench: fingerprint mismatch after delta catch-up");
  let pct = 100 * String.length delta_blob / max 1 (String.length full_blob) in
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics k) v in
  put "core.fullsync_bytes" (String.length full_blob);
  put "core.deltasync_bytes" (String.length delta_blob);
  put "core.delta_vs_full_pct" pct;
  Printf.printf
    "join after %d missed of %d ops: snapshot %d B / %.3f ms, delta %d B / %.3f ms  \
     (%d%% of the snapshot's bytes; gate: <= 10)\n"
    lag h (String.length full_blob) t_full (String.length delta_blob) t_delta pct

(* ----- the administrator's settled log -----

   Every point above is a user site: nobody validates its requests, so
   the deletion/update tail each insertion crosses holds tentative
   entries.  The administrator's own requests are born valid, so its
   tail is settled — what any site holds once validations have arrived.
   These points time generate and integrate on that log, and
   core.generate_words_per_moved.h10k counts the words one insertion
   allocates per tail entry it crosses.  The count is exact for a given
   compiler, so CI gates on it.  Built after every other core
   site, so the random histories of those stay as they were. *)

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* the deletion/update tail an insertion appended now would cross *)
let movable_tail c =
  let movable op = Op.is_del op || Op.is_undel op || Op.is_up op in
  let rec go k = function op :: rest when movable op -> go (k + 1) rest | _ -> k in
  go 0 (List.rev (Oplog.ops (C.oplog c)))

let run_core_admin () =
  Printf.printf "== core: administrator site (settled log) ==\n";
  Printf.printf "%8s %8s %11s %11s %8s %12s\n" "n" "|H|" "gen(ms)" "integ(ms)" "moved"
    "words/moved";
  let n = 1_000 in
  List.iter
    (fun h ->
      let c = build_core_site ~site:adm ~n ~h in
      let point = Printf.sprintf "admin_n%s_h%s" (size_label n) (size_label h) in
      let put what v =
        Obs.Metrics.add
          (Obs.Metrics.counter bench_metrics (Printf.sprintf "core.%s.%s" what point))
          v
      in
      let hist what =
        Obs.Metrics.histogram bench_metrics (Printf.sprintf "core.%s_ns.%s" what point)
      in
      let insert = Tdoc.ins_visible (C.document c) 0 'z' in
      let t_gen =
        median_ms ~hist:(hist "generate") (fun () -> ignore (C.generate c insert))
      in
      put "generate_per_s" (int_of_float (1000. /. Float.max t_gen 1e-9));
      let t_recv =
        median_ms ~hist:(hist "integrate") (fun () ->
            ignore (C.receive c (C.Coop (remote_insert 1))))
      in
      put "integrate_per_s" (int_of_float (1000. /. Float.max t_recv 1e-9));
      let moved = movable_tail c in
      let w0 = allocated_words () in
      (match C.generate c insert with
       | _, C.Accepted _ -> ()
       | _, C.Denied r -> failwith r);
      let per_moved = int_of_float (allocated_words () -. w0) / max moved 1 in
      if h = 10_000 then
        Obs.Metrics.add
          (Obs.Metrics.counter bench_metrics "core.generate_words_per_moved.h10k")
          per_moved;
      Printf.printf "%8s %8s %11.4f %11.4f %8d %12d\n" (size_label n) (size_label h) t_gen
        t_recv moved per_moved)
    [ 1_000; 10_000 ]

(* ----- session length: the administrative log |L| -----

   Every remote request the administrator accepts adds a Validate to L.
   These sessions run [build_steady_site]'s loop with the user
   generating, so every request is validated; beacons and compaction run
   every [steady_compact_every] requests, so the window stays near zero
   and compaction cuts L at the stable version.  Each point times the
   administrator's receive of one more user request (the interval
   recheck over L, then integration) and counts [encode_state] bytes,
   whole and without the document: the tombstone document grows with
   every edit whatever compaction does, the rest is what compaction
   bounds.

   In the pinned session the user never applies a validation (its
   administrative stream stalls): it keeps editing at version 0, so the
   stable version stays 0 and nothing is cut, while its clock — and so
   the administrator's cooperative window — stays current.  Every
   recheck then spans all of L, and only L's version index keeps it
   flat.  (A registered member that never speaks would pin the window
   too, and the administrator's receive would then pay integration
   against the whole log, which says nothing about L.)  CI gates on the
   ratios against the 1k point, which are machine-portable. *)

let build_session ~validated ~pinned =
  let text = String.init 1_000 (fun i -> Char.chr (97 + (i mod 26))) in
  let mk site =
    C.create ~eq:Char.equal ~site ~admin:adm ~policy:steady_policy (Tdoc.of_string text)
  in
  let a = ref (mk adm) in
  let u = ref (mk user) in
  for i = 1 to validated do
    (match C.generate !u (random_op ~ins_pct:50 (C.document !u)) with
     | u', C.Accepted m ->
       let a', validations = C.receive !a m in
       a := a';
       u :=
         if pinned then u'
         else List.fold_left (fun u v -> fst (C.receive u v)) u' validations
     | _, C.Denied r -> failwith ("session bench build: denied: " ^ r));
    if i mod steady_compact_every = 0 then begin
      let clock, version = C.beacon !u in
      a := C.compact (C.receive_beacon !a ~peer:user ~clock ~version);
      let clock, version = C.beacon !a in
      u := C.compact (C.receive_beacon !u ~peer:adm ~clock ~version)
    end
  done;
  (!a, !u)

let run_session_length ~quick () =
  Printf.printf
    "== core: session length (administrative log, compact every %d) ==\n"
    steady_compact_every;
  Printf.printf "%12s %10s %7s %7s %7s %10s %10s %10s\n" "point" "validated" "|L|" "cut"
    "window" "recv/s" "state(B)" "logs(B)";
  let points =
    [ ("l1k", 1_000, false); ("l20k", 20_000, false); ("l20k_pinned", 20_000, true) ]
    @ if quick then [] else [ ("l100k", 100_000, false) ]
  in
  let sessions =
    List.map
      (fun (_, validated, pinned) ->
        let a, u = build_session ~validated ~pinned in
        (* one more user request, received (never kept) by every call *)
        match C.generate u (Tdoc.ins_visible (C.document u) 0 'z') with
        | _, C.Accepted m -> (a, m)
        | _, C.Denied r -> failwith r)
      points
  in
  (* interleaved best-of-5 batches, as in [run_steady] *)
  let best = Array.make (List.length points) max_int in
  for _ = 1 to 5 do
    List.iteri
      (fun i (a, m) ->
        best.(i) <- min best.(i) (batch_ns (fun () -> ignore (C.receive a m))))
      sessions
  done;
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics k) v in
  let encoded st = String.length (Dce_wire.Proto.Char_proto.encode_state st) in
  let rows =
    List.mapi
      (fun i ((name, validated, _), (a, _)) ->
        let per_s = 1_000_000_000 / best.(i) in
        let st = C.dump a in
        let state = encoded st and logs = encoded { st with C.st_doc = Tdoc.empty } in
        let log = C.admin_log a in
        put ("core.receive_per_s." ^ name) per_s;
        put ("core.state_bytes." ^ name) state;
        put ("core.log_bytes." ^ name) logs;
        Printf.printf "%12s %10d %7d %7d %7d %10d %10d %10d\n" name validated
          (Admin_log.live log) (Admin_log.cut log) (C.window_len a) per_s state logs;
        (name, (per_s, logs)))
      (List.combine points sessions)
  in
  let pct f num den = 100 * f (List.assoc num rows) / max 1 (f (List.assoc den rows)) in
  let recv = pct fst and logs = pct snd in
  put "core.receive_l20k_vs_l1k_pct" (recv "l20k" "l1k");
  put "core.receive_l20k_pinned_vs_l1k_pct" (recv "l20k_pinned" "l1k");
  put "core.log_bytes_l20k_vs_l1k_pct" (logs "l20k" "l1k");
  Printf.printf
    "receive at l20k holds %d%% of the l1k rate, %d%% pinned (gates: >= 50); state \
     without the document is %d%% of l1k's at l20k (gate: <= 150)\n"
    (recv "l20k" "l1k") (recv "l20k_pinned" "l1k") (logs "l20k" "l1k")

(* ----- the document's footprint -----

   core.doc_words_per_100_cells.* count the words one tombstone document
   holds per 100 model cells: [Obj.reachable_words] of the document
   alone, so nothing two replicas could share is counted.  n100k is a
   fresh [Tdoc.of_string]; n100k_edited is a 100k-cell site's document
   after 3,000 seeded 50/25/25 edits through [Controller.generate],
   divided by the model cells it then holds.  core.doc_bytes_per_100_cells.*
   count what the same two documents cost encoded: a site state's
   [encode_state] bytes minus those of the same state holding
   [Tdoc.empty], per 100 model cells.  All four are exact for a given
   compiler, so CI gates on them.  The op stream is reseeded here, so
   the quick and the full run count the same edits. *)
let run_doc_memory () =
  rng := Dce_sim.Rng.of_int 2009;
  let n = 100_000 in
  let per_100_cells doc =
    Obj.reachable_words (Obj.repr doc) * 100 / Tdoc.model_length doc
  in
  let bytes_per_100_cells site =
    let st = C.dump site in
    let encoded st = String.length (Dce_wire.Proto.Char_proto.encode_state st) in
    (encoded st - encoded { st with C.st_doc = Tdoc.empty })
    * 100 / Tdoc.model_length st.C.st_doc
  in
  let fresh_site =
    C.create ~eq:Char.equal ~site:user ~admin:adm ~policy:core_policy
      (Tdoc.of_string (String.init n (fun i -> Char.chr (97 + (i mod 26)))))
  in
  let edited_site = build_core_site ~site:user ~n ~h:3_000 in
  let fresh = per_100_cells (C.document fresh_site) in
  let edited = per_100_cells (C.document edited_site) in
  let fresh_b = bytes_per_100_cells fresh_site in
  let edited_b = bytes_per_100_cells edited_site in
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics k) v in
  put "core.doc_words_per_100_cells.n100k" fresh;
  put "core.doc_words_per_100_cells.n100k_edited" edited;
  put "core.doc_bytes_per_100_cells.n100k" fresh_b;
  put "core.doc_bytes_per_100_cells.n100k_edited" edited_b;
  Printf.printf
    "== core: document footprint ==\n\
     words per 100 cells at n=100k: fresh %d (gate: <= 55), after 3k edits %d \
     (gate: <= 105)\n\
     encoded bytes per 100 cells at n=100k: fresh %d (gate: <= 110), after 3k edits %d \
     (gate: <= 125)\n"
    fresh edited fresh_b edited_b

let run_core ~quick () =
  Printf.printf "== core: engine scaling baseline%s ==\n"
    (if quick then " (quick)" else "");
  Printf.printf "%8s %8s %11s %11s %11s %11s %11s %11s\n" "n" "|H|" "gen(ms)"
    "integ(ms)" "undo(ms)" "enc(ms)" "dec(ms)" "load(ms)";
  let points =
    if quick then [ (1_000, 100); (100_000, 100) ]
    else
      List.concat_map
        (fun n -> List.map (fun h -> (n, h)) [ 100; 1_000; 10_000 ])
        [ 1_000; 10_000; 100_000 ]
  in
  let site100k =
    List.fold_left
      (fun acc (n, h) ->
        let c = build_core_site ~site:user ~n ~h in
        core_point ~n ~h c;
        if n = 100_000 && h = 100 then Some c else acc)
      None points
  in
  (match site100k with
   | Some c -> core_speedup c
   | None -> failwith "core bench: n=100k |H|=100 point missing");
  print_newline ();
  run_steady ();
  run_delta_sync ();
  print_newline ();
  run_core_admin ();
  print_newline ();
  run_session_length ~quick ();
  print_newline ();
  run_doc_memory ();
  print_newline ()

(* ----- E6: Fig. 7 -----

   One counter per point: fig7.t1_us.ins<INS%>_h<|H|> and
   fig7.t2_us.*.  At |H|=9000 the section also appends one more
   insertion to the site's own requests through the seed's list log
   ([Oplog_ref], whose Canonize transposes the insertion back past the
   deletion/update tail one entry at a time, as the paper's does) and
   through [Oplog], and records the in-run ratio
   fig7.canonize_ref_vs_new_x.* — machine-portable, so CI gates it. *)

let fig7_checkpoints = [ 1000; 2000; 3000; 4000; 5000; 6000; 7000; 8000; 9000 ]

let run_fig7 () =
  Printf.printf
    "== E6 / Fig.7: processing time of insert requests (budget %.0f ms; '*' = over) ==\n"
    budget_ms;
  Printf.printf "%7s %8s %10s %10s %10s\n" "INS%" "|H|" "t1 (ms)" "t2 (ms)" "t1+t2";
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics ("fig7." ^ k)) v in
  let canonize =
    List.map
      (fun ins_pct ->
        let snaps = build_site ~ins_pct ~checkpoints:fig7_checkpoints in
        List.iter
          (fun (size, c) ->
            let t1 = measure_t1 c in
            let t2 = measure_t2 c in
            let point = Printf.sprintf "ins%d_h%d" ins_pct size in
            put ("t1_us." ^ point) (int_of_float (t1 *. 1000.));
            put ("t2_us." ^ point) (int_of_float (t2 *. 1000.));
            Printf.printf "%7d %8d %10.3f %10.3f %9.3f%s\n" ins_pct size t1 t2 (t1 +. t2)
              (flag (t1 +. t2)))
          snaps;
        print_newline ();
        let log = C.oplog (List.assoc 9000 snaps) in
        let reference =
          Oplog_ref.of_entries ~compacted:(Oplog.compacted_upto log) (Oplog.entries log)
        in
        let q =
          Request.make ~site:user ~serial:(Oplog.length log + 1)
            ~op:(Op.ins ~pr:user 0 'z') ~ctx:Vclock.empty ~policy_version:0
            ~flag:Request.Tentative ()
        in
        let ref_ns = batch_ns (fun () -> ignore (Oplog_ref.append_local q reference)) in
        let new_ns = batch_ns (fun () -> ignore (Oplog.append_local q log)) in
        let point = Printf.sprintf "ins%d_h9000" ins_pct in
        put ("canonize_ref_ns." ^ point) ref_ns;
        put ("canonize_new_ns." ^ point) new_ns;
        put ("canonize_ref_vs_new_x." ^ point) (ref_ns / new_ns);
        (ins_pct, ref_ns, new_ns))
      [ 0; 50; 100 ]
  in
  Printf.printf "Canonize of one more insertion at |H|=9000 (us):\n";
  Printf.printf "%7s %12s %12s %8s\n" "INS%" "list log" "Oplog" "ratio";
  List.iter
    (fun (ins_pct, ref_ns, new_ns) ->
      Printf.printf "%7d %12.1f %12.1f %7dx\n" ins_pct (float ref_ns /. 1e3)
        (float new_ns /. 1e3) (ref_ns / new_ns))
    canonize;
  print_newline ()

(* ----- E7: baseline comparison ----- *)

(* histories for the baselines: half insertions, half deletions, already
   in canonical order *)
let baseline_history size =
  let ins = size / 2 in
  let reqs = ref [] in
  let ctx = ref Vclock.empty in
  for i = 1 to ins do
    reqs :=
      Request.make ~site:user ~serial:i
        ~op:(Op.ins ~pr:user (rand (i + 10)) (letter ()))
        ~ctx:!ctx ~policy_version:0 ~flag:Request.Valid ()
      :: !reqs;
    ctx := Vclock.tick !ctx user
  done;
  for i = ins + 1 to size do
    reqs :=
      Request.make ~site:user ~serial:i ~op:(Op.del (rand 10) 'x') ~ctx:!ctx
        ~policy_version:0 ~flag:Request.Valid ()
      :: !reqs;
    ctx := Vclock.tick !ctx user
  done;
  List.rev !reqs

let run_baselines () =
  Printf.printf "== E7 / Fig.7 comparison: time to integrate one remote insert (ms) ==\n";
  Printf.printf "%8s %12s %12s %12s\n" "|H|" "ours" "SDT-like" "ABT-like";
  let sizes = [ 250; 500; 1000; 2000; 4000 ] in
  let ours = build_site ~ins_pct:50 ~checkpoints:sizes in
  List.iter
    (fun size ->
      let t_ours = measure_t2 (List.assoc size ours) in
      let history = baseline_history size in
      let sdt =
        Dce_baseline.Sdt_like.preload
          (Dce_baseline.Sdt_like.create ~site:2 initial_text)
          history
      in
      let q = remote_insert 1 in
      let t_sdt = median_ms ~reps:3 (fun () -> Dce_baseline.Sdt_like.receive sdt q) in
      let abt =
        Dce_baseline.Abt_like.preload
          (Dce_baseline.Abt_like.create ~site:2 initial_text)
          (List.map (fun (r : char Request.t) -> r.Request.op) history)
      in
      let t_abt = median_ms ~reps:3 (fun () -> Dce_baseline.Abt_like.receive abt q) in
      Printf.printf "%8d %11.3f%s %11.3f%s %11.3f%s\n" size t_ours (flag t_ours) t_sdt
        (flag t_sdt) t_abt (flag t_abt))
    sizes;
  print_newline ()

(* ----- E8: asymptotic scaling ----- *)

let run_complexity () =
  Printf.printf "== E8 / par.5.2: scaling checks ==\n";
  let snaps = build_site ~ins_pct:50 ~checkpoints:[ 2000; 4000; 8000 ] in
  let t n = measure_t2 (List.assoc n snaps) in
  let t2000 = t 2000 and t4000 = t 4000 and t8000 = t 8000 in
  Printf.printf
    "receive: t2(2k)=%.3f ms, t2(4k)=%.3f ms, t2(8k)=%.3f ms  (ratios %.2f, %.2f; linear => ~2)\n"
    t2000 t4000 t8000 (t4000 /. t2000) (t8000 /. t4000);
  Printf.printf "undo of n tentative requests after a revocation (O(n^2) worst case):\n";
  Printf.printf "%8s %12s\n" "n" "time (ms)";
  List.iter
    (fun n ->
      let c =
        C.create ~eq:Char.equal ~site:user ~admin:adm ~policy:base_policy
          (Tdoc.of_string "seed")
      in
      let rec fill c i =
        if i = n then c
        else
          match C.generate c (Op.ins (rand (i + 4)) (letter ())) with
          | c, C.Accepted _ -> fill c (i + 1)
          | _, C.Denied r -> failwith r
      in
      let c = fill c 0 in
      let revoke =
        {
          Admin_op.admin = adm;
          version = 1;
          op =
            Admin_op.Add_auth
              (0, Auth.deny [ Subject.User user ] [ Docobj.Whole ] [ Right.Insert ]);
          ctx = Vclock.empty;
        }
      in
      let ms = median_ms ~reps:3 (fun () -> C.receive c (C.Admin revoke)) in
      Printf.printf "%8d %12.3f\n" n ms)
    [ 250; 500; 1000; 2000 ];
  print_newline ()

(* ----- E9: optimistic vs central lock ----- *)

let run_latency () =
  Printf.printf "== E9 / par.1 motivation: user-perceived check latency ==\n";
  let c = List.assoc 1000 (build_site ~ins_pct:50 ~checkpoints:[ 1000 ]) in
  let n_reps = 200 in
  let t0 = now () in
  for _ = 1 to n_reps do
    match C.generate c (Tdoc.ins_visible (C.document c) 0 'z') with
    | _, C.Accepted _ -> ()
    | _, C.Denied r -> failwith r
  done;
  let optimistic_ms = (now () -. t0) *. 1000. /. float_of_int n_reps in
  Printf.printf
    "optimistic (this paper): %.3f ms per operation (local check, |H|=1000)\n"
    optimistic_ms;
  Printf.printf "central lock server:\n%10s %8s %12s %8s %8s %10s\n" "rtt(ms)" "clients"
    "mean(ms)" "p95" "max" "busy";
  List.iter
    (fun rtt ->
      List.iter
        (fun clients ->
          let cfg =
            {
              Dce_baseline.Central_lock.clients;
              rtt;
              check_cost = 5;
              op_interval = (100, 400);
              duration = 60_000;
            }
          in
          let s = Dce_baseline.Central_lock.simulate cfg ~seed:1 in
          Printf.printf "%10d %8d %12.1f %8d %8d %9.0f%%\n" rtt clients
            s.Dce_baseline.Central_lock.mean_response
            s.Dce_baseline.Central_lock.p95_response
            s.Dce_baseline.Central_lock.max_response
            (100. *. s.Dce_baseline.Central_lock.server_utilization))
        [ 2; 10; 50 ])
    [ 25; 50; 100; 200 ];
  print_newline ()

(* ----- E10: ablation ----- *)

let run_ablation () =
  Printf.printf
    "== E10 / ablation: sessions with security holes, 50 random adversarial runs ==\n";
  let seeds = List.init 50 (fun i -> 1000 + i) in
  (* few users, fast-toggling administrator, high latency variance: the
     regime where stale requests race revocations and re-grants *)
  let profile =
    {
      Dce_sim.Workload.with_admin with
      users = 2;
      duration = 2_500;
      edit_interval = (10, 60);
      admin_interval = Some (20, 80);
      revoke_bias = 0.5;
      latency = Dce_sim.Net.Uniform (20, 400);
    }
  in
  let count features =
    List.fold_left
      (fun bad seed ->
        match Dce_sim.Runner.run ~features ~sink:!sink ~metrics profile ~seed with
        | r ->
          if
            Dce_sim.Convergence.ok
              (Dce_sim.Convergence.check r.Dce_sim.Runner.controllers)
          then bad
          else bad + 1
        | exception _ -> bad + 1)
      0 seeds
  in
  let variants =
    [
      ("secure (all mechanisms)", C.secure);
      ("no retroactive undo", { C.secure with C.retroactive_undo = false });
      ("no interval check", { C.secure with C.interval_check = false });
      ("no validation", { C.secure with C.validation = false });
      ("naive (none)", C.naive);
    ]
  in
  Printf.printf "%-28s %s\n" "variant" "holes / runs";
  List.iter
    (fun (name, f) -> Printf.printf "%-28s %d / %d\n" name (count f) (List.length seeds))
    variants;
  print_newline ()

(* ----- extras: extension ablations beyond the paper ----- *)

let run_extras () =
  Printf.printf "== extras: policy scaling and log garbage collection ==\n";
  (* first-match check cost vs policy size *)
  Printf.printf "policy first-match check vs |P| (microseconds per check):\n";
  Printf.printf "%8s %12s\n" "|P|" "us/check";
  List.iter
    (fun n ->
      let p =
        Policy.make
          ~users:[ adm; user; bystander ]
          (List.init n (fun _ ->
               Auth.deny [ Subject.User bystander ] [ Docobj.Whole ] [ Right.Update ])
          @ [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ])
      in
      let reps = 2000 in
      let t0 = now () in
      for _ = 1 to reps do
        ignore
          (Sys.opaque_identity
             (Policy.check p ~user ~right:Right.Insert ~pos:(Some 3)))
      done;
      Printf.printf "%8d %12.2f\n" (n + 1)
        ((now () -. t0) *. 1e6 /. float_of_int reps))
    [ 10; 100; 1000 ];
  (* log GC: live entries and serialized bytes with/without *)
  Printf.printf
    "log GC over a 10s adversarial session (seed 11; per-site live entries / state KiB):\n";
  let profile =
    {
      Dce_sim.Workload.with_admin with
      users = 3;
      duration = 10_000;
      edit_interval = (15, 80);
      latency = Dce_sim.Net.Uniform (5, 120);
    }
  in
  List.iter
    (fun (label, compact_every) ->
      let r =
        Dce_sim.Runner.run ~sink:!sink ~metrics { profile with compact_every } ~seed:11
      in
      let entries =
        List.map
          (fun c -> Oplog.live_length (C.oplog c))
          r.Dce_sim.Runner.controllers
      in
      let kib =
        List.fold_left
          (fun acc c ->
            acc
            + String.length (Dce_wire.Proto.Char_proto.encode_state (C.dump c)))
          0 r.Dce_sim.Runner.controllers
        / 1024
      in
      Printf.printf "%-12s entries=[%s]  state=%d KiB\n" label
        (String.concat ";" (List.map string_of_int entries))
        kib)
    [ ("no GC", None); ("GC every 8", Some 8) ];
  print_newline ()

(* ----- netd: loopback transport throughput ----- *)

(* Two measurements.  First the transport alone: a pair of framed
   connections over a socketpair, one flooding frames at the other,
   which isolates framing + splitter + non-blocking socket handling
   from the controller.  Then the full stack: a relay and two sites
   over loopback TCP, one site generating a burst of edits, timed until
   both sites (and the admin's validations) have quiesced.  Transport
   metrics (netd.* counters, flush latency) land in [bench_metrics] and
   therefore in BENCH_netd.json. *)

let run_netd_raw () =
  Printf.printf "raw framed-connection throughput (socketpair, single thread):\n";
  Printf.printf "%12s %10s %12s %12s\n" "payload" "frames" "frames/s" "MiB/s";
  let tele = Dce_netd.Tele.make ~metrics:bench_metrics () in
  List.iter
    (fun (payload_bytes, frames) ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let tx =
        Dce_netd.Conn.create ~max_outbox:(64 * 1024 * 1024) ~tele ~peer:"bench-tx" a
      in
      let rx = Dce_netd.Conn.create ~tele ~peer:"bench-rx" b in
      let payload = String.make payload_bytes 'm' in
      let t0 = now () in
      let sent = ref 0 and received = ref 0 and stalled = ref 0 in
      while !received < frames && !stalled < 1_000_000 do
        if !sent < frames && Dce_netd.Conn.outbox_bytes tx < 1 lsl 20 then begin
          Dce_netd.Conn.send tx payload;
          incr sent
        end;
        Dce_netd.Conn.handle_writable tx;
        match Dce_netd.Conn.handle_readable rx with
        | [] -> incr stalled
        | ps ->
          stalled := 0;
          received := !received + List.length ps
      done;
      let dt = now () -. t0 in
      if !received < frames then failwith "netd bench: transfer stalled";
      Printf.printf "%10d B %10d %12.0f %12.1f\n" payload_bytes frames
        (float_of_int frames /. dt)
        (float_of_int (frames * payload_bytes) /. dt /. (1024. *. 1024.));
      Dce_netd.Conn.shutdown tx;
      Dce_netd.Conn.shutdown rx)
    [ (64, 20_000); (1024, 10_000); (8192, 2_000) ]

(* a relay endpoint: the same [Dce_netd.Site] p2pedit drives *)
let bench_ep ?doc ~port site =
  Dce_netd.Site.create ~codec:Dce_wire.Proto.char_codec ~eq:Char.equal
    (Dce_netd.Client.create ~metrics:bench_metrics ?doc ~host:"127.0.0.1" ~port ~site ())

let bench_ep_step ep =
  List.iter
    (function
      | Dce_netd.Site.Dropped r -> failwith ("netd bench: " ^ r)
      | Dce_netd.Site.Link (Dce_netd.Client.Gave_up r) ->
        failwith ("netd bench: client gave up: " ^ r)
      | _ -> ())
    (Dce_netd.Site.step ep)

let bench_edit ep =
  let c = Option.get (Dce_netd.Site.controller ep) in
  match Dce_netd.Site.generate ep (Tdoc.ins_visible (C.document c) 0 (letter ())) with
  | Ok _ -> ()
  | Error r -> failwith r

let run_netd_session () =
  Printf.printf "end-to-end hub session (loopback TCP, hub + admin + editor):\n";
  let factory _doc =
    let policy =
      Policy.make ~users:[ adm; user ]
        [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
    in
    Ok
      ( C.create ~eq:Char.equal ~site:1_000_000 ~admin:adm ~policy
          (Tdoc.of_string "seed"),
        None )
  in
  let hub =
    Dce_hub.Hub.create ~metrics:bench_metrics ~codec:Dce_wire.Proto.char_codec
      ~factory ~docs:[ "main" ] ~port:0 ()
  in
  Fun.protect ~finally:(fun () -> Dce_hub.Hub.shutdown hub) @@ fun () ->
  let port = Dce_hub.Hub.port hub in
  let ep_admin = bench_ep ~port adm and ep_user = bench_ep ~port user in
  let eps = [ ep_admin; ep_user ] in
  let pump_until cond =
    let rec go i =
      if cond () then ()
      else if i > 2_000_000 then failwith "netd bench: session stalled"
      else begin
        Dce_hub.Hub.step ~timeout_ms:1 hub;
        List.iter bench_ep_step eps;
        go (i + 1)
      end
    in
    go 0
  in
  pump_until (fun () -> List.for_all (fun ep -> Dce_netd.Site.controller ep <> None) eps);
  let edits = 400 in
  let settled ep =
    match Dce_netd.Site.controller ep with
    | None -> false
    | Some c ->
      Tdoc.visible_length (C.document c) = 4 + edits
      && C.tentative c = [] && C.pending_coop c = 0
  in
  let t0 = now () in
  for _ = 1 to edits do
    bench_edit ep_user;
    (* keep the loop turning so the outbox drains as we go *)
    Dce_hub.Hub.step hub;
    List.iter bench_ep_step eps
  done;
  pump_until (fun () -> List.for_all settled eps);
  let dt = now () -. t0 in
  Printf.printf
    "%d edits generated, relayed, validated and integrated in %.3f s (%.0f edits/s)\n"
    edits dt
    (float_of_int edits /. dt);
  List.iter Dce_netd.Site.close eps

let run_netd () =
  Printf.printf "== netd: loopback transport throughput ==\n";
  run_netd_raw ();
  run_netd_session ();
  print_newline ()

(* ----- hub: multi-document scaling -----

   One hub process hosting D independent sessions, two real TCP
   clients per document (admin + editor).  Two figures per
   configuration: aggregate relayed throughput with every document
   active concurrently (frames/s), and the fan-out latency of a single
   quiet edit — send at the user endpoint, integrated at the admin
   endpoint — sampled serially on a few documents.  D = 1 is the
   single-session baseline; 8 and 64 show what the session registry
   and the poll-based event loop cost as the document count grows. *)

let run_hub_docs ~quick ndocs =
  let doc_name d = Printf.sprintf "doc%02d" d in
  let factory _doc =
    let policy =
      Policy.make ~users:[ adm; user ]
        [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
    in
    Ok
      ( C.create ~eq:Char.equal ~site:1_000_000 ~admin:adm ~policy
          (Tdoc.of_string "seed"),
        None )
  in
  let hub =
    Dce_hub.Hub.create ~metrics:bench_metrics ~codec:Dce_wire.Proto.char_codec ~factory
      ~docs:(List.init ndocs doc_name) ~port:0 ()
  in
  Fun.protect ~finally:(fun () -> Dce_hub.Hub.shutdown hub) @@ fun () ->
  let port = Dce_hub.Hub.port hub in
  let groups =
    List.init ndocs (fun d ->
        let doc = doc_name d in
        (doc, bench_ep ~doc ~port adm, bench_ep ~doc ~port user))
  in
  let eps = List.concat_map (fun (_, a, u) -> [ a; u ]) groups in
  let pump_until cond =
    let rec go i =
      if cond () then ()
      else if i > 4_000_000 then failwith "hub bench: session stalled"
      else begin
        Dce_hub.Hub.step ~timeout_ms:1 hub;
        List.iter bench_ep_step eps;
        go (i + 1)
      end
    in
    go 0
  in
  pump_until (fun () -> List.for_all (fun ep -> Dce_netd.Site.controller ep <> None) eps);
  let len ep =
    match Dce_netd.Site.controller ep with
    | None -> 0
    | Some c -> Tdoc.visible_length (C.document c)
  in
  (* fan-out latency, one quiet edit at a time on a sample of docs *)
  let fan_h =
    Obs.Metrics.histogram bench_metrics
      (Printf.sprintf "hub.docs%d.fanout_ns" ndocs)
  in
  let samples = min ndocs 8 in
  List.iteri
    (fun i (_, ep_a, ep_u) ->
      if i < samples then begin
        let target = len ep_a + 1 in
        let t0 = Obs.Clock.now_ns () in
        bench_edit ep_u;
        pump_until (fun () -> len ep_a >= target);
        Obs.Metrics.observe fan_h (Obs.Clock.now_ns () - t0)
      end)
    groups;
  (* aggregate throughput: every document active at once *)
  let edits_per_doc = max 4 ((if quick then 256 else 1024) / ndocs) in
  let expected =
    List.map (fun (doc, ep_a, _) -> (doc, len ep_a + edits_per_doc)) groups
  in
  let settled () =
    List.for_all2
      (fun (_, ep_a, ep_u) (_, want) ->
        List.for_all
          (fun ep ->
            match Dce_netd.Site.controller ep with
            | None -> false
            | Some c ->
              Tdoc.visible_length (C.document c) = want
              && C.tentative c = [] && C.pending_coop c = 0)
          [ ep_a; ep_u ])
      groups expected
  in
  let t0 = now () in
  for _ = 1 to edits_per_doc do
    List.iter (fun (_, _, ep_u) -> bench_edit ep_u) groups;
    Dce_hub.Hub.step hub;
    List.iter bench_ep_step eps
  done;
  pump_until settled;
  let dt = now () -. t0 in
  let total = ndocs * edits_per_doc in
  let frames_per_s = int_of_float (float_of_int total /. Float.max dt 1e-9) in
  Obs.Metrics.add
    (Obs.Metrics.counter bench_metrics
       (Printf.sprintf "hub.docs%d.frames_per_s" ndocs))
    frames_per_s;
  Obs.Metrics.add
    (Obs.Metrics.counter bench_metrics (Printf.sprintf "hub.docs%d.docs" ndocs))
    ndocs;
  let fan = Obs.Metrics.summary fan_h in
  Printf.printf
    "%3d doc(s): %5d edits relayed in %.3f s (%6d frames/s), fan-out p50 %.2f ms \
     (%d sample(s))\n%!"
    ndocs total dt frames_per_s
    (fan.Obs.Metrics.p50 /. 1e6)
    samples;
  List.iter Dce_netd.Site.close eps

let run_hub ~quick () =
  Printf.printf "== hub: multi-document scaling (frames/s, fan-out latency) ==\n";
  List.iter (run_hub_docs ~quick) [ 1; 8; 64 ];
  print_newline ()

(* ----- model checker throughput ----- *)

(* Explorer performance on the standard bounded scenarios: raw state
   throughput, the leverage of the two reduction mechanisms (state-cache
   hit rate, sleep-set skips) and the search profile (peak in-flight
   messages, depth).  The check.* counters accumulate across scenarios
   via [bench_metrics]; per-scenario derived figures land under a
   per-scenario prefix.  All of it reaches BENCH_check.json. *)

let run_check () =
  Printf.printf "== check: model-checker state throughput ==\n";
  Printf.printf "%-26s %10s %10s %9s %8s %9s %10s\n" "scenario" "states" "distinct"
    "dedup%" "sleep" "frontier" "states/s";
  let scenarios =
    [
      ("s3c2a1", Dce_check.Scenario.make ~sites:3 ~coop:2 ~admin_ops:1 ());
      ("s3c2a2x", Dce_check.Scenario.make ~mixed:true ~sites:3 ~coop:2 ~admin_ops:2 ());
      ("s3c3a1", Dce_check.Scenario.make ~sites:3 ~coop:3 ~admin_ops:1 ());
    ]
  in
  List.iter
    (fun (name, scenario) ->
      let outcome, s = Dce_check.Explore.run ~metrics:bench_metrics scenario in
      (match outcome with
       | Dce_check.Explore.Exhausted -> ()
       | Dce_check.Explore.Found v ->
         failwith ("check bench: unexpected violation: " ^ v.Dce_check.Explore.detail)
       | Dce_check.Explore.Capped -> failwith "check bench: state cap hit");
      let states_per_s =
        int_of_float
          (float_of_int s.Dce_check.Explore.states
          /. Float.max s.Dce_check.Explore.elapsed_s 1e-6)
      in
      let dedup_permille =
        1000 * s.Dce_check.Explore.dedup_hits / max 1 s.Dce_check.Explore.states
      in
      let put k v =
        Obs.Metrics.add (Obs.Metrics.counter bench_metrics ("check." ^ name ^ "." ^ k)) v
      in
      put "states" s.Dce_check.Explore.states;
      put "states_per_s" states_per_s;
      put "dedup_hit_permille" dedup_permille;
      put "peak_inflight" s.Dce_check.Explore.peak_inflight;
      put "max_depth" s.Dce_check.Explore.max_depth;
      put "frontiers" s.Dce_check.Explore.frontiers;
      Printf.printf "%-26s %10d %10d %8.1f%% %8d %9d %10d\n" name
        s.Dce_check.Explore.states s.Dce_check.Explore.distinct
        (float_of_int dedup_permille /. 10.)
        s.Dce_check.Explore.sleep_skips s.Dce_check.Explore.frontiers states_per_s)
    scenarios;
  (* exhaustive enumerator sweep rate *)
  let t0 = now () in
  let o = Dce_check.Enum.tp2 () in
  let dt = now () -. t0 in
  (match o.Dce_check.Enum.failed with
   | Some c -> failwith ("check bench: TP2 counterexample: " ^ c)
   | None -> ());
  let cases_per_s = int_of_float (float_of_int o.Dce_check.Enum.cases /. Float.max dt 1e-6) in
  Obs.Metrics.add
    (Obs.Metrics.counter bench_metrics "check.enum.tp2_cases")
    o.Dce_check.Enum.cases;
  Obs.Metrics.add
    (Obs.Metrics.counter bench_metrics "check.enum.tp2_cases_per_s")
    cases_per_s;
  Printf.printf "enum TP2: %d cases over %d docs in %.2f s (%d cases/s)\n"
    o.Dce_check.Enum.cases o.Dce_check.Enum.docs dt cases_per_s;
  print_newline ()

(* ----- store: WAL append throughput and recovery latency ----- *)

(* The two questions the durability design turns on: what each fsync
   policy costs per appended record (the write path runs on every
   journaled input), and how recovery time grows with log length (the
   snapshot cadence is exactly the knob that bounds it).  Records are
   real journal entries — an encoded [Generated] insert — so append
   throughput includes the codec, and the recovery figures replay them
   through a live controller, not just the frame scan.  Everything
   lands in BENCH_store.json. *)

let rec bench_rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> bench_rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let run_store () =
  Printf.printf "== store: WAL append throughput and recovery latency ==\n";
  let module Wal = Dce_store.Wal in
  let module Store = Dce_store.Store in
  let module Persist = Dce_store.Persist in
  let scratch name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dce-bench-store-%d-%s" (Unix.getpid ()) name)
  in
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics ("store." ^ k)) v in
  (* a representative journal record: one encoded cooperative insert *)
  let record =
    Persist.encode_record Dce_wire.Proto.char_codec (Persist.Generated (Op.ins 0 'q'))
  in
  Printf.printf "WAL append (record payload = %d bytes before framing):\n"
    (String.length record);
  Printf.printf "%14s %10s %12s %10s\n" "fsync" "records" "records/s" "MiB/s";
  List.iter
    (fun (policy, n) ->
      let dir = scratch "wal" in
      bench_rm_rf dir;
      Unix.mkdir dir 0o755;
      let w =
        match Wal.openfile ~fsync:policy (Filename.concat dir "bench.log") with
        | Ok (w, _) -> w
        | Error e -> failwith e
      in
      let t0 = now () in
      for _ = 1 to n do
        Wal.append w record
      done;
      Wal.close w;
      let dt = Float.max (now () -. t0) 1e-9 in
      let per_s = float_of_int n /. dt in
      let label = Store.fsync_policy_to_string policy in
      put ("append." ^ label ^ ".records_per_s") (int_of_float per_s);
      Printf.printf "%14s %10d %12.0f %10.1f\n" label n per_s
        (float_of_int (n * String.length record) /. dt /. (1024. *. 1024.));
      bench_rm_rf dir)
    [ (Wal.Always, 2_000); (Wal.Interval 64, 50_000); (Wal.Never, 50_000) ];
  (* recovery: journal n controller inputs into one generation, then
     time a cold [Persist.opendir] — snapshot load plus full replay *)
  Printf.printf "recovery (snapshot + replay of n journaled edits):\n";
  Printf.printf "%10s %12s %12s\n" "n" "recover ms" "records/s";
  let config =
    { Store.fsync = Wal.Never; snapshot_every = max_int; keep_generations = 2 }
  in
  let policy = Policy.make ~users:[ 0; 1 ] [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ] in
  let open_journal dir =
    match
      Persist.opendir ~config ~eq:Char.equal ~codec:Dce_wire.Proto.char_codec dir
    with
    | Ok v -> v
    | Error e -> failwith e
  in
  List.iter
    (fun n ->
      let dir = scratch (Printf.sprintf "recover-%d" n) in
      bench_rm_rf dir;
      let j, _ = open_journal dir in
      let c =
        ref (C.create ~eq:Char.equal ~site:0 ~admin:0 ~policy (Tdoc.of_string "seed"))
      in
      (match Persist.checkpoint j !c with Ok () -> () | Error e -> failwith e);
      for i = 1 to n do
        let op = Op.ins (i mod 4) 'k' in
        (match C.generate !c op with
         | c', C.Accepted _ -> c := c'
         | _, C.Denied e -> failwith e);
        Persist.record j (Persist.Generated op)
      done;
      Persist.close j;
      let ms =
        min_ms ~reps:3 (fun () ->
            let j, r = open_journal dir in
            Persist.close j;
            match r.Persist.controller with
            | Some _ when r.Persist.replayed = n -> ()
            | _ -> failwith "store bench: recovery came back wrong")
      in
      let per_s = float_of_int n /. (ms /. 1_000.) in
      put (Printf.sprintf "recover.%d.ms" n) (int_of_float (Float.max ms 1.));
      put (Printf.sprintf "recover.%d.records_per_s" n) (int_of_float per_s);
      Printf.printf "%10d %12.1f %12.0f\n" n ms per_s;
      bench_rm_rf dir)
    [ 512; 2_048; 8_192 ];
  (* checkpoint cost at the default cadence's scale: serialize, write
     atomically, prune — what a site pays every [snapshot_every] inputs *)
  let dir = scratch "checkpoint" in
  bench_rm_rf dir;
  let j, _ = open_journal dir in
  let c =
    ref (C.create ~eq:Char.equal ~site:0 ~admin:0 ~policy (Tdoc.of_string initial_text))
  in
  (match Persist.checkpoint j !c with Ok () -> () | Error e -> failwith e);
  let ms =
    median_ms ~reps:5 (fun () ->
        match Persist.checkpoint j !c with Ok () -> () | Error e -> failwith e)
  in
  let state_kib =
    String.length (Dce_wire.Proto.Char_proto.encode_state (C.dump !c)) / 1024
  in
  put "checkpoint.ms" (int_of_float (Float.max ms 1.));
  put "checkpoint.state_kib" state_kib;
  Printf.printf "checkpoint (%d KiB state): %.1f ms\n" state_kib ms;
  Persist.close j;
  bench_rm_rf dir;
  print_newline ()

(* ----- analysis: indexed decision engine vs the flat first-match scan -----

   ROADMAP item 4 asks what an indexed policy representation buys over
   the linear first-match scan once |P| stops being toy-sized.  The
   decision-domain engine of lib/analysis is that index: this section
   builds it over generated policies of |P| ∈ {1k, 10k, 100k} rules
   (fixed vocabulary: 128 users, 8 groups, zones within a 10k-position
   document, the paper's mix of user-, group- and any-subject rules,
   ~20% restrictive) and measures build cost, per-check latency of both
   paths — asserting they agree on every sampled access first — and the
   analyzer's full lint pass.  The speedup lands in BENCH_analysis.json
   as analysis.check_speedup_pNNN_x; CI gates on the 10k point. *)

let analysis_user_pool = 128

let analysis_policy ~rules =
  let users = List.init analysis_user_pool (fun i -> i) in
  let groups =
    List.init 8 (fun g ->
        (Printf.sprintf "g%d" g, List.filter (fun u -> u mod 8 = g) users))
  in
  let auths =
    List.init rules (fun _ ->
        let subjects =
          match rand 50 with
          | 0 -> [ Subject.Any ]
          | x when x < 5 -> [ Subject.Group (Printf.sprintf "g%d" (rand 8)) ]
          | _ -> [ Subject.User (rand analysis_user_pool) ]
        in
        let objects =
          match rand 8 with
          | 0 -> [ Docobj.Whole ]
          | 1 | 2 -> [ Docobj.Element (rand 10_000) ]
          | _ ->
            let lo = rand 10_000 in
            [ Docobj.zone lo (lo + rand 512) ]
        in
        let rights = [ Right.of_index (rand Right.count) ] in
        let make = if rand 5 = 0 then Auth.deny else Auth.grant in
        make subjects objects rights)
  in
  Policy.make ~users ~groups auths

let run_analysis ~quick () =
  let module An = Dce_analysis in
  Printf.printf "== analysis: indexed policy checks vs flat first-match scan ==\n";
  Printf.printf "%8s %8s %8s %10s %12s %12s %9s\n" "|P|" "classes" "segs"
    "build(ms)" "flat(ns)" "engine(ns)" "speedup";
  let sizes = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  List.iter
    (fun n ->
      let p = analysis_policy ~rules:n in
      let label = "p" ^ size_label n in
      let put k v =
        Obs.Metrics.add
          (Obs.Metrics.counter bench_metrics (Printf.sprintf "analysis.%s.%s" label k))
          v
      in
      let build_ms =
        min_ms ~reps:(if n >= 100_000 then 1 else 3) (fun () -> An.Engine.build p)
      in
      let engine, _ = An.Engine.build p in
      let queries =
        Array.init 4096 (fun _ ->
            ( rand (analysis_user_pool + 16),
              Right.of_index (rand Right.count),
              if rand 20 = 0 then None else Some (rand 12_000) ))
      in
      Array.iter
        (fun (user, right, pos) ->
          if An.Engine.check engine ~user ~right ~pos <> Policy.check p ~user ~right ~pos
          then failwith "analysis bench: engine disagrees with the flat scan")
        queries;
      let flat_reps = if n >= 100_000 then 64 else 1024 in
      let t_flat =
        min_ms ~reps:3 (fun () ->
            for i = 0 to flat_reps - 1 do
              let user, right, pos = queries.(i) in
              ignore (Sys.opaque_identity (Policy.check p ~user ~right ~pos))
            done)
      in
      let flat_ns = t_flat *. 1e6 /. float_of_int flat_reps in
      let t_engine =
        min_ms ~reps:3 (fun () ->
            Array.iter
              (fun (user, right, pos) ->
                ignore (Sys.opaque_identity (An.Engine.check engine ~user ~right ~pos)))
              queries)
      in
      let engine_ns = t_engine *. 1e6 /. float_of_int (Array.length queries) in
      let speedup = flat_ns /. Float.max engine_ns 1e-9 in
      put "build_ms" (int_of_float (Float.max build_ms 1.));
      put "flat_check_ns" (int_of_float flat_ns);
      put "engine_check_ns" (int_of_float (Float.max engine_ns 1.));
      Obs.Metrics.add
        (Obs.Metrics.counter bench_metrics
           (Printf.sprintf "analysis.check_speedup_%s_x" label))
        (int_of_float speedup);
      Printf.printf "%8s %8d %8d %10.1f %12.0f %12.1f %8.0fx\n" (size_label n)
        (An.Classes.count (An.Engine.classes engine))
        (An.Engine.seg_count engine) build_ms flat_ns engine_ns speedup)
    sizes;
  (* the full analyzer pass (engine + findings + witness validation) on
     the 10k-rule policy: what `dcepolicy lint` costs at that size *)
  let p = analysis_policy ~rules:10_000 in
  let lint_ms = min_ms ~reps:3 (fun () -> An.Analyze.run p) in
  let r = An.Analyze.run p in
  let n_err = List.length (An.Analyze.errors r)
  and n_warn = List.length (An.Analyze.warnings r)
  and n_ref = List.length (An.Analyze.refuted r) in
  if n_ref > 0 then failwith "analysis bench: refuted findings";
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics ("analysis." ^ k)) v in
  put "lint_p10k.ms" (int_of_float (Float.max lint_ms 1.));
  put "lint_p10k.errors" n_err;
  put "lint_p10k.warnings" n_warn;
  Printf.printf "full lint @ |P|=10k: %.1f ms (%d error(s), %d warning(s), 0 refuted)\n"
    lint_ms n_err n_warn;
  print_newline ()

(* ----- obs: the export plane itself -----

   What a scrape costs the scraped process: rendering the exposition,
   and what the scraper pays to parse and fold it back into a registry
   (loadgen's merge path).  The registry is shaped like a live
   daemon's: a few dozen counters, a handful of gauges, four populated
   histograms. *)

let run_obs () =
  let put k v = Obs.Metrics.add (Obs.Metrics.counter bench_metrics ("obs." ^ k)) v in
  let live = Obs.Metrics.create () in
  for i = 0 to 31 do
    Obs.Metrics.add (Obs.Metrics.counter live (Printf.sprintf "counter.%d" i))
      ((i * 1013) + 1)
  done;
  for i = 0 to 7 do
    Obs.Metrics.set (Obs.Metrics.gauge live (Printf.sprintf "gauge.%d" i)) (i * 37)
  done;
  for i = 0 to 3 do
    let h = Obs.Metrics.histogram live (Printf.sprintf "hist.%d" i) in
    for k = 1 to 2000 do
      Obs.Metrics.observe h (k * 611 mod 1_000_000)
    done
  done;
  let time iters f =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = max 1 (Obs.Clock.now_ns () - t0) in
    (dt / iters, iters * 1_000_000_000 / dt)
  in
  let expo = ref "" in
  let render_ns, render_per_s =
    time 500 (fun () -> expo := Obs.Export.exposition ~process_stats:false live)
  in
  put "exposition_ns" render_ns;
  put "exposition_per_s" render_per_s;
  put "exposition_bytes" (String.length !expo);
  let parsed = ref (Obs.Export.parse_exposition !expo) in
  let parse_ns, parse_per_s =
    time 500 (fun () -> parsed := Obs.Export.parse_exposition !expo)
  in
  put "parse_ns" parse_ns;
  put "parse_per_s" parse_per_s;
  let merge_ns, merge_per_s =
    time 500 (fun () ->
        let m2 = Obs.Metrics.create () in
        Obs.Export.merge_into m2 !parsed)
  in
  put "merge_ns" merge_ns;
  put "merge_per_s" merge_per_s;
  let snap_ns, snap_per_s = time 2000 (fun () -> ignore (Obs.Export.snapshot live)) in
  put "snapshot_ns" snap_ns;
  put "snapshot_per_s" snap_per_s;
  Printf.printf
    "obs: exposition %d B; render %d ns, parse %d ns, merge %d ns, snapshot %d \
     ns per call\n\n"
    (String.length !expo) render_ns parse_ns merge_ns snap_ns

let () =
  let trace_file = ref None in
  let quick = ref false in
  let rec parse section = function
    | [] -> section
    | "--metrics" :: rest ->
      Obs.Metrics.set_enabled metrics true;
      Dce_wire.Codec.set_metrics (Some metrics);
      parse section rest
    | "--trace" :: file :: rest ->
      trace_file := Some file;
      parse section rest
    | "--quick" :: rest ->
      quick := true;
      parse section rest
    | w :: rest -> parse (Some w) rest
  in
  let which = parse None (List.tl (Array.to_list Sys.argv)) in
  let run name f =
    match which with
    | Some w when w <> name -> ()
    | _ ->
      rng := Dce_sim.Rng.of_int 2009;
      f ();
      write_bench_json name
  in
  let all () =
    run "core" (run_core ~quick:!quick);
    run "fig7" run_fig7;
    run "baselines" run_baselines;
    run "complexity" run_complexity;
    run "latency" run_latency;
    run "ablation" run_ablation;
    run "extras" run_extras;
    run "netd" run_netd;
    run "hub" (run_hub ~quick:!quick);
    run "check" run_check;
    run "store" run_store;
    run "analysis" (run_analysis ~quick:!quick);
    run "obs" run_obs
  in
  (match !trace_file with
   | None -> all ()
   | Some path ->
     Obs.Trace.with_file path (fun s ->
         sink := s;
         Fun.protect ~finally:(fun () -> sink := Obs.Trace.null) all);
     Printf.printf "trace written to %s\n" path);
  if Obs.Metrics.enabled metrics then
    Format.printf "== telemetry (histogram summaries) ==@.%a@." Obs.Metrics.pp metrics
