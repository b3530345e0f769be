(* crashtest: the recovery torture harness.

   Runs an in-process copy of the deployed topology — N client sites
   plus a passive relay, each one a [Dce_store.Replica], the journaled
   replica the daemons run — and tortures it.  Each cycle:

     1. the sites trade random edits and administrative actions through
        the relay (deliveries deliberately lag, so there is always
        traffic in flight when the axe falls);
     2. one process — a client or the relay itself — is kill-9'd: its
        replica and journal handle are dropped on the floor, no final
        checkpoint, nothing graceful;
     3. with some probability the victim's write-ahead-log tail is
        mangled the way a torn write would mangle it — truncated by a
        random count of bytes, or a byte near the end flipped;
        on a seeded half of the cycles that kill a client, the
        survivors then flush, fold every node's stability beacon (the
        victim's as it last sent it) and compact, so the relay can cut
        past what a torn tail lost and the victim's catch-up must take
        its snapshot fallback;
     4. the victim restarts from its data directory alone and the
        reconnect handshake runs: a client catches up from the relay's
        session copy (the donor that, like dced, integrated and
        journaled every message before fanning it out, so it dominates
        anything the client ever consumed); after a relay restart every
        client reconnects, re-broadcasting whatever the rolled-back
        relay can no longer prove acknowledged;
     5. the network flushes to quiescence.

   The oracle, per cycle:

     - recovery NEVER fails, whatever was done to the tail, nor does
       any journal write;
     - recovery replays fewer than [snapshot_every] records: the
       checkpoint cadence bounds the log, across restarts too;
     - with an intact log, the recovered state fingerprints identical
       to the pre-kill state — exact replay, not approximate — or,
       after beacons or a compaction since the last checkpoint (soft
       state the journal does not record), has the same clock and
       content fingerprint;
     - after catch-up and the flush, the convergence oracles hold
       across every site including the relay ([Dce_sim.Convergence]).

   The fsync policy rotates per node AND per cycle (always / interval:8
   / never — so a single cycle runs all three side by side) and the
   snapshot cadence is kept short so every run crosses several store
   generations.  With --chaos, every fan-out enqueue runs through a
   seeded [Dce_netd.Faults] plan: duplicated deliveries exercise the
   receiver dedup, and drop/delay/swap decisions hold deliveries back
   until the end of the cycle (reordering, never losing — the paper
   assumes reliable broadcast).  Exit status 0 iff every cycle passes;
   on failure the data directories are kept and named for post-mortem,
   and the next green run on the same machine prunes them. *)

open Dce_core
module Tdoc = Dce_ot.Tdoc
module Persist = Dce_store.Persist
module Replica = Dce_store.Replica
module Store = Dce_store.Store
module Wal = Dce_store.Wal
module Proto = Dce_wire.Proto
module Rng = Dce_sim.Rng
module Convergence = Dce_sim.Convergence
module Faults = Dce_netd.Faults

exception Torture_failure of string

let failf fmt = Printf.ksprintf (fun s -> raise (Torture_failure s)) fmt

(* Threading an immutable Rng through a torture loop obscures the
   torture; one ref, drawn from left to right. *)
let rand_int rng n =
  let v, r = Rng.int !rng n in
  rng := r;
  v

let rand_range rng lo hi =
  let v, r = Rng.in_range !rng lo hi in
  rng := r;
  v

let rand_bool rng p =
  let v, r = Rng.bool !rng p in
  rng := r;
  v

let rand_pick rng l =
  let v, r = Rng.pick !rng l in
  rng := r;
  v

let rand_weighted rng l =
  let v, r = Rng.weighted !rng l in
  rng := r;
  v

(* One journaled process: a client site or the relay. *)
type node = {
  id : int;
  name : string;
  dir : string;
  mutable replica : char Replica.t;
  mailbox : char Controller.message Queue.t;
      (** undelivered fan-out; keeps filling while the node is down, as
          the relay's per-connection send queue would *)
  delayed : char Controller.message Queue.t;
      (** chaos-held deliveries: released into the mailbox at the end of
          the cycle, so faults reorder but never lose (§3.3) *)
  mutable soft_gen : int;
      (** the journal generation of the last unjournaled change (folded
          beacons, a compaction), [-1] if none: until the next checkpoint
          the journal replays everything but that soft state *)
}

type session = { clients : node array; relay : node; faults : Faults.t option }

(* Same passive-member site id dced uses. *)
let relay_site = 1_000_000

let all_nodes sess = Array.to_list sess.clients @ [ sess.relay ]

let fsync_policies = [| Wal.Always; Wal.Interval 8; Wal.Never |]

(* Rotate per node AND per cycle: within any one cycle the session mixes
   all three durability policies, and each node cycles through them
   across its own restarts. *)
let config_for ~cycle ~id =
  {
    Store.fsync = fsync_policies.((cycle + id) mod Array.length fsync_policies);
    snapshot_every = 16;
    keep_generations = 2;
  }

let open_journal ~cycle ~id dir =
  Persist.opendir ~config:(config_for ~cycle ~id) ~eq:Char.equal
    ~codec:Proto.char_codec dir

let ctrl n = Replica.controller n.replica
let journal n = Option.get (Replica.journal n.replica)

let check_journal n =
  if Replica.journal_errors n.replica > 0 then failf "%s: a journal write failed" n.name

let receive n m =
  match Replica.receive n.replica m with
  | Ok emitted -> emitted
  | Error e -> failf "%s rejected a message: %s" n.name e

(* Broadcast mirrors dced: the relay integrates and journals the message
   BEFORE any client can see it — which is what makes the relay a sound
   catch-up donor (it dominates everything any client ever consumed). *)
let rec broadcast sess ~from msgs =
  List.iter
    (fun m ->
       if from <> relay_site then begin
         let emitted = receive sess.relay m in
         if emitted <> [] then broadcast sess ~from:relay_site emitted
       end;
       Array.iter
         (fun c ->
            if c.id <> from then
              match sess.faults with
              | None -> Queue.add m c.mailbox
              | Some f -> (
                match Faults.decide f with
                | Faults.Pass -> Queue.add m c.mailbox
                | Faults.Dup ->
                  (* receivers deduplicate; the journal replays the dup too *)
                  Queue.add m c.mailbox;
                  Queue.add m c.mailbox
                | Faults.Drop | Faults.Delay _ | Faults.Swap ->
                  (* held back, not lost: released at the end of the cycle *)
                  Queue.add m c.delayed))
         sess.clients)
    msgs

let deliver sess c m = broadcast sess ~from:c.id (receive c m)

let pump_some sess ~down rng budget =
  let delivered = ref 0 in
  (try
     while !delivered < budget do
       let ready =
         Array.to_list sess.clients
         |> List.filter (fun c ->
                c.id <> down && not (Queue.is_empty c.mailbox))
       in
       if ready = [] then raise Exit;
       let c = rand_pick rng ready in
       deliver sess c (Queue.take c.mailbox);
       incr delivered
     done
   with Exit -> ());
  !delivered

let release_delayed sess =
  Array.iter
    (fun c -> Queue.transfer c.delayed c.mailbox)
    sess.clients

(* Full quiescence: pumping can emit fresh broadcasts (the admin's
   validations) which chaos may hold back again, so release and pump
   until both queues are empty everywhere. *)
let flush ?(down = -1) sess rng =
  let rec go () =
    release_delayed sess;
    ignore (pump_some sess ~down rng max_int);
    if Array.exists (fun c -> not (Queue.is_empty c.delayed)) sess.clients then go ()
  in
  go ()

(* {2 Workload} *)

let letter rng = Char.chr (97 + rand_int rng 26)

let random_op rng doc =
  let n = Tdoc.visible_length doc in
  if n = 0 then Tdoc.ins_visible doc 0 (letter rng)
  else
    match rand_weighted rng [ (5, `Ins); (3, `Del); (2, `Up) ] with
    | `Ins -> Tdoc.ins_visible doc (rand_int rng (n + 1)) (letter rng)
    | `Del -> Tdoc.del_visible doc (rand_int rng n)
    | `Up ->
      Tdoc.up_visible doc (rand_int rng n)
        (Char.uppercase_ascii (letter rng))

let do_edit sess c rng =
  match Replica.generate c.replica (random_op rng (Controller.document (ctrl c))) with
  | Ok m -> broadcast sess ~from:c.id [ m ]
  | Error _ -> ()

(* The torture administrator toggles per-user denials, same shape as the
   simulator's workload: restrictive actions are what make validation,
   retroactive undo and the interval check earn their keep. *)
let do_admin sess c rng users =
  let negatives =
    Controller.policy (ctrl c) |> Policy.auths
    |> List.mapi (fun i a -> (i, a))
    |> List.filter (fun (_, a) -> Auth.is_restrictive a)
  in
  let op =
    if negatives = [] || rand_bool rng 0.6 then
      let u = rand_pick rng users in
      let right = rand_pick rng [ Right.Insert; Right.Delete; Right.Update ] in
      Admin_op.Add_auth (0, Auth.deny [ Subject.User u ] [ Docobj.Whole ] [ right ])
    else
      let i, _ = rand_pick rng negatives in
      Admin_op.Del_auth i
  in
  match Replica.admin c.replica op with
  | Ok m -> broadcast sess ~from:c.id [ m ]
  | Error _ -> ()

(* {2 Tail mangling} *)

type mangle = Truncated of int | Flipped of int

let pp_mangle ppf = function
  | None -> Format.fprintf ppf "log intact"
  | Some (Truncated n) -> Format.fprintf ppf "tail truncated by %d byte(s)" n
  | Some (Flipped pos) -> Format.fprintf ppf "byte flipped at offset %d" pos

let mangle_tail rng path =
  let size = (Unix.stat path).Unix.st_size in
  if size = 0 then None
  else if rand_bool rng 0.5 then begin
    let n = rand_range rng 1 (min 64 size) in
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    Unix.ftruncate fd (size - n);
    Unix.close fd;
    Some (Truncated n)
  end
  else begin
    let pos = size - 1 - rand_int rng (min 64 size) in
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    let b = Bytes.create 1 in
    if Unix.read fd b 0 1 <> 1 then failf "mangle: short read on %s" path;
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x5a));
    ignore (Unix.lseek fd pos Unix.SEEK_SET);
    if Unix.write fd b 0 1 <> 1 then failf "mangle: short write on %s" path;
    Unix.close fd;
    Some (Flipped pos)
  end

(* {2 Kill, mangle, restart} *)

(* What recovery must reproduce when the tail survives: the whole
   state, or, after an unjournaled change since the last checkpoint,
   the clock and the document, policy and version (beacon tables and the
   compacted window are soft state). *)
type pre_kill = Exact of string | Content of string * Dce_ot.Vclock.t

let pre_kill n =
  let c = ctrl n in
  if Persist.generation (journal n) > n.soft_gen then
    Exact (Persist.fingerprint (journal n) c)
  else Content (Proto.content_fingerprint Proto.char_codec c, Controller.clock c)

let recovered pre j c =
  match pre with
  | Exact fp -> Persist.fingerprint j c = fp
  | Content (cfp, clock) ->
    Proto.content_fingerprint Proto.char_codec c = cfp
    && Dce_ot.Vclock.equal (Controller.clock c) clock

(* kill -9: no checkpoint, no sync beyond what the policy already did;
   returns what recovery must reproduce when the tail survives. *)
let kill n =
  check_journal n;
  let j = journal n in
  let gen = Persist.generation j in
  let pre = pre_kill n in
  Persist.close j;
  (gen, pre)

let restart ~cycle ~mangled ~pre n =
  match open_journal ~cycle ~id:n.id n.dir with
  | Error e -> failf "cycle %d: recovery of %s failed: %s" cycle n.name e
  | Ok (j, r) ->
    let ctrl =
      match r.Persist.controller with
      | Some c -> c
      | None -> failf "cycle %d: %s recovered no state" cycle n.name
    in
    let every = (config_for ~cycle ~id:n.id).Store.snapshot_every in
    if r.Persist.replayed >= every then
      failf "cycle %d: %s replayed %d records, but it checkpoints every %d" cycle n.name
        r.Persist.replayed every;
    (match mangled with
     | None ->
       if not (recovered pre j ctrl) then
         failf
           "cycle %d: %s recovered from an intact log but does not \
            fingerprint-match its pre-kill state"
           cycle n.name
     | Some _ -> ());
    n.replica <- Replica.create ~journal:j ctrl;
    n.soft_gen <- -1;
    r

(* The reconnect handshake, as p2pedit runs it against a dced snapshot:
   catch up from the relay's session copy (the replica checkpoints it),
   re-broadcast what the relay cannot prove acknowledged. *)
let reconnect ~cycle ~fallbacks sess c =
  let donor = ctrl sess.relay in
  if
    Controller.delta_since donor ~clock:(Controller.clock (ctrl c))
      ~version:(Controller.version (ctrl c))
    = None
  then incr fallbacks;
  match Replica.catch_up c.replica donor with
  | Ok out -> broadcast sess ~from:c.id out
  | Error e -> failf "cycle %d: %s failed to catch up: %s" cycle c.name e

(* Stability while the client [down] is dead: the survivors flush,
   every node's beacon — the dead one's as it last sent it — is folded
   into the live ones, and each live replica compacts.  The dead
   client's beacon counts what it had integrated in memory, so a torn
   tail can leave it, once restarted, behind the relay's cut, and its
   catch-up takes the snapshot fallback. *)
let stabilize sess rng ~down =
  flush ~down:down.id sess rng;
  let nodes = all_nodes sess in
  let beacons =
    List.map
      (fun n ->
        let b_clock, b_version = Controller.beacon (ctrl n) in
        { Proto.b_site = n.id; b_clock; b_version })
      nodes
  in
  List.iter
    (fun n ->
      if n.id <> down.id then begin
        Replica.absorb n.replica (List.filter (fun b -> b.Proto.b_site <> n.id) beacons);
        Replica.compact n.replica;
        n.soft_gen <- Persist.generation (journal n)
      end)
    nodes

(* {2 Setup, oracle, teardown} *)

let make_node ~root ~policy ~text ~name id =
  let dir = Filename.concat root name in
  match open_journal ~cycle:0 ~id dir with
  | Error e -> failf "%s: cannot open store: %s" name e
  | Ok (j, r) ->
    (match r.Persist.controller with
     | Some _ -> failf "%s: data dir %s is not empty" name dir
     | None -> ());
    let replica =
      Replica.create ~journal:j
        (Controller.create ~eq:Char.equal ~site:id ~admin:0 ~policy
           (Tdoc.of_string text))
    in
    {
      id;
      name;
      dir;
      replica;
      mailbox = Queue.create ();
      delayed = Queue.create ();
      soft_gen = -1;
    }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let pp_cell ppf (c : char Tdoc.cell) =
  Format.fprintf ppf "{%c h%d [%s]}" c.Tdoc.elt c.Tdoc.hidden
    (String.concat ";"
       (List.map
          (fun (w : char Tdoc.write) ->
             Printf.sprintf "%c@%d.%d r%d" w.Tdoc.value w.Tdoc.wtag.Dce_ot.Op.stamp
               w.Tdoc.wtag.Dce_ot.Op.site w.Tdoc.retracted)
          c.Tdoc.writes))

let dump_node n =
  let c = ctrl n in
  Format.eprintf "%s (v%d, F=%d Q=%d tentative=%d): %a@." n.name
    (Controller.version c)
    (Controller.pending_coop c)
    (Controller.pending_admin c)
    (List.length (Controller.tentative c))
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_cell)
    (Tdoc.model_list (Controller.document c));
  let st = Controller.dump c in
  List.iter
    (fun (r : Admin_op.request) ->
       Format.eprintf "  admin_queue: v%d by %d %a@." r.Admin_op.version
         r.Admin_op.admin Admin_op.pp r.Admin_op.op)
    st.Controller.st_admin_queue;
  List.iter
    (fun (q : char Dce_ot.Request.t) ->
       Format.eprintf "  coop_queue: q%d.%d pv%d@."
         q.Dce_ot.Request.id.Dce_ot.Request.site
         q.Dce_ot.Request.id.Dce_ot.Request.serial
         q.Dce_ot.Request.policy_version)
    st.Controller.st_coop_queue

let check_convergence ~cycle sess =
  List.iter check_journal (all_nodes sess);
  let ctrls = List.map ctrl (all_nodes sess) in
  match Convergence.explain ctrls with
  | None -> ()
  | Some why ->
    List.iter dump_node (all_nodes sess);
    failf "cycle %d: divergence after recovery: %s" cycle why

let torture ~cycles ~nsites ~events ~corrupt_prob ~seed ~chaos ~quiet root =
  let rng = ref (Rng.of_int seed) in
  let users = List.init nsites Fun.id in
  let policy =
    Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  let sess =
    {
      clients =
        Array.init nsites (fun i ->
            make_node ~root ~policy ~text:"secure document"
              ~name:(Printf.sprintf "site-%d" i) i);
      relay = make_node ~root ~policy ~text:"secure document" ~name:"relay" relay_site;
      faults =
        Option.map (fun cfg -> Faults.create ~config:cfg ~seed ~label:"crashtest" ()) chaos;
    }
  in
  let say fmt =
    if quiet then Format.ifprintf Format.std_formatter fmt
    else Format.printf fmt
  in
  let mangled_cycles = ref 0 in
  let replayed_total = ref 0 in
  let fallbacks = ref 0 in
  for cycle = 1 to cycles do
    (* phase 1: traffic, under-pumped so messages are in flight *)
    for _ = 1 to events do
      match rand_weighted rng [ (6, `Edit); (1, `Admin); (3, `Pump) ] with
      | `Edit -> do_edit sess (rand_pick rng (Array.to_list sess.clients)) rng
      | `Admin -> do_admin sess sess.clients.(0) rng users
      | `Pump -> ignore (pump_some sess ~down:(-1) rng 3)
    done;
    (* phases 2-4: kill -9, mangle, restart, reconnect *)
    let victim_relay = rand_int rng (nsites + 1) = nsites in
    let victim = if victim_relay then sess.relay else sess.clients.(rand_int rng nsites) in
    let gen, pre = kill victim in
    let wal_file =
      Filename.concat victim.dir (Printf.sprintf "wal-%010d.log" gen)
    in
    let mangled =
      if rand_bool rng corrupt_prob then mangle_tail rng wal_file else None
    in
    if mangled <> None then incr mangled_cycles;
    if (not victim_relay) && rand_bool rng 0.5 then stabilize sess rng ~down:victim;
    let r = restart ~cycle ~mangled ~pre victim in
    replayed_total := !replayed_total + r.Persist.replayed;
    if victim_relay then
      (* the relay may have rolled back past traffic it already fanned
         out: every client reconnects, and each one's catch-up
         re-broadcasts its own requests the relay no longer proves
         acked — exactly how the group heals a forgetful dced *)
      Array.iter (fun c -> reconnect ~cycle ~fallbacks sess c) sess.clients
    else begin
      broadcast sess ~from:victim.id r.Persist.emitted;
      reconnect ~cycle ~fallbacks sess victim
    end;
    say "cycle %3d/%d: killed %s (fsync %s), %a -> gen %d, %d replayed%s@."
      cycle cycles victim.name
      (Store.fsync_policy_to_string (config_for ~cycle ~id:victim.id).Store.fsync)
      pp_mangle mangled (Persist.generation (journal victim)) r.Persist.replayed
      (if r.Persist.truncated_bytes > 0 then
         Printf.sprintf " (%d torn byte(s) dropped)" r.Persist.truncated_bytes
       else "");
    (* phase 5: flush and judge *)
    flush sess rng;
    check_convergence ~cycle sess
  done;
  (* final oracle, as cycle [cycles + 1]: kill every node with its log
     intact; each must recover what its journal owes ([pre_kill]) *)
  List.iter
    (fun n ->
       let _, pre = kill n in
       ignore (restart ~cycle:(cycles + 1) ~mangled:None ~pre n);
       Persist.close (journal n))
    (all_nodes sess);
  Format.printf
    "crashtest: %d kill/restart cycle(s), %d with a mangled tail, %d record(s) \
     replayed, %d catch-up(s) by the snapshot fallback; every recovery clean, \
     every cycle convergent@."
    cycles !mangled_cycles !replayed_total !fallbacks;
  Format.printf "final doc %S (policy v%d)@."
    (Tdoc.visible_string (Controller.document (ctrl sess.relay)))
    (Controller.version (ctrl sess.relay))

(* A failing run keeps its directories for post-mortem; the next green
   run on the same machine reclaims every one of them (anything under
   the temp dir matching our own naming scheme). *)
let prune_stale_runs () =
  let tmp = Filename.get_temp_dir_name () in
  match Sys.readdir tmp with
  | names ->
    Array.iter
      (fun n ->
         if String.length n > 10 && String.sub n 0 10 = "crashtest-" then
           try rm_rf (Filename.concat tmp n) with Unix.Unix_error _ | Sys_error _ -> ())
      names
  | exception Sys_error _ -> ()

let run cycles nsites events corrupt_prob seed chaos_arg dir keep quiet =
  if nsites < 2 then begin
    prerr_endline "crashtest: need at least 2 sites";
    exit 2
  end;
  let chaos =
    match chaos_arg with
    | None -> None
    | Some spec -> (
      match Faults.of_string spec with
      | Ok cfg -> Some cfg
      | Error e ->
        prerr_endline ("crashtest: --chaos: " ^ e);
        exit 2)
  in
  let root =
    match dir with
    | Some d -> d
    | None ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "crashtest-%d" (Unix.getpid ()))
  in
  match torture ~cycles ~nsites ~events ~corrupt_prob ~seed ~chaos ~quiet root with
  | () ->
    if not keep then begin
      rm_rf root;
      if dir = None then prune_stale_runs ()
    end
  | exception Torture_failure msg ->
    Printf.eprintf "crashtest: FAILED: %s\n" msg;
    Printf.eprintf "crashtest: data directories kept in %s\n" root;
    exit 1

open Cmdliner

let cycles =
  Arg.(value & opt int 50
       & info [ "cycles" ] ~docv:"N" ~doc:"Kill-9/restart cycles to run.")

let nsites =
  Arg.(value & opt int 3
       & info [ "sites" ] ~docv:"N"
           ~doc:"Client sites in the session (site 0 is the administrator); \
                 the relay is an additional kill target.")

let events =
  Arg.(value & opt int 40
       & info [ "events" ] ~docv:"N" ~doc:"Workload events per cycle before the kill.")

let corrupt_prob =
  Arg.(value & opt float 0.5
       & info [ "corrupt" ] ~docv:"P"
           ~doc:"Probability that a kill also mangles the victim's log tail.")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"Run every fan-out enqueue through a seeded fault plan, e.g. \
                 $(b,dup=0.1,delay=0.2,reorder=0.1): duplicated deliveries \
                 exercise receiver dedup, drop/delay/swap decisions hold the \
                 delivery back until the end of the cycle (reordered, never \
                 lost).")

let dir =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Root for the per-site data directories (default: a fresh \
                 directory under the system temp dir, removed on success).")

let keep =
  Arg.(value & flag
       & info [ "keep" ] ~doc:"Keep the data directories even on success.")

let quiet =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Only print the final summary.")

let cmd =
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:"Torture the WAL + snapshot recovery path with kill-9/restart \
             cycles and torn log tails")
    Term.(const run $ cycles $ nsites $ events $ corrupt_prob $ seed $ chaos_arg
          $ dir $ keep $ quiet)

let () = exit (Cmd.eval cmd)
