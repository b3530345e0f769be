(* One workload run: a hub and two editors in this process, over loopback.

   Single-threaded.  Each loop turn steps the hub, steps both clients,
   handles their events the way p2pedit does, then issues the ops that
   are due.  When a turn did nothing, the loop blocks in [Evloop.wait]
   on the client sockets until the next op is due.  poll(2) counts in
   whole milliseconds, so the last sub-millisecond before a due time is
   slept precisely instead.

   Ops are open loop: editor e's op k is due at [t0 + phase_e + k/rate],
   and every latency is measured from the due time, so a stall shows in
   the ops queued behind it. *)

open Dce_core
module Obs = Dce_obs
module Hub = Dce_hub.Hub
module Evloop = Dce_hub.Evloop
module Client = Dce_netd.Client
module Proto = Dce_wire.Proto
module Persist = Dce_store.Persist
module Store = Dce_store.Store
module Vclock = Dce_ot.Vclock
module Request = Dce_ot.Request
module W = Workload
module T = Timing

let relay_site = 1_000_000
let doc_name = "e2e"
let rate = 50. (* ops/s per editor *)
let compact_every_ms = 5_000. (* p2pedit's cadence *)
let drain_ns = 5_000_000_000
let probe_timeout_ns = 30_000_000_000

type editor = {
  site : int;
  client : Client.t;
  net : Obs.Metrics.t; (* the client's transport counters *)
  journal : char Persist.t option;
  mutable ctrl : char Controller.t option;
  mutable delta_resume : bool; (* present a resume point at the next attach *)
  mutable joining : int; (* ns of the Connected event, 0: no transfer pending *)
  mutable lives : int; (* state transfers completed *)
  mutable reconnect_ms : float; (* pending backoff deadline, 0: none *)
  mutable last_compact : float;
  mutable max_serial : int; (* newest own request accepted *)
  mutable seen : int; (* the other editor's requests integrated here *)
  mutable seen_version : int;
}

type born = { due : int; live : bool }

type t = {
  w : W.t;
  inp : W.inputs;
  tm : T.t;
  cmetrics : Obs.Metrics.t option; (* controller counters, traced runs only *)
  hub : char Hub.t;
  hub_journal : char Persist.t option;
  hub_born_ns : int;
  eds : editor array; (* 0: administrator, 1: user *)
  dir : string option;
  born : (int * int, born) Hashtbl.t; (* requests issued in the window *)
  validates : (int, int * int) Hashtbl.t; (* version -> validated request *)
  enforcing : (int, int) Hashtbl.t; (* restrictive version -> due ns *)
  echo : Stats.sample; (* us *)
  prop : Stats.sample; (* ms *)
  valid : Stats.sample;
  enforce : Stats.sample;
  join_snap : Stats.sample;
  join_delta : Stats.sample;
  late : Stats.sample;
  snapshot_bytes : Stats.sample;
  delta_bytes : Stats.sample;
  mutable measuring : bool;
  mutable attempted : int;
  mutable denied : int;
  mutable offline : int;
  mutable delivered : int;
  mutable msg_bytes : int;
  mutable msgs : int;
  mutable window_max : int;
  mutable hub_outbox_max : int;
  mutable client_outbox_max : int;
  mutable reconnects : int;
  mutable window_t0 : int;
  mutable window_t1 : int;
  mutable wire_bytes : int; (* both editors' socket bytes in and out, window *)
  mutable state_kib : float; (* the three replicas' heap, end of window *)
  mutable rss_peak : float; (* MiB, end of window *)
  mutable errors : string list;
}

let fail r msg = r.errors <- msg :: r.errors
let us ns = float_of_int ns /. 1e3
let ms ns = float_of_int ns /. 1e6

let store_config = { Store.default_config with Store.fsync = Dce_store.Wal.Always }

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_journal dir =
  match Persist.opendir ~config:store_config ~eq:Char.equal ~codec:Proto.char_codec dir with
  | Ok (j, _) -> j
  | Error e -> failwith ("journal " ^ dir ^ ": " ^ e)

let req_of = function
  | Controller.Coop q -> T.Coop (q.Request.id.Request.site, q.Request.id.Request.serial)
  | Controller.Admin a -> T.Adm a.Admin_op.version

(* ----- the editor side: what p2pedit does per event ----- *)

let send r e m =
  let req = req_of m in
  let blob =
    T.span r.tm ~site:e.site ~req "Proto.encode_message" (fun () ->
        Proto.Char_proto.encode_message ~stamp:(Proto.stamp_now ~site:e.site ()) m)
  in
  if r.measuring then begin
    r.msg_bytes <- r.msg_bytes + String.length blob;
    r.msgs <- r.msgs + 1
  end;
  T.span r.tm ~site:e.site ~req "Client.send" (fun () -> Client.send e.client blob);
  match m with
  | Controller.Admin { Admin_op.op = Admin_op.Validate id; version; _ } ->
    Hashtbl.replace r.validates version (id.Request.site, id.Request.serial)
  | _ -> ()

let checkpoint r e =
  match (e.journal, e.ctrl) with
  | Some j, Some c -> (
    match T.span r.tm ~site:e.site "Persist.checkpoint" (fun () -> Persist.checkpoint j c) with
    | Ok () -> ()
    | Error err -> fail r ("checkpoint: " ^ err))
  | _ -> ()

(* journal before broadcast: the group must never hold a request its
   origin could forget in a crash *)
let journal_record r e record =
  match e.journal with
  | None -> ()
  | Some j -> (
    T.span r.tm ~site:e.site "Persist.record" (fun () -> Persist.record j record);
    match e.ctrl with
    | None -> ()
    | Some c -> (
      match
        T.span r.tm ~site:e.site "Persist.maybe_checkpoint" (fun () ->
            Persist.maybe_checkpoint j c)
      with
      | Ok _ -> ()
      | Error err -> fail r ("checkpoint: " ^ err)))

(* Latency bookkeeping after this editor's controller moved: every
   request of the other editor and every policy version it now holds for
   the first time.  [live] is false when a state transfer (not a
   message) brought them, and such deliveries are not latency samples. *)
let advance r e ~live =
  match e.ctrl with
  | None -> ()
  | Some c ->
    T.span r.tm "loop.harness" (fun () ->
        let now = T.now_ns () in
        let upto = Vclock.get (Controller.clock c) (1 - e.site) in
        for s = e.seen + 1 to upto do
          if r.measuring then r.delivered <- r.delivered + 1;
          match Hashtbl.find_opt r.born (1 - e.site, s) with
          | Some b when live && b.live -> Stats.add r.prop (ms (now - b.due))
          | _ -> ()
        done;
        e.seen <- max e.seen upto;
        if e.site = 1 then begin
          let v = Controller.version c in
          for x = e.seen_version + 1 to v do
            (match Hashtbl.find_opt r.validates x with
             | Some id -> (
               match Hashtbl.find_opt r.born id with
               | Some b when live && b.live -> Stats.add r.valid (ms (now - b.due))
               | _ -> ())
             | None -> ());
            match Hashtbl.find_opt r.enforcing x with
            | Some t0 -> Stats.add r.enforce (ms (now - t0))
            | None -> ()
          done;
          e.seen_version <- max e.seen_version v
        end)

(* A state transfer completed: re-send what the transfer returned, cut a
   checkpoint so the store reflects the merged state, record the join. *)
let went_live r e ~delta out =
  List.iter (send r e) out;
  checkpoint r e;
  if e.joining > 0 then begin
    let dt = ms (T.now_ns () - e.joining) in
    Stats.add (if delta then r.join_delta else r.join_snap) dt;
    e.joining <- 0
  end;
  e.lives <- e.lives + 1;
  advance r e ~live:false

let handle r e = function
  | Client.Connected ->
    e.joining <- T.now_ns ();
    e.reconnect_ms <- 0.;
    if e.lives > 0 then r.reconnects <- r.reconnects + 1
  | Client.Snapshot blob -> (
    Stats.add r.snapshot_bytes (float_of_int (String.length blob));
    match
      T.span r.tm ~site:e.site "Proto.decode_state" (fun () ->
          Proto.Char_proto.decode_state blob)
    with
    | Error err -> fail r ("bad snapshot: " ^ err)
    | Ok st -> (
      match
        T.span r.tm ~site:e.site "Controller.load" (fun () ->
            Controller.load ~eq:Char.equal ?metrics:r.cmetrics st)
      with
      | Error err -> fail r ("snapshot rejected: " ^ err)
      | Ok donor ->
        let out =
          match e.ctrl with
          | Some mine ->
            let mine, out =
              T.span r.tm ~site:e.site "Controller.catch_up" (fun () ->
                  Controller.catch_up mine donor)
            in
            e.ctrl <- Some mine;
            out
          | None ->
            e.ctrl <-
              Some
                (T.span r.tm ~site:e.site "Controller.rejoin" (fun () ->
                     Controller.rejoin ~site:e.site donor));
            []
        in
        went_live r e ~delta:false out))
  | Client.Delta blob -> (
    Stats.add r.delta_bytes (float_of_int (String.length blob));
    match
      T.span r.tm ~site:e.site "Proto.decode_delta" (fun () ->
          Proto.Char_proto.decode_delta blob)
    with
    | Error err -> fail r ("bad delta: " ^ err)
    | Ok d -> (
      match e.ctrl with
      | None -> fail r "delta without local state"
      | Some mine -> (
        match
          T.span r.tm ~site:e.site "Controller.apply_delta" (fun () ->
              Controller.apply_delta mine d)
        with
        | Error err -> fail r ("delta rejected: " ^ err)
        | Ok (mine, out) ->
          e.ctrl <- Some mine;
          went_live r e ~delta:true out)))
  | Client.Message blob -> (
    let t0 = T.now_ns () in
    let decoded = Proto.Char_proto.decode_message_stamped blob in
    let t1 = T.now_ns () in
    match (decoded, e.ctrl) with
    | Error err, _ -> fail r ("bad message: " ^ err)
    | Ok _, None -> fail r "message before the state transfer"
    | Ok (_, m), Some c -> (
      let req = req_of m in
      T.record r.tm ~site:e.site ~req "Proto.decode_message" ~t0 ~t1;
      let layer =
        match m with
        | Controller.Coop _ -> "Controller.receive"
        | Controller.Admin _ -> "Controller.receive_admin"
      in
      match T.span r.tm ~site:e.site ~req layer (fun () -> Controller.receive c m) with
      | c, emitted ->
        e.ctrl <- Some c;
        journal_record r e (Persist.Received m);
        List.iter (send r e) emitted;
        advance r e ~live:true
      | exception ex -> fail r ("receive raised: " ^ Printexc.to_string ex)))
  | Client.Beacon blob -> (
    match
      T.span r.tm ~site:e.site "Proto.decode_frontier" (fun () -> Proto.decode_frontier blob)
    with
    | Error _ -> () (* gossip is advisory *)
    | Ok entries -> (
      match e.ctrl with
      | None -> ()
      | Some c ->
        e.ctrl <-
          Some
            (T.span r.tm ~site:e.site "Controller.receive_beacon" (fun () ->
                 List.fold_left
                   (fun c (b : Proto.beacon) ->
                     Controller.receive_beacon c ~peer:b.Proto.b_site
                       ~clock:b.Proto.b_clock ~version:b.Proto.b_version)
                   c entries))))
  | Client.Disconnected _ -> ()
  | Client.Reconnecting { delay_ms; _ } ->
    e.reconnect_ms <- Obs.Clock.now_ms () +. float_of_int delay_ms
  | Client.Gave_up reason -> fail r ("client gave up: " ^ reason)

(* Window compaction.  A journaled editor never lets the compaction cut
   outrun its durable snapshot: checkpoint first when the stable frontier
   moved past the last cut, then clamp to it. *)
let compact r e =
  match e.ctrl with
  | None -> ()
  | Some c ->
    T.span r.tm ~site:e.site "Controller.compact" (fun () ->
        match e.journal with
        | None -> e.ctrl <- Some (Controller.compact c)
        | Some j -> (
          (match Persist.checkpoint_clock j with
           | Some cut when Vclock.leq (Controller.stable_frontier c) cut -> ()
           | _ -> checkpoint r e);
          match Persist.checkpoint_clock j with
          | Some limit -> e.ctrl <- Some (Controller.compact ~limit c)
          | None -> ()))

(* ----- issuing ops ----- *)

let issue_coop r e k ~due =
  match e.ctrl with
  | None -> fail r "op due before the editor joined"
  | Some c -> (
    let intent = r.inp.W.streams.(e.site).(k) in
    let op =
      T.span r.tm ~site:e.site "Tdoc.locate" (fun () ->
          W.op_of (Controller.document c) intent)
    in
    r.attempted <- r.attempted + 1;
    match T.span r.tm ~site:e.site "Controller.generate" (fun () -> Controller.generate c op) with
    | _, Controller.Denied _ -> r.denied <- r.denied + 1
    | c, Controller.Accepted m ->
      e.ctrl <- Some c;
      let serial =
        match m with
        | Controller.Coop q -> q.Request.id.Request.serial
        | Controller.Admin _ -> e.max_serial
      in
      e.max_serial <- serial;
      let live = Client.connected e.client in
      Hashtbl.replace r.born (e.site, serial) { due; live };
      if not live then r.offline <- r.offline + 1;
      journal_record r e (Persist.Generated op);
      send r e m;
      let t1 = T.now_ns () in
      Stats.add r.echo (us (t1 - due));
      T.record r.tm ~site:e.site ~req:(T.Coop (e.site, serial)) "op.echo" ~t0:due ~t1)

let issue_admin r op ~due ~restrictive =
  let e = r.eds.(0) in
  match e.ctrl with
  | None -> fail r "admin op due before the administrator joined"
  | Some c -> (
    match
      T.span r.tm ~site:0 "Controller.admin_update" (fun () -> Controller.admin_update c op)
    with
    | Error err -> fail r ("admin_update: " ^ err)
    | Ok (c, m) ->
      e.ctrl <- Some c;
      if restrictive then Hashtbl.replace r.enforcing (Controller.version c) due;
      journal_record r e (Persist.Admin_cmd op);
      send r e m)

(* ----- the loop ----- *)

(* A client between connect and state transfer needs the loop to keep
   turning: the hub answers it from this very thread. *)
let transferring e = Client.fd e.client <> None && not (Client.connected e.client)

(* One turn; true when anything moved, so the next turn must not block. *)
let turn r =
  let busy = ref false in
  let before = Hub.outbox_bytes r.hub in
  T.span r.tm "Hub.step" (fun () -> Hub.step ~timeout_ms:0 r.hub);
  let after = Hub.outbox_bytes r.hub in
  if before > 0 || after > 0 then busy := true;
  r.hub_outbox_max <- max r.hub_outbox_max (max before after);
  Array.iter
    (fun e ->
      let before = Client.outbox_bytes e.client in
      let evs = T.span r.tm ~site:e.site "Client.step" (fun () -> Client.step e.client) in
      if before > 0 || evs <> [] then busy := true;
      List.iter (handle r e) evs;
      let after = Client.outbox_bytes e.client in
      r.client_outbox_max <- max r.client_outbox_max (max before after);
      if after > 0 || transferring e then busy := true)
    r.eds;
  !busy

(* Block until [deadline] (ns), or until a client socket turns readable. *)
let idle r deadline =
  T.span r.tm "loop.idle" (fun () ->
      let remaining = deadline - T.now_ns () in
      if remaining >= 2_000_000 then begin
        let read = List.filter_map (fun e -> Client.fd e.client) (Array.to_list r.eds) in
        ignore (Evloop.wait ~timeout_ms:((remaining / 1_000_000) - 1) ~read ~write:[] ())
      end
      else if remaining > 0 then Unix.sleepf (float_of_int remaining /. 1e9))

(* The earliest pending client reconnect, in ns on the timing clock. *)
let reconnect_deadline r =
  Array.fold_left
    (fun acc e ->
      if e.reconnect_ms > 0. then
        let wait = e.reconnect_ms -. Obs.Clock.now_ms () in
        min acc (T.now_ns () + max 0 (truncate (wait *. 1e6)))
      else acc)
    max_int r.eds

let sample_gauges r =
  T.span r.tm "loop.harness" (fun () ->
      let wl c = Controller.window_len c in
      let m = wl (Hub.controller ~doc:doc_name r.hub) in
      let m =
        Array.fold_left
          (fun m e -> match e.ctrl with Some c -> max m (wl c) | None -> m)
          m r.eds
      in
      r.window_max <- max r.window_max m)

(* Peak resident set of this process so far (VmHWM), in MiB. *)
let peak_rss_mb () =
  let kib =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ | Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  match kib with
  | Some k -> float_of_int k /. 1024.
  | None ->
    (* no procfs: the OCaml heap's high-water mark is the next best thing *)
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let wire r =
  Array.fold_left
    (fun acc e ->
      acc
      + Obs.Metrics.value (Obs.Metrics.counter e.net "netd.bytes_in")
      + Obs.Metrics.value (Obs.Metrics.counter e.net "netd.bytes_out"))
    0 r.eds

(* Turn until [cond] holds; false on timeout. *)
let pump r ~timeout_ns cond =
  let deadline = T.now_ns () + timeout_ns in
  let rec go () =
    let busy = turn r in
    if r.errors <> [] then false
    else if (not busy) && cond () then true
    else if T.now_ns () > deadline then false
    else begin
      if not busy then idle r (min (T.now_ns () + 1_000_000) (reconnect_deadline r));
      go ()
    end
  in
  go ()

(* ----- setup ----- *)

let both_live r () = Array.for_all (fun e -> Client.connected e.client && e.lives > 0) r.eds

let create ~w ~inp ~tm ~cmetrics ~seed ~run_dir =
  let base = W.preloaded w inp in
  let dir =
    if w.W.journal then begin
      mkdir_p run_dir;
      Some run_dir
    end
    else None
  in
  let hub_ctrl = Controller.fork ~site:relay_site base in
  let hub_journal =
    Option.map
      (fun d ->
        let j = open_journal (Filename.concat d "hub") in
        (match Persist.checkpoint j hub_ctrl with
         | Ok () -> ()
         | Error e -> failwith ("hub checkpoint: " ^ e));
        j)
      dir
  in
  let factory name =
    if name = doc_name then Ok (hub_ctrl, hub_journal)
    else Error ("unknown document " ^ name)
  in
  let hub =
    Hub.create ~eq:Char.equal ~codec:Proto.char_codec ~factory ~docs:[ doc_name ] ~port:0 ()
  in
  let hub_born_ns = T.now_ns () and hub_born_ms = Obs.Clock.now_ms () in
  let eds =
    Array.init 2 (fun site ->
        let journal =
          Option.map (fun d -> open_journal (Filename.concat d (Printf.sprintf "site%d" site))) dir
        in
        let cell = ref None in
        let resume () =
          match !cell with
          | Some e when e.delta_resume ->
            Option.map (fun c -> (Controller.clock c, Controller.version c)) e.ctrl
          | _ -> None
        in
        let net = Obs.Metrics.create () in
        let client =
          Client.create ~metrics:net ~seed:(Hashtbl.hash (seed, site)) ~doc:doc_name ~resume
            ~host:"127.0.0.1" ~port:(Hub.port hub) ~site ()
        in
        let e =
          {
            site;
            client;
            net;
            journal;
            ctrl = None;
            delta_resume = false;
            joining = 0;
            lives = 0;
            reconnect_ms = 0.;
            last_compact = hub_born_ms;
            max_serial = 0;
            seen = 0;
            seen_version = 0;
          }
        in
        cell := Some e;
        Client.set_stamp client (fun () ->
            match e.ctrl with
            | Some c -> (Controller.clock c, Controller.version c)
            | None -> (Vclock.empty, 0));
        e)
  in
  {
    w;
    inp;
    tm;
    cmetrics;
    hub;
    hub_journal;
    hub_born_ns;
    eds;
    dir;
    born = Hashtbl.create 4096;
    validates = Hashtbl.create 4096;
    enforcing = Hashtbl.create 256;
    echo = Stats.sample ();
    prop = Stats.sample ();
    valid = Stats.sample ();
    enforce = Stats.sample ();
    join_snap = Stats.sample ();
    join_delta = Stats.sample ();
    late = Stats.sample ();
    snapshot_bytes = Stats.sample ();
    delta_bytes = Stats.sample ();
    measuring = false;
    attempted = 0;
    denied = 0;
    offline = 0;
    delivered = 0;
    msg_bytes = 0;
    msgs = 0;
    window_max = 0;
    hub_outbox_max = 0;
    client_outbox_max = 0;
    reconnects = 0;
    window_t0 = 0;
    window_t1 = 0;
    wire_bytes = 0;
    state_kib = 0.;
    rss_peak = Float.nan;
    errors = [];
  }

(* Everything up to both editors live: preload, hub, journals, attach
   and the initial state transfers.  Returns the run and its seconds. *)
let setup ~w ~inp ~tm ~cmetrics ~seed ~run_dir =
  let t0 = T.now_ns () in
  let r = create ~w ~inp ~tm ~cmetrics ~seed ~run_dir in
  if not (pump r ~timeout_ns:probe_timeout_ns (both_live r)) then
    fail r "editors did not join";
  (r, float_of_int (T.now_ns () - t0) /. 1e9)

let user_reached r version () =
  match r.eds.(1).ctrl with Some c -> Controller.version c >= version | None -> false

(* Exercise the paths the window may not: a restrictive administrative
   request and its reversal, then a rejoin by delta and one by snapshot.
   Every workload thus reports enforcement and join costs. *)
let probes r =
  let adm = r.eds.(0) and user = r.eds.(1) in
  let due = T.now_ns () in
  issue_admin r (W.churn_op r.inp 0) ~due ~restrictive:true;
  issue_admin r (W.churn_op r.inp 1) ~due:(T.now_ns ()) ~restrictive:false;
  let v = match adm.ctrl with Some c -> Controller.version c | None -> 0 in
  if not (pump r ~timeout_ns:probe_timeout_ns (user_reached r v)) then
    fail r "enforcement probe timed out";
  List.iter
    (fun delta ->
      let lives = user.lives in
      user.delta_resume <- delta;
      Client.drop_link user.client;
      if
        not
          (pump r ~timeout_ns:probe_timeout_ns (fun () ->
               user.lives > lives && Client.connected user.client))
      then fail r "rejoin probe timed out")
    [ true; false ];
  user.delta_resume <- false

(* ----- the measured window ----- *)

(* user + system CPU of this process; getrusage resolution, where
   [Unix.times] counts 10 ms ticks *)
let cpu_s = Sys.time

type window = { wall_s : float; cpu_s : float }

let window r ~seconds =
  let period = truncate (1e9 /. rate) in
  (* The hub's and the editors' 5 s beacon and compaction cadences run
     from the hub's creation.  Starting half a second past a whole second
     after it keeps their phase in the window the same from run to run,
     whatever the set-up and the probes' reconnect jitter took, and the
     window ends half a second from the nearest compaction, so the state
     it leaves does not hang on which side of the end one fell. *)
  let second = 1_000_000_000 in
  let t0 =
    r.hub_born_ns + (second / 2)
    + ((T.now_ns () + 2_000_000 - r.hub_born_ns - (second / 2) + second - 1) / second * second)
  in
  ignore (pump r ~timeout_ns:(t0 - 1_000_000 - T.now_ns ()) (fun () -> false));
  let t_end = t0 + truncate (seconds *. 1e9) in
  (* Fixed phases: the editors alternate half a period apart, and no op
     is due on a whole second, where the 5 s compactions fall (half a
     second is a whole number of periods).  Unless the loop is behind,
     every request is stable when a compaction runs, so how much of the
     window it leaves does not depend on which op happened to be in
     flight. *)
  let next = Array.init 2 (fun site -> t0 + ((1 + (2 * site)) * period / 4)) in
  let k = Array.make 2 0 in
  let admin_period = if r.w.W.admin_rate > 0. then truncate (1e9 /. r.w.W.admin_rate) else 0 in
  (* administrative ops fall on the user's due times, half of them (the
     restrictive ones) in the same turn as a user op: that op is in
     flight when the restriction is issued, so retroactive undo runs *)
  let next_admin = ref (if admin_period > 0 then next.(1) else max_int) in
  let j_admin = ref 0 in
  let drop_period = truncate (r.w.W.drop_every_ms *. 1e6) in
  let next_drop = ref (if drop_period > 0 then t0 + drop_period else max_int) in
  let j_drop = ref 0 in
  let limit = Array.length r.inp.W.streams.(0) in
  r.measuring <- true;
  T.set_window r.tm true;
  let wire0 = wire r in
  let cpu0 = cpu_s () in
  let wall0 = T.now_ns () in
  r.window_t0 <- wall0;
  let rec go () =
    let busy = turn r in
    let now_ms = Obs.Clock.now_ms () in
    Array.iter
      (fun e ->
        if now_ms -. e.last_compact >= compact_every_ms then begin
          e.last_compact <- e.last_compact +. compact_every_ms;
          compact r e
        end)
      r.eds;
    let now = T.now_ns () in
    let issued = ref false in
    (* every op due by now, earliest first *)
    let rec issue_due () =
      let due = min (min next.(0) next.(1)) !next_admin in
      if due <= now && due < t_end then begin
        issued := true;
        Array.iteri
          (fun site d ->
            if d = due then begin
              Stats.add r.late (ms (T.now_ns () - due));
              if k.(site) < limit then begin
                issue_coop r r.eds.(site) k.(site) ~due;
                k.(site) <- k.(site) + 1;
                next.(site) <- d + period
              end
              else next.(site) <- max_int
            end)
          next;
        if !next_admin = due then begin
          Stats.add r.late (ms (T.now_ns () - due));
          let j = !j_admin in
          issue_admin r (W.churn_op r.inp j) ~due ~restrictive:(j mod 2 = 0);
          incr j_admin;
          r.attempted <- r.attempted + 1;
          next_admin := due + admin_period
        end;
        issue_due ()
      end
    in
    issue_due ();
    if !next_drop <= now && !next_drop < t_end then begin
      let user = r.eds.(1) in
      if Client.connected user.client then begin
        user.delta_resume <- !j_drop mod 2 = 0;
        incr j_drop;
        T.span r.tm ~site:1 "Client.drop_link" (fun () -> Client.drop_link user.client)
      end;
      next_drop := !next_drop + drop_period
    end;
    sample_gauges r;
    if now < t_end && r.errors = [] then begin
      if (not busy) && not !issued then begin
        let deadline = min (min next.(0) next.(1)) (min !next_admin !next_drop) in
        idle r (min (min deadline t_end) (reconnect_deadline r))
      end;
      go ()
    end
  in
  go ();
  let cpu = cpu_s () -. cpu0 in
  r.window_t1 <- T.now_ns ();
  let wall = r.window_t1 - wall0 in
  r.wire_bytes <- wire r - wire0;
  (* before [reachable_words], whose own table would count *)
  r.rss_peak <- peak_rss_mb ();
  r.state_kib <-
    float_of_int
      (Obj.reachable_words
         (Obj.repr
            (Hub.controller ~doc:doc_name r.hub, Array.map (fun e -> e.ctrl) r.eds)))
    *. float_of_int (Sys.word_size / 8)
    /. 1024.;
  T.set_window r.tm false;
  r.measuring <- false;
  { wall_s = float_of_int wall /. 1e9; cpu_s = cpu }

(* ----- drain and verdict ----- *)

let controllers r =
  Hub.controller ~doc:doc_name r.hub :: List.filter_map (fun e -> e.ctrl) (Array.to_list r.eds)

let quiescent r () =
  match controllers r with
  | [ h; a; u ] ->
    Array.for_all (fun e -> Client.connected e.client) r.eds
    && List.for_all
         (fun c ->
           Vclock.equal (Controller.clock c) (Controller.clock h)
           && Controller.version c = Controller.version h
           && Controller.pending_coop c = 0
           && Controller.pending_admin c = 0)
         [ a; u ]
    && Controller.tentative u = []
  | _ -> false

type verdict = { converged : bool; failed : int; problems : string list }

(* Every accepted request integrated by the hub replica and the other
   editor, the same content everywhere, no user request left tentative. *)
let verdict r =
  let drained = pump r ~timeout_ns:drain_ns (quiescent r) in
  let problems = ref (List.rev r.errors) in
  let note p = problems := !problems @ [ p ] in
  if not drained then note "did not quiesce within the drain";
  let failed =
    Array.fold_left
      (fun acc e ->
        let missing c = max 0 (e.max_serial - Vclock.get (Controller.clock c) e.site) in
        let at_hub = missing (Hub.controller ~doc:doc_name r.hub) in
        let at_peer =
          match r.eds.(1 - e.site).ctrl with Some c -> missing c | None -> e.max_serial
        in
        if at_hub + at_peer > 0 then
          note
            (Printf.sprintf "site %d: %d request(s) missing at the hub, %d at the peer" e.site
               at_hub at_peer);
        acc + max at_hub at_peer)
      0 r.eds
  in
  let prints = List.map (Proto.content_fingerprint Proto.char_codec) (controllers r) in
  let converged =
    match prints with
    | [ h; a; u ] -> h = a && a = u
    | _ -> false
  in
  if not converged then note "content fingerprints differ";
  (match r.eds.(1).ctrl with
   | Some u when Controller.tentative u <> [] ->
     note (Printf.sprintf "%d user request(s) still tentative" (List.length (Controller.tentative u)))
   | _ -> ());
  { converged; failed; problems = !problems }

let teardown r =
  Array.iter (fun e -> Client.close e.client) r.eds;
  Hub.shutdown r.hub;
  Array.iter (fun e -> Option.iter Persist.close e.journal) r.eds;
  Option.iter Persist.close r.hub_journal;
  Option.iter rm_rf r.dir
