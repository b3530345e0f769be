module Obs = Dce_obs
module M = Obs.Metrics
module Proto = Dce_wire.Proto
module Vclock = Dce_ot.Vclock
module Controller = Dce_core.Controller
module Conn = Dce_netd.Conn
module Dialer = Dce_netd.Dialer
module Evloop = Dce_netd.Evloop
module Tele = Dce_netd.Tele
module Relay_proto = Dce_netd.Relay_proto
module Faults = Dce_netd.Faults
module Replica = Dce_store.Replica

type config = {
  heartbeat_ms : int;
  idle_timeout_ms : int;
  hub_id : int;
  auto_create : bool;
  max_docs : int;
  beacon_ms : int;
  compact_ms : int;
}

let default_config =
  {
    heartbeat_ms = 5_000;
    idle_timeout_ms = 30_000;
    hub_id = 0;
    auto_create = false;
    max_docs = 4096;
    beacon_ms = 5_000;
    compact_ms = 5_000;
  }

(* Per-connection mux state.  Which docs a connection is attached to
   (and as which site) is tracked here for routing and teardown; the
   per-doc member lists used for fan-out live in the sessions. *)
type conn_state = {
  conn : Conn.t;
  mutable atts : (string * int) list; (* doc name -> site *)
}

type 'e t = {
  cfg : config;
  tele : Tele.t;
  reg : M.t; (* per-doc labeled series; disabled registry when unmetered *)
  codec : 'e Proto.elt_codec;
  eq : 'e -> 'e -> bool;
  listen_fd : Unix.file_descr;
  port : int;
  registry : 'e Registry.t;
  default_doc : string option; (* the first of [~docs]: what [?doc] means *)
  upstream : Upstream.t option;
  (* chaos runs: seeded fault plans for every accepted member
     connection (and the federation link), reproducible from one seed *)
  chaos : (int * Faults.config) option;
  mutable conn_seq : int;
  mutable conns : conn_state list;
  mutable stopped : bool;
  mutable last_beacon_ms : float;
  mutable last_compact_ms : float;
}

let member_gauge t doc = M.gauge t.reg (M.with_label "hub.members" ~key:"doc" ~value:doc)

let doc_frames t doc = M.counter t.reg (M.with_label "hub.frames" ~key:"doc" ~value:doc)

let update_doc_gauges t s =
  M.set (member_gauge t (Session.name s)) (Session.member_count s);
  M.set (M.gauge t.reg "hub.docs") (Registry.count t.registry)

let create ?(config = default_config) ?metrics ?(trace = Obs.Trace.null)
    ?(addr = Unix.inet_addr_loopback) ?upstream:up ?seed ?chaos ?(eq = ( = )) ~codec
    ~factory ~docs ~port () =
  (match up with
   | Some _ when config.hub_id = 0 ->
     invalid_arg "Hub.create: federation requires a nonzero hub_id"
   | _ -> ());
  let registry = Registry.create ~max_docs:config.max_docs ~trace ~factory () in
  List.iter
    (fun d ->
      match Registry.open_doc registry d with
      | Ok _ -> ()
      | Error e -> failwith ("Hub.create: " ^ e))
    docs;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let upstream =
    Option.map
      (fun (host, uport) ->
        let site =
          match Registry.docs registry with
          | s :: _ -> Controller.site (Session.controller s)
          | [] -> invalid_arg "Hub.create: federation requires at least one document"
        in
        let faults =
          Option.map
            (fun (cseed, cfg) -> Faults.create ~config:cfg ~seed:cseed ~label:"upstream" ())
            chaos
        in
        let u = Upstream.create ?metrics ?seed ?faults ~host ~port:uport ~site () in
        List.iter
          (fun s -> Upstream.attach u ~doc:(Session.name s))
          (Registry.docs registry);
        u)
      up
  in
  let t =
    {
      cfg = config;
      tele = Tele.make ?metrics ();
      reg = (match metrics with Some m -> m | None -> M.create ~enabled:false ());
      codec;
      eq;
      listen_fd = fd;
      port;
      registry;
      default_doc = (match docs with d :: _ -> Some d | [] -> None);
      upstream;
      chaos;
      conn_seq = 0;
      conns = [];
      stopped = false;
      last_beacon_ms = neg_infinity;
      last_compact_ms = neg_infinity;
    }
  in
  List.iter (update_doc_gauges t) (Registry.docs registry);
  t

let port t = t.port
let hub_id t = t.cfg.hub_id
let docs t = Registry.names t.registry
let stopped t = t.stopped
let upstream_connected t =
  match t.upstream with Some u -> Upstream.connected u | None -> false

let upstream_health t = Option.map Upstream.health t.upstream
let journal_errors t =
  List.fold_left
    (fun acc s -> acc + Replica.journal_errors (Session.replica s))
    0 (Registry.docs t.registry)

let max_stable_lag t =
  List.fold_left
    (fun acc s -> max acc (Controller.stable_lag (Session.controller s)))
    0 (Registry.docs t.registry)

(* One JSON health report for the admin plane: a not-"ok" status makes
   {!Dce_netd.Admin} serve /healthz as a 503, so plain HTTP probes see
   degradation without parsing the body.  [max_lag] bounds the tolerated
   stability lag (events integrated but not yet known stable, the bytes
   compaction cannot reclaim) across hosted docs. *)
let healthz ?(max_lag = 100_000) t () =
  let lag = max_stable_lag t in
  let journal_errors = journal_errors t in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  (match upstream_health t with
   | Some (Upstream.Degraded { reason; since_ms }) ->
     note
       (Printf.sprintf "upstream degraded for %.0fms: %s"
          (Obs.Clock.now_ms () -. since_ms)
          reason)
   | Some Upstream.Healthy | None -> ());
  if journal_errors > 0 then note (Printf.sprintf "%d journal error(s)" journal_errors);
  if lag > max_lag then note (Printf.sprintf "stable lag %d over limit %d" lag max_lag);
  let reasons =
    match !problems with
    | [] -> []
    | ps -> [ ("reasons", Obs.Json.List (List.map (fun p -> Obs.Json.String p) (List.rev ps))) ]
  in
  Obs.Json.Obj
    ([
       ("status", Obs.Json.String (if !problems = [] then "ok" else "degraded"));
       ("role", Obs.Json.String "hub");
       ("docs", Obs.Json.Int (List.length (Registry.names t.registry)));
       ("stable_lag", Obs.Json.Int lag);
       ("journal_errors", Obs.Json.Int journal_errors);
     ]
     @ reasons)

let session t doc =
  match Registry.find t.registry doc with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Hub: unknown document %S" doc)

let the_doc t doc =
  match (doc, t.default_doc) with
  | Some d, _ | None, Some d -> d
  | None, None -> invalid_arg "Hub: no document named and none hosted from the start"

let controller ?doc t = Session.controller (session t (the_doc t doc))

let connected_sites ?doc t = Session.connected_sites (session t (the_doc t doc))

let member_count ?doc t = Session.member_count (session t (the_doc t doc))

let conn_count t = List.length (List.filter (fun cs -> Conn.alive cs.conn) t.conns)

let outbox_bytes t =
  List.fold_left
    (fun acc cs -> if Conn.alive cs.conn then acc + Conn.outbox_bytes cs.conn else acc)
    0 t.conns

(* ------------------------------------------------------------------ *)
(* Attach / fan-out                                                   *)

(* [resume] is the joiner's presented resume point.  When the hosted
   log still covers it, the state transfer is a delta — the suffix the
   joiner lacks — instead of the full O(n x |H|) snapshot encode; when
   the log has compacted past it (or there is no resume point), the
   full snapshot is the sound fallback.  Counted and traced as what was
   actually sent. *)
let send_transfer t cs s ~site ~resume =
  let doc = Session.name s in
  let ctrl = Session.controller s in
  let transfer, what =
    match
      Option.bind resume (fun (clock, version) -> Controller.delta_since ctrl ~clock ~version)
    with
    | Some d ->
      M.incr (M.counter t.reg "hub.deltas");
      (Relay_proto.Doc_delta { doc; delta = Proto.encode_delta t.codec d }, "delta")
    | None ->
      M.incr t.tele.Tele.snapshots;
      let state = Proto.encode_state t.codec (Controller.dump ctrl) in
      (Relay_proto.Doc_snapshot { doc; state }, "snapshot")
  in
  let attached =
    Relay_proto.Attached
      { doc; relay_site = Controller.site ctrl; heartbeat_ms = t.cfg.heartbeat_ms }
  in
  Conn.send cs.conn (Relay_proto.encode attached);
  Conn.send cs.conn (Relay_proto.encode transfer);
  Replica.note ~peer:site (Session.replica s) what ""

let attach ?resume t cs ~session:s ~site =
  let doc = Session.name s in
  (* a site reconnecting through a fresh socket supersedes its old,
     possibly half-dead attachment; the old connection is closed once it
     holds no other attachment *)
  (match Session.find_site s ~site with
   | Some m when m.Session.conn != cs.conn ->
     ignore (Session.remove_conn s m.Session.conn);
     (match List.find_opt (fun c' -> c'.conn == m.Session.conn) t.conns with
      | Some c' ->
        c'.atts <- List.filter (fun (d, _) -> d <> doc) c'.atts;
        if c'.atts = [] then Conn.mark_closed c'.conn Conn.Superseded
      | None -> ())
   | _ -> ());
  cs.atts <- cs.atts @ [ (doc, site) ];
  let again = Session.add_member s { Session.conn = cs.conn; site } in
  M.incr t.tele.Tele.connects;
  if again then M.incr t.tele.Tele.reconnects;
  Replica.note ~peer:site (Session.replica s)
    (if again then "reconnect" else "connect")
    (Conn.peer cs.conn);
  send_transfer t cs s ~site ~resume;
  update_doc_gauges t s

let fan_frame s ~except ~origin bytes =
  let frame =
    Relay_proto.encode (Relay_proto.Doc_msg { doc = Session.name s; origin; msg = bytes })
  in
  List.iter
    (fun (m : Session.member) ->
      let skip = match except with Some c -> m.Session.conn == c | None -> false in
      if not skip then Conn.send m.Session.conn frame)
    (Session.members s)

let forward_up t ~from_upstream ~doc ~origin bytes =
  match t.upstream with
  | Some u when not from_upstream -> Upstream.send u ~doc ~origin bytes
  | _ -> ()

(* Input the hub cannot apply drops its sender as [Corrupt]: a member
   connection ([Some c]), or the federation link ([None]), which then
   degrades, reconnects and heals from the home's fresh snapshots. *)
let reject t src why =
  match src with
  | Some c -> Conn.mark_closed c (Conn.Corrupt why)
  | None -> Option.iter (fun u -> Upstream.reject u why) t.upstream

(* Apply one replication frame to a session and propagate it: fan the
   original bytes verbatim to the doc's other members, forward up the federation link unless the
   frame came down it, and fan any validations the hosted controller
   emitted.  [src = None] marks frames from upstream. *)
let route t ~session:s ~src ~origin ~from_upstream bytes =
  let doc = Session.name s in
  if t.cfg.hub_id <> 0 && origin = t.cfg.hub_id then
    (* our own frame came back around the federation graph: drop it *)
    M.incr (M.counter t.reg "hub.loop_drops")
  else
    match Proto.decode_message_stamped t.codec bytes with
    | Error e -> reject t src ("bad message: " ^ e)
    | Ok (stamp, m) -> (
      (match stamp with
       | Some st -> M.observe t.tele.Tele.e2e_ns (Obs.Clock.now_ns () - st.Proto.s_ns)
       | None -> ());
      (* [decode_message] validates the encoding only; applying the
         message is what checks its semantics.  A well-framed op with an
         out-of-range position or a fabricated serial/context must drop
         the peer, not the daemon — and must not be relayed. *)
      match Replica.receive (Session.replica s) m with
      | Error why -> reject t src ("rejected message: " ^ why)
      | Ok emitted ->
        M.incr t.tele.Tele.relayed;
        M.incr (doc_frames t doc);
        let origin = if origin <> 0 then origin else t.cfg.hub_id in
        fan_frame s ~except:src ~origin bytes;
        forward_up t ~from_upstream ~doc ~origin bytes;
        List.iter
          (fun em ->
            let eb = Proto.encode_message t.codec em in
            fan_frame s ~except:None ~origin:t.cfg.hub_id eb;
            (* emitted frames are local productions: they go up even
               when the triggering frame came down *)
            forward_up t ~from_upstream:false ~doc ~origin:t.cfg.hub_id eb)
          emitted)

(* ------------------------------------------------------------------ *)
(* Member dispatch                                                    *)

let corrupt conn why = Conn.mark_closed conn (Conn.Corrupt why)

let open_for_attach t name =
  match Doc_name.validate name with
  | Error e -> Error e
  | Ok name -> (
    match Registry.find t.registry name with
    | Some s -> Ok s
    | None ->
      if not t.cfg.auto_create then
        Error (Printf.sprintf "unknown document %S" name)
      else (
        match Registry.open_doc t.registry name with
        | Ok s ->
          Option.iter (fun u -> Upstream.attach u ~doc:name) t.upstream;
          update_doc_gauges t s;
          Ok s
        | Error e -> Error e))

let dispatch t cs payload =
  match Relay_proto.decode payload with
  | Error e -> corrupt cs.conn ("bad envelope: " ^ e)
  | Ok msg -> (
    match msg with
    | Relay_proto.Attach { doc; site } ->
      if List.mem_assoc doc cs.atts then corrupt cs.conn ("duplicate attach: " ^ doc)
      else (
        match open_for_attach t doc with
        | Ok s -> attach t cs ~session:s ~site
        | Error e -> corrupt cs.conn e)
    | Relay_proto.Attach_at { doc; site; resume } ->
      if List.mem_assoc doc cs.atts then corrupt cs.conn ("duplicate attach: " ^ doc)
      else (
        match Proto.decode_frontier resume with
        | Error e -> corrupt cs.conn ("bad resume point: " ^ e)
        | Ok entries -> (
          match open_for_attach t doc with
          | Ok s ->
            (* the presented clock is also a stability advertisement:
               absorb it before choosing the transfer *)
            Session.absorb s entries;
            let resume =
              match entries with
              | [ b ] when b.Proto.b_site = site ->
                Some (b.Proto.b_clock, b.Proto.b_version)
              | _ -> None (* malformed resume blob: serve the snapshot *)
            in
            attach ?resume t cs ~session:s ~site
          | Error e -> corrupt cs.conn e))
    | Relay_proto.Beacon { doc; frontier } -> (
      match List.mem_assoc doc cs.atts with
      | false -> corrupt cs.conn ("beacon for unattached document " ^ doc)
      | true -> (
        match Proto.decode_frontier frontier with
        | Error e -> corrupt cs.conn ("bad frontier: " ^ e)
        | Ok entries -> Session.absorb (session t doc) entries))
    | Relay_proto.Detach { doc } -> (
      match List.mem_assoc doc cs.atts with
      | false -> corrupt cs.conn ("detach without attach: " ^ doc)
      | true -> (
        cs.atts <- List.filter (fun (d, _) -> d <> doc) cs.atts;
        match Registry.find t.registry doc with
        | Some s ->
          ignore (Session.remove_conn s cs.conn);
          (* a conn can re-attach later; sessions keep running *)
          update_doc_gauges t s
        | None -> ()))
    | Relay_proto.Doc_msg { doc; origin; msg } -> (
      match List.mem_assoc doc cs.atts with
      | false -> corrupt cs.conn ("message for unattached document " ^ doc)
      | true ->
        route t ~session:(session t doc) ~src:(Some cs.conn) ~origin ~from_upstream:false
          msg)
    | Relay_proto.Ping -> Conn.send cs.conn (Relay_proto.encode Relay_proto.Pong)
    | Relay_proto.Pong -> ()
    | Relay_proto.Bye _ -> Conn.mark_closed cs.conn (Conn.Local "bye")
    | Relay_proto.Attached _ | Relay_proto.Doc_snapshot _ | Relay_proto.Doc_delta _ ->
      corrupt cs.conn "server-only envelope from a client")

(* ------------------------------------------------------------------ *)
(* Federation events                                                  *)

(* A session-state push to every member — the same resynchronization a
   late joiner gets, used after a federation merge brings in history
   that was never fanned out as frames. *)
let resync_members t s =
  let state = Proto.encode_state t.codec (Controller.dump (Session.controller s)) in
  let frame = Relay_proto.encode (Relay_proto.Doc_snapshot { doc = Session.name s; state }) in
  List.iter
    (fun (m : Session.member) ->
      Conn.send m.Session.conn frame;
      M.incr t.tele.Tele.snapshots)
    (Session.members s)

let handle_upstream_event t = function
  | Upstream.Up_connected | Upstream.Up_disconnected _ -> ()
  | Upstream.Up_beacon { doc; frontier } -> (
    match Registry.find t.registry doc with
    | None -> ()
    | Some s -> (
      match Proto.decode_frontier frontier with
      | Error e -> reject t None ("bad frontier: " ^ e)
      | Ok entries -> Session.absorb s entries))
  | Upstream.Up_msg { doc; origin; msg } -> (
    match Registry.find t.registry doc with
    | None -> () (* a doc we never attached: ignore *)
    | Some s -> route t ~session:s ~src:None ~origin ~from_upstream:true msg)
  | Upstream.Up_snapshot { doc; state } -> (
    match Registry.find t.registry doc with
    | None -> ()
    | Some s -> (
      match Proto.decode_state t.codec state with
      | Error e -> reject t None ("bad snapshot: " ^ e)
      | Ok st -> (
        match Controller.load ~eq:t.eq st with
        | Error e -> reject t None ("snapshot rejected: " ^ e)
        | Ok donor -> (
          (* heal, don't replace: what the donor holds past this
             replica's clock replays through its own [receive], and the
             returned messages are local requests the home had not seen
             — push those up so the healing is symmetric *)
          match Replica.catch_up (Session.replica s) donor with
          | Error e -> reject t None ("snapshot rejected: " ^ e)
          | Ok out ->
            let donor_clock = Controller.clock donor in
            let merged = Session.controller s in
            (* [catch_up]'s re-feed covers only requests this replica
               generated, and a relay replica generates none — after a
               home restart the snapshot it sends is *behind* us and
               nothing else on this link will ever resend the history it
               lost.  Push up the whole suffix the donor lacks, whatever
               its origin: receivers deduplicate, so over-sending is
               safe, and security is re-derived at the home as always.
               Impossible only once our log has compacted past the
               donor's clock; then the home stays degraded until a member
               re-broadcasts (counted below). *)
            let heal =
              if Vclock.leq (Controller.clock merged) donor_clock then []
              else
                match
                  Controller.delta_since merged ~clock:donor_clock
                    ~version:(Controller.version donor)
                with
                | Some d ->
                  List.map (fun r -> Controller.Admin r) d.Controller.dl_admin
                  @ List.map (fun q -> Controller.Coop q) d.Controller.dl_coop
                | None ->
                  Replica.note (Session.replica s) "heal_impossible"
                    "upstream behind our compaction cut";
                  []
            in
            List.iter
              (fun m ->
                forward_up t ~from_upstream:false ~doc ~origin:t.cfg.hub_id
                  (Proto.encode_message t.codec m))
              (heal @ out);
            (* members may lack whatever the merge brought in *)
            resync_members t s))))

(* ------------------------------------------------------------------ *)

let rec accept_all t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, sockaddr ->
    let peer =
      match sockaddr with
      | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
      | Unix.ADDR_UNIX p -> p
    in
    let faults =
      (* label by arrival order, not peer address: the plan for the k-th
         accepted connection is then a pure function of the seed *)
      Option.map
        (fun (cseed, cfg) ->
          t.conn_seq <- t.conn_seq + 1;
          Faults.create ~config:cfg ~seed:cseed
            ~label:(Printf.sprintf "member-%d" t.conn_seq)
            ())
        t.chaos
    in
    let conn = Conn.create ?faults ~tele:t.tele ~peer fd in
    t.conns <- t.conns @ [ { conn; atts = [] } ];
    accept_all t
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let heartbeats t =
  let now = Obs.Clock.now_ms () in
  List.iter
    (fun cs ->
      Dialer.keepalive ~now ~heartbeat_ms:t.cfg.heartbeat_ms
        ~idle_timeout_ms:t.cfg.idle_timeout_ms cs.conn)
    t.conns

(* ------------------------------------------------------------------ *)
(* Stability protocol: beacon fan-out and window compaction           *)

let doc_window_gauges t s =
  let doc = Session.name s in
  let ctrl = Session.controller s in
  let g name v = M.set (M.gauge t.reg (M.with_label name ~key:"doc" ~value:doc)) v in
  g "hub.window_len" (Controller.window_len ctrl);
  g "hub.admin_log_len" (Dce_core.Admin_log.live (Controller.admin_log ctrl));
  g "hub.compacted_upto" (Vclock.sum (Controller.compacted_upto ctrl));
  g "hub.stable_lag" (Controller.stable_lag ctrl)

(* Fan the per-doc aggregate frontier — every member's latest
   advertisement plus the hub's own — to members and up the
   federation link.  Gossip converges because [Session.absorb] merges
   monotonically at every hop; echoes (the home fanning our own report
   back) are idempotent no-ops. *)
let beacon_session t s =
  let ctrl = Session.controller s in
  let b_clock, b_version = Controller.beacon ctrl in
  Session.absorb s [ { Proto.b_site = Controller.site ctrl; b_clock; b_version } ];
  let doc = Session.name s in
  let blob = Proto.encode_frontier (Session.frontier s) in
  let frame = Relay_proto.encode (Relay_proto.Beacon { doc; frontier = blob }) in
  List.iter (fun (m : Session.member) -> Conn.send m.Session.conn frame) (Session.members s);
  Option.iter (fun u -> Upstream.send_beacon u ~doc blob) t.upstream

let compact_session t s =
  Replica.compact (Session.replica s);
  doc_window_gauges t s

(* Both cadences keep the phase of the hub's first step: a tick the loop
   reaches late does not shift every later one, so over a long session
   they never creep onto the instant a member's request arrives, where
   the newest request is not yet known stable and compaction keeps far
   more of the log than it would a moment earlier. *)
let stability t =
  let now = Obs.Clock.now_ms () in
  (match
     Obs.Clock.tick ~period_ms:(float_of_int t.cfg.beacon_ms) ~last:t.last_beacon_ms now
   with
   | Some due ->
     t.last_beacon_ms <- due;
     List.iter (beacon_session t) (Registry.docs t.registry)
   | None -> ());
  match
    Obs.Clock.tick ~period_ms:(float_of_int t.cfg.compact_ms) ~last:t.last_compact_ms now
  with
  | Some due ->
    t.last_compact_ms <- due;
    List.iter (compact_session t) (Registry.docs t.registry)
  | None -> ()

let reap t =
  let dead, live = List.partition (fun cs -> not (Conn.alive cs.conn)) t.conns in
  t.conns <- live;
  List.iter
    (fun cs ->
      let reason = Option.value ~default:Conn.Eof (Conn.closed_reason cs.conn) in
      M.incr t.tele.Tele.disconnects;
      let action = Conn.reason_label reason in
      List.iter
        (fun (doc, site) ->
          match Registry.find t.registry doc with
          | Some s ->
            ignore (Session.remove_conn s cs.conn);
            Replica.note ~peer:site (Session.replica s) action (Conn.reason_string reason);
            update_doc_gauges t s
          | None -> ())
        cs.atts;
      (* best-effort flush of anything already queued (e.g. a Pong),
         then close *)
      Conn.flush cs.conn;
      Conn.shutdown cs.conn)
    dead

let step ?(timeout_ms = 0) t =
  if not t.stopped then begin
    accept_all t;
    let read =
      t.listen_fd
      :: List.filter_map
           (fun cs -> if Conn.alive cs.conn then Some (Conn.fd cs.conn) else None)
           t.conns
    in
    let read =
      match t.upstream with
      | Some u -> ( match Upstream.fd u with Some fd -> fd :: read | None -> read)
      | None -> read
    in
    let write =
      List.filter_map
        (fun cs -> if Conn.wants_write cs.conn then Some (Conn.fd cs.conn) else None)
        t.conns
    in
    let write =
      match t.upstream with
      | Some u when Upstream.wants_write u -> (
        match Upstream.fd u with Some fd -> fd :: write | None -> write)
      | _ -> write
    in
    let rd, wr = Evloop.wait ~timeout_ms ~read ~write () in
    if List.memq t.listen_fd rd then accept_all t;
    List.iter
      (fun cs ->
        if List.memq (Conn.fd cs.conn) rd then
          List.iter (dispatch t cs) (Conn.handle_readable cs.conn))
      t.conns;
    List.iter
      (fun cs -> if List.memq (Conn.fd cs.conn) wr then Conn.handle_writable cs.conn)
      t.conns;
    (match t.upstream with
     | Some u -> List.iter (handle_upstream_event t) (Upstream.step ~timeout_ms:0 u)
     | None -> ());
    heartbeats t;
    stability t;
    reap t
  end

let kick ?doc t ~site =
  let docs = match doc with Some d -> [ d ] | None -> Registry.names t.registry in
  let found = ref false in
  List.iter
    (fun d ->
      match Registry.find t.registry d with
      | None -> ()
      | Some s -> (
        match Session.find_site s ~site with
        | Some m ->
          found := true;
          Conn.mark_closed m.Session.conn (Conn.Local "kicked")
        | None -> ()))
    docs;
  !found

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Option.iter Upstream.close t.upstream;
    List.iter
      (fun cs ->
        Conn.send cs.conn (Relay_proto.encode (Relay_proto.Bye "hub shutting down"));
        Conn.handle_writable cs.conn;
        Conn.shutdown cs.conn)
      t.conns;
    t.conns <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    List.iter (fun s -> Replica.close (Session.replica s)) (Registry.docs t.registry)
  end

let run ?(tick_ms = 200) ?on_tick t =
  while not t.stopped do
    step ~timeout_ms:tick_ms t;
    match on_tick with None -> () | Some f -> f t
  done
