module Obs = Dce_obs
module M = Obs.Metrics

type event =
  | Connected
  | Snapshot of string
  | Delta of string
  | Message of string
  | Beacon of string
  | Disconnected of string
  | Reconnecting of { attempt : int; delay_ms : int }
  | Gave_up of string

type config = {
  heartbeat_ms : int;
  idle_timeout_ms : int;
  max_outbox : int;
  max_frame : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  max_attempts : int option;
}

let default_config =
  {
    heartbeat_ms = 5_000;
    idle_timeout_ms = 30_000;
    max_outbox = 4 * 1024 * 1024;
    max_frame = 8 * 1024 * 1024;
    backoff_base_ms = 200;
    backoff_max_ms = 30_000;
    max_attempts = None;
  }

type phase =
  | Waiting of float (* reconnect at this wall-clock ms *)
  | Connecting of Unix.file_descr
  | Greeting of Conn.t (* attach sent, waiting for the state transfer *)
  | Live of Conn.t
  | Stopped

type t = {
  cfg : config;
  tele : Tele.t;
  trace : Obs.Trace.sink;
  host : string;
  port : int;
  site : int;
  doc : string;
  mutable resume : unit -> (Dce_ot.Vclock.t * int) option;
  faults : Faults.t option;
  backoff : Backoff.t;
  mutable phase : phase;
  mutable failed_attempts : int; (* consecutive connect failures; see fail *)
  mutable was_live : bool; (* a future success is a reconnect, not a connect *)
  mutable stamp : unit -> Dce_ot.Vclock.t * int;
  mutable last_beacon_ms : float;
}

let now_ms = Dce_obs.Clock.now_ms

let create ?(config = default_config) ?metrics ?(trace = Obs.Trace.null) ?seed
    ?(doc = "main") ?(resume = fun () -> None) ?faults ~host ~port ~site () =
  {
    cfg = config;
    tele = Tele.make ?metrics ();
    trace;
    host;
    port;
    site;
    doc;
    resume;
    faults;
    backoff =
      Backoff.create ~base_ms:config.backoff_base_ms ~max_ms:config.backoff_max_ms ?seed
        ();
    phase = Waiting 0.;
    failed_attempts = 0;
    was_live = false;
    stamp = (fun () -> (Dce_ot.Vclock.empty, 0));
    last_beacon_ms = neg_infinity;
  }

let site t = t.site

let doc t = t.doc

let set_stamp t f = t.stamp <- f

let set_resume t f = t.resume <- f

let trace t action detail =
  if Obs.Trace.enabled t.trace then begin
    let clock, version = t.stamp () in
    Obs.Trace.emit t.trace ~site:t.site ~clock ~version
      (Obs.Trace.Net { peer = t.site; action; detail })
  end

let connected t = match t.phase with Live _ -> true | _ -> false

let stopped t = match t.phase with Stopped -> true | _ -> false

let fd t =
  match t.phase with
  | Connecting fd -> Some fd
  | Greeting c | Live c -> Some (Conn.fd c)
  | Waiting _ | Stopped -> None

let conn t = match t.phase with Greeting c | Live c -> Some c | _ -> None

let outbox_bytes t =
  match conn t with Some c -> Conn.outbox_bytes c | None -> 0

(* Sever the current connection as if the network cut it: the normal
   reap-and-reconnect path runs on the next [step], and the rejoin
   snapshot plus [Controller.catch_up] re-broadcast heal whatever a
   one-sided partition swallowed.  Chaos harnesses call this at the
   heal point; a no-op when not connected. *)
let drop_link ?(reason = "link dropped by harness") t =
  match conn t with
  | Some c -> Conn.mark_closed c (Conn.Local reason)
  | None -> ()

let send t bytes =
  match t.phase with
  | Live c ->
    Conn.send c
      (Relay_proto.encode (Relay_proto.Doc_msg { doc = t.doc; origin = 0; msg = bytes }))
  | _ -> ()

let resolve t =
  try Unix.inet_addr_of_string t.host
  with Failure _ -> (
    match Unix.getaddrinfo t.host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> raise Not_found)

(* Transition to the backoff state after any failure.  Only a failed
   connection attempt (resolve/connect error, or a drop before the
   snapshot arrived) counts towards [max_attempts]; losing an
   established session schedules a reconnect with the counter freshly
   reset (it was zeroed when the snapshot made the session live). *)
let fail t reason =
  let was_established = match t.phase with Live _ -> true | _ -> false in
  (match t.phase with
   | Greeting c | Live c -> Conn.shutdown c
   | Connecting fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | _ -> ());
  if not was_established then t.failed_attempts <- t.failed_attempts + 1;
  match t.cfg.max_attempts with
  | Some m when (not was_established) && t.failed_attempts >= m ->
    t.phase <- Stopped;
    trace t "give_up" reason;
    [ Disconnected reason; Gave_up reason ]
  | _ ->
    let delay = Backoff.next t.backoff in
    t.phase <- Waiting (now_ms () +. float_of_int delay);
    trace t "disconnect" reason;
    [ Disconnected reason;
      Reconnecting { attempt = Backoff.attempt t.backoff; delay_ms = delay };
    ]

let greet t fd =
  let conn =
    Conn.create ~max_outbox:t.cfg.max_outbox ~max_frame:t.cfg.max_frame
      ?faults:t.faults ~tele:t.tele
      ~peer:(Printf.sprintf "%s:%d" t.host t.port)
      fd
  in
  let attach =
    (* a client with local state presents its resume point: the hub
       answers with a delta when its log still covers it, and a full
       snapshot otherwise *)
    match t.resume () with
    | Some (clock, version) ->
      let resume =
        Dce_wire.Proto.encode_frontier
          [ { Dce_wire.Proto.b_site = t.site; b_clock = clock; b_version = version } ]
      in
      Relay_proto.Attach_at { doc = t.doc; site = t.site; resume }
    | None -> Relay_proto.Attach { doc = t.doc; site = t.site }
  in
  Conn.send conn (Relay_proto.encode attach);
  Conn.handle_writable conn;
  t.phase <- Greeting conn;
  [ Connected ]

let start_connect t =
  match resolve t with
  | exception _ -> fail t (Printf.sprintf "cannot resolve %s" t.host)
  | addr -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    match Unix.connect fd (Unix.ADDR_INET (addr, t.port)) with
    | () -> greet t fd
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      t.phase <- Connecting fd;
      []
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail t ("connect: " ^ Unix.error_message e))

let dispatch t payload =
  match Relay_proto.decode payload with
  | Error e ->
    (match conn t with
     | Some c -> Conn.mark_closed c (Conn.Corrupt ("bad envelope: " ^ e))
     | None -> ());
    []
  | Ok msg -> (
    (* joining (or a server-initiated resync): the session is live.
       [what] is "snapshot" or "delta"; the matching event is returned. *)
    let go_live what event c s =
      t.phase <- Live c;
      if t.was_live then M.incr t.tele.Tele.reconnects else M.incr t.tele.Tele.connects;
      trace t (if t.was_live then "reconnect" else "connect") "";
      trace t what (string_of_int (String.length s) ^ " bytes");
      t.was_live <- true;
      Backoff.reset t.backoff;
      t.failed_attempts <- 0;
      [ event ]
    in
    let corrupt why =
      (match conn t with
       | Some c -> Conn.mark_closed c (Conn.Corrupt why)
       | None -> ());
      []
    in
    match (msg, t.phase) with
    | Relay_proto.Doc_snapshot { doc; state }, (Greeting c | Live c) when doc = t.doc ->
      go_live "snapshot" (Snapshot state) c state
    | Relay_proto.Doc_snapshot _, (Greeting _ | Live _) ->
      corrupt "snapshot for a document this client never attached"
    | Relay_proto.Doc_snapshot _, _ -> []
    | Relay_proto.Doc_delta { doc; delta }, (Greeting c | Live c) when doc = t.doc ->
      go_live "delta" (Delta delta) c delta
    | Relay_proto.Doc_delta _, (Greeting _ | Live _) ->
      corrupt "delta for a document this client never attached"
    | Relay_proto.Doc_delta _, _ -> []
    | Relay_proto.Beacon { doc; frontier }, Live _ when doc = t.doc -> [ Beacon frontier ]
    | Relay_proto.Beacon _, _ -> []
    | Relay_proto.Doc_msg { doc; msg; _ }, Live _ when doc = t.doc -> [ Message msg ]
    | Relay_proto.Doc_msg _, Live _ ->
      corrupt "message for a document this client never attached"
    | Relay_proto.Doc_msg _, _ -> corrupt "message before snapshot"
    | Relay_proto.Attached _, _ -> []
    | Relay_proto.Ping, _ ->
      (match conn t with
       | Some c -> Conn.send c (Relay_proto.encode Relay_proto.Pong)
       | None -> ());
      []
    | Relay_proto.Pong, _ -> []
    | Relay_proto.Bye reason, _ ->
      (match conn t with
       | Some c -> Conn.mark_closed c (Conn.Local ("server: " ^ reason))
       | None -> ());
      []
    | (Relay_proto.Attach _ | Relay_proto.Attach_at _ | Relay_proto.Detach _), _ ->
      corrupt "client-only envelope from server")

let pump_conn t c timeout_ms =
  let fd = Conn.fd c in
  let wrs = if Conn.wants_write c then [ fd ] else [] in
  let rd, wr, _ =
    try Unix.select [ fd ] wrs [] (float_of_int timeout_ms /. 1000.)
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  let events =
    if rd <> [] then List.concat_map (dispatch t) (Conn.handle_readable c) else []
  in
  if wr <> [] then Conn.handle_writable c;
  (* heartbeat / idle policy *)
  let now = now_ms () in
  if Conn.alive c then begin
    if now -. Conn.last_recv_ms c > float_of_int t.cfg.idle_timeout_ms then
      Conn.mark_closed c Conn.Idle
    else if now -. Conn.last_send_ms c > float_of_int t.cfg.heartbeat_ms then
      Conn.send c (Relay_proto.encode Relay_proto.Ping);
    (* stability beacon: the client's own delivery clock, on the
       heartbeat cadence.  Sent even — especially — when idle: this is
       what lets the rest of the group compact past a silent editor.
       Unlike the Ping above it is not suppressed by regular traffic, so
       the cadence holds under load too, and it keeps a fixed phase: a
       loop that reaches it late does not push later beacons back. *)
    match t.phase with
    | Live _ -> (
      match
        Obs.Clock.tick ~period_ms:(float_of_int t.cfg.heartbeat_ms) ~last:t.last_beacon_ms
          now
      with
      | Some due ->
        let clock, version = t.stamp () in
        let frontier =
          Dce_wire.Proto.encode_frontier
            [ { Dce_wire.Proto.b_site = t.site; b_clock = clock; b_version = version } ]
        in
        Conn.send c (Relay_proto.encode (Relay_proto.Beacon { doc = t.doc; frontier }));
        t.last_beacon_ms <- due
      | None -> ())
    | _ -> ()
  end;
  match Conn.closed_reason c with
  | None -> events
  | Some reason ->
    M.incr t.tele.Tele.disconnects;
    events @ fail t (Conn.reason_string reason)

let step ?(timeout_ms = 0) t =
  match t.phase with
  | Stopped -> []
  | Waiting until ->
    let now = now_ms () in
    if now >= until then start_connect t
    else begin
      let wait = min (float_of_int timeout_ms) (until -. now) in
      if wait > 0. then ignore (Unix.select [] [] [] (wait /. 1000.));
      []
    end
  | Connecting fd -> (
    let _, wr, _ =
      try Unix.select [] [ fd ] [] (float_of_int timeout_ms /. 1000.)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if wr = [] then []
    else
      match Unix.getsockopt_error fd with
      | None -> greet t fd
      | Some e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail t ("connect: " ^ Unix.error_message e))
  | Greeting c | Live c -> pump_conn t c timeout_ms

let close t =
  (match t.phase with
   | Greeting c | Live c ->
     Conn.send c (Relay_proto.encode (Relay_proto.Bye "client closing"));
     Conn.handle_writable c;
     Conn.shutdown c
   | Connecting fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | _ -> ());
  t.phase <- Stopped
