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
  backoff_base_ms : int;
  backoff_max_ms : int;
  max_attempts : int option;
}

let default_config =
  {
    heartbeat_ms = 5_000;
    idle_timeout_ms = 30_000;
    backoff_base_ms = 200;
    backoff_max_ms = 30_000;
    max_attempts = None;
  }

type t = {
  cfg : config;
  tele : Tele.t;
  trace : Obs.Trace.sink;
  site : int;
  doc : string;
  mutable resume : unit -> (Dce_ot.Vclock.t * int) option;
  dialer : Dialer.t;
  mutable live : bool; (* the state transfer arrived on the open link *)
  mutable failed_attempts : int; (* consecutive connect failures; see fail *)
  mutable was_live : bool; (* a future success is a reconnect, not a connect *)
  mutable stamp : unit -> Dce_ot.Vclock.t * int;
  mutable last_beacon_ms : float;
}

let create ?(config = default_config) ?metrics ?(trace = Obs.Trace.null) ?seed
    ?(doc = "main") ?(resume = fun () -> None) ?faults ~host ~port ~site () =
  let tele = Tele.make ?metrics () in
  {
    cfg = config;
    tele;
    trace;
    site;
    doc;
    resume;
    dialer =
      Dialer.create ~seed ~faults ~tele ~heartbeat_ms:config.heartbeat_ms
        ~idle_timeout_ms:config.idle_timeout_ms ~backoff_base_ms:config.backoff_base_ms
        ~backoff_max_ms:config.backoff_max_ms ~peer:"server" ~host ~port;
    live = false;
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

let connected t = t.live

let stopped t = Dialer.stopped t.dialer

let fd t = Dialer.fd t.dialer

let outbox_bytes t = Dialer.outbox_bytes t.dialer

(* Sever the current connection as if the network cut it: the normal
   reap-and-reconnect path runs on the next [step], and the rejoin
   snapshot plus [Controller.catch_up] re-broadcast heal whatever a
   one-sided partition swallowed.  Chaos harnesses call this at the
   heal point; a no-op when not connected. *)
let drop_link ?(reason = "link dropped by harness") t =
  Dialer.drop t.dialer (Conn.Local reason)

let send t bytes =
  if t.live then
    Dialer.send t.dialer
      (Relay_proto.encode (Relay_proto.Doc_msg { doc = t.doc; origin = 0; msg = bytes }))

(* The link went down.  Only a failed connection attempt (resolve/connect
   error, or a drop before the snapshot arrived) counts towards
   [max_attempts]; losing an established session schedules a reconnect
   with the counter freshly reset (it was zeroed when the snapshot made
   the session live). *)
let fail t reason ~attempt ~delay_ms =
  let was_established = t.live in
  t.live <- false;
  if not was_established then t.failed_attempts <- t.failed_attempts + 1;
  match t.cfg.max_attempts with
  | Some m when (not was_established) && t.failed_attempts >= m ->
    Dialer.close t.dialer reason;
    trace t "give_up" reason;
    [ Disconnected reason; Gave_up reason ]
  | _ ->
    trace t "disconnect" reason;
    [ Disconnected reason; Reconnecting { attempt; delay_ms } ]

(* this site's own frontier entry, as a [Proto.encode_frontier] blob *)
let own_frontier t (clock, version) =
  Dce_wire.Proto.encode_frontier
    [ { Dce_wire.Proto.b_site = t.site; b_clock = clock; b_version = version } ]

let greet t =
  let attach =
    (* a client with local state presents its resume point: the hub
       answers with a delta when its log still covers it, and a full
       snapshot otherwise *)
    match t.resume () with
    | Some point ->
      Relay_proto.Attach_at { doc = t.doc; site = t.site; resume = own_frontier t point }
    | None -> Relay_proto.Attach { doc = t.doc; site = t.site }
  in
  Dialer.send t.dialer (Relay_proto.encode attach);
  [ Connected ]

let dispatch t msg =
  (* joining (or a server-initiated resync): the session is live.
     [what] is "snapshot" or "delta"; the matching event is returned. *)
  let go_live what event s =
    t.live <- true;
    if t.was_live then M.incr t.tele.Tele.reconnects else M.incr t.tele.Tele.connects;
    trace t (if t.was_live then "reconnect" else "connect") "";
    trace t what (string_of_int (String.length s) ^ " bytes");
    t.was_live <- true;
    Dialer.reset t.dialer;
    t.failed_attempts <- 0;
    [ event ]
  in
  let corrupt why =
    Dialer.drop t.dialer (Conn.Corrupt why);
    []
  in
  match msg with
  | Relay_proto.Doc_snapshot { doc; state } when doc = t.doc ->
    go_live "snapshot" (Snapshot state) state
  | Relay_proto.Doc_snapshot _ ->
    corrupt "snapshot for a document this client never attached"
  | Relay_proto.Doc_delta { doc; delta } when doc = t.doc ->
    go_live "delta" (Delta delta) delta
  | Relay_proto.Doc_delta _ -> corrupt "delta for a document this client never attached"
  | Relay_proto.Beacon { doc; frontier } when t.live && doc = t.doc -> [ Beacon frontier ]
  | Relay_proto.Beacon _ -> []
  | Relay_proto.Doc_msg { doc; msg; _ } when t.live && doc = t.doc -> [ Message msg ]
  | Relay_proto.Doc_msg _ when t.live ->
    corrupt "message for a document this client never attached"
  | Relay_proto.Doc_msg _ -> corrupt "message before snapshot"
  | Relay_proto.Attached _ -> []
  | Relay_proto.Attach _ | Relay_proto.Attach_at _ | Relay_proto.Detach _ ->
    corrupt "client-only envelope from server"
  | Relay_proto.Ping | Relay_proto.Pong | Relay_proto.Bye _ -> [] (* the dialer's *)

let on_link t = function
  | Dialer.Opened -> greet t
  | Dialer.Received msg -> dispatch t msg
  | Dialer.Closed { reason; attempt; delay_ms; _ } -> fail t reason ~attempt ~delay_ms

(* The stability beacon: the client's own delivery clock, on the
   heartbeat cadence.  Sent even — especially — when idle: this is what
   lets the rest of the group compact past a silent editor.  Unlike the
   dialer's Ping it is not suppressed by regular traffic, so the cadence
   holds under load too, and it keeps a fixed phase: a loop that reaches
   it late does not push later beacons back. *)
let beacon t =
  match
    Obs.Clock.tick ~period_ms:(float_of_int t.cfg.heartbeat_ms) ~last:t.last_beacon_ms
      (Obs.Clock.now_ms ())
  with
  | Some due ->
    let frontier = own_frontier t (t.stamp ()) in
    Dialer.send t.dialer
      (Relay_proto.encode (Relay_proto.Beacon { doc = t.doc; frontier }));
    t.last_beacon_ms <- due
  | None -> ()

let step ?(timeout_ms = 0) t =
  let events = Dialer.step ~timeout_ms t.dialer (on_link t) in
  if t.live then beacon t;
  events

let close t =
  t.live <- false;
  Dialer.close t.dialer "client closing"
