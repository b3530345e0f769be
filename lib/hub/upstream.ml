module Obs = Dce_obs
module M = Obs.Metrics
module Conn = Dce_netd.Conn
module Tele = Dce_netd.Tele
module Dialer = Dce_netd.Dialer
module Relay_proto = Dce_netd.Relay_proto
module Faults = Dce_netd.Faults

type event =
  | Up_connected
  | Up_snapshot of { doc : string; state : string }
  | Up_msg of { doc : string; origin : int; msg : string }
  | Up_beacon of { doc : string; frontier : string }
  | Up_disconnected of string

type config = {
  heartbeat_ms : int;
  idle_timeout_ms : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  max_buffer : int;
}

let default_config =
  {
    heartbeat_ms = 5_000;
    idle_timeout_ms = 30_000;
    backoff_base_ms = 200;
    backoff_max_ms = 30_000;
    max_buffer = 1024 * 1024;
  }

type health = Healthy | Degraded of { reason : string; since_ms : float }

type t = {
  cfg : config;
  tele : Tele.t;
  site : int;
  dialer : Dialer.t;
  mutable docs : string list; (* to (re)attach, in attach order *)
  mutable was_live : bool;
  (* degraded mode: while the link is down, up-forwarded frames are kept
     (bounded) and flushed after the reconnect re-attach, so a short
     upstream outage loses nothing; overflow falls back to snapshot
     healing and is counted *)
  buffer : (string * int * string) Queue.t; (* doc, origin, msg *)
  mutable buffer_bytes : int;
  mutable buffer_dropped : int;
  mutable health : health;
}

let create ?(config = default_config) ?metrics ?seed ?faults ~host ~port ~site () =
  let tele = Tele.make ?metrics () in
  {
    cfg = config;
    tele;
    site;
    dialer =
      Dialer.create ~seed ~faults ~tele ~heartbeat_ms:config.heartbeat_ms
        ~idle_timeout_ms:config.idle_timeout_ms ~backoff_base_ms:config.backoff_base_ms
        ~backoff_max_ms:config.backoff_max_ms ~peer:"upstream" ~host ~port;
    docs = [];
    was_live = false;
    buffer = Queue.create ();
    buffer_bytes = 0;
    buffer_dropped = 0;
    health = Healthy;
  }

let connected t = Dialer.is_open t.dialer
let stopped t = Dialer.stopped t.dialer
let health t = t.health
let buffered_bytes t = t.buffer_bytes
let buffer_dropped t = t.buffer_dropped
let fd t = Dialer.fd t.dialer
let wants_write t = Dialer.wants_write t.dialer

let degrade t reason =
  match t.health with
  | Degraded _ -> ()
  | Healthy -> t.health <- Degraded { reason; since_ms = Obs.Clock.now_ms () }

let send_envelope t m = Dialer.send t.dialer (Relay_proto.encode m)

let attach t ~doc =
  if not (List.mem doc t.docs) then begin
    t.docs <- t.docs @ [ doc ];
    send_envelope t (Relay_proto.Attach { doc; site = t.site })
  end

let send t ~doc ~origin msg =
  if Dialer.is_open t.dialer then send_envelope t (Relay_proto.Doc_msg { doc; origin; msg })
  else if not (Dialer.stopped t.dialer) then begin
    (* degraded: keep editing locally, hold the up-forward until the
       link returns; a bounded buffer, so a long partition degrades to
       snapshot healing instead of growing the heap *)
    let cost = String.length msg + String.length doc + 16 in
    if t.buffer_bytes + cost > t.cfg.max_buffer then
      t.buffer_dropped <- t.buffer_dropped + 1
    else begin
      Queue.add (doc, origin, msg) t.buffer;
      t.buffer_bytes <- t.buffer_bytes + cost
    end
  end

(* Report this hub's aggregate frontier for [doc] up the tree, so the
   home hub's stability view covers sites it has never seen directly. *)
let send_beacon t ~doc frontier = send_envelope t (Relay_proto.Beacon { doc; frontier })

let reject t why = Dialer.drop t.dialer (Conn.Corrupt why)

(* The link is live as soon as TCP is up: every hosted doc is attached
   in one burst and the per-doc [Doc_snapshot] replies stream back as
   ordinary events. *)
let go_live t =
  List.iter (fun doc -> send_envelope t (Relay_proto.Attach { doc; site = t.site })) t.docs;
  (* the outage backlog rides right behind the re-attach burst, in
     order; what the buffer had to drop is healed by the snapshot
     replies *)
  while not (Queue.is_empty t.buffer) do
    let doc, origin, msg = Queue.pop t.buffer in
    send_envelope t (Relay_proto.Doc_msg { doc; origin; msg })
  done;
  t.buffer_bytes <- 0;
  t.health <- Healthy;
  if t.was_live then M.incr t.tele.Tele.reconnects else M.incr t.tele.Tele.connects;
  t.was_live <- true;
  Dialer.reset t.dialer;
  [ Up_connected ]

let dispatch t = function
  | Relay_proto.Attached _ -> []
  | Relay_proto.Doc_snapshot { doc; state } ->
    M.incr t.tele.Tele.snapshots;
    [ Up_snapshot { doc; state } ]
  | Relay_proto.Doc_msg { doc; origin; msg } -> [ Up_msg { doc; origin; msg } ]
  | Relay_proto.Beacon { doc; frontier } -> [ Up_beacon { doc; frontier } ]
  | Relay_proto.Doc_delta _ ->
    (* hubs always bootstrap from full snapshots (they never present a
       resume point), so a delta here is protocol abuse *)
    reject t "unsolicited delta on a federation link";
    []
  | Relay_proto.Attach _ | Relay_proto.Attach_at _ | Relay_proto.Detach _ ->
    reject t "client-only envelope from upstream";
    []
  | Relay_proto.Ping | Relay_proto.Pong | Relay_proto.Bye _ -> [] (* the dialer's *)

let on_link t = function
  | Dialer.Opened -> go_live t
  | Dialer.Received msg -> dispatch t msg
  | Dialer.Closed { reason; was_open; _ } ->
    degrade t reason;
    if was_open then [ Up_disconnected reason ] else []

let step ?(timeout_ms = 0) t = Dialer.step ~timeout_ms t.dialer (on_link t)

let close t = Dialer.close t.dialer "leaf closing"
