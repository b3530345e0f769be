module Obs = Dce_obs
module M = Obs.Metrics
module Conn = Dce_netd.Conn
module Tele = Dce_netd.Tele
module Backoff = Dce_netd.Backoff
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
  max_outbox : int;
  max_frame : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  max_buffer : int;
}

let default_config =
  {
    heartbeat_ms = 5_000;
    idle_timeout_ms = 30_000;
    max_outbox = 4 * 1024 * 1024;
    max_frame = 8 * 1024 * 1024;
    backoff_base_ms = 200;
    backoff_max_ms = 30_000;
    max_buffer = 1024 * 1024;
  }

type health = Healthy | Degraded of { reason : string; since_ms : float }

type phase =
  | Waiting of float (* reconnect at this wall-clock ms *)
  | Connecting of Unix.file_descr
  | Live of Conn.t
  | Stopped

type t = {
  cfg : config;
  tele : Tele.t;
  host : string;
  port : int;
  site : int;
  backoff : Backoff.t;
  faults : Faults.t option;
  mutable phase : phase;
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

let now_ms = Obs.Clock.now_ms

let create ?(config = default_config) ?metrics ?seed ?faults ~host ~port ~site () =
  {
    cfg = config;
    tele = Tele.make ?metrics ();
    host;
    port;
    site;
    backoff =
      Backoff.create ~base_ms:config.backoff_base_ms ~max_ms:config.backoff_max_ms ?seed
        ();
    faults;
    phase = Waiting 0.;
    docs = [];
    was_live = false;
    buffer = Queue.create ();
    buffer_bytes = 0;
    buffer_dropped = 0;
    health = Healthy;
  }

let connected t = match t.phase with Live _ -> true | _ -> false
let stopped t = match t.phase with Stopped -> true | _ -> false
let health t = t.health
let buffered_bytes t = t.buffer_bytes
let buffer_dropped t = t.buffer_dropped

let degrade t reason =
  match t.health with
  | Degraded _ -> ()
  | Healthy -> t.health <- Degraded { reason; since_ms = now_ms () }

let conn t = match t.phase with Live c -> Some c | _ -> None

let fd t =
  match t.phase with
  | Connecting fd -> Some fd
  | Live c -> Some (Conn.fd c)
  | Waiting _ | Stopped -> None

let wants_write t =
  match t.phase with
  | Connecting _ -> true
  | Live c -> Conn.wants_write c
  | Waiting _ | Stopped -> false

let attach t ~doc =
  if not (List.mem doc t.docs) then begin
    t.docs <- t.docs @ [ doc ];
    match t.phase with
    | Live c ->
      Conn.send c (Relay_proto.encode (Relay_proto.Attach { doc; site = t.site }))
    | _ -> ()
  end

let send t ~doc ~origin msg =
  match t.phase with
  | Live c -> Conn.send c (Relay_proto.encode (Relay_proto.Doc_msg { doc; origin; msg }))
  | Stopped -> ()
  | Waiting _ | Connecting _ ->
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

(* Report this hub's aggregate frontier for [doc] up the tree, so the
   home hub's stability view covers sites it has never seen directly. *)
let send_beacon t ~doc frontier =
  match t.phase with
  | Live c -> Conn.send c (Relay_proto.encode (Relay_proto.Beacon { doc; frontier }))
  | _ -> ()

let resolve t =
  try Unix.inet_addr_of_string t.host
  with Failure _ -> (
    match Unix.getaddrinfo t.host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> raise Not_found)

let fail t reason =
  degrade t reason;
  let was_live = match t.phase with Live _ -> true | _ -> false in
  (match t.phase with
   | Live c -> Conn.shutdown c
   | Connecting fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | _ -> ());
  let delay = Backoff.next t.backoff in
  t.phase <- Waiting (now_ms () +. float_of_int delay);
  if was_live then [ Up_disconnected reason ] else []

(* The link is Live as soon as TCP is up: every hosted doc is attached
   in one burst and the per-doc [Doc_snapshot] replies stream back as
   ordinary events. *)
let go_live t fd =
  let conn =
    Conn.create ~max_outbox:t.cfg.max_outbox ~max_frame:t.cfg.max_frame
      ?faults:t.faults ~tele:t.tele
      ~peer:(Printf.sprintf "upstream %s:%d" t.host t.port)
      fd
  in
  List.iter
    (fun doc ->
      Conn.send conn (Relay_proto.encode (Relay_proto.Attach { doc; site = t.site })))
    t.docs;
  (* the outage backlog rides right behind the re-attach burst, in
     order; what the buffer had to drop is healed by the snapshot
     replies *)
  while not (Queue.is_empty t.buffer) do
    let doc, origin, msg = Queue.pop t.buffer in
    Conn.send conn (Relay_proto.encode (Relay_proto.Doc_msg { doc; origin; msg }))
  done;
  t.buffer_bytes <- 0;
  t.health <- Healthy;
  Conn.handle_writable conn;
  t.phase <- Live conn;
  if t.was_live then M.incr t.tele.Tele.reconnects else M.incr t.tele.Tele.connects;
  t.was_live <- true;
  Backoff.reset t.backoff;
  [ Up_connected ]

let start_connect t =
  match resolve t with
  | exception _ -> fail t (Printf.sprintf "cannot resolve %s" t.host)
  | addr -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    match Unix.connect fd (Unix.ADDR_INET (addr, t.port)) with
    | () -> go_live t fd
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      t.phase <- Connecting fd;
      []
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail t ("connect: " ^ Unix.error_message e))

let corrupt t why =
  (match conn t with
   | Some c -> Conn.mark_closed c (Conn.Corrupt why)
   | None -> ());
  []

let dispatch t payload =
  match Relay_proto.decode payload with
  | Error e -> corrupt t ("bad envelope: " ^ e)
  | Ok msg -> (
    match msg with
    | Relay_proto.Attached _ -> []
    | Relay_proto.Doc_snapshot { doc; state } ->
      M.incr t.tele.Tele.snapshots;
      [ Up_snapshot { doc; state } ]
    | Relay_proto.Doc_msg { doc; origin; msg } -> [ Up_msg { doc; origin; msg } ]
    | Relay_proto.Beacon { doc; frontier } -> [ Up_beacon { doc; frontier } ]
    | Relay_proto.Doc_delta _ ->
      (* hubs always bootstrap from full snapshots (they never present a
         resume point), so a delta here is protocol abuse *)
      corrupt t "unsolicited delta on a federation link"
    | Relay_proto.Ping ->
      (match conn t with
       | Some c -> Conn.send c (Relay_proto.encode Relay_proto.Pong)
       | None -> ());
      []
    | Relay_proto.Pong -> []
    | Relay_proto.Bye reason -> (
      match conn t with
      | Some c ->
        Conn.mark_closed c (Conn.Local ("upstream: " ^ reason));
        []
      | None -> [])
    | Relay_proto.Attach _ | Relay_proto.Attach_at _ | Relay_proto.Detach _ ->
      corrupt t "client-only envelope from upstream")

let pump_conn t c timeout_ms =
  let fd = Conn.fd c in
  let write = if Conn.wants_write c then [ fd ] else [] in
  let rd, wr = Evloop.wait ~timeout_ms ~read:[ fd ] ~write () in
  let events = if rd <> [] then List.concat_map (dispatch t) (Conn.handle_readable c) else [] in
  if wr <> [] then Conn.handle_writable c;
  let now = now_ms () in
  if Conn.alive c then
    if now -. Conn.last_recv_ms c > float_of_int t.cfg.idle_timeout_ms then
      Conn.mark_closed c Conn.Idle
    else if now -. Conn.last_send_ms c > float_of_int t.cfg.heartbeat_ms then
      Conn.send c (Relay_proto.encode Relay_proto.Ping);
  match Conn.closed_reason c with
  | None -> events
  | Some reason ->
    M.incr t.tele.Tele.disconnects;
    events @ fail t (Conn.reason_string reason)

let step ?(timeout_ms = 0) t =
  match t.phase with
  | Stopped -> []
  | Waiting until ->
    if now_ms () >= until then start_connect t
    else begin
      Evloop.sleep_ms timeout_ms;
      []
    end
  | Connecting fd -> (
    let _, wr = Evloop.wait ~timeout_ms ~read:[] ~write:[ fd ] () in
    if wr = [] then []
    else
      match Unix.getsockopt_error fd with
      | None -> go_live t fd
      | Some e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        fail t ("connect: " ^ Unix.error_message e))
  | Live c -> pump_conn t c timeout_ms

let close t =
  (match t.phase with
   | Live c ->
     Conn.send c (Relay_proto.encode (Relay_proto.Bye "leaf closing"));
     Conn.handle_writable c;
     Conn.shutdown c
   | Connecting fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
   | _ -> ());
  t.phase <- Stopped
