module M = Dce_obs.Metrics

type event =
  | Opened
  | Received of Relay_proto.t
  | Closed of { reason : string; was_open : bool; attempt : int; delay_ms : int }

type phase =
  | Waiting of float (* next attempt at this clock ms *)
  | Connecting of Unix.file_descr
  | Open of Conn.t
  | Stopped

type t = {
  tele : Tele.t;
  faults : Faults.t option;
  backoff : Backoff.t;
  heartbeat_ms : int;
  idle_timeout_ms : int;
  peer : string;
  host : string;
  port : int;
  mutable phase : phase;
}

let now_ms = Dce_obs.Clock.now_ms

let create ~seed ~faults ~tele ~heartbeat_ms ~idle_timeout_ms ~backoff_base_ms
    ~backoff_max_ms ~peer ~host ~port =
  {
    tele;
    faults;
    backoff = Backoff.create ~base_ms:backoff_base_ms ~max_ms:backoff_max_ms ?seed ();
    heartbeat_ms;
    idle_timeout_ms;
    peer;
    host;
    port;
    phase = Waiting 0.;
  }

let is_open t = match t.phase with Open _ -> true | _ -> false
let stopped t = match t.phase with Stopped -> true | _ -> false
let reset t = Backoff.reset t.backoff

let fd t =
  match t.phase with
  | Connecting fd -> Some fd
  | Open c -> Some (Conn.fd c)
  | Waiting _ | Stopped -> None

let wants_write t =
  match t.phase with
  | Connecting _ -> true
  | Open c -> Conn.wants_write c
  | Waiting _ | Stopped -> false

let outbox_bytes t = match t.phase with Open c -> Conn.outbox_bytes c | _ -> 0
let send t payload = match t.phase with Open c -> Conn.send c payload | _ -> ()
let drop t reason = match t.phase with Open c -> Conn.mark_closed c reason | _ -> ()

let keepalive ~now ~heartbeat_ms ~idle_timeout_ms c =
  if Conn.alive c then
    if now -. Conn.last_recv_ms c > float_of_int idle_timeout_ms then
      Conn.mark_closed c Conn.Idle
    else if now -. Conn.last_send_ms c > float_of_int heartbeat_ms then
      Conn.send c (Relay_proto.encode Relay_proto.Ping)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Any failure: release the socket and schedule the next attempt. *)
let fail t reason f =
  let was_open =
    match t.phase with
    | Open c ->
      Conn.shutdown c;
      true
    | Connecting fd ->
      close_fd fd;
      false
    | Waiting _ | Stopped -> false
  in
  let delay = Backoff.next t.backoff in
  t.phase <- Waiting (now_ms () +. float_of_int delay);
  f (Closed { reason; was_open; attempt = Backoff.attempt t.backoff; delay_ms = delay })

let opened t fd f =
  let c =
    Conn.create ?faults:t.faults ~tele:t.tele
      ~peer:(Printf.sprintf "%s %s:%d" t.peer t.host t.port)
      fd
  in
  t.phase <- Open c;
  let events = f Opened in
  Conn.handle_writable c;
  events

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> raise Not_found)

(* A connect that completes at once opens, and greets, in this step. *)
let start_connect t f =
  match resolve t.host with
  | exception _ -> fail t (Printf.sprintf "cannot resolve %s" t.host) f
  | addr -> (
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    match Unix.connect fd (Unix.ADDR_INET (addr, t.port)) with
    | () -> opened t fd f
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
      t.phase <- Connecting fd;
      []
    | exception Unix.Unix_error (e, _, _) ->
      close_fd fd;
      fail t ("connect: " ^ Unix.error_message e) f)

let dispatch t c f payload =
  match Relay_proto.decode payload with
  | Error e ->
    Conn.mark_closed c (Conn.Corrupt ("bad envelope: " ^ e));
    []
  | Ok Relay_proto.Ping ->
    Conn.send c (Relay_proto.encode Relay_proto.Pong);
    []
  | Ok Relay_proto.Pong -> []
  | Ok (Relay_proto.Bye reason) ->
    Conn.mark_closed c (Conn.Local (t.peer ^ ": " ^ reason));
    []
  | Ok msg -> f (Received msg)

let pump t c timeout_ms f =
  let fd = Conn.fd c in
  let write = if Conn.wants_write c then [ fd ] else [] in
  let rd, wr = Evloop.wait ~timeout_ms ~read:[ fd ] ~write () in
  let events =
    if rd <> [] then List.concat_map (dispatch t c f) (Conn.handle_readable c) else []
  in
  if wr <> [] then Conn.handle_writable c;
  keepalive ~now:(now_ms ()) ~heartbeat_ms:t.heartbeat_ms
    ~idle_timeout_ms:t.idle_timeout_ms c;
  match Conn.closed_reason c with
  | None -> events
  | Some reason ->
    M.incr t.tele.Tele.disconnects;
    events @ fail t (Conn.reason_string reason) f

let step ~timeout_ms t f =
  match t.phase with
  | Stopped -> []
  | Waiting until ->
    let now = now_ms () in
    if now >= until then start_connect t f
    else begin
      let wait = Float.min (float_of_int timeout_ms) (until -. now) in
      Evloop.sleep_ms (int_of_float (Float.ceil wait));
      []
    end
  | Connecting fd -> (
    let _, wr = Evloop.wait ~timeout_ms ~read:[] ~write:[ fd ] () in
    if wr = [] then []
    else
      match Unix.getsockopt_error fd with
      | None -> opened t fd f
      | Some e -> fail t ("connect: " ^ Unix.error_message e) f)
  | Open c -> pump t c timeout_ms f

let close t bye =
  (match t.phase with
   | Open c ->
     Conn.send c (Relay_proto.encode (Relay_proto.Bye bye));
     Conn.handle_writable c;
     Conn.shutdown c
   | Connecting fd -> close_fd fd
   | Waiting _ | Stopped -> ());
  t.phase <- Stopped
