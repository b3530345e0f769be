module Codec = Dce_wire.Codec
module M = Dce_obs.Metrics

type close_reason =
  | Eof
  | Overflow
  | Idle
  | Superseded
  | Corrupt of string
  | Socket_error of string
  | Local of string

let reason_string = function
  | Eof -> "peer closed the connection"
  | Overflow -> "outbox overflow (backpressure)"
  | Idle -> "idle timeout"
  | Superseded -> "superseded by a newer connection for the same site"
  | Corrupt e -> "corrupt stream: " ^ e
  | Socket_error e -> "socket error: " ^ e
  | Local r -> r

let reason_label = function
  | Corrupt _ -> "frame_error"
  | Overflow -> "overflow"
  | Idle -> "idle"
  | Eof | Superseded | Socket_error _ | Local _ -> "disconnect"

type t = {
  fd : Unix.file_descr;
  peer : string;
  splitter : Splitter.t;
  outbox : string Queue.t; (* framed chunks, head partially written *)
  mutable out_off : int;
  mutable out_bytes : int;
  max_outbox : int;
  mutable closed : close_reason option;
  mutable last_recv_ms : float;
  mutable last_send_ms : float;
  read_buf : Bytes.t;
  tele : Tele.t;
  (* chaos: [faults] decides each outgoing frame's fate; [held] keeps
     delayed frames until their release stamp, [swap_slot] one frame
     waiting to ride out behind the next (reordering) *)
  faults : Faults.t option;
  held : (float * string) Queue.t;
  mutable swap_slot : (float * string) option;
}

(* Monotonic, injectable for tests: wall-clock steps (NTP, suspend) must
   not fire idle timeouts or freeze heartbeats. *)
let now_ms = Dce_obs.Clock.now_ms

let create ?(max_outbox = 4 * 1024 * 1024) ?(max_frame = 8 * 1024 * 1024) ?faults ~tele
    ~peer fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let now = now_ms () in
  {
    fd;
    peer;
    splitter = Splitter.create ~max_payload:max_frame ();
    outbox = Queue.create ();
    out_off = 0;
    out_bytes = 0;
    max_outbox;
    closed = None;
    last_recv_ms = now;
    last_send_ms = now;
    read_buf = Bytes.create 65536;
    tele;
    faults;
    held = Queue.create ();
    swap_slot = None;
  }

let fd t = t.fd
let peer t = t.peer
let alive t = t.closed = None
let closed_reason t = t.closed
let last_recv_ms t = t.last_recv_ms
let last_send_ms t = t.last_send_ms
let outbox_bytes t = t.out_bytes

let mark_closed t reason = if t.closed = None then t.closed <- Some reason

let enqueue_framed t framed =
  if t.out_bytes + String.length framed > t.max_outbox then begin
    (* A peer that cannot drain its socket would otherwise grow our
       heap without bound; the policy is to cut it loose and let it
       resynchronize from a snapshot when it reconnects. *)
    M.incr t.tele.Tele.overflows;
    mark_closed t Overflow
  end
  else begin
    Queue.add framed t.outbox;
    t.out_bytes <- t.out_bytes + String.length framed;
    M.incr t.tele.Tele.frames_out
  end

(* Move fault-held frames whose release stamp has passed into the
   outbox.  Called from every outbox-touching entry point, so held
   frames drain as long as the owner keeps pumping its loop. *)
let release_due t =
  if alive t then begin
    let now = now_ms () in
    (match t.swap_slot with
     | Some (at, framed) when at <= now ->
       t.swap_slot <- None;
       enqueue_framed t framed
     | _ -> ());
    let rec go () =
      match Queue.peek_opt t.held with
      | Some (at, framed) when at <= now ->
        ignore (Queue.pop t.held);
        enqueue_framed t framed;
        go ()
      | _ -> ()
    in
    go ()
  end

let wants_write t =
  release_due t;
  t.closed = None && t.out_bytes > 0

let send t payload =
  release_due t;
  if alive t then begin
    let framed = Codec.frame payload in
    match t.faults with
    | None -> enqueue_framed t framed
    | Some f ->
      if Faults.partitioned f then Faults.count_partition_drop f
      else (
        match Faults.decide f with
        | Faults.Swap ->
          (* hold this frame so the next one overtakes it; a stamp bounds
             the wait in case no next frame ever comes *)
          let stamp = now_ms () +. float_of_int (Faults.config f).Faults.delay_ms in
          (match t.swap_slot with
           | None -> t.swap_slot <- Some (stamp, framed)
           | Some (_, old) ->
             enqueue_framed t old;
             t.swap_slot <- Some (stamp, framed))
        | d ->
          (match d with
           | Faults.Pass -> enqueue_framed t framed
           | Faults.Drop -> ()
           | Faults.Dup ->
             enqueue_framed t framed;
             enqueue_framed t framed
           | Faults.Delay ms ->
             Queue.add (now_ms () +. float_of_int ms, framed) t.held
           | Faults.Swap -> assert false);
          (* the frame that was swapped behind rides out now *)
          match t.swap_slot with
          | Some (_, old) when alive t ->
            t.swap_slot <- None;
            enqueue_framed t old
          | _ -> ())
  end

let drain_frames t =
  let rec go acc =
    match Splitter.next t.splitter with
    | Ok None -> List.rev acc
    | Ok (Some payload) ->
      M.incr t.tele.Tele.frames_in;
      go (payload :: acc)
    | Error e ->
      M.incr t.tele.Tele.framing_errors;
      mark_closed t (Corrupt e);
      List.rev acc
  in
  go []

let handle_readable t =
  if not (alive t) then []
  else
    match Unix.read t.fd t.read_buf 0 (Bytes.length t.read_buf) with
    | 0 ->
      mark_closed t Eof;
      (* EOF can still leave complete frames in the splitter *)
      drain_frames t
    | n ->
      M.add t.tele.Tele.bytes_in n;
      t.last_recv_ms <- now_ms ();
      Splitter.feed t.splitter t.read_buf ~off:0 ~len:n;
      drain_frames t
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      []
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      (* an abortive close is still just "the peer went away" *)
      mark_closed t Eof;
      drain_frames t
    | exception Unix.Unix_error (e, _, _) ->
      mark_closed t (Socket_error (Unix.error_message e));
      []

let write_outbox t =
  begin
    let t0 = Dce_obs.Clock.now_ns () in
    let wrote = ref 0 in
    let continue = ref true in
    while !continue && not (Queue.is_empty t.outbox) do
      let head = Queue.peek t.outbox in
      let len = String.length head - t.out_off in
      match Unix.write_substring t.fd head t.out_off len with
      | n ->
        wrote := !wrote + n;
        t.out_bytes <- t.out_bytes - n;
        if n = len then begin
          ignore (Queue.pop t.outbox);
          t.out_off <- 0
        end
        else begin
          t.out_off <- t.out_off + n;
          continue := false (* kernel buffer is full; wait for select *)
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> continue := false
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* writing into a connection the peer already slammed shut: a
           disconnect, not an error (the process-level SIGPIPE must be
           ignored for the write to surface as EPIPE at all) *)
        mark_closed t Eof;
        continue := false
      | exception Unix.Unix_error (e, _, _) ->
        mark_closed t (Socket_error (Unix.error_message e));
        continue := false
    done;
    if !wrote > 0 then begin
      M.add t.tele.Tele.bytes_out !wrote;
      t.last_send_ms <- now_ms ();
      M.observe t.tele.Tele.flush_ns (Dce_obs.Clock.now_ns () - t0)
    end
  end

let handle_writable t = if wants_write t then write_outbox t

let flush t =
  release_due t;
  if t.out_bytes > 0 then write_outbox t

let shutdown t =
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()
