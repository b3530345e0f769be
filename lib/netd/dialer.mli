(** One outbound framed connection that reconnects by itself.

    The editor's {!Client} and the hub's federation link
    ([Dce_hub.Upstream]) are each a dialer plus their own greeting and
    dispatch.  The dialer owns what they share: resolving [host], the
    non-blocking connect, the seeded jittered {!Backoff} (one draw per
    failure), the {!keepalive}, answering [Ping], closing on the peer's
    [Bye], and saying [Bye] on {!close}.  It counts [netd.disconnects]
    for every open link it loses; connects, reconnects, traces and the
    backoff {!reset} are the owner's, because the editor and the
    federation link count a session from different moments. *)

type event =
  | Opened  (** TCP is up: greet with {!send}; the greeting is flushed at once *)
  | Received of Relay_proto.t  (** any envelope but [Ping], [Pong] and [Bye] *)
  | Closed of { reason : string; was_open : bool; attempt : int; delay_ms : int }
      (** the link is down — lost after it opened ([was_open]), or never
          made — and attempt [attempt] since the last {!reset} starts in
          [delay_ms] *)

type t

val create :
  seed:int option ->
  faults:Faults.t option ->
  tele:Tele.t ->
  heartbeat_ms:int ->
  idle_timeout_ms:int ->
  backoff_base_ms:int ->
  backoff_max_ms:int ->
  peer:string ->
  host:string ->
  port:int ->
  t
(** Does not touch the network.  [seed] fixes the backoff jitter,
    [peer] names the far end in close reasons, and [faults] (chaos runs)
    goes to every connection opened. *)

val step : timeout_ms:int -> t -> (event -> 'a list) -> 'a list
(** Start a connect once the backoff is over, finish a pending one, or
    read, dispatch, flush and keep alive; returns the handler's results
    in order.  Waits in poll(2) at most [timeout_ms], and while backing
    off at most until the next attempt is due.  Each event reaches the
    handler as it happens, so a link the handler {!drop}s is reaped, and
    its [Closed] handled, within the same step. *)

val send : t -> string -> unit
(** Queue an encoded envelope; dropped unless the link is open. *)

val drop : t -> Conn.close_reason -> unit
(** Close the open link for this reason (a no-op otherwise); it is
    reaped, and backed off from, like any failure. *)

val reset : t -> unit
(** Restart the backoff from its base: the owner's session is up. *)

val is_open : t -> bool
val stopped : t -> bool

val fd : t -> Unix.file_descr option
(** The socket, connecting or open ([None] while backing off). *)

val wants_write : t -> bool
(** A connect is pending or the outbox holds bytes. *)

val outbox_bytes : t -> int

val close : t -> string -> unit
(** Send [Bye reason] on the open link, close it, stop reconnecting. *)

val keepalive : now:float -> heartbeat_ms:int -> idle_timeout_ms:int -> Conn.t -> unit
(** The liveness rule of every live connection, dialed or accepted: cut
    it as [Idle] when nothing arrived for [idle_timeout_ms], else send a
    [Ping] when nothing went out for [heartbeat_ms]. *)
