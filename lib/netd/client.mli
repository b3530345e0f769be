(** A site's connection to the relay, with automatic reconnection.

    The client owns the transport only; the session logic — what to do
    with each event — is {!Site}'s, which holds the controller.  The
    link itself — connect, backoff, keepalive, [Bye] — is a {!Dialer}.
    The lifecycle surfaces as {!event}s returned from {!step}:

    - [Connected]: TCP is up and the [Attach] went out;
    - [Snapshot blob]: the relay's full state transfer — decode it with
      [Proto.decode_state], load it, and {!Dce_store.Replica.rejoin} as
      your own site, or {!Dce_store.Replica.catch_up} local state with
      the part it lacks (an [Error] leaves that state as it was).
      Emitted on a (re)join without a usable resume point: the relay has
      no way to know which fan-outs a dead socket actually delivered;
    - [Message blob]: a [Proto.encode_message] blob from another site;
    - [Disconnected] / [Reconnecting]: the link dropped (any reason:
      EOF, idle, corruption, backpressure) and a jittered exponential
      backoff is scheduled;
    - [Gave_up]: [max_attempts] exhausted; the client is inert.

    Single-threaded and non-blocking, like the hub: call {!step} from
    your own loop (it blocks at most [timeout_ms] in poll(2)), or wait
    yourself on {!fd} with {!Evloop.wait} and call {!step} when it
    fires. *)

type event =
  | Connected
  | Snapshot of string
  | Delta of string
      (** a [Proto.encode_delta] blob: the hub's answer to a resuming
          attach ({!create}'s [resume]) when its log still covers the
          presented point — decode with [Proto.decode_delta] and apply
          with {!Dce_store.Replica.apply_delta} instead of reloading a
          full snapshot.  Falls back to [Snapshot] otherwise. *)
  | Message of string
  | Beacon of string
      (** a [Proto.encode_frontier] blob: the hub's aggregate stability
          gossip for this document — feed the entries to
          {!Dce_store.Replica.absorb} so the local frontier advances
          past silent peers and the log can compact. *)
  | Disconnected of string
  | Reconnecting of { attempt : int; delay_ms : int }
  | Gave_up of string

type config = {
  heartbeat_ms : int;
  idle_timeout_ms : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  max_attempts : int option;
      (** [Some n]: emit [Gave_up] after exactly [n] consecutive failed
          connection attempts (resolve/connect errors, or a drop before
          the snapshot arrived).  The count resets when a session goes
          live, and the loss of a live session schedules a reconnect
          without counting as a failure.  [None]: retry forever. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?metrics:Dce_obs.Metrics.t ->
  ?trace:Dce_obs.Trace.sink ->
  ?seed:int ->
  ?doc:string ->
  ?resume:(unit -> (Dce_ot.Vclock.t * int) option) ->
  ?faults:Faults.t ->
  host:string ->
  port:int ->
  site:int ->
  unit ->
  t
(** Does not touch the network; the first {!step} starts connecting.
    [seed] fixes the backoff jitter (tests).  [doc] (default ["main"])
    names the hub document the client attaches to.

    [resume] is consulted at every (re)connect: return the local
    controller's clock and policy version to request a [Delta] instead of
    a full snapshot — the hub still answers [Snapshot] if its log is
    compacted past that point.  Return [None] (the default) when there
    is no local state to resume from.  {!set_resume} replaces it.

    [faults] (chaos runs) injects the seeded fault plan into every
    connection this client opens — see {!Conn.create}. *)

val site : t -> int

val doc : t -> string
(** The document requested at {!create}. *)

val step : ?timeout_ms:int -> t -> event list
(** Advance the state machine: progress the non-blocking connect, read,
    dispatch, flush, heartbeat, or wait out the backoff. *)

val send : t -> string -> unit
(** Queue a [Proto.encode_message] blob for the relay to fan out.
    Dropped unless the session is live — locally generated requests
    issued while disconnected cannot reach anyone and are superseded by
    the snapshot on rejoin. *)

val connected : t -> bool
(** Live: the snapshot has been received. *)

val stopped : t -> bool
(** Closed or gave up; {!step} is a no-op. *)

val outbox_bytes : t -> int
(** Bytes queued for write on the current connection (0 when not
    connected) — the client-side backpressure level, exported as a
    gauge by the editor daemons. *)

val fd : t -> Unix.file_descr option
(** The socket, for embedding in an external {!Evloop.wait} (e.g.
    together with stdin). [None] while waiting out a backoff. *)

val set_stamp : t -> (unit -> Dce_ot.Vclock.t * int) -> unit
(** How to stamp this client's [Net] trace events with a vector clock
    and policy version — point it at the live controller so traces stay
    causally auditable.  The same source feeds the periodic stability
    beacon (sent on the heartbeat cadence, even when
    idle, so the rest of the group can compact past this site). *)

val set_resume : t -> (unit -> (Dce_ot.Vclock.t * int) option) -> unit
(** Replace {!create}'s [resume] source (see there). *)

val drop_link : ?reason:string -> t -> unit
(** Sever the live connection as if the network cut it (no [Bye]); the
    normal reconnect path runs on the next {!step} and the rejoin
    snapshot heals the session.  Chaos harnesses use this as the heal
    point of a simulated partition.  No-op when not connected. *)

val close : t -> unit
(** Send [Bye], close, and stop reconnecting. *)
