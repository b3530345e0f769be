(** The federation link: a leaf hub's connection to its home hub.

    A leaf attaches upstream as a quasi-client, one [Attach] per hosted
    document over a single multiplexed socket, using the leaf's hosted
    relay site as its member site at the home hub.  Local frames are
    forwarded up with {!send}; frames fanned down by the home arrive as
    {!event}s for the hub to apply and rebroadcast to local members.

    The link itself — connect, jittered backoff, keepalive, [Bye] — is a
    {!Dce_netd.Dialer}, as under {!Dce_netd.Client}.  Every reconnect
    re-attaches all docs — each [Doc_snapshot] reply then
    heals the leaf's replica ({!Dce_store.Replica.catch_up}), exactly
    like a late-joining client; a snapshot the replica cannot apply is
    {!reject}ed and leaves it as it was.

    Like {!Dce_netd.Client} this owns the transport only; the hub holds
    the controllers and drives {!step} from its event loop. *)

type event =
  | Up_connected  (** TCP up; all docs re-attached *)
  | Up_snapshot of { doc : string; state : string }
  | Up_msg of { doc : string; origin : int; msg : string }
  | Up_beacon of { doc : string; frontier : string }
      (** the home hub's aggregate stability gossip for [doc] (a
          [Proto.encode_frontier] blob) — absorb it into the local
          session so the leaf's frontier covers sites attached
          elsewhere in the federation *)
  | Up_disconnected of string

type config = {
  heartbeat_ms : int;
  idle_timeout_ms : int;
  backoff_base_ms : int;
  backoff_max_ms : int;
  max_buffer : int;
      (** byte bound on the degraded-mode up-forward buffer (default
          1 MiB); overflow falls back to snapshot healing *)
}

val default_config : config

type health =
  | Healthy
  | Degraded of { reason : string; since_ms : float }
      (** the link is down: [reason] is the last failure, [since_ms]
          when the degradation began.  Local members keep editing;
          up-forwarded frames buffer (bounded) until reconnect. *)

type t

val create :
  ?config:config ->
  ?metrics:Dce_obs.Metrics.t ->
  ?seed:int ->
  ?faults:Dce_netd.Faults.t ->
  host:string ->
  port:int ->
  site:int ->
  unit ->
  t
(** [site] is the member site this leaf presents at the home hub — its
    own hosted relay site, so supersede-on-reconnect works upstream
    too.  Does not touch the network; the first {!step} connects. *)

val attach : t -> doc:string -> unit
(** Add [doc] to the attached set (idempotent).  Sent immediately when
    live, and re-sent on every reconnect. *)

val send : t -> doc:string -> origin:int -> string -> unit
(** Queue a [Proto.encode_message] blob for [doc].  When the link is
    down the frame is buffered (bounded by [max_buffer]) and flushed
    right after the reconnect re-attach burst; overflow drops the frame
    — counted in {!buffer_dropped} — and the snapshot heals the gap. *)

val send_beacon : t -> doc:string -> string -> unit
(** Queue a [Proto.encode_frontier] blob for [doc] — this leaf's
    aggregate stability report.  Dropped when the link is down: beacons
    are periodic, the next cadence resends. *)

val step : ?timeout_ms:int -> t -> event list
(** Advance the link: progress the non-blocking connect, read,
    dispatch, flush, heartbeat, or wait out the backoff. *)

val reject : t -> string -> unit
(** Drop the live link as [Corrupt why]: the home sent input the leaf
    cannot apply.  The next {!step} reaps it like any failure: the link
    degrades, backs off and re-attaches, and fresh snapshots heal. *)

val connected : t -> bool
val stopped : t -> bool

val health : t -> health
(** [Degraded] from the first connect failure or disconnect until the
    next successful re-attach. *)

val buffered_bytes : t -> int
(** Bytes currently held in the degraded-mode up-forward buffer. *)

val buffer_dropped : t -> int
(** Frames dropped because the degraded-mode buffer was full
    (cumulative). *)

val fd : t -> Unix.file_descr option
(** For embedding in the hub's {!Dce_netd.Evloop} set ([None] during
    backoff). *)

val wants_write : t -> bool

val close : t -> unit
(** Send [Bye], close, stop reconnecting. *)
