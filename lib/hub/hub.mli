(** The multi-document hub: many hosted sessions, one event loop.

    Where the old single-session relay owned one controller and a flat
    connection list, a hub owns a {!Registry} of named {!Session}s and a
    set of multiplexed connections, stepped together from one
    {!Dce_netd.Evloop}-based loop that tolerates thousands of fds.  Every peer
    speaks the one {!Dce_netd.Relay_proto} dialect: it [Attach]es by
    document name, exchanges [Doc_msg]/[Doc_snapshot]/[Doc_delta]/
    [Beacon] frames, and may attach the same socket to any number of
    documents.

    Replication per document is the relay discipline unchanged: apply
    to the hosted replica first (semantically invalid input drops the
    peer as [Corrupt], and is never relayed) — the session's
    {!Dce_store.Replica} journals it before any external effect — then
    fan the original bytes verbatim to the document's other members.

    Federation: given [~upstream:(host, port)], the hub is a {e leaf}
    that attaches to its home hub through one {!Upstream} link, per
    hosted document.  Local frames are forwarded up, frames fanned down
    by the home are applied and rebroadcast to local members, and every
    forwarded frame carries the hub id of the first relay that accepted
    it — a frame arriving with our own id already went around a loop
    and is dropped.  Input from the home that the leaf cannot apply
    drops the link as [Corrupt], as for a member: the link turns
    degraded, reconnects, and the home's fresh snapshots heal the leaf.
    Requires a nonzero, topology-unique [hub_id]. *)

type config = {
  heartbeat_ms : int;
  idle_timeout_ms : int;
  hub_id : int;  (** 0 = standalone; federation requires nonzero *)
  auto_create : bool;
      (** open unknown docs on [Attach] via the factory; off, an
          unknown name drops the peer as [Corrupt] *)
  max_docs : int;  (** registry bound, see {!Registry.create} *)
  beacon_ms : int;
      (** cadence of the per-doc aggregate stability [Beacon] fanned to
          members and reported up the federation link *)
  compact_ms : int;
      (** cadence of automatic {!Dce_core.Controller.compact} on every
          hosted session; journaled sessions checkpoint first so the
          compaction cut never outruns the durability cut *)
}

val default_config : config
(** 5s heartbeat, 30s idle timeout, [hub_id = 0], no auto-create, 4096
    docs, 5s beacon and compaction cadences.  Member connections keep
    {!Dce_netd.Conn.create}'s 4 MiB outbox and 8 MiB frame bounds. *)

type 'e t

val create :
  ?config:config ->
  ?metrics:Dce_obs.Metrics.t ->
  ?trace:Dce_obs.Trace.sink ->
  ?addr:Unix.inet_addr ->
  ?upstream:string * int ->
  ?seed:int ->
  ?chaos:int * Dce_netd.Faults.config ->
  ?eq:('e -> 'e -> bool) ->
  codec:'e Dce_wire.Proto.elt_codec ->
  factory:'e Registry.factory ->
  docs:string list ->
  port:int ->
  unit ->
  'e t
(** Bind and listen (port 0 picks a free port, see {!port}); [docs] are
    opened through the factory immediately, further names on demand
    when [auto_create] is set.  The first of [docs] is the default
    document: what the accessors below mean when [?doc] is omitted.  [upstream] makes this hub a
    federation leaf; [seed] fixes its reconnect jitter and [eq] is the
    element equality used when loading upstream snapshots.  Raises
    [Failure] when a pre-opened doc's factory fails and
    [Invalid_argument] on a misconfigured federation (zero hub id, no
    documents). *)

val port : 'e t -> int
val hub_id : 'e t -> int

val docs : 'e t -> string list
(** Hosted document names, sorted. *)

val controller : ?doc:string -> 'e t -> 'e Dce_core.Controller.t
(** The hosted replica of [doc] (default: the first of {!create}'s
    [docs]).  Raises [Invalid_argument] for unknown names. *)

val connected_sites : ?doc:string -> 'e t -> int list
val member_count : ?doc:string -> 'e t -> int

val conn_count : 'e t -> int
(** Live connections (an idle multiplexed socket counts once). *)

val outbox_bytes : 'e t -> int
(** Total bytes queued for write across live connections — the
    backpressure level exported as a gauge by [dced]. *)

val upstream_connected : 'e t -> bool

val upstream_health : 'e t -> Upstream.health option
(** [None] for a standalone hub. *)

val journal_errors : 'e t -> int
(** Journal append/checkpoint failures since start (cumulative).
    Durability degradations, not availability: the sessions kept
    running. *)

val max_stable_lag : 'e t -> int
(** Worst {!Dce_core.Controller.stable_lag} across hosted docs. *)

val healthz : ?max_lag:int -> 'e t -> unit -> Dce_obs.Json.t
(** Health report for {!Dce_netd.Admin}: status ["ok"], or ["degraded"]
    (served as a 503) with a ["reasons"] list when the federation link
    is down, any journal write has failed, or the stability lag exceeds
    [max_lag] (default 100k events). *)

val step : ?timeout_ms:int -> 'e t -> unit
(** One event-loop turn over every session: accept, poll (via
    {!Dce_netd.Evloop.wait}, blocking at most [timeout_ms]), read and
    dispatch, flush, pump the federation link, heartbeat
    ({!Dce_netd.Dialer.keepalive}), reap. *)

val run : ?tick_ms:int -> ?on_tick:('e t -> unit) -> 'e t -> unit
(** {!step} until {!shutdown}; [on_tick] runs once per loop turn
    (admin endpoints, stats, signal polling). *)

val kick : ?doc:string -> 'e t -> site:int -> bool
(** Disconnect the member attached as [site] ([doc] omitted: in every
    document).  [true] if anyone was kicked. *)

val stopped : 'e t -> bool

val shutdown : 'e t -> unit
(** Send [Bye] everywhere, close every socket, the listener and the
    federation link, then checkpoint and close every session's journal
    (a failed checkpoint counts in {!journal_errors}). *)
