(** One networked editor site: the paper's Generate / Receive / Validate
    algorithms driven over a relay connection.

    A site owns one {!Client}, its controller (absent until the first
    state transfer, unless local state was recovered or parked), the
    optional {!Dce_store.Persist} journal with the messages its recovery
    re-emitted, and a fixed 5 s compaction cadence — the hub's
    [compact_ms] default.  Every editor (p2pedit [--connect], loadgen,
    the tests and benches) is a thin caller of this module: it calls
    {!step} from its own loop, reacts to the returned {!notice}s with its
    own printing and counting, and issues edits through {!generate} and
    {!admin}.

    What {!step} does with each {!Client.event}:
    - a snapshot is loaded and, when the site holds local state,
      replayed through it ({!Dce_core.Controller.catch_up}); otherwise
      the site {!Dce_core.Controller.rejoin}s from it;
    - a delta is applied ({!Dce_core.Controller.apply_delta});
    - either transfer is checkpointed to the journal, then the messages
      it returned — plus, on the first join, the recovered re-emissions
      — are sent;
    - a message is received, journaled, and whatever the receive
      emitted (the administrator's validations) is sent;
    - a beacon is folded into the stability frontier.

    Invariants, whatever the caller:
    - {b journal before broadcast}: a generated request or admin command
      is recorded before it is sent;
    - {b checkpoint-then-clamp}: compaction never cuts past
      {!Dce_store.Persist.checkpoint_clock}; when the stable frontier
      has moved past the durable cut, a checkpoint is taken first;
    - {b always resume}: every (re)connect presents the live
      controller's clock and policy version, so the hub can answer with
      a delta instead of a snapshot, and the trace stamp reads the same
      controller. *)

type 'e notice =
  | Joined of { delta : bool; resent : int }
      (** a state transfer was integrated ([delta]: a log suffix, not a
          snapshot) and [resent] messages went out behind it *)
  | Integrated of 'e Dce_core.Controller.message
      (** a remote message was received and journaled *)
  | Dropped of string
      (** undecodable or rejected input, discarded: the site is unchanged *)
  | Link of Client.event
      (** [Connected], [Disconnected], [Reconnecting] or [Gave_up] *)

type 'e t

val create :
  ?metrics:Dce_obs.Metrics.t ->
  ?trace:Dce_obs.Trace.sink ->
  ?journal:'e Dce_store.Persist.t ->
  ?state:'e Dce_core.Controller.t ->
  ?owed:'e Dce_core.Controller.message list ->
  codec:'e Dce_wire.Proto.elt_codec ->
  eq:('e -> 'e -> bool) ->
  Client.t ->
  'e t
(** Wrap a not-yet-stepped client (its resume and stamp sources are
    taken over).  [state] is local state to resume from — a recovered
    journal's controller, or one parked from an earlier session — and
    [owed] the recovery's re-emissions, sent right after the first
    join.  [journal] must belong to [state] (or be empty).  [metrics]
    re-attaches meters to loaded controllers and holds the
    [e2e.propagation_ns] histogram; [trace] goes to loaded controllers. *)

val step : ?timeout_ms:int -> 'e t -> 'e notice list
(** One {!Client.step} (blocking at most [timeout_ms], default 0), its
    events turned into controller work, then compaction when due. *)

val generate :
  'e t -> 'e Dce_ot.Op.t -> ('e Dce_core.Controller.message, string) result
(** Algorithm 2: check, execute, journal, send.  [Error] carries the
    denial reason (or "not joined yet").  Accepted requests issued while
    the link is down are re-sent by the next join's transfer. *)

val admin :
  'e t -> Dce_core.Admin_op.t -> ('e Dce_core.Controller.message, string) result
(** Algorithm 4, generation side; journaled and sent like {!generate}. *)

val compact : 'e t -> unit
(** Compact now, under checkpoint-then-clamp ({!step} does this every
    5 s). *)

val controller : 'e t -> 'e Dce_core.Controller.t option
val client : 'e t -> Client.t

val journal_errors : 'e t -> int
(** Failed checkpoints so far: durability degraded, the session kept
    running. *)

val close : 'e t -> unit
(** Close the client, then checkpoint and close the journal. *)
