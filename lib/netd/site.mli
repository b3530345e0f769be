(** One networked editor site: the paper's Generate / Receive / Validate
    algorithms driven over a relay connection.

    A site is one {!Client}, one {!Dce_store.Replica} (absent until the
    first state transfer, unless local state was recovered or parked),
    the messages a journal recovery re-emitted, and a fixed 5 s
    compaction cadence — the hub's [compact_ms] default.  Every editor
    (p2pedit [--connect], loadgen, the tests and benches) is a thin
    caller of this module: it calls {!step} from its own loop, reacts to
    the returned {!notice}s with its own printing and counting, and
    issues edits through {!generate} and {!admin}.

    {!step} hands each {!Client.event} to the replica — a snapshot to
    [catch_up] (or [rejoin] when the site holds no state), a delta to
    [apply_delta], a message to [receive], a beacon to [absorb] — and
    sends what it returns; the first join also sends the recovered
    re-emissions.  A snapshot or delta the replica cannot apply is
    [Dropped], like a message it cannot apply, and changes nothing.
    The journal rules are the replica's.  The site adds
    one: every (re)connect presents the live controller's clock and
    policy version, so the hub can answer with a delta instead of a
    snapshot, and the trace stamp reads the same controller. *)

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
    [e2e.propagation_ns] histogram; [trace] goes to loaded controllers
    and the replica. *)

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
(** Compact now, never past the durable cut ({!step} does this every
    5 s). *)

val controller : 'e t -> 'e Dce_core.Controller.t option
val client : 'e t -> Client.t

val journal_errors : 'e t -> int
(** Failed journal appends and checkpoints so far: durability
    degraded, the session kept running. *)

val close : 'e t -> unit
(** Close the client, then checkpoint and close the journal. *)
