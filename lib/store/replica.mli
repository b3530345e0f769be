(** One site's replica: its controller plus its optional {!Persist}
    journal, changed only through entry points that keep the journal
    rules (DESIGN §8.4), so the editor runtime, the hub's sessions and
    [crashtest] share one copy of them:

    - an input is journaled before its message is returned;
    - a received message is recorded once [receive] accepts it, before
      what it emitted is returned;
    - a state transfer is checkpointed before its re-emissions return;
    - compaction never cuts past the durable snapshot;
    - a journal with no base snapshot gets one instead of a record.

    A failed append ([Unix.Unix_error], {!Io.Io_error}) or checkpoint
    counts one {!journal_errors} and emits a [journal_error] trace
    event; nothing raises.  A failed append is followed at once by a
    checkpoint, so later records start a fresh log rather than sit
    behind a torn frame.  A replica opens no sockets. *)

type 'e t

val create :
  ?trace:Dce_obs.Trace.sink -> ?journal:'e Persist.t -> 'e Dce_core.Controller.t -> 'e t
(** Adopt a fresh or recovered controller; [journal] must be its own or
    empty, and an empty one gets its base snapshot now. *)

val rejoin :
  ?trace:Dce_obs.Trace.sink ->
  ?journal:'e Persist.t ->
  site:Dce_core.Subject.user ->
  'e Dce_core.Controller.t ->
  'e t
(** Adopt a donor's state as [site] ({!Dce_core.Controller.rejoin}),
    checkpointed. *)

val controller : 'e t -> 'e Dce_core.Controller.t
val journal : 'e t -> 'e Persist.t option
val journal_errors : 'e t -> int

val note : ?peer:int -> 'e t -> string -> string -> unit
(** [note t action detail] emits a [Net] trace event about [peer]
    (default: this site), stamped with the controller's clock. *)

val generate : 'e t -> 'e Dce_ot.Op.t -> ('e Dce_core.Controller.message, string) result
(** Algorithm 2; [Error] is the denial reason. *)

val admin :
  'e t -> Dce_core.Admin_op.t -> ('e Dce_core.Controller.message, string) result

val receive :
  'e t -> 'e Dce_core.Controller.message -> ('e Dce_core.Controller.message list, string) result
(** A message the controller cannot apply (say, a well-framed op with an
    out-of-range position) is an [Error] that changes nothing. *)

val catch_up :
  'e t -> 'e Dce_core.Controller.t -> ('e Dce_core.Controller.message list, string) result
(** {!Dce_core.Controller.catch_up} from a donor, checkpointed.  A
    transfer the controller cannot apply raises inside it, as a bad
    message raises inside {!receive}; it is an [Error] that changes
    nothing, the controller and the journal alike. *)

val apply_delta :
  'e t -> 'e Dce_core.Controller.delta -> ('e Dce_core.Controller.message list, string) result
(** {!Dce_core.Controller.apply_delta}, checkpointed; a delta it declines
    or cannot apply is an [Error] that changes nothing, as for
    {!catch_up}. *)

val absorb : 'e t -> Dce_wire.Proto.beacon list -> unit
(** Fold stability beacons into the controller, in order. *)

val compact : 'e t -> unit
(** Compact behind the stability frontier ({!Persist.compact}). *)

val close : 'e t -> unit
(** Checkpoint, then close the journal. *)
