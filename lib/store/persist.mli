(** The controller journal: crash recovery by command-log replay.

    A {!t} couples a {!Store} directory with a site's controller: every
    input that mutates the controller — a locally generated operation,
    a local administrative command, a received message — is appended to
    the write-ahead log as a {!record}, and the full serialized state
    ([Dce_wire.Proto.encode_state]) is checkpointed as a snapshot every
    [snapshot_every] records.  Recovery ({!opendir}) loads the newest
    valid snapshot and replays the log's records through the very same
    code paths that produced them ([generate] / [admin_update] /
    [receive] are deterministic functions of controller state), so the
    recovered site reaches {e exactly} its pre-crash state — fingerprint
    equality, not just convergence — and the messages the replay emits
    are returned for (idempotent) re-broadcast.

    When to record and when to checkpoint is {!Replica}'s to decide:
    every process that journals drives its journal through one. *)

open Dce_core

type 'e record =
  | Generated of 'e Dce_ot.Op.t
      (** input to [Controller.generate] (replays to the same request) *)
  | Admin_cmd of Admin_op.t  (** input to [Controller.admin_update] *)
  | Received of 'e Controller.message  (** input to [Controller.receive] *)

val encode_record : 'e Dce_wire.Proto.elt_codec -> 'e record -> string

val decode_record : 'e Dce_wire.Proto.elt_codec -> string -> 'e record Dce_wire.Codec.result
(** What recovery reads a journal record with. *)

type 'e t

type 'e recovery = {
  controller : 'e Controller.t option;
      (** [None]: the store is empty — build the initial controller and
          {!checkpoint} it before the first {!record} call *)
  replayed : int;  (** log records re-applied on top of the snapshot *)
  truncated_bytes : int;  (** torn/corrupt log tail dropped on open *)
  emitted : 'e Controller.message list;
      (** messages the replay (re-)emitted; re-broadcast them — peers
          deduplicate, and any that died with the process are exactly
          the ones that must go out again *)
}

val opendir :
  ?config:Store.config ->
  ?io:Io.t ->
  ?eq:('e -> 'e -> bool) ->
  ?trace:Dce_obs.Trace.sink ->
  codec:'e Dce_wire.Proto.elt_codec ->
  string ->
  ('e t * 'e recovery, string) result
(** Open (creating if needed) the store directory and recover.  Fails
    if the snapshot does not decode, its administrative history does
    not validate ([Controller.load]), or a CRC-valid log record is
    semantically undecodable — all three mean software rot, not a torn
    write, and deserve a loud stop. *)

val record : 'e t -> 'e record -> unit
(** Append one input to the log (fsync per the store's policy).
    Raises [Invalid_argument] on a fresh store with no checkpoint yet:
    a log with no base snapshot cannot be replayed. *)

val checkpoint : 'e t -> 'e Controller.t -> (unit, string) result
(** Serialize [c] and cut a new store generation. *)

val maybe_checkpoint : 'e t -> 'e Controller.t -> (bool, string) result
(** {!checkpoint} iff the log has absorbed [snapshot_every] records
    since the last one; returns whether it did. *)

val checkpoint_clock : 'e t -> Dce_ot.Vclock.t option
(** The clock of the newest durable snapshot (set by {!checkpoint} and
    by {!opendir} recovery; [None] until the store has one) — the
    durability cut, which {!compact} never compacts past: replay starts
    from the snapshot and needs every later entry in the log. *)

val compact :
  'e t -> 'e Controller.t -> 'e Controller.t * (bool, string) result
(** Checkpoint-then-clamp: when the stable frontier has passed
    {!checkpoint_clock} (or there is no snapshot), {!checkpoint} first;
    then [Controller.compact ~limit] under the durable clock — [c] comes
    back unchanged while there is no snapshot.  The result says whether
    a checkpoint was cut; on [Error] the cut stayed at the old clock. *)

val fingerprint : 'e t -> 'e Controller.t -> string
(** [Dce_wire.Proto.fingerprint] under this journal's codec. *)

val generation : 'e t -> int
val records_since_checkpoint : 'e t -> int
val dir : 'e t -> string
val sync : 'e t -> unit
val close : 'e t -> unit
