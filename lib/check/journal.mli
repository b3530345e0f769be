(** Value-semantics journaled replicas for the model checker.

    The explorer's search nodes must be pure values — sibling branches
    of the DFS may never observe each other's writes — but a journaled
    site ({!Dce_store.Replica} over {!Dce_store.Persist}) is imperative.
    This module bridges the two: a {!t} holds an immutable
    {!Dce_store.Io.Mem.image} of the site's store directory, and every
    step restores a private in-memory world from the image, reopens the
    journal over it ([Persist.opendir], which replays the log), runs the
    step on the {e shipped} [Replica] over that journal, and snapshots
    the world back into a fresh image.  When to record, checkpoint or
    clamp is the [Replica]'s decision, exactly as in the daemons, the
    editor and [crashtest]; crash recovery inside the checker is
    byte-for-byte the recovery the daemons run.

    Scope is bounded (a handful of records between checkpoints), so the
    restore/reopen per step costs microseconds — a price worth paying
    for running the real code in a branching search. *)

open Dce_ot
open Dce_core

type t

val default_config : Dce_store.Store.config
(** [fsync Always], [snapshot_every 2], [keep_generations 2]. *)

val with_replica :
  t ->
  char Controller.t ->
  (char Dce_store.Replica.t -> 'a) ->
  t * char Controller.t * 'a * bool
(** [with_replica t c f] reopens the journal, runs [f] on
    [Replica.create ~journal c], and returns the new journal, the
    replica's controller, [f]'s result, and whether a checkpoint was
    taken.  Raises [Failure] if a journal write failed — inside the
    explorer that surfaces as a violation. *)

val create : ?config:Dce_store.Store.config -> char Controller.t -> t
(** A fresh journal whose base snapshot is [c]'s serialized state.
    [config] defaults to {!default_config} — small enough that bounded
    scenarios cross several checkpoint generations. *)

val cut : t -> Vclock.t option
(** The durability cut: clock of the newest durable snapshot. *)

val generations : t -> int list

val crash : t -> t
(** Kill the owning process, [kill -9] flavor: open handles die, file
    contents survive (the page cache outlives the process). *)

val corrupt_newest_snapshot : t -> t option
(** Flip a byte in the newest snapshot so recovery must fall back to
    the previous generation and {e its} log.  [None] when fewer than
    two generations exist (no fallback pair to test). *)

type recovery = { controller : char Controller.t; replayed : int }

val recover : t -> (t * recovery, string) result
(** The real [Persist.opendir] over the image: newest valid snapshot,
    decode, replay the generation's log through
    [generate]/[admin_update]/[receive].  [Error] if the store is
    unrecoverable or recovery yields no controller. *)

val fingerprint : t -> string
(** Canonical digest of the image — part of the explorer's node
    fingerprint, so schedules that leave different bytes on "disk" are
    distinct states. *)
