(** The durable store: snapshot generations plus a write-ahead log.

    A store directory holds, per generation [g], an atomic full-state
    snapshot [snap-g.snap] ({!Snapshot}) and the log of records applied
    since it was cut, [wal-g.log] ({!Wal}).  Recovery is therefore
    always [latest valid snapshot + bounded WAL replay]: {!opendir}
    picks the newest snapshot that frame-checks, opens that
    generation's log with torn-tail truncation, and hands both back.
    A corrupt newest snapshot falls back to the previous generation
    {e and its} log — which is why checkpointing keeps two generations
    around ([keep_generations], min 2).

    The caller owns record semantics (this layer moves opaque strings)
    and drives checkpoints: {!checkpoint} writes the new snapshot
    first, then switches to a fresh empty log, then prunes — a crash
    between any two of those steps recovers to a consistent state. *)

type config = {
  fsync : Wal.fsync_policy;  (** applied to the active log *)
  snapshot_every : int;
      (** {!should_checkpoint} once the active log holds this many
          records, recovered ones included (min 1) *)
  keep_generations : int;  (** snapshots retained by {!checkpoint} (min 2) *)
}

val default_config : config
(** [Interval 64] fsync, checkpoint every 1024 records, keep 2
    generations. *)

val fsync_policy_of_string : string -> (Wal.fsync_policy, string) result
(** ["always"], ["never"], or ["interval:N"] — the CLI spelling. *)

val fsync_policy_to_string : Wal.fsync_policy -> string

type recovered = {
  generation : int;
  snapshot : string option;  (** [None]: empty store, start from scratch *)
  wal_records : string list;  (** to replay on top, oldest first *)
  wal_truncated_bytes : int;  (** torn/corrupt tail dropped on open *)
}

type t

val opendir : ?config:config -> ?io:Io.t -> string -> (t * recovered, string) result
(** Open (creating the directory if needed) and recover.  [io] defaults
    to the real filesystem; pass an {!Io.Mem} backend to run the same
    recovery fault-injected without touching disk. *)

val append : t -> string -> unit
(** Append one record to the active generation's log (write-ahead:
    call before applying the record in memory). *)

val should_checkpoint : t -> bool
(** The active log has absorbed [snapshot_every] records. *)

val checkpoint : t -> string -> (unit, string) result
(** Cut a new generation: write [blob] as the next snapshot, switch
    appends to its (empty) log, prune old generations.  On [Error] the
    store keeps appending to the current generation — a failed
    checkpoint loses nothing. *)

val generation : t -> int
val records_since_checkpoint : t -> int
val dir : t -> string

val sync : t -> unit
(** Force-fsync the active log. *)

val close : t -> unit
(** Idempotent. *)
