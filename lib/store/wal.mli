(** Append-only write-ahead log with CRC-framed records.

    One file, a sequence of {!Dce_wire.Codec.frame} records (magic,
    format version, length, CRC-32, payload).  Appends go straight to
    the backend — no userspace buffering — so a [kill -9] can lose at
    most the record currently being written; {!openfile} scans the file
    on open, keeps the longest valid record prefix and truncates
    whatever follows (a torn tail from a crash mid-write, or tail
    corruption), which makes recovery [load snapshot + replay records]
    regardless of how the previous process died.

    Durability against power loss is governed by the fsync policy:
    [Always] syncs after every append (every acknowledged record
    survives power-off), [Interval n] syncs every [n] appends (bounded
    loss window, near-[Never] throughput), [Never] leaves it to the
    kernel (process crashes lose nothing — the page cache survives
    [kill -9] — but power loss may).  See DESIGN §11 for the trade-off
    numbers.

    All file access goes through an {!Io.t} backend: the default is the
    real filesystem; {!Io.Mem} runs the identical recovery code against
    a deterministic in-memory world with fault injection. *)

type fsync_policy = Always | Interval of int | Never

type recovery = {
  records : string list;  (** valid record payloads, oldest first *)
  valid_bytes : int;  (** file size of the kept prefix *)
  truncated_bytes : int;
      (** bytes dropped from the tail (0 = the file was clean) *)
}

type t

val openfile : ?fsync:fsync_policy -> ?io:Io.t -> string -> (t * recovery, string) result
(** Open (creating if absent) the log at this path, validate every
    record, truncate the file after the last valid one and position for
    appending.  [fsync] defaults to [Interval 64]; [io] to the real
    filesystem.  [Error] only on I/O failure — corruption is never an
    error, it is recovered from. *)

val append : t -> string -> unit
(** Frame and write one record, then sync according to the policy.
    Raises [Unix.Unix_error] (filesystem backend) or {!Io.Io_error}
    (in-memory faults) on I/O failure — callers own the disk-full
    policy — and [Invalid_argument] on a closed log. *)

val sync : t -> unit
(** Force an fsync now regardless of policy (no-op on a clean log). *)

val records_written : t -> int
(** Records in the log: those recovered on open plus appends since. *)

val close : t -> unit
(** Sync (unless the policy is [Never]) and close.  Idempotent. *)
