(** Monotone timestamps for telemetry and network timers.

    [Unix.gettimeofday] is not guaranteed monotone (NTP steps); trace
    analysis (latency deltas, per-site timelines) and the network
    layer's heartbeat/idle timers both need timestamps that never go
    backwards, so successive calls are clamped against the last value
    handed out.  Resolution is whatever the OS gives, typically ~1 µs.

    For deterministic tests the raw time source can be replaced with
    {!set_source}: timer logic (heartbeats, idle timeouts, reconnect
    deadlines) can then be driven by a fake clock without sleeping. *)

val now_ns : unit -> int
(** Current time in nanoseconds since the epoch, strictly increasing
    across calls within a process. *)

val now_ms : unit -> float
(** Current time in milliseconds since the epoch, never decreasing
    across calls within a process — the network layer's timer source.
    A backwards step of the underlying wall clock (NTP) freezes this
    clock until real time catches up instead of rewinding it, so idle
    and heartbeat deadlines never fire spuriously. *)

val tick : period_ms:float -> last:float -> float -> float option
(** Fixed-phase cadence.  [tick ~period_ms ~last now] is [None] while
    the tick after [last] is not yet due, and otherwise [Some due]: the
    latest point of the grid [last + k * period_ms] at or before [now],
    which the caller stores as its new [last].  [last = neg_infinity]
    means never ticked: the tick is due at once and the grid starts at
    [now].  A loop that reaches the due time late thus does not push
    every later tick back, and one that stalls across several periods
    ticks once and then resumes on the grid. *)

val set_source : (unit -> float) option -> unit
(** Replace the raw time source ([Unix.gettimeofday], in seconds) that
    both {!now_ns} and {!now_ms} read — [None] restores the real clock.
    The monotone clamp stays in force: a source that steps backwards
    still yields non-decreasing timestamps.  Test instrumentation; not
    thread-safe. *)
