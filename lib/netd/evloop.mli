(** Readiness polling without the select(2) cliff.

    select(2) is limited to [FD_SETSIZE] (1024) file descriptors; OCaml's
    binding refuses any fd whose {e number} is ≥ 1024.  A hub hosting
    thousands of connections, or an editor in a process holding that many
    files, needs [poll(2)], which takes an explicit array and scales to
    the process fd limit — this module is the thin binding, under every
    socket wait: the hub's loop, {!Dialer}, and the daemons' loops.

    The interface mirrors the [select] idiom:
    pass the fds you want readable/writable, get back the ready
    subsets.  [EINTR] (and a timeout expiring) returns two empty lists —
    callers always re-poll on the next tick.  Error conditions on a
    socket ([POLLERR]/[POLLHUP]/[POLLNVAL]) are reported as readiness so
    the owner's read/write handler observes the failure and retires the
    connection. *)

val wait :
  ?timeout_ms:int ->
  read:Unix.file_descr list ->
  write:Unix.file_descr list ->
  unit ->
  Unix.file_descr list * Unix.file_descr list
(** [(readable, writable)] among the given fds.  An fd may appear in
    both input lists (one underlying pollfd entry is used).
    [timeout_ms] defaults to 0 (pure poll); [-1] would block forever, so
    callers pass an explicit tick instead. *)

val sleep_ms : int -> unit
(** Sleep via an empty poll — a [select]-free [Unix.sleepf] for loops
    that have nothing to watch this tick. *)
