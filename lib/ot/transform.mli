(** Inclusion and exclusion transformation (tombstone model).

    [it o1 o2] (the paper's [IT]) rewrites [o1] — defined on some model
    state [D] — so that it can be executed on [Do(o2, D)] while preserving
    [o1]'s intention.  Both operations must be defined on the same state
    (concurrent operations from the same context).

    [et o1 o2] ([ET]) is the converse: [o1] is defined on a state that
    {e includes} [o2]'s effect, and the result is [o1] rewritten as if
    [o2] had never executed.  It inverts [it] on every pair reachable in
    the log algorithms ({!Oplog}).

    The rules follow the TTF transformation functions of Oster, Urso,
    Molli and Imine (CSCW 2006): deletions hide elements instead of
    removing them, so only insertions shift positions — which is what
    makes the function set satisfy both convergence conditions TP1 and
    TP2 (purely positional rule sets provably cannot; DESIGN §2 and §4.1).

    Tie-breaking: concurrent [Ins]/[Ins] at the same position order by the
    site priority [pr] (higher priority ends up after); concurrent
    [Up]/[Up] of the same element resolve to the higher-priority update,
    the loser becoming [Nop].  Concurrent operations never carry the same
    priority (priorities are site identifiers).

    Verified properties (see [test/test_ot.ml]):
    - TP1: [Do(o1; it o2 o1) = Do(o2; it o1 o2)] on every valid state;
    - TP2: [it_list o [o1; it o2 o1] = it_list o [o2; it o1 o2]];
    - inversion: [it (et o1' o2) o2 = o1'] for reachable pairs. *)

val it : 'e Op.t -> 'e Op.t -> 'e Op.t
val et : 'e Op.t -> 'e Op.t -> 'e Op.t
(** Both return [o1] itself, physically, whenever the transformation
    leaves it unchanged; {!Oplog} relies on this to keep the entry
    records of operations a transposition did not move. *)

val it_list : 'e Op.t -> 'e Op.t list -> 'e Op.t
(** [it_list o ops] folds [it] left-to-right: transforms [o] against the
    sequence [ops] (each op defined on the state produced by its
    predecessors). *)
