(** Vector clocks over dynamic site sets.

    The paper's coordination framework avoids vector timestamps by tracking
    direct dependencies (a dependency tree); we carry those dependency
    identifiers too (see {!Request}), but use vector clocks as the ground
    truth for the happened-before relation.  Clocks map site identifiers
    to counters, so sites can join and leave at any time without
    fixed-width vectors (DESIGN §4.3).

    {2 Representation}

    A clock is one unboxed [int array] of (site, count) pairs, sites
    strictly ascending, never written once built: a clock of [k] sites
    is [2k + 1] words (a 2-site request context 5, where a balanced
    [Map] took 12).  A site absent from a clock counts 0; a binding of
    count 0 is kept as given ({!to_list} returns it) but compares as
    absence.  Costs, for clocks of [k], [ka] and [kb] sites:

    - {!get}, {!dominates_event}: a binary search, O(log k), allocating
      nothing;
    - {!merge}, {!meet}, {!leq}, {!equal}, {!concurrent}: one ordered
      walk of both, O(ka + kb); the first two build a fresh array;
    - {!tick}: a {!merge} with one binding, O(k);
    - {!sum}, {!to_list}: O(k); {!of_list}: a sort, O(k log k). *)

type site = int

type t

val empty : t

val get : t -> site -> int
(** [get c s] is [s]'s counter, [0] if absent. *)

val tick : t -> site -> t
(** Increment [s]'s counter. *)

val merge : t -> t -> t
(** Pointwise maximum. *)

val meet : t -> t -> t
(** Pointwise minimum (a site missing from either clock counts as 0 and
    disappears from the result).  The meet of what every group member
    has seen is the stability frontier used for log compaction. *)

val leq : t -> t -> bool
(** [leq a b]: every counter of [a] is [<=] the corresponding counter of
    [b] — i.e. [a] happened before or equals [b]. *)

val equal : t -> t -> bool

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val dominates_event : t -> site:site -> count:int -> bool
(** [dominates_event c ~site ~count]: the event numbered [count] issued by
    [site] is covered by [c]. *)

val sum : t -> int
(** Total number of events covered: a Lamport-style scalar ([a] happened
    before [b] implies [sum a < sum b] for the clocks of successive
    requests). *)

val to_list : t -> (site * int) list
(** The bindings, sites ascending, zero counts included. *)

val of_list : (site * int) list -> t
(** A site bound more than once takes its last binding. *)

val pp : Format.formatter -> t -> unit
