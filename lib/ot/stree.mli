(** Persistent stat trees: balanced sequences with cached subtree stats.

    A stat tree is a height-balanced binary tree holding a sequence of
    elements addressed by integer index.  Every node caches two subtree
    statistics:

    - its {e size} (number of elements), giving O(log n) positional
      {!get}/{!set}/{!insert} and O(1) {!length};
    - its {e weight} — the sum of a caller-supplied integer measure over
      the subtree's elements — giving O(1) totals ({!weight}) and
      O(log n) order statistics over the measure ({!select}, {!rank}).

    With measure [1 if visible else 0] this is the classic
    visible-rank/model-rank index of tombstone sequence CRDTs (Treedoc
    and descendants): translating between model and visible coordinates
    becomes a tree descent instead of a linear scan.  With measure
    [1 if tentative else 0] it enumerates the tentative entries of a
    cooperative log without touching settled ones.

    The structure is persistent: every operation returns a new tree
    sharing all untouched nodes.  The measure is passed to each
    operation that builds nodes rather than stored, so [empty] stays a
    polymorphic constant; a tree must be used with one measure
    consistently or the cached weights are meaningless. *)

type 'a t

val empty : 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int
(** O(1). *)

val weight : 'a t -> int
(** Sum of the measure over all elements.  O(1). *)

val get : 'a t -> int -> 'a
(** O(log n).  Raises [Invalid_argument] out of range. *)

val set : measure:('a -> int) -> 'a t -> int -> 'a -> 'a t
(** Replace the element at an index.  O(log n). *)

val update : measure:('a -> int) -> 'a t -> int -> ('a -> 'a) -> 'a t
(** [update ~measure t i f] replaces the element [x] at [i] by [f x] in
    one descent.  O(log n). *)

val set_range : measure:('a -> int) -> 'a t -> pos:int -> 'a array -> 'a t
(** [set_range ~measure t ~pos arr] replaces the [Array.length arr]
    elements starting at [pos] with the elements of [arr], in one walk.
    The tree shape is untouched — only the nodes whose span meets the
    range are rebuilt — so the cost is O(len + log n), against
    O(len log n) for [len] individual {!set}s.  Raises
    [Invalid_argument] if the range does not fit. *)

val insert : measure:('a -> int) -> 'a t -> int -> 'a -> 'a t
(** [insert ~measure t i x] inserts [x] before position [i]
    ([i = length t] appends).  O(log n). *)

val append : measure:('a -> int) -> 'a t -> 'a -> 'a t
(** [insert] at [length t].  O(log n). *)

val select : 'a t -> int -> int
(** [select t k] is the index of the element containing cumulative
    weight position [k]: the unique [i] with [rank t i <= k
    < rank t (i + 1)].  For 0/1 measures this is the index of the
    [k]-th element of measure 1.  O(log n).  Raises [Invalid_argument]
    unless [0 <= k < weight t]. *)

val rank : 'a t -> int -> int
(** [rank t i] is the summed measure of the elements strictly before
    index [i] ([0 <= i <= length t]).  O(log n). *)

val iter : ('a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val fold_range : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> pos:int -> len:int -> 'acc
(** Fold over the index range [\[pos, pos + len)].  O(len + log n).
    Raises [Invalid_argument] if the range is not contained in the
    sequence. *)

val fold_nonzero : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Left fold over the elements of nonzero measure only, skipping
    zero-weight subtrees wholesale: O(k log n) for [k] hits rather than
    O(n). *)

val prefix_length : ('a -> bool) -> 'a t -> int
(** Length of the longest prefix whose elements all satisfy the
    predicate.  Stops at the first failure: O(result + log n). *)

val suffix_length : ('a -> bool) -> 'a t -> int
(** Length of the longest suffix whose elements all satisfy the
    predicate, walking right to left.  Stops at the first failure:
    O(result + log n). *)

val to_list : 'a t -> 'a list
(** O(n). *)

val of_list : measure:('a -> int) -> 'a list -> 'a t
(** Perfectly balanced bulk build.  O(n). *)
