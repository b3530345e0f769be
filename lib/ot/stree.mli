(** Persistent stat trees: balanced sequences with cached subtree stats.

    A stat tree is a height-balanced binary tree holding a sequence of
    elements.  Each element spans {!ELT.size} consecutive {e positions}
    (at least one), and positions are what the tree is indexed by.
    Every node caches two subtree statistics:

    - its {e size} (positions spanned), giving O(log n) positional
      {!Make.find}/{!Make.update}/{!Make.insert} and O(1) {!Make.length};
    - its {e weight} — the sum of {!ELT.weight} over the subtree's
      elements — giving O(1) totals ({!Make.weight}) and O(log n) order
      statistics over the measure ({!Make.select}, {!Make.rank}).

    The cooperative log's entries have size 1, so its positions are
    entry indices; with measure [1 if tentative else 0] the tree
    enumerates the tentative entries without touching settled ones.  A
    tombstone document's elements are chunks of cells, each as large as
    its cell count, weighed by its visible cells: positions are model
    positions, the weight is the visible length, and the visible<->model
    translation (the classic index of tombstone sequence CRDTs, Treedoc
    and descendants) is a tree descent plus a scan of one chunk, which
    {!Make.select} and {!Make.rank} hand to the caller.

    The structure is persistent: every operation returns a new tree
    sharing all untouched nodes.  A node is seven words whatever the
    element, and a descent reads an element's own size and weight off
    the caches, calling {!ELT} only to build nodes. *)

module type ELT = sig
  type 'a t

  val size : 'a t -> int
  (** Positions the element spans, at least one. *)

  val weight : 'a t -> int
  (** The element's measure. *)
end

module Make (E : ELT) : sig
  type 'a elt = 'a E.t
  type 'a t

  val empty : 'a t

  val length : 'a t -> int
  (** Positions spanned by all elements.  O(1). *)

  val weight : 'a t -> int
  (** Sum of the measure over all elements.  O(1). *)

  val find : 'a t -> int -> 'a elt * int
  (** [find t i] is the element whose span holds position [i], and
      [i]'s offset within it.  O(log n).  Raises [Invalid_argument] out
      of range. *)

  val get : 'a t -> int -> 'a elt
  (** The element of {!find}. *)

  val update : 'a t -> int -> ('a elt -> int -> 'a elt) -> 'a t
  (** [update t i f] replaces the element [x] holding position [i], at
      offset [o], by [f x o] in one descent.  The replacement may span
      a different number of positions.  O(log n). *)

  val set : 'a t -> int -> 'a elt -> 'a t
  (** Replace the element holding a position.  O(log n). *)

  val set_range : 'a t -> pos:int -> 'a elt array -> 'a t
  (** [set_range t ~pos arr] replaces, in order, the elements starting
      at position [pos] with those of [arr], each replacement spanning
      as many positions as the element it replaces.  One walk: the tree
      shape is untouched — only the nodes whose span meets the range are
      rebuilt — so the cost is O(k + log n) for [k] elements, against
      O(k log n) for [k] individual {!set}s.  Raises [Invalid_argument]
      if the range does not fit. *)

  val insert : 'a t -> int -> 'a elt -> 'a t
  (** [insert t i x] inserts [x] to start at position [i], which must
      be an element boundary ([i = length t] appends).  O(log n).
      Raises [Invalid_argument] out of range or inside an element. *)

  val append : 'a t -> 'a elt -> 'a t
  (** [insert] at [length t].  O(log n). *)

  val select : 'a t -> int -> ('a elt -> int -> int) -> int
  (** [select t k part] finds the element [x] holding cumulative weight
      position [k]; with [k'] the part of [k] past the elements before
      [x], it returns [x]'s start position plus [part x k'].  For
      size-1 elements and 0/1 measures, with [part] returning 0, this is
      the position of the [k]-th element of measure 1.  O(log n) plus
      [part].  Raises [Invalid_argument] unless [0 <= k < weight t]. *)

  val rank : 'a t -> int -> ('a elt -> int -> int) -> int
  (** [rank t i part] is the summed measure of the elements wholly
      before position [i], plus [part x o] for the element [x] holding
      [i] at offset [o]; [weight t] when [i = length t].  With size-1
      elements and [part] returning 0, it is the measure strictly
      before [i].  O(log n) plus [part]. *)

  val fold_left : ('acc -> 'a elt -> 'acc) -> 'acc -> 'a t -> 'acc

  val fold_range : ('acc -> 'a elt -> 'acc) -> 'acc -> 'a t -> pos:int -> len:int -> 'acc
  (** Fold over the elements whose span meets positions
      [\[pos, pos + len)].  O(k + log n) for [k] elements.  Raises
      [Invalid_argument] if the range is not contained in the
      sequence. *)

  val fold_nonzero : ('acc -> 'a elt -> 'acc) -> 'acc -> 'a t -> 'acc
  (** Left fold over the elements of nonzero measure only, skipping
      zero-weight subtrees wholesale: O(k log n) for [k] hits rather
      than O(n). *)

  val prefix_length : ('a elt -> bool) -> 'a t -> int
  (** Positions spanned by the longest prefix of elements that all
      satisfy the predicate.  Stops at the first failure:
      O(k + log n) for [k] elements. *)

  val suffix_length : ('a elt -> bool) -> 'a t -> int
  (** As {!prefix_length} for the longest suffix, walking right to
      left. *)

  val to_list : 'a t -> 'a elt list
  (** O(n). *)

  val of_list : 'a elt list -> 'a t
  (** Perfectly balanced bulk build.  O(n). *)
end
