(** Tombstone documents: the model state operations execute on.

    A tombstone document is a sequence of {e cells}.  Each cell holds:

    - its initial element (the one inserted, or from the initial state);
    - a set of tagged {e writes} (one per [Up] applied to it, possibly
      retracted by [Unup]); the cell's current {e content} is the value
      of the non-retracted write with the greatest tag, or the initial
      element when none remains;
    - a {e hide count}: [Del] increments it, [Undel] decrements it; the
      cell is visible iff the count is zero.

    Counters and tagged writes make all content effects commute, so
    concurrent deletions/updates of one element — and the retroactive
    undos the access-control layer performs — converge regardless of
    execution order.  The {e visible} document is the subsequence of
    visible cells' contents.

    Operation positions are {e model} positions (tombstones included).
    User intentions arrive in visible coordinates; {!ins_visible},
    {!del_visible} and {!up_visible} build the corresponding
    model-coordinate operations.

    The element expectations carried by [Del]/[Undel]/[Up] are checked
    {e loosely}: the expected element must appear in the cell's history
    (initial element or any write, retracted or not) — under concurrency
    the display value the issuer saw may have been any of these.  A miss
    raises {!Document.Edit_conflict} and signals a transformation bug,
    never a user error.

    {b Representation.}  Cells are stored in {e chunks} of at most 64
    consecutive cells, indexed by a persistent stat tree ({!Stree}) in
    which a chunk spans as many positions as it has cells and weighs its
    visible cells.  A chunk keeps every cell's element in a {!run}; one
    bit of a 64-bit {e dead mask} for each cell {!collapse} made dead,
    with no write and exactly one hide; and, in a sparse overlay sorted
    by offset, the record of every other {e touched} cell (one with a
    write or a hide count).  A masked cell reads, folds and encodes as
    the record it stands for; only {!collapse} sets mask bits, so a
    document that never collapses holds none.  A run is {e packed}, one
    byte a cell in an immutable string, in a character document built by
    {!of_string} (the empty string included) or decoded from a state;
    it is an array, one slot a cell, in a document built by {!of_list},
    {!of_cells} or {!empty}, the only kind a non-character element type
    can have.  Every chunk an insertion or a split creates inherits its
    document's kind, which never shows in the document's cells.  An
    insertion into a full chunk splits it into two halves, so every
    chunk but a document's first holds at least 32 cells, as does
    every chunk {!collapse} repacks.  Where the
    chunks split depends on the edit history, never on the cells
    alone: two documents with equal cells may be chunked differently,
    so nothing canonical (an encoding, a fingerprint) may depend on the
    split.

    {b Memory.}  An untouched cell of a packed run costs one byte:
    about 0.39 words per cell in full chunks (the 64-byte string, the
    tree node and the chunk header amortized over 64 cells), about 0.6
    in half-full ones.  In an array run it costs one slot: about 1.2
    words per cell in full chunks, 1.4 in half-full ones.  A masked cell
    costs its byte or slot and one bit; a chunk with a masked cell pays
    3 words for its mask.  Any other touched cell costs its byte or slot
    plus an overlay entry and its record, 7 words, plus its writes.  The
    one-node-per-cell layout chunks replaced cost 11 words for every
    cell.

    {b Cost.}  {!model_length} and {!visible_length} are O(1); {!cell},
    {!apply} and the visible<->model coordinate translations are
    O(log n + 64); the visible projections skip fully hidden chunks and
    subtrees.  The wire and the journal carry a document in the shape it
    is stored in: {!iter_runs} walks the chunks' runs, {!fold_touched}
    their overlays, and {!of_overlay} packs full chunks back from the
    two, so no record is built for an untouched cell on either side.
    {!of_cells}/{!of_string} pack full chunks directly; only
    {!model_list} and {!cell} build records for untouched cells, for
    the checker, the tests and the tools.

    {b Persistence.}  Documents are values: {!apply} returns a new
    document sharing every chunk and tree node it did not change, and
    no run or array is written once a returned document can reach it.
    Forked replicas and the model checker's search share documents
    freely. *)

type 'e write = { wtag : Op.tag; value : 'e; retracted : int }

type 'e cell = { elt : 'e; writes : 'e write list; hidden : int }

type _ run =
  | Chars : string -> char run  (** Packed: one byte a cell. *)
  | Elts : 'e array -> 'e run  (** One array slot a cell. *)
(** A run of elements, one per cell in model order. *)

val run_length : 'e run -> int
(** Elements in a run. *)

type 'e t

val empty : 'e t
(** No cell; insertions build array runs. *)

val of_list : 'e list -> 'e t
(** All cells visible, no writes; array runs. *)

val of_string : string -> char t
(** All cells visible, no writes; packed runs, also for [""], so the
    chunks insertions create are packed too. *)

val model_length : 'e t -> int
(** Cells including tombstones.  O(1). *)

val visible_length : 'e t -> int
(** Cells with hide count zero.  O(1). *)

val cell : 'e t -> int -> 'e cell
(** Cell at a model position.  O(log n). *)

val content : 'e cell -> 'e
(** Current content: greatest non-retracted write, or the initial
    element. *)

val of_cells : 'e cell list -> 'e t
(** Rebuild a document from its cells, in full chunks of array runs
    (tests and tools). *)

val iter_runs : ('e run -> unit) -> 'e t -> unit
(** The chunks' runs in model order, as stored: together they hold
    every cell's element, touched or not. *)

val fold_touched : ('acc -> int -> 'e cell -> 'acc) -> 'acc -> 'e t -> 'acc
(** Fold over the touched cells (a write or a hide count) in model
    order, with their model positions: the chunks' overlays and dead
    masks, walked in place, a dead cell as [{ elt; writes = [];
    hidden = 1 }].  Every other cell is [{ elt; writes = []; hidden = 0 }]
    with its element from {!iter_runs}. *)

val of_overlay : 'e run -> (int * 'e write list * int) list -> ('e t, string) result
(** [of_overlay elts overlay] is the document whose cell [i] has
    element [i] of [elts], and for each [(pos, writes, hidden)] of
    [overlay] those writes and that hide count; every other cell is
    untouched.  It packs full chunks of [elts]' kind: over an [Elts]
    run, the ones {!of_cells} builds over the same cells.  [Error] when
    an overlay position is out of range or not strictly above the one
    before it, or when an entry has no write and a zero hide count (an
    untouched cell is never in the overlay, so each document has one
    encoding).  [elts] is not kept. *)

val visible_list : 'e t -> 'e list
val visible_string : char t -> string
val model_list : 'e t -> 'e cell list

val model_of_visible : 'e t -> int -> int
(** Model position of the [v]-th visible cell; [model_length] when [v]
    equals {!visible_length}.  Raises [Invalid_argument] on a negative
    position or beyond the visible length.  O(log n). *)

val visible_of_model : 'e t -> int -> int
(** Number of visible cells strictly before the given model position.
    Raises [Invalid_argument] on a negative position; positions beyond
    {!model_length} are clamped to it (returning {!visible_length}) —
    transformation can carry a generation-context position past the
    current end of a shorter context, and the visible rank of any such
    position is the whole visible document.  O(log n). *)

val apply : ?eq:('e -> 'e -> bool) -> 'e t -> 'e Op.t -> 'e t
(** Execute a model-coordinate operation.  Raises
    {!Document.Edit_conflict} on a failed history check, a duplicate
    write tag, or an [Unup] of an unknown tag; [Invalid_argument] on
    out-of-range positions and on [Undel] of a visible cell. *)

val apply_all : ?eq:('e -> 'e -> bool) -> 'e t -> 'e Op.t list -> 'e t

val collapse : keep:int array -> 'e t -> 'e t
(** [collapse ~keep d] collapses every touched cell of [d] whose model
    position is not in [keep] (strictly increasing positions): its
    content becomes its element and its writes go, and a hidden one
    becomes a dead mask bit, with one hide whatever its count.  In the
    same pass, each run of adjacent chunks that are not full and whose
    cells fit in fewer chunks is repacked into full ones.  No position moves and no
    cell changes its content or visibility; [d] itself when nothing
    collapses and nothing is repacked.  O(chunks + touched cells +
    |keep| + repacked cells).

    Only sound for cells no operation can reach again but through the
    collapsed content: the controller passes the cells its live log
    entries touch, after compaction has dropped every request that
    touched the others (see [Dce_ot.Oplog.touched_positions]).  A
    collapsed document is equal to the uncollapsed one under
    {!equal_modulo_collapse}, not {!equal_model}. *)

val ins_visible : ?pr:int -> 'e t -> int -> 'e -> 'e Op.t
val del_visible : 'e t -> int -> 'e Op.t
val up_visible : ?tag:Op.tag -> 'e t -> int -> 'e -> 'e Op.t

val equal_visible : ('e -> 'e -> bool) -> 'e t -> 'e t -> bool
(** Equality of the visible projections (the paper's convergence
    criterion). *)

val equal_cell : ('e -> 'e -> bool) -> 'e cell -> 'e cell -> bool
(** Cell equality as {!equal_model} sees it: contents, hide count, and
    the write {e set} — a cell's [writes] list is in arrival order,
    which legitimately differs across converged sites, so writes are
    compared sorted by tag. *)

val equal_model : ('e -> 'e -> bool) -> 'e t -> 'e t -> bool
(** Cell-wise equality: contents, hide counts, and write sets. *)

val equal_cell_modulo_collapse : ('e -> 'e -> bool) -> 'e cell -> 'e cell -> bool
(** Cell equality up to {!collapse}: equal contents and visibility;
    equal hide counts when both exceed one; and every write both cells
    hold (by tag) with the same value and retraction count.  A write
    only one cell holds is one the other collapsed: a collapsed cell
    can take new writes afterwards, so the two write sets can differ
    while both cells hold records. *)

val equal_modulo_collapse : ('e -> 'e -> bool) -> 'e t -> 'e t -> bool
(** Equal model lengths and {!equal_cell_modulo_collapse} cell by cell:
    the comparison for replicas that may have collapsed at different
    points.  {!equal_model} stays strict. *)

val pp : (Format.formatter -> 'e -> unit) -> Format.formatter -> 'e t -> unit
(** Prints the model; tombstoned cells are bracketed. *)
