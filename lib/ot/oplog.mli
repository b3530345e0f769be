(** Cooperative logs: storage, canonization, integration, undo.

    Each site stores the cooperative requests it has executed in a log [H]
    (paper §5).  This module provides the paper's four log services:

    - {b ComputeBF} ({!broadcast_form}): the form of a freshly generated
      request to propagate, together with its direct dependency;
    - {b ComputeFF} ({!integrate}): transform a causally-ready remote
      request against the part of the log concurrent with it, reordering
      the log (SOCT2-style adjacent transpositions) so that the requests
      in the remote request's causal past come first;
    - {b Canonize} ({!append_local}/{!integrate}): keep insertion requests
      before deletion/update requests by moving a newly appended
      insertion back past the deletion/update tail — the invariant the
      paper's convergence argument relies on.  The paper transposes it
      past one tail entry at a time, the cost behind its Fig. 7
      ([O(|Hdu|)] transpositions per insertion); under TTF that walk is
      pure bookkeeping, and here it is one step (see Representation);
    - {b Undo} ({!undo}): retroactively cancel a (tentative) request.

    {2 Undo and rejection as cancelling pairs}

    The paper's worked example (Fig. 5) keeps an undone request in the log
    together with its inverse, and stores requests rejected by the access
    control as flagged entries "with no effect on the local document
    state".  We realise both with one mechanism: a {e canceller} entry.

    - [undo q]: [q] keeps its executed form (so that later requests that
      causally include [q] still find their generation context in the
      log) and is flagged [Invalid]; a canceller entry carrying
      [inverse(q)] transformed to the end of the log is appended, and its
      operation is returned for execution on the document.  In the
      tombstone model the cancelled effect survives as hidden cells.
    - [append_rejected q]: integrate [q] flagged [Invalid], then cancel
      it on the spot — the two returned operations have net visible
      effect zero.

    Canceller entries belong to no request's causal context, so
    {!integrate} always classifies them as concurrent: a later request
    that causally includes an undone [q] is transformed against [q]'s
    canceller, which excludes [q]'s effect exactly when needed.

    {2 Representation}

    The log is a persistent stat tree of entries, the tail's positions
    beside it, and two indexes over normal entries: the set of their
    ids, which reorderings never touch, and the positions of the
    {e tentative} ones only.

    The {e tail} is the longest suffix of deletion/update entries
    ([Del], [Undel], [Up]), the ones an appended insertion moves back
    past.  Under TTF the insertion crosses each of them unchanged
    ([Transform.et]) and moves each one standing at or after its
    position one cell right ([Transform.it]).  So no transposition is
    needed: the insertion goes in at the tail start as it is, and one
    pass adds one to every tail position at or after its own.  A tail
    entry keeps in the tree the operation it was appended with; the
    tail's current positions live beside it in an immutable run of
    unboxed ints in log order (64-int blocks, fresh on write), and every
    reader sees a tail entry through that run.  An entry that is neither
    an insertion nor movable (an update's [Unup] canceller, a [Nop])
    ends the tail, writing the run back into the tree.

    Tentative entries are the only ones the controller looks up by
    position ({!validate}, retroactive {!undo}, {!append_rejected}).  One
    before the tail is indexed by its position, a tail one by its offset
    from the tail start, which an insertion landing there does not
    change.  An appended insertion therefore costs one O(log H) tree
    insert plus one O(|Hdu|) pass over the run, allocating about a word
    per tail entry, with no transposition, no fresh entry and no index
    write; a separation re-places only the tentative entries it moves.

    {!length} is O(1); {!mem} and {!validate} are O(log H);
    {!find}/{!set_flag}/{!undo} are O(log H) on a tentative entry and
    scan from the right on a settled one; {!tentative_requests} is
    O(T log H) for [T] tentative entries.  {!integrate}'s reorder +
    transform work touches only the {e concurrency window} — the log
    suffix after the longest prefix lying entirely in the remote
    request's causal context, which SOCT2 separation would leave in
    place anyway — but finding that prefix walks it, O(|H| - window). *)

type role = Normal | Canceller of Request.id

type 'e entry = { req : 'e Request.t; role : role }

type 'e t

val empty : 'e t

val length : _ t -> int
(** O(1). *)

val entries : 'e t -> 'e entry list
(** All stored entries in execution order (O(H) bulk conversion, for
    wire snapshots and persistence). *)

val of_entries : compacted:Vclock.t -> 'e entry list -> 'e t
(** Rebuild a log from its parts (persistence tooling; see
    [Dce_wire]). *)

val requests : 'e t -> 'e Request.t list
(** Normal (non-canceller) requests, in log order. *)

val ops : 'e t -> 'e Op.t list
(** All operations in log order; replaying them from the initial document
    state reproduces the current state. *)

val find : Request.id -> 'e t -> 'e Request.t option
(** O(log H) for a tentative entry; a settled one is found by a scan
    from the right, O(distance from the end). *)

val mem : Request.id -> 'e t -> bool
(** [mem id h]: a normal entry with identity [id] is present (or was
    compacted away).  O(log H). *)

val set_flag : Request.id -> Request.flag -> 'e t -> 'e t
(** Costs as {!find}; the log is unchanged if [id] is absent. *)

val validate : Request.id -> 'e t -> 'e t option
(** Flag the tentative entry [id] [Valid]: [None] if [id] is not a
    tentative entry of the log.  O(log H). *)

val tentative_requests : 'e t -> 'e Request.t list
(** Normal entries still flagged [Tentative], in log order — O(T log H)
    for [T] hits, settled entries are never visited. *)

val broadcast_form : 'e Request.t -> 'e t -> 'e Request.t
(** ComputeBF: stamp the request with its direct dependency (the most
    recent normal request in the log, [None] on an empty log).  The
    operation itself is already in generation-context form. *)

val append_local : 'e Request.t -> 'e t -> 'e t
(** Append a locally generated (and locally executed) request, then
    canonize. *)

val integrate : 'e Request.t -> 'e t -> 'e Op.t * 'e t
(** ComputeFF: separate the log into (causal past of [q]) ++ (concurrent
    with [q]) by adjacent transpositions, transform [q]'s operation
    against the concurrent part, append and canonize.  Returns the
    operation to execute on the local document. *)

val append_rejected :
  cancel_version:int -> 'e Request.t -> 'e t -> ('e Op.t * 'e Op.t) * 'e t
(** Store a request denied by access control: integrate it flagged
    [Invalid] and immediately cancel it.  Both returned operations must be
    executed on the document in order; their net visible effect is zero,
    but the request's cells enter the model as tombstones so later
    requests that causally include it keep a consistent context.
    [cancel_version] is the policy version of the earliest restrictive
    administrative request responsible — the version at which every other
    site cancels the same request, which is what lets cancellers be
    classified consistently (see the module comment). *)

val undo : cancel_version:int -> Request.id -> 'e t -> ('e Op.t * 'e t) option
(** Retroactively cancel the request: flag it [Invalid], append its
    canceller, and return the operation to execute on the document.
    [None] if the request is not in the log or already invalid.  The
    transform walks the log suffix after the request; a settled request
    is first found by a scan over that same suffix (see {!find}). *)

val causally_ready : 'e Request.t -> 'e t -> bool
(** Every request in [q]'s causal context is present in the log.  (The
    policy-version precondition of the paper's Algorithm 3 is checked by
    the controller.) *)

val compact : stable:Vclock.t -> stable_version:int -> 'e t -> 'e t
(** Garbage-collect the log (the paper's §7 future work): drop the
    longest log {e prefix} of entries that are {e stable} — covered by
    [stable], a clock known to be dominated by what every site of the
    group has already integrated, and (for cancellers) created by an
    administrative request every site has already applied
    ([stable_version]).  Any request still in flight causally includes
    the dropped entries, so separation would put them at the very front
    untouched — dropping them changes nothing.  Only a prefix is
    dropped: a stable entry sitting {e behind} a live entry still takes
    part in transposition rewrites and must stay.  Tentative entries are
    never dropped (they may still be undone).  Cells in the tombstone
    document are untouched (positions must stay aligned).

    The log remembers how much was dropped per site, so
    {!causally_ready} and {!mem} keep answering correctly. *)

val compacted_upto : 'e t -> Vclock.t
(** Per-site serial floor below which entries have been dropped. *)

val live_length : 'e t -> int
(** Entries currently stored ({!length} counts these too; dropped
    entries are gone for good). *)

val is_canonical : 'e t -> bool
(** All insertion entries precede all deletion/update entries.  Holds for
    append-only histories; integration's causal reordering may break it
    globally (it is restored locally at each append). *)

val well_formed : 'e t -> bool
(** The indexes agree with the entries: the id set holds exactly the
    normal entries' ids, and the position map exactly the tentative
    ones, each at its live position.  O(H log H); for tests. *)

val pp : (Format.formatter -> 'e -> unit) -> Format.formatter -> 'e t -> unit
