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
    beside it, a clock of the highest serial per site it has held, and
    the positions of its {e tentative} normal entries only.

    The clock stands for the set of ids the log holds.  A site's serials
    are integrated in order: a request's context holds its own site's
    previous serial, so {!causally_ready} admits serial [n + 1] of a site
    only once [n] is held.  So the ids of a site the log has held are
    every serial up to the clock's count, {!mem} is one comparison and
    {!causally_ready} one {!Vclock.leq}, and neither reordering nor
    compaction writes it.  A log rebuilt from outside input
    ({!of_entries}) need not keep that order: {!serials_complete} checks
    it.

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

    An entry is a tree node (7 words), the entry record (3), the request
    (8), its id (3), its dependency ([Some id], 5), its operation, the
    generation operation unless it is the same value, and its context
    clock ([2k + 1] words for [k] sites, see {!Vclock}).

    {!length} is O(1); {!mem} is O(log k) for [k] sites and allocates
    nothing, {!causally_ready} O(k); {!validate} is O(log H);
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
    [Dce_wire]).  Its clock of the serials it has held is [compacted]
    raised to every normal entry's id; check {!serials_complete} before
    trusting it. *)

val requests : 'e t -> 'e Request.t list
(** Normal (non-canceller) requests, in log order. *)

val ops : 'e t -> 'e Op.t list
(** All operations in log order; replaying them from the initial document
    state reproduces the current state. *)

val find : Request.id -> 'e t -> 'e Request.t option
(** O(log H) for a tentative entry; a settled one is found by a scan
    from the right, O(distance from the end). *)

val mem : Request.id -> 'e t -> bool
(** [mem id h]: the log has held a normal entry of [id]'s site with a
    serial at or above [id]'s — present or compacted away.  Because a
    site's serials integrate in order (see Representation), that is: a
    normal entry with identity [id] is present or was compacted away.
    O(log k) for [k] sites. *)

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
(** Every request in [q]'s causal context is present in the log (or was
    compacted away): [q]'s context is below the log's clock of the
    highest serial per site it has held.  (The policy-version
    precondition of the paper's Algorithm 3 is checked by the
    controller.) *)

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
    never dropped (they may still be undone).  No cell of the tombstone
    document moves (positions must stay aligned); the controller
    collapses the cells only dropped entries touched, in place (see
    {!touched_positions}).

    The log's clock of the serials it has held is untouched, so
    {!causally_ready} and {!mem} keep answering correctly. *)

val touched_positions : 'e t -> int array
(** The current model positions, strictly increasing, of the cells the
    stored entries' deletions, updates and their undos touch: each
    entry's position mapped past every insertion stored after it.  With
    {!compact} having dropped every entry that touched the other cells,
    those can never change again, which is what lets the controller
    [Tdoc.collapse] them.  O(H log H). *)

val compacted_upto : 'e t -> Vclock.t
(** The highest serial per site that compaction has dropped.  A lower
    serial of the same site may still be live: Canonize can put a site's
    later insertion ahead of its earlier deletion. *)

val live_length : 'e t -> int
(** Entries currently stored ({!length} counts these too; dropped
    entries are gone for good). *)

val is_canonical : 'e t -> bool
(** All insertion entries precede all deletion/update entries.  Holds for
    append-only histories; integration's causal reordering may break it
    globally (it is restored locally at each append). *)

val serials_complete : 'e t -> bool
(** For every site, the live normal entries above its
    {!compacted_upto} floor hold each serial up to the highest the log
    has held exactly once — the precondition under which {!mem} and
    {!causally_ready} read a clock for the set of ids.  Every log built
    by appending and integrating keeps it; one rebuilt by {!of_entries}
    from outside input may not, and then must be refused.  O(H): one
    walk of the live entries, marking each serial once. *)

val well_formed : 'e t -> bool
(** The indexes agree with the entries: {!serials_complete} holds, and
    the position map holds exactly the tentative entries, each at its
    live position.  O(H log H); for tests. *)

val pp : (Format.formatter -> 'e -> unit) -> Format.formatter -> 'e t -> unit
