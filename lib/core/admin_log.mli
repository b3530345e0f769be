(** The administrative log [L] (paper §4.2, second scenario).

    Every site stores the administrative requests it has applied, indexed
    by the version each produced.  The log answers the question the
    paper's [Check_Remote] needs: {e was this access granted at every
    policy version between its generation and now?} — and, when not, at
    which version it first stopped being granted (the canonical
    cancellation version used to classify undo entries consistently
    across sites, see [Dce_ot.Oplog]).

    Persistent (the model checker shares states across branches), with
    three indexes keyed by version: the [Validate]s; every other request
    with the policy and administrator it produced (a [Validate] changes
    neither, so it stores no snapshot); and the versions of the
    restrictive requests.  [append], {!policy_at} and {!admin_at} cost
    O(log |L|).  A [Validate] entry costs one map node (6 words) on top
    of the request itself, whose context is an array clock: 19 words in
    all on a two-site session (22 while contexts were [Map] clocks),
    where the list this replaced paid a cons and a triple (7 words)
    instead of the node.  Any other entry pays a node and a triple (10
    words), and a set node (5) more when it is restrictive.

    {2 The cut}

    Each [Validate] consumes a version, so [L] would grow with every
    remote request the administrator accepts.  {!compact} drops the
    [Validate] entries at or below a version every group member has
    applied.  Entries that change the policy or the administrator are
    never dropped, so {!policy_at}, {!admin_at} and {!first_denial} stay
    exact for every version, cut or not. *)

type t

val create : admin:Subject.user -> Policy.t -> t
(** [create ~admin p]: [p] is the initial policy, version 0, and [admin]
    holds the administrator role until a [Transfer_admin] applies. *)

val version : t -> int
val current : t -> Policy.t
val initial : t -> Policy.t

val current_admin : t -> Subject.user
(** Holder of the administrator role at the current version. *)

val initial_admin : t -> Subject.user

val admin_at : t -> int -> Subject.user option
(** Holder of the administrator role at a given version — the identity a
    cooperative request generated under that version should be compared
    against.  O(log |L|). *)

val append : t -> Admin_op.request -> (t, string) result
(** Apply the next administrative request.  Fails if the request's
    version is not [version t + 1], if its issuer is not the current
    administrator (an impostor — the paper assumes an authenticated
    network, so this is defence in depth), or if the operation does not
    apply to the current policy.  O(log |L|). *)

val policy_at : t -> int -> Policy.t option
(** Snapshot at a given version ([None] if beyond the current version).
    O(log |L|). *)

val requests : t -> Admin_op.request list
(** The kept requests, oldest first: every request above {!cut}, and the
    non-[Validate] ones at or below it. *)

val suffix : t -> int -> Admin_op.request list option
(** [suffix t v]: the requests above version [v], ascending — what a
    site at version [v] lacks.  [None] when [v] is below {!cut}: some of
    them were dropped, and a gapped suffix must never be shipped. *)

val restrictive_since : t -> int -> int list
(** Versions of the restrictive requests in [(v, version t]], ascending.
    O(k + log |L|) for k results. *)

val first_denial :
  t -> from_version:int -> user:Subject.user -> right:Right.t -> pos:int option ->
  int option
(** [first_denial l ~from_version ~user ~right ~pos]: the smallest
    version [v >= from_version] whose policy denies the access, or [None]
    if every version in [[from_version, version l]] grants it.  This is
    the paper's remote check: a cooperative request is accepted iff the
    result is [None], and otherwise the returned version is its canonical
    cancellation version.  One policy check at [from_version] and one per
    restrictive version in the interval, each found in O(log |L|). *)

val compact : t -> upto:int -> t
(** Drop the [Validate] entries at or below [upto], except the newest
    request of the log, which always stays so a dump still carries the
    current version.  Safe only when every group member has applied
    [upto] (the controller passes its stable version): a site below the
    cut could no longer be sent what it lacks.  O(k + log |L|) for k
    entries dropped. *)

val cut : t -> int
(** The highest version dropped by {!compact}, 0 if none. *)

val live : t -> int
(** Number of kept requests. *)

val of_requests :
  admin:Subject.user -> Policy.t -> Admin_op.request list -> (t, string) result
(** Rebuild a log from the initial policy and administrator and a
    {!requests} dump, revalidating every request as {!append} does.
    Versions must ascend strictly; a missing version is a dropped
    [Validate], and the cut is the highest missing version.  A dump with
    no gap (every log written before the cut existed) loads uncut. *)

val pp : Format.formatter -> t -> unit
