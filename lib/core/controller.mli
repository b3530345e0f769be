(** The concurrency-control algorithm (paper §5, Algorithms 1–4).

    A controller is one site of a secured collaborative editing session:
    it owns the two replicated objects — the shared document and the
    policy object — plus the cooperative log [H], the administrative log
    [L], and the two receive queues [F] (cooperative) and [Q]
    (administrative).  One distinguished site is the administrator.

    {2 Local generation (Algorithm 2)}

    {!generate} checks the operation against the {e local} policy copy —
    no round trip, the point of the whole model — executes it, and
    returns the request to broadcast.  The administrator's own requests
    are born [Valid]; users' are [Tentative] until the administrator
    validates them.

    {2 Reception (Algorithms 3 and 4)}

    {!receive} accepts any message in any order and applies everything
    that is ready, to a fixed point:

    - an administrative request applies only at [version + 1]
      (administrative requests are totally ordered), and a [Validate]
      additionally waits until the request it validates is in [H] — the
      paper's fix for the overtaking-revocation hole (Fig. 4);
    - a cooperative request applies when causally ready and its
      generation version is reached; it is then checked against the
      administrative interval it missed ({!Admin_log.first_denial}) — the
      paper's fix for the stale-context hole (Fig. 3).  Accepted requests
      are transformed and executed (ComputeFF); denied ones are recorded
      with no visible effect.  When this site is the administrator,
      accepted remote requests are validated and a [Validate] request is
      emitted (returned in the message list — broadcast them!).

    A restrictive administrative request retroactively undoes the
    tentative requests that the new policy no longer grants — the paper's
    optimistic-security enforcement (Fig. 2).  Retroactive decisions
    (remote checks and undo selection) evaluate the request's
    {e generation form} [gen_op], which is identical at every site, so
    all sites decide identically.

    The administrator mutates the policy with {!admin_update}.

    Malformed traffic — a duplicate, an administrative request that does
    not apply, or one from a site that does not hold the administrator
    role — is silently dropped; Byzantine behaviour beyond that is out of
    scope (the paper assumes an authenticated, reliable network). *)

open Dce_ot

type 'e message =
  | Coop of 'e Request.t
  | Admin of Admin_op.request

type 'e t

(* {2 Construction} *)

type features = {
  retroactive_undo : bool;
      (** restrictive administrative requests undo concerned tentative
          requests (the fix for Fig. 2) *)
  interval_check : bool;
      (** remote requests are checked against the administrative interval
          they missed, not just the current policy (the fix for Fig. 3) *)
  validation : bool;
      (** the administrator validates accepted remote requests, totally
          ordering revocations after them (the fix for Fig. 4) *)
}

val secure : features
(** All three mechanisms on: the paper's algorithm. *)

val naive : features
(** All three mechanisms off: the strawman whose security holes §4
    demonstrates.  Only useful to reproduce the holes — see
    [Dce_baseline.Naive]. *)

val create :
  ?eq:('e -> 'e -> bool) ->
  ?features:features ->
  ?trace:Dce_obs.Trace.sink ->
  ?metrics:Dce_obs.Metrics.t ->
  site:Subject.user ->
  admin:Subject.user ->
  policy:Policy.t ->
  'e Tdoc.t ->
  'e t
(** All sites of a session must be created with the same initial policy
    and document ([D0]), the same [admin], the same [features] (default
    {!secure}), and pairwise distinct [site] identifiers.

    [trace] (default [Dce_obs.Trace.null]) receives a structured
    telemetry event at every security decision point — generation,
    local checks, interval re-checks, retroactive undo, validation,
    invalidation, integration, administrative application — each
    stamped with this site's id, vector clock and policy version.  With
    the null sink the instrumentation costs one branch per decision.

    [metrics] attaches live meters alongside the trace sink: counters
    [controller.generated] / [delivered] / [validated] / [invalidated] /
    [denied_local] / [admin_applied] / [undone] / [dups] at the
    corresponding decision points, and level gauges
    [controller.pending_coop] / [pending_admin] / [oplog_live] /
    [doc_visible] / [doc_cells] / [policy_version] refreshed after each
    transition ([doc_cells] counts the model cells, tombstones
    included: what the document's memory follows)
    (plus [window_len] / [compacted_upto] / [admin_log_live] /
    [admin_cut] when the registry is enabled).
    Omitted, every update is a dead branch, like the null sink. *)

val with_metrics : Dce_obs.Metrics.t -> 'e t -> 'e t
(** Re-attach live meters (see {!create}) to a controller that came out
    of {!load} or a state-transfer constructor — meters, like trace
    sinks, are process-local and not part of persisted state.  The
    level gauges are refreshed immediately. *)

val fork : site:Subject.user -> 'e t -> 'e t
(** Late join (the paper's dynamic-groups requirement): bootstrap a new
    site from a state transfer of an existing one.  The new controller
    shares the donor's document, logs, policy and clock, and issues its
    own requests under the fresh [site] identifier (which must be new to
    the group; register it with [Add_user] for its operations to be
    granted).  The donor's receive queues travel along, so any snapshot
    works, even mid-stream. *)

val rejoin : site:Subject.user -> 'e t -> 'e t
(** {!fork}, except [site]'s request numbering resumes from what the
    donor has already integrated from [site] instead of restarting at
    zero.  This is the reconnect path: a site that crashed or lost its
    link re-bootstraps from a relay snapshot and keeps issuing fresh
    serials, so peers do not drop its new requests as duplicates.
    Tentative requests the site generated but never got onto the wire
    are not in the snapshot and are lost — the price of rejoining from
    someone else's state. *)

(* {2 Observation} *)

val site : 'e t -> Subject.user

val admin : 'e t -> Subject.user
(** Current holder of the administrator role (changes on
    [Transfer_admin]). *)

val is_admin : 'e t -> bool
val document : 'e t -> 'e Tdoc.t
val visible : 'e t -> 'e list
val policy : 'e t -> Policy.t
val version : 'e t -> int
val oplog : 'e t -> 'e Oplog.t
val admin_log : 'e t -> Admin_log.t
val clock : 'e t -> Vclock.t

val pending_coop : 'e t -> int
val pending_admin : 'e t -> int

val tentative : 'e t -> 'e Request.t list
(** Requests executed locally but not yet validated by the administrator
    (always empty at the administrator's site). *)

(* {2 The algorithm} *)

type 'e outcome = Accepted of 'e message | Denied of string

val generate : 'e t -> 'e Op.t -> 'e t * 'e outcome
(** Algorithm 2.  On [Accepted m], broadcast [m] to every other site. *)

val generate_edit : 'e t -> 'e Op.t list -> ('e t * 'e message list, string) result
(** Issue a composite edit (a [Dce_ot.Edit.compile] result: each
    operation built against the state its predecessors produce) as a
    causally-chained run of requests.  Atomic with respect to the local
    check: every operation's right is verified against the local policy
    copy before any is executed, so a composite is accepted or denied as
    a whole.  Broadcast all returned messages, in order. *)

val readable : 'e t -> 'e option list
(** The visible document as this site's user may {e read} it under the
    local policy copy: [None] redacts elements whose position falls
    under a negative read authorization.  Read enforcement is local and
    {e not} retroactive — the paper explicitly leaves optimistic read
    control to future work (§7); this is the pragmatic rendering-time
    filter a front end needs meanwhile. *)

val admin_update : 'e t -> Admin_op.t -> ('e t * 'e message, string) result
(** Algorithm 4, generation side.  Fails on non-administrator sites and
    on operations that do not apply to the current policy.  On success,
    broadcast the message. *)

val receive : 'e t -> 'e message -> 'e t * 'e message list
(** Algorithms 3 and 4, reception side.  The returned messages (the
    administrator's validations) must be broadcast. *)

(* {2 Persistence}

   A transparent dump of the full site state, for serialization
   ([Dce_wire]) and session save/restore.  {!load} revalidates what can
   be revalidated: the administrative log is replayed from the initial
   policy, so a tampered policy history is rejected. *)

type 'e state = {
  st_site : Subject.user;
  st_features : features;
  st_doc : 'e Dce_ot.Tdoc.t;
      (** the document itself: persistent, so {!dump} shares it in O(1)
          and {!load} adopts it *)
  st_oplog : 'e Dce_ot.Oplog.entry list;
  st_compacted : Dce_ot.Vclock.t;
  st_clock : Dce_ot.Vclock.t;
  st_serial : int;
  st_initial_policy : Policy.t;
  st_initial_admin : Subject.user;
  st_admin_requests : Admin_op.request list;
  st_coop_queue : 'e Dce_ot.Request.t list;
  st_admin_queue : Admin_op.request list;
  st_peer_integrated : (Subject.user * (Dce_ot.Vclock.t * int)) list;
      (** stability bookkeeping (see {!stable_frontier}) — preserved so a
          reloaded site keeps its compaction progress *)
  st_peer_admin_hint : (Subject.user * (Dce_ot.Vclock.t * int)) list;
  st_peer_beacon : (Subject.user * (Dce_ot.Vclock.t * int)) list;
}

val dump : 'e t -> 'e state

val load :
  ?eq:('e -> 'e -> bool) ->
  ?trace:Dce_obs.Trace.sink ->
  ?metrics:Dce_obs.Metrics.t ->
  'e state ->
  ('e t, string) result
(** Adopt a state.  A state is outside input, so it is refused when its
    administrative history does not replay or when its log skips or
    repeats a serial of some site above that site's compacted floor
    ({!Dce_ot.Oplog.serials_complete}). *)

val catch_up : 'e t -> 'e t -> 'e t * 'e message list
(** [catch_up t donor]: bring a recovered site up to date from a peer's
    snapshot {e without} abandoning local state — the durable
    alternative to {!rejoin}.  It takes {!delta_since} from this site's
    own clock and version and replays it as {!apply_delta} does: only
    what this site lacks goes through its own {!receive}, so every
    security decision is re-derived locally rather than trusted.  The
    returned messages must be broadcast: they carry this site's requests
    the donor had not yet seen — exactly the traffic {!rejoin}
    documents as lost — plus, when this site holds the administrator
    role, validations for the backlog that accumulated while it was
    down.  Symmetric: if the {e donor} is the stale side, the delta is
    empty and the returned messages heal the donor instead; validations
    an earlier transfer minted are re-sent among them, never minted
    again.

    When {!delta_since} declines — the donor's log is compacted past
    this site's clock, or its administrative log past this site's
    version, so entries we lack were dropped for good — [catch_up]
    falls back to adopting the donor's state wholesale ({!rejoin}
    semantics), except that this site's own unacknowledged requests are
    re-fed and re-broadcast, so nothing of ours the group might miss is
    lost.  Messages parked in the local receive queues are other sites'
    traffic and are redelivered by their origins. *)

(* {2 Log garbage collection (paper §7's future work)}

   Local logs grow for the whole session; the paper lists their garbage
   collection as an open problem.  We implement the classic stable-prefix
   answer.  Each controller passively tracks, from the traffic it
   receives, a lower bound on what every other group member has already
   integrated (their requests' causal contexts) and on their policy
   versions.  The pointwise minimum over the group is the {e stability
   frontier}: everything below it is in the causal past of any message
   that can still arrive, so the log's stable prefix can be dropped
   without affecting any future transformation.  See
   [Dce_ot.Oplog.compact] for the exact rule. *)

val stable_frontier : 'e t -> Dce_ot.Vclock.t
(** Requests every registered group member is known to have integrated.
    Conservative: a peer that has neither sent traffic nor a
    {!beacon} pins the frontier down. *)

val stable_version : 'e t -> int
(** A policy version every registered group member is known to have
    reached. *)

val beacon : 'e t -> Dce_ot.Vclock.t * int
(** This site's stability advertisement: its own delivery clock and
    policy version.  Periodically broadcast it (even — especially — when
    idle) so peers' frontiers advance past this site; see
    {!receive_beacon}. *)

val receive_beacon :
  'e t -> peer:Subject.user -> clock:Dce_ot.Vclock.t -> version:int -> 'e t
(** Absorb a peer's {!beacon}.  Monotone (clocks merge, versions max), so
    stale, duplicated or reordered beacons are no-ops, and idempotent.
    Like an administrative hint, a beacon bounds the peer's future
    requests only once every edit of the peer's own that it counts has
    been integrated here — until then one of those edits may still be in
    flight with an older context.  A silent peer's beacon counts none of
    its own edits, so it always applies: this is what unpins the frontier
    from peers that never write. *)

val window_len : 'e t -> int
(** Live entries in the cooperative log — the concurrency window |H| that
    bounds transformation cost.  Exposed as gauge
    [controller.window_len]. *)

val compacted_upto : 'e t -> Dce_ot.Vclock.t
(** The compaction cut: per-site serial floor below which log entries
    have been dropped.  Exposed (as its event count sum) as gauge
    [controller.compacted_upto]. *)

val stable_lag : 'e t -> int
(** Events integrated here but not yet known stable — the distance
    between this site's clock and its stability frontier (sums of event
    counts).  What compaction cannot yet reclaim.  Exposed as gauge
    [controller.stable_lag], refreshed on {!compact}. *)

val compact : ?limit:Dce_ot.Vclock.t -> 'e t -> 'e t
(** Drop the stable prefix of the cooperative log, and the [Validate]
    entries of the administrative log at or below {!stable_version}
    ({!Admin_log.compact}).  Safe to call at any time; typically after
    {!receive}.  When the cooperative cut drops anything, every
    document cell that no entry left in the log touches collapses in
    place ([Dce_ot.Tdoc.collapse]): its content becomes its element, a
    hidden one keeps one hide, and no position moves, so no other site
    needs to know.  A cut that drops nothing leaves the document as it
    is.  [limit] clamps the cooperative cut (pointwise meet): journaled
    sessions pass their last durable snapshot's clock so the compaction
    cut never outruns the durability cut — crash replay must find every
    entry it needs either in the snapshot or the WAL.  The
    administrative cut needs no clamp: replay never reads a dropped
    [Validate]. *)

(* {2 Delta catch-up}

   The wire-level complement to compaction: a joiner that presents a
   clock at or above the donor's compaction cut gets only the log suffix
   and policy delta it lacks, instead of an O(n x |H|) full-state
   snapshot.  {!catch_up} replays the same suffix out of a snapshot. *)

type 'e delta = {
  dl_clock : Dce_ot.Vclock.t;  (** donor's delivery clock at emission *)
  dl_version : int;  (** donor's policy version *)
  dl_compacted : Dce_ot.Vclock.t;  (** donor's compaction cut *)
  dl_admin : Admin_op.request list;
      (** administrative suffix, version ascending *)
  dl_coop : 'e Dce_ot.Request.t list;
      (** cooperative suffix in broadcast form, donor log order *)
  dl_coop_queue : 'e Dce_ot.Request.t list;  (** donor's parked traffic *)
  dl_admin_queue : Admin_op.request list;
}

val delta_since :
  'e t -> clock:Dce_ot.Vclock.t -> version:int -> 'e delta option
(** [delta_since donor ~clock ~version]: what a joiner that has
    integrated exactly [clock] / [version] still lacks — the
    administrative requests above [version], the cooperative requests
    [clock] does not count, and the donor's parked traffic.  [None] when
    the donor's log is compacted past [clock], or its administrative log
    past [version]: the dropped entries cannot be resent, so the joiner
    needs the donor's whole state, which {!catch_up}'s fallback adopts. *)

val apply_delta : 'e t -> 'e delta -> ('e t * 'e message list, string) result
(** [apply_delta t d]: replay a donor's {!delta_since} result through
    this site's own {!receive}, administrative suffix first, and return
    the messages to broadcast: this site's requests the donor lacked
    and, at the administrator, validations for its tentative backlog.
    [Error] if the delta's cut is above this site's clock, or its
    administrative suffix starts above [version t + 1] — the
    receiver-side guards against a donor that compacted concurrently
    with the handshake; fall back to a full snapshot ({!catch_up}). *)
