(** Bounded scenarios for the model checker.

    A scenario fixes everything about a session {e except} the delivery
    order: the sites (the administrator first), the initial policy and
    document, per-site scripts of actions, and the feature set of the
    controllers.  {!Explore} then enumerates every interleaving of script
    steps and message deliveries — the non-determinism the network
    introduces and the paper's Figs. 2–4 holes live in.

    Script edits are written in visible coordinates and resolved against
    the issuing site's document {e at execution time} (clamped into
    range), so an action stays executable in every interleaving and each
    event is a deterministic function of the local state. *)

open Dce_core

type edit =
  | Ins of int * char  (** insert at visible position (clamped) *)
  | Del of int  (** delete at visible position (clamped; insert if empty) *)
  | Up of int * char  (** update at visible position (clamped; insert if empty) *)

type action =
  | Edit of edit  (** a cooperative operation: [Replica.generate] *)
  | Policy of Admin_op.t
      (** an administrative operation ([Replica.admin], admin site only) *)
  | Beacon
      (** broadcast a stability beacon: the issuer's current clock and
          policy version go in flight to every other site, delivered (in
          any order) into [Replica.absorb] *)
  | Compact
      (** garbage-collect the issuer's window: [Replica.compact] at the
          causally-stable frontier, clamped to the durable cut when the
          site journals *)
  | Crash
      (** kill the site's process ([kill -9] flavor): the live replica
          is dropped; only what its journal ({!Journal}) made durable
          survives.  Requires [persist = Some _]. *)
  | Recover
      (** rebuild the site's controller through the {e real}
          [Persist.opendir] replay path over its journal image *)

type t = {
  sites : Subject.user list;  (** pairwise distinct; head is the administrator *)
  policy : Policy.t;
  initial : string;
  scripts : (Subject.user * action list) list;  (** per-site program order *)
  features : Controller.features;
  persist : Dce_store.Store.config option;
      (** when set, every site is a shipped [Dce_store.Replica] over its
          own journal (production store stack, in-memory backend) and
          [Crash]/[Recover] become executable *)
}

val make :
  ?features:Controller.features ->
  ?initial:string ->
  ?mixed:bool ->
  ?stability:int ->
  ?crash:int ->
  sites:int ->
  coop:int ->
  admin_ops:int ->
  unit ->
  t
(** The standard bounded scenario: sites [0..sites-1] with site 0
    administrator, [coop] cooperative operations dealt round-robin to the
    non-admin sites (insertions by default; with [mixed], an
    ins/del/up rotation), and [admin_ops] administrative operations at
    the admin site alternating a {e revocation} of user 1's insert right
    with its re-grant — the paper's adversarial shape.  The initial
    policy registers every site and grants everything to everyone; the
    initial document (default: long enough that deletions never empty
    it) seeds the text.  [features] defaults to [Controller.secure].
    [stability = k] weaves a [Beacon]; [Compact] pair into every site's
    script after each k-th action (and at script end), so exploration
    interleaves window compaction with every delivery order.
    [crash = k] weaves a [Crash]; [Recover] pair into every site's
    (woven) script after its k-th action, the administrator's included,
    and turns on journaling ([persist = Some Journal.default_config]),
    so exploration drives the crash window through every interleaving
    with deliveries, beacons, and compaction. *)

val controllers : t -> (Subject.user * char Controller.t) list
(** Fresh controllers for every site, in [sites] order. *)

val op_of_edit : char Dce_ot.Tdoc.t -> edit -> char Dce_ot.Op.t
(** Resolve an edit against the issuer's current document (see above). *)

val total_actions : t -> int

val pp : Format.formatter -> t -> unit
