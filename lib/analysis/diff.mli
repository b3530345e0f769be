(** Semantic diff: exactly which decisions changed between two policies.

    Both policies are indexed against one shared class partition
    (refined over the union of their subjects), then compared cell by
    cell.  The result enumerates the full changed region — every
    (user set, right, position range) whose allow/deny outcome differs —
    so a revocation storm or delegation edit gets a reviewable
    blast-radius summary instead of a textual rule diff. *)

type region =
  | At_none  (** the distinguished no-position access *)
  | Range of int * int option  (** positions [lo..hi], [None] unbounded *)

type change = {
  users : Dce_core.Subject.user list;  (** every member of the class *)
  right : Dce_core.Right.t;
  region : region;
  before : bool;  (** allowed under the first policy? *)
  after : bool;
}

val policies : Dce_core.Policy.t -> Dce_core.Policy.t -> change list
(** Deterministic order: class, then right, then position. *)

val trajectory :
  Dce_core.Admin_log.t -> (Dce_core.Admin_op.request * change list) list
(** Blast radius of every administrative step the log keeps: the
    decision changes between each request's version and the one before,
    oldest first.  (A cut log has dropped [Validate]s, which change
    nothing.) *)

val affects : change list -> user:Dce_core.Subject.user -> right:Dce_core.Right.t ->
  pos:int option -> bool
(** Does the changed region contain this access?  (Test helper: the
    diff is exact iff [affects] agrees with checking both policies.) *)

val pp_change : Format.formatter -> change -> unit
val change_to_json : change -> Dce_obs.Json.t
