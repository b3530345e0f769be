(** A whole collaboration group with instantaneous delivery.

    Convenience wrapper for demos, examples and tests that do not care
    about network asynchrony: every message produced by a site is
    delivered to all other sites immediately (including the cascade of
    validations the administrator produces).  For delayed, reordered or
    scripted delivery, drive {!Controller} sites through [Dce_sim].

    Sites are addressed by their user identifier; the administrator is a
    site like any other except for {!admin_update}. *)

open Dce_ot

type 'e t

val create :
  ?eq:('e -> 'e -> bool) ->
  admin:Subject.user ->
  users:Subject.user list ->
  policy:Policy.t ->
  'e Tdoc.t ->
  'e t
(** [users] must not contain [admin]; identifiers must be distinct. *)

val sites : 'e t -> Subject.user list
val controller : 'e t -> Subject.user -> 'e Controller.t

val generate : 'e t -> Subject.user -> 'e Op.t -> ('e t, string) result
(** Generate at one site and deliver everywhere. *)

val admin_update : 'e t -> Admin_op.t -> ('e t, string) result

val converged : 'e t -> bool
(** All documents have equal models modulo collapse
    ([Tdoc.equal_modulo_collapse], hence equal visible states), all
    queues are empty. *)

val document : 'e t -> Subject.user -> 'e Tdoc.t
val visible_string : char t -> Subject.user -> string
