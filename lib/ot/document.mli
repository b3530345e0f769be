(** Plain linear documents (positional semantics).

    The paper models the shared object as a list whose element type is a
    parameter (a character, a paragraph, an XML node…).  This module
    provides a {e positional} document store where [Del] physically
    removes its element ([Undel] re-inserts it): the semantics used by
    the positional baseline algorithms ([Dce_baseline]).  The OT engine
    itself executes on the tombstone model, {!Tdoc}.

    {!Array_doc} is persistent and array-backed.  It raises
    [Invalid_argument] on out-of-bounds positions and [Edit_conflict]
    when a [Del]/[Up] finds an unexpected element (that situation
    signals a transformation bug, never a user error). *)

exception Edit_conflict of string

module Array_doc : sig
  type 'e t

  val of_list : 'e list -> 'e t
  val length : 'e t -> int
  val get : 'e t -> int -> 'e

  val apply : ?eq:('e -> 'e -> bool) -> 'e t -> 'e Op.t -> 'e t
  (** [apply doc o] executes cooperative operation [o].  [eq] (default
      structural equality) checks [Del]/[Up] expectations; a mismatch
      raises {!Edit_conflict}. *)
end

(** Convenience functions for the common character-document case. *)
module Str : sig
  type t = char Array_doc.t

  val of_string : string -> t
  val to_string : t -> string
  val apply : t -> char Op.t -> t
end
