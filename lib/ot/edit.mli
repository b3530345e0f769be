(** Composite edits: the cut/copy/paste layer.

    The paper notes (§3.1) that combinations of the three primitive
    operations "enable us to define more complex ones, such as cut/copy
    and paste, that are intensively used in professional text editors".
    This module is that combination layer: a high-level edit in visible
    coordinates compiles to the sequence of primitive operations that
    realises it, each built against the document state its predecessors
    produce — ready to feed one by one to [Controller.generate], which
    is exactly how a front end issues a paste (the requests chain
    causally, so remote sites replay them atomically in order). *)

type 'e t =
  | Insert_text of { at : int; elts : 'e list }
      (** splice a run of elements at a visible position *)
  | Delete_range of { at : int; len : int }
      (** remove [len] visible elements starting at [at] (cut) *)
  | Replace_range of { at : int; len : int; elts : 'e list }
      (** cut + paste in one gesture (e.g. typing over a selection) *)

val insert_string : int -> string -> char t
val replace_string : at:int -> len:int -> string -> char t

val copy : 'e Tdoc.t -> at:int -> len:int -> 'e list
(** The visible elements of the range — a clipboard. *)

val compile : 'e Tdoc.t -> 'e t -> ('e Op.t list, string) result
(** The primitive operations realising the edit, each in the model
    coordinates of the state left by the previous ones.  Fails on
    out-of-range positions. *)

val preview : 'e Tdoc.t -> 'e t -> ('e Tdoc.t, string) result
(** The document after the edit (compile + apply; for tests and UIs). *)
