(** The session registry: document name → hosted {!Session}.

    Sessions are created lazily through the [factory] — the hub's
    policy hook for building (or recovering from disk) the controller
    and optional journal of a document it has not hosted before, which
    the session's {!Dce_store.Replica} then keeps.  The
    factory runs at most once per name; [max_docs] bounds how many
    sessions one hub will host, so a hostile peer attaching to random
    names (when the hub allows auto-creation at all) cannot grow the
    process without bound. *)

type 'e factory =
  string -> ('e Dce_core.Controller.t * 'e Dce_store.Persist.t option, string) result

type 'e t

val create :
  ?max_docs:int -> ?trace:Dce_obs.Trace.sink -> factory:'e factory -> unit -> 'e t
(** [max_docs] defaults to 4096; [trace] gets the replicas' journal events. *)

val open_doc : 'e t -> string -> ('e Session.t, string) result
(** The session for [name], running the factory if the name is new.
    Errors: invalid name ({!Doc_name.validate}), registry full, or a
    factory failure — the caller decides whether that drops a peer
    (unknown doc, auto-create off) or is fatal (startup). *)

val find : 'e t -> string -> 'e Session.t option
(** Lookup only — never creates. *)

val docs : 'e t -> 'e Session.t list
(** All hosted sessions, sorted by name. *)

val names : 'e t -> string list
val count : 'e t -> int
