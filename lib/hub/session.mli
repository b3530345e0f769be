(** One hosted document session: the per-doc half of the hub.

    A session owns the document's replica (its {!Dce_core.Controller}
    with the hosted relay site), its optional durability journal and its
    member list — which connection is attached as which site.  All stepping, fan-out and policy lives in
    {!Hub}; this module is plain state so the registry and the hub can
    share it without a dependency cycle. *)

type member = { conn : Dce_netd.Conn.t; site : int }

type 'e t

val create :
  name:string ->
  controller:'e Dce_core.Controller.t ->
  journal:'e Dce_store.Persist.t option ->
  'e t

val name : 'e t -> string
val controller : 'e t -> 'e Dce_core.Controller.t
val set_controller : 'e t -> 'e Dce_core.Controller.t -> unit
val journal : 'e t -> 'e Dce_store.Persist.t option
val members : 'e t -> member list
val live_members : 'e t -> member list
val member_count : 'e t -> int
val connected_sites : 'e t -> int list

val find_site : 'e t -> site:int -> member option
(** The live member attached as [site], if any. *)

val member_of_conn : 'e t -> Dce_netd.Conn.t -> member option

val add_member : 'e t -> member -> bool
(** Returns [true] when this site has been a member before (a
    reconnect, for telemetry). *)

val remove_conn : 'e t -> Dce_netd.Conn.t -> bool
(** Drop every membership held by this connection; [true] if any. *)

val note_frontier :
  'e t -> site:int -> clock:Dce_ot.Vclock.t -> version:int -> unit
(** Absorb one site's stability advertisement: merge it (monotonically)
    into the per-doc frontier table and feed it to the hosted
    controller's {!Dce_core.Controller.receive_beacon}.  Sources: member
    [Beacon] frames, upstream aggregate beacons, and the hub's own
    periodic self-report. *)

val frontier : 'e t -> (int * (Dce_ot.Vclock.t * int)) list
(** The aggregate gossip table, site-ascending — what the hub fans to
    members and reports upstream. *)
