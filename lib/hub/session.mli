(** One hosted document session: the per-doc half of the hub.

    A session owns the document's {!Dce_store.Replica} (the controller
    at the hosted relay site and its optional journal) and its member
    list — which connection is attached as which site.  All stepping,
    fan-out and policy lives in {!Hub}; this module is plain state so
    the registry and the hub can share it without a dependency cycle. *)

type member = { conn : Dce_netd.Conn.t; site : int }

type 'e t

val create : name:string -> replica:'e Dce_store.Replica.t -> 'e t

val name : 'e t -> string
val replica : 'e t -> 'e Dce_store.Replica.t
val controller : 'e t -> 'e Dce_core.Controller.t
val members : 'e t -> member list
val member_count : 'e t -> int
val connected_sites : 'e t -> int list

val find_site : 'e t -> site:int -> member option
(** The live member attached as [site], if any. *)

val add_member : 'e t -> member -> bool
(** Returns [true] when this site has been a member before (a
    reconnect, for telemetry). *)

val remove_conn : 'e t -> Dce_netd.Conn.t -> bool
(** Drop every membership held by this connection; [true] if any. *)

val absorb : 'e t -> Dce_wire.Proto.beacon list -> unit
(** Merge stability advertisements (monotonically) into the per-doc
    frontier table and feed the merged entries to the replica.  Sources:
    member [Beacon] frames and resume points, upstream aggregate
    beacons, and the hub's own periodic self-report. *)

val frontier : 'e t -> Dce_wire.Proto.beacon list
(** The aggregate gossip table, site-ascending — what the hub fans to
    members and reports upstream. *)
