module Vclock = Dce_ot.Vclock
module Conn = Dce_netd.Conn
module Proto = Dce_wire.Proto
module Replica = Dce_store.Replica
module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type member = { conn : Conn.t; site : int }

type 'e t = {
  name : string;
  replica : 'e Replica.t;
  mutable members : member list;
  mutable seen : IntSet.t; (* sites that joined at least once *)
  (* per-site stability gossip: the latest beacon each site advertised,
     merged monotonically.  This is what the hub fans back out as the
     aggregate frontier and reports upstream — knowledge relayed on
     behalf of sites that are not directly connected here. *)
  mutable frontier : Proto.beacon IntMap.t;
}

let create ~name ~replica =
  { name; replica; members = []; seen = IntSet.empty; frontier = IntMap.empty }

let name t = t.name
let replica t = t.replica
let controller t = Replica.controller t.replica
let members t = t.members

let live_members t = List.filter (fun m -> Conn.alive m.conn) t.members

let member_count t = List.length (live_members t)

let connected_sites t =
  List.sort compare (List.map (fun m -> m.site) (live_members t))

let find_site t ~site =
  List.find_opt (fun m -> m.site = site && Conn.alive m.conn) t.members

let add_member t member =
  t.members <- t.members @ [ member ];
  let again = IntSet.mem member.site t.seen in
  t.seen <- IntSet.add member.site t.seen;
  again

let remove_conn t conn =
  let gone, kept = List.partition (fun m -> m.conn == conn) t.members in
  t.members <- kept;
  gone <> []

(* Monotone: clocks merge, versions max, so stale or duplicated gossip
   is a no-op.  The hub's own controller absorbs the merged entry so
   its frontier advances too. *)
let absorb t entries =
  let merge (b : Proto.beacon) =
    let b =
      match IntMap.find_opt b.Proto.b_site t.frontier with
      | Some old ->
        {
          b with
          Proto.b_clock = Vclock.merge old.Proto.b_clock b.Proto.b_clock;
          b_version = max old.Proto.b_version b.Proto.b_version;
        }
      | None -> b
    in
    t.frontier <- IntMap.add b.Proto.b_site b t.frontier;
    b
  in
  Replica.absorb t.replica (List.map merge entries)

let frontier t = List.map snd (IntMap.bindings t.frontier)
