module Controller = Dce_core.Controller
module Vclock = Dce_ot.Vclock
module Conn = Dce_netd.Conn
module Persist = Dce_store.Persist
module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type member = { conn : Conn.t; site : int }

type 'e t = {
  name : string;
  journal : 'e Persist.t option;
  mutable ctrl : 'e Controller.t;
  mutable members : member list;
  mutable seen : IntSet.t; (* sites that joined at least once *)
  (* per-site stability gossip: the latest (clock, version) each site
     advertised, merged monotonically.  This is what the hub fans back
     out as the aggregate frontier and reports upstream — knowledge
     relayed on behalf of sites that are not directly connected here. *)
  mutable frontier : (Vclock.t * int) IntMap.t;
}

let create ~name ~controller ~journal =
  {
    name;
    journal;
    ctrl = controller;
    members = [];
    seen = IntSet.empty;
    frontier = IntMap.empty;
  }

let name t = t.name
let controller t = t.ctrl
let set_controller t c = t.ctrl <- c
let journal t = t.journal
let members t = t.members

let live_members t = List.filter (fun m -> Conn.alive m.conn) t.members

let member_count t = List.length (live_members t)

let connected_sites t =
  List.sort compare (List.map (fun m -> m.site) (live_members t))

let find_site t ~site =
  List.find_opt (fun m -> m.site = site && Conn.alive m.conn) t.members

let member_of_conn t conn =
  List.find_opt (fun m -> m.conn == conn) t.members

let add_member t member =
  t.members <- t.members @ [ member ];
  let again = IntSet.mem member.site t.seen in
  t.seen <- IntSet.add member.site t.seen;
  again

let remove_conn t conn =
  let gone, kept = List.partition (fun m -> m.conn == conn) t.members in
  t.members <- kept;
  gone <> []

(* Absorb one site's advertisement (monotone: clocks merge, versions
   max, so stale or duplicated gossip is a no-op) and feed it to the
   hub's own controller so its frontier advances too. *)
let note_frontier t ~site ~clock ~version =
  let clock, version =
    match IntMap.find_opt site t.frontier with
    | Some (old_clock, old_version) ->
      (Vclock.merge old_clock clock, max old_version version)
    | None -> (clock, version)
  in
  t.frontier <- IntMap.add site (clock, version) t.frontier;
  t.ctrl <- Controller.receive_beacon t.ctrl ~peer:site ~clock ~version

let frontier t = IntMap.bindings t.frontier
