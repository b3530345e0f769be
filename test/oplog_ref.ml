(* List-based reference cooperative log: the pre-stat-tree
   representation, where Canonize bubbles a new insertion back past the
   deletion/update tail one adjacent transposition at a time and every
   service rebuilds or scans the entry list.  Kept in the test tree as a
   differential-testing oracle for [Dce_ot.Oplog] and as the paper's own
   Canonize in the Fig. 7 bench, where its per-transposition walk is the
   cost that grows with |Hdu|.  Shares [Oplog]'s entry records, so the
   two logs' entries compare directly. *)

open Dce_ot

type role = Oplog.role = Normal | Canceller of Request.id

type 'e entry = 'e Oplog.entry = { req : 'e Request.t; role : role }

(* Entries in execution order, plus the per-site serial floor below
   which entries have been compacted away.  The list is rebuilt on
   integration; all public operations are on the order of the log
   length. *)
type 'e t = { entries : 'e entry list; compacted : Vclock.t }

let empty = { entries = []; compacted = Vclock.empty }

let length h = List.length h.entries

let live_length = length

let entries h = h.entries

let of_entries ~compacted entries = { entries; compacted }

let compacted_upto h = h.compacted

let requests h =
  List.filter_map
    (fun e -> match e.role with Normal -> Some e.req | Canceller _ -> None)
    h.entries

let ops h = List.map (fun e -> e.req.Request.op) h.entries

let find id h =
  List.find_map
    (fun e ->
      match e.role with
      | Normal when Request.id_equal e.req.Request.id id -> Some e.req
      | Normal | Canceller _ -> None)
    h.entries

let mem id h =
  Vclock.dominates_event h.compacted ~site:id.Request.site ~count:id.Request.serial
  || Option.is_some (find id h)

let set_flag id flag h =
  {
    h with
    entries =
      List.map
        (fun e ->
          match e.role with
          | Normal when Request.id_equal e.req.Request.id id ->
            { e with req = { e.req with Request.flag } }
          | Normal | Canceller _ -> e)
        h.entries;
  }

let validate id h =
  match find id h with
  | Some q when q.Request.flag = Request.Tentative -> Some (set_flag id Request.Valid h)
  | Some _ | None -> None

let tentative_requests h =
  List.filter (fun (q : _ Request.t) -> q.Request.flag = Request.Tentative) (requests h)

let broadcast_form (q : 'e Request.t) h =
  let rec last_normal acc = function
    | [] -> acc
    | { role = Normal; req } :: rest -> last_normal (Some req.Request.id) rest
    | { role = Canceller _; _ } :: rest -> last_normal acc rest
  in
  { q with Request.dep = last_normal None h.entries }

(* Adjacent transposition: given consecutive entries [a; b], produce
   [b'; a'] with the same combined effect.  [b'] excludes [a]'s effect;
   [a'] re-includes [b']'s. *)
let transpose a b =
  let b_op = Transform.et b.req.Request.op a.req.Request.op in
  let a_op = Transform.it a.req.Request.op b_op in
  ( { b with req = { b.req with Request.op = b_op } },
    { a with req = { a.req with Request.op = a_op } } )

(* Canonize: bubble the entry at index [i] (an insertion) backwards past
   the deletion/update entries before it, stopping at the first insertion
   or Nop-carrying entry. *)
let canonize_last arr =
  let movable op = Op.is_del op || Op.is_undel op || Op.is_up op in
  let rec bubble i =
    if i > 0 && Op.is_ins arr.(i).req.Request.op && movable arr.(i - 1).req.Request.op
    then begin
      let b', a' = transpose arr.(i - 1) arr.(i) in
      arr.(i - 1) <- b';
      arr.(i) <- a';
      bubble (i - 1)
    end
  in
  bubble (Array.length arr - 1)

let append_entry_canonized h entry =
  let arr = Array.of_list (h.entries @ [ entry ]) in
  canonize_last arr;
  { h with entries = Array.to_list arr }

let append_local q h = append_entry_canonized h { req = q; role = Normal }

(* Does the request [q] causally include entry [e]?  Normal entries are
   classified by the vector clock; a canceller is part of [q]'s context
   iff its target is and its administrative cut is below [q]'s
   generation version. *)
let in_context_of (q : _ Request.t) e =
  match e.role with
  | Normal ->
    Vclock.dominates_event q.Request.ctx ~site:e.req.Request.id.Request.site
      ~count:e.req.Request.id.Request.serial
  | Canceller target ->
    Vclock.dominates_event q.Request.ctx ~site:target.Request.site
      ~count:target.Request.serial
    && q.Request.policy_version >= e.req.Request.policy_version

(* SOCT2-style separation: reorder the log so that every entry in [q]'s
   causal context comes before every entry concurrent with [q], by
   bubbling context entries leftwards with adjacent transpositions.
   Returns the reordered array and the index of the first concurrent
   entry. *)
let separate q h =
  let arr = Array.of_list h.entries in
  let n = Array.length arr in
  let boundary = ref 0 in
  for i = 0 to n - 1 do
    if in_context_of q arr.(i) then begin
      let e = ref arr.(i) in
      for j = i downto !boundary + 1 do
        let b', a' = transpose arr.(j - 1) !e in
        arr.(j) <- a';
        e := b'
      done;
      arr.(!boundary) <- !e;
      incr boundary
    end
  done;
  (arr, !boundary)

let transform_against arr from q_op =
  let op = ref q_op in
  for i = from to Array.length arr - 1 do
    op := Transform.it !op arr.(i).req.Request.op
  done;
  !op

let integrate q h =
  let arr, boundary = separate q h in
  let op = transform_against arr boundary q.Request.op in
  let entry = { req = { q with Request.op }; role = Normal } in
  let h' = append_entry_canonized { h with entries = Array.to_list arr } entry in
  (op, h')

let canceller_of ~cancel_version (q : 'e Request.t) op =
  {
    req = { q with Request.op; Request.policy_version = cancel_version;
            Request.flag = Request.Invalid };
    role = Canceller q.Request.id;
  }

let undo ~cancel_version id h =
  let rec split acc = function
    | [] -> None
    | ({ role = Normal; req } as e) :: rest when Request.id_equal req.Request.id id ->
      if req.Request.flag = Request.Invalid then None
      else Some (List.rev acc, e, rest)
    | e :: rest -> split (e :: acc) rest
  in
  match split [] h.entries with
  | None -> None
  | Some (before, e, after) ->
    let inv =
      List.fold_left
        (fun op e' -> Transform.it op e'.req.Request.op)
        (Op.inverse e.req.Request.op) after
    in
    let e' = { e with req = { e.req with Request.flag = Request.Invalid } } in
    let cancel = canceller_of ~cancel_version e.req inv in
    Some (inv, { h with entries = before @ (e' :: after) @ [ cancel ] })

let append_rejected ~cancel_version q h =
  let op, h = integrate { q with Request.flag = Request.Tentative } h in
  match undo ~cancel_version q.Request.id h with
  | Some (inv, h) -> ((op, inv), h)
  | None -> assert false

let causally_ready (q : _ Request.t) h =
  List.for_all
    (fun (site, count) -> count = 0 || mem { Request.site; Request.serial = count } h)
    (Vclock.to_list q.Request.ctx)

let is_canonical h =
  let rec go seen_du = function
    | [] -> true
    | e :: rest ->
      let op = e.req.Request.op in
      if Op.is_ins op && seen_du then false
      else go (seen_du || Op.is_del op || Op.is_up op) rest
  in
  go false h.entries

(* Compaction: drop the longest stable prefix. *)
let compact ~stable ~stable_version h =
  let droppable e =
    match e.role with
    | Normal ->
      e.req.Request.flag <> Request.Tentative
      && Vclock.dominates_event stable ~site:e.req.Request.id.Request.site
           ~count:e.req.Request.id.Request.serial
    | Canceller target ->
      e.req.Request.policy_version <= stable_version
      && Vclock.dominates_event stable ~site:target.Request.site
           ~count:target.Request.serial
  in
  let rec go compacted = function
    | e :: rest when droppable e ->
      let compacted =
        match e.role with
        | Normal ->
          let site = e.req.Request.id.Request.site in
          let serial = e.req.Request.id.Request.serial in
          if Vclock.get compacted site < serial then
            Vclock.merge compacted (Vclock.of_list [ (site, serial) ])
          else compacted
        | Canceller _ -> compacted
      in
      go compacted rest
    | rest -> (compacted, rest)
  in
  let compacted, entries = go h.compacted h.entries in
  { entries; compacted }
