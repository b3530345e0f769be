type role = Normal | Canceller of Request.id

type 'e entry = { req : 'e Request.t; role : role }

module Id = struct
  type t = Request.id

  let compare (a : t) (b : t) =
    let c = Int.compare a.Request.site b.Request.site in
    if c <> 0 then c else Int.compare a.Request.serial b.Request.serial
end

module Ids = Set.Make (Id)
module Id_map = Map.Make (Id)

let is_tentative e =
  match e.role with
  | Normal -> e.req.Request.flag = Request.Tentative
  | Canceller _ -> false

let tentative e = if is_tentative e then 1 else 0

module Log = Stree.Make (struct
  type 'e t = 'e entry

  let size _ = 1
  let weight = tentative
end)

(* Entries in execution order in a stat tree (measure: tentative normal
   entries, so the tentative set enumerates without scanning settled
   entries), indexed twice over:
   - [ids] holds every normal entry's id, for [mem]; reorderings never
     touch it;
   - [tpos] maps each tentative normal entry to its position.  Tentative
     entries are the only ones the controller looks up by position
     (validation, retroactive undo, rejection), so a reordering rewrites
     the positions of the tentative entries it moves and of no others;
     looking up a settled entry scans instead.
   Positions are absolute — [base] counts entries dropped by compaction,
   so the tree position of id is [tpos(id) - base], and compaction, which
   drops no tentative entry, never rewrites [tpos].  [compacted] is the
   per-site serial floor below which entries have been compacted away. *)
type 'e t = {
  entries : 'e Log.t;
  ids : Ids.t;
  tpos : int Id_map.t;
  base : int;
  compacted : Vclock.t;
}

(* record entry [e] at absolute position [pos] if it is tentative *)
let place e pos tpos =
  if is_tentative e then Id_map.add e.req.Request.id pos tpos else tpos

let empty =
  {
    entries = Log.empty;
    ids = Ids.empty;
    tpos = Id_map.empty;
    base = 0;
    compacted = Vclock.empty;
  }

let length h = Log.length h.entries

let live_length = length

let entries h = Log.to_list h.entries

let of_entries ~compacted entries =
  let tree = Log.of_list entries in
  let ids, tpos, _ =
    List.fold_left
      (fun (ids, tpos, i) e ->
        match e.role with
        | Normal -> (Ids.add e.req.Request.id ids, place e i tpos, i + 1)
        | Canceller _ -> (ids, tpos, i + 1))
      (Ids.empty, Id_map.empty, 0) entries
  in
  { entries = tree; ids; tpos; base = 0; compacted }

let compacted_upto h = h.compacted

let requests h =
  List.filter_map
    (fun e -> match e.role with Normal -> Some e.req | Canceller _ -> None)
    (entries h)

let ops h = List.map (fun e -> e.req.Request.op) (entries h)

(* Tree position of the normal entry [id]: one map lookup for a
   tentative entry; for a settled one a scan from the right, which no
   controller path takes. *)
let position id h =
  match Id_map.find_opt id h.tpos with
  | Some pos -> Some (pos - h.base)
  | None when not (Ids.mem id h.ids) -> None
  | None ->
    let other e =
      match e.role with
      | Normal -> Id.compare e.req.Request.id id <> 0
      | Canceller _ -> true
    in
    Some (Log.length h.entries - 1 - Log.suffix_length other h.entries)

let find id h = Option.map (fun i -> (Log.get h.entries i).req) (position id h)

let mem id h =
  Vclock.dominates_event h.compacted ~site:id.Request.site ~count:id.Request.serial
  || Ids.mem id h.ids

let set_flag id flag h =
  match position id h with
  | None -> h
  | Some i ->
    let e = Log.get h.entries i in
    let e = { e with req = { e.req with Request.flag } } in
    {
      h with
      entries = Log.set h.entries i e;
      tpos = place e (h.base + i) (Id_map.remove id h.tpos);
    }

let validate id h =
  if Id_map.mem id h.tpos then Some (set_flag id Request.Valid h) else None

let tentative_requests h =
  (* exactly the nonzero-measure entries, all normal by construction *)
  List.rev (Log.fold_nonzero (fun acc e -> e.req :: acc) [] h.entries)

let broadcast_form (q : 'e Request.t) h =
  let rec last_normal i =
    if i < 0 then None
    else
      let e = Log.get h.entries i in
      match e.role with
      | Normal -> Some e.req.Request.id
      | Canceller _ -> last_normal (i - 1)
  in
  { q with Request.dep = last_normal (Log.length h.entries - 1) }

let with_op e op =
  if op == e.req.Request.op then e else { e with req = { e.req with Request.op } }

(* Adjacent transposition: given consecutive entries [a; b], produce
   [b'; a'] with the same combined effect.  [b'] excludes [a]'s effect;
   [a'] re-includes [b']'s.  Only [op] is rewritten: identity, role,
   flag and policy version are untouched, which is what lets the
   id set and the context classification survive reorderings.  An
   operation the transposition leaves alone keeps its entry record. *)
let transpose a b =
  let b_op = Transform.et b.req.Request.op a.req.Request.op in
  let a_op = Transform.it a.req.Request.op b_op in
  (with_op b b_op, with_op a a_op)

let movable e =
  let op = e.req.Request.op in
  Op.is_del op || Op.is_undel op || Op.is_up op

(* Canonize: bubble the entry at the end of the log (an insertion)
   backwards past the deletion/update entries before it, stopping at the
   first insertion or Nop-carrying entry.  The bubble is batched: its
   extent is found in one right-to-left walk, the movable suffix is
   transposed in a flat array and written back with a single
   {!Stree.Make} [set_range] walk — O(k + log H) tree work for a bubble of
   extent [k], instead of two O(log H) tree writes per transposition.
   [entry] is a normal entry. *)
let append_entry_canonized h entry =
  let pos = Log.length h.entries in
  let k =
    if Op.is_ins entry.req.Request.op then Log.suffix_length movable h.entries else 0
  in
  let entries = Log.append h.entries entry in
  let ids = Ids.add entry.req.Request.id h.ids in
  if k = 0 then { h with entries; ids; tpos = place entry (h.base + pos) h.tpos }
  else begin
    let lo = pos - k in
    let window = Array.make (k + 1) entry in
    let (_ : int) =
      Log.fold_range
        (fun i e ->
          window.(i) <- e;
          i + 1)
        0 h.entries ~pos:lo ~len:k
    in
    let i = ref k in
    while
      !i > 0 && Op.is_ins window.(!i).req.Request.op && movable window.(!i - 1)
    do
      let b', a' = transpose window.(!i - 1) window.(!i) in
      window.(!i - 1) <- b';
      window.(!i) <- a';
      decr i
    done;
    let entries = Log.set_range entries ~pos:lo window in
    (* the new entry landed at [!i], pushing what followed one place
       right: only the tentative ones among them have a position *)
    let tpos = ref h.tpos in
    for j = !i to k do
      tpos := place window.(j) (h.base + lo + j) !tpos
    done;
    { h with entries; ids; tpos = !tpos }
  end

let append_local q h = append_entry_canonized h { req = q; role = Normal }

(* Does the request [q] causally include entry [e]?  Normal entries are
   classified by the vector clock.  A canceller is part of [q]'s context
   iff its target is and the administrative cut that created it
   (recorded as the canceller request's [policy_version]) is below [q]'s
   generation version — see DESIGN §4.4 and the .mli.  Classification
   reads only fields that transposition preserves, so an entry's class
   with respect to a fixed [q] is stable under log reordering. *)
let in_context_of (q : _ Request.t) e =
  match e.role with
  | Normal ->
    Vclock.dominates_event q.Request.ctx ~site:e.req.Request.id.Request.site
      ~count:e.req.Request.id.Request.serial
  | Canceller target ->
    Vclock.dominates_event q.Request.ctx ~site:target.Request.site
      ~count:target.Request.serial
    && q.Request.policy_version >= e.req.Request.policy_version

(* ComputeFF, window-local.  Entries in the longest all-in-context
   prefix would be left in place by SOCT2 separation (context entries
   bubble leftwards, and there is nothing concurrent before them to
   bubble past), so only the suffix after that prefix — the concurrency
   window — is extracted, reordered and written back.  If the window
   contains no context entries (the common case: a remote request
   concurrent with the whole suffix), separation moves nothing and the
   write-back is skipped entirely. *)
let integrate q h =
  let n = Log.length h.entries in
  let p = Log.prefix_length (in_context_of q) h.entries in
  let entries, tpos, op =
    if p = n then (h.entries, h.tpos, q.Request.op)
    else begin
      let w = n - p in
      let window = Array.make w (Log.get h.entries p) in
      let (_ : int) =
        Log.fold_range
          (fun i e ->
            window.(i) <- e;
            i + 1)
          0 h.entries ~pos:p ~len:w
      in
      (* classification is stable under transposition, so the flags can
         be computed up front instead of mid-reorder *)
      let in_ctx = Array.map (in_context_of q) window in
      (* separate: bubble context entries down with adjacent
         transpositions; [boundary] = first concurrent position *)
      let boundary = ref 0 in
      for i = 0 to w - 1 do
        if in_ctx.(i) then begin
          let e = ref window.(i) in
          for j = i downto !boundary + 1 do
            let b', a' = transpose window.(j - 1) !e in
            window.(j) <- a';
            e := b'
          done;
          window.(!boundary) <- !e;
          incr boundary
        end
      done;
      let op = ref q.Request.op in
      for i = !boundary to w - 1 do
        op := Transform.it !op window.(i).req.Request.op
      done;
      if !boundary = 0 then (h.entries, h.tpos, !op)
      else begin
        (* the window really was permuted: write it back in one walk,
           and re-place its tentative entries *)
        let entries = Log.set_range h.entries ~pos:p window in
        let tpos = ref h.tpos in
        for i = 0 to w - 1 do
          tpos := place window.(i) (h.base + p + i) !tpos
        done;
        (entries, !tpos, !op)
      end
    end
  in
  let entry = { req = { q with Request.op }; role = Normal } in
  (op, append_entry_canonized { h with entries; tpos } entry)

let canceller_of ~cancel_version (q : 'e Request.t) op =
  {
    req = { q with Request.op; Request.policy_version = cancel_version;
            Request.flag = Request.Invalid };
    role = Canceller q.Request.id;
  }

let undo ~cancel_version id h =
  match position id h with
  | None -> None
  | Some i ->
    let e = Log.get h.entries i in
    if e.req.Request.flag = Request.Invalid then None
    else
      let n = Log.length h.entries in
      let inv =
        Log.fold_range
          (fun op e' -> Transform.it op e'.req.Request.op)
          (Op.inverse e.req.Request.op)
          h.entries ~pos:(i + 1) ~len:(n - i - 1)
      in
      let entries =
        Log.set h.entries i
          { e with req = { e.req with Request.flag = Request.Invalid } }
      in
      let cancel = canceller_of ~cancel_version e.req inv in
      let entries = Log.append entries cancel in
      Some (inv, { h with entries; tpos = Id_map.remove id h.tpos })

(* Rejecting a request = integrating it and undoing it on the spot: the
   request's cells enter the model (as tombstones, net visible effect
   zero), so later requests that causally include it still find their
   generation context in the log.  Both returned operations must be
   executed on the document, in order. *)
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
  let ok, _ =
    Log.fold_left
      (fun (ok, seen_du) e ->
        let op = e.req.Request.op in
        if (not ok) || (Op.is_ins op && seen_du) then (false, seen_du)
        else (true, seen_du || Op.is_del op || Op.is_up op))
      (true, false) h.entries
  in
  ok

(* Compaction: drop the longest stable prefix (see the .mli for the
   soundness argument).  Only settled entries are dropped, so only [ids]
   loses members; [base] absorbs the shift of the tentative positions. *)
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
  let k = Log.prefix_length droppable h.entries in
  if k = 0 then h
  else
    let n = Log.length h.entries in
    let dropped =
      List.rev (Log.fold_range (fun acc e -> e :: acc) [] h.entries ~pos:0 ~len:k)
    in
    let compacted =
      List.fold_left
        (fun compacted e ->
          match e.role with
          | Normal ->
            let site = e.req.Request.id.Request.site in
            let serial = e.req.Request.id.Request.serial in
            if Vclock.get compacted site < serial then
              Vclock.merge compacted (Vclock.of_list [ (site, serial) ])
            else compacted
          | Canceller _ -> compacted)
        h.compacted dropped
    in
    let ids =
      List.fold_left
        (fun ids e ->
          match e.role with
          | Normal -> Ids.remove e.req.Request.id ids
          | Canceller _ -> ids)
        h.ids dropped
    in
    let rest =
      List.rev
        (Log.fold_range (fun acc e -> e :: acc) [] h.entries ~pos:k ~len:(n - k))
    in
    {
      entries = Log.of_list rest;
      ids;
      tpos = h.tpos;
      base = h.base + k;
      compacted;
    }

let well_formed h =
  let indexed = List.mapi (fun i e -> (i, e)) (entries h) in
  let normal = List.filter (fun (_, e) -> e.role = Normal) indexed in
  let tentative = List.filter (fun (_, e) -> is_tentative e) normal in
  Ids.equal h.ids (Ids.of_list (List.map (fun (_, e) -> e.req.Request.id) normal))
  && Id_map.cardinal h.tpos = List.length tentative
  && List.for_all
       (fun (i, e) -> Id_map.find_opt e.req.Request.id h.tpos = Some (h.base + i))
       tentative

let pp pp_elt ppf h =
  let pp_entry ppf e =
    match e.role with
    | Normal -> Request.pp pp_elt ppf e.req
    | Canceller id ->
      Format.fprintf ppf "undo(%a)[%a]" Request.pp_id id (Op.pp pp_elt) e.req.Request.op
  in
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_entry)
    (entries h)
