type role = Normal | Canceller of Request.id

type 'e entry = { req : 'e Request.t; role : role }

module Id = struct
  type t = Request.id

  let compare (a : t) (b : t) =
    let c = Int.compare a.Request.site b.Request.site in
    if c <> 0 then c else Int.compare a.Request.serial b.Request.serial
end

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

(* The entries an appended insertion crosses: deletions and updates.
   The tail is the longest suffix of them. *)
let movable e =
  let op = e.req.Request.op in
  Op.is_del op || Op.is_undel op || Op.is_up op

(* a movable entry's model position *)
let pos_of e = match Op.pos e.req.Request.op with Some p -> p | None -> assert false

(* The model positions of the tail's entries, in log order, in blocks of
   up to [cap] ints.  A block is never written once built: every change
   builds fresh blocks, as a tombstone document's chunks are, so log
   versions share them, and a block of a few dozen words is a minor-heap
   allocation where one flat array of the whole tail would not be.
   Every block is full but the last. *)
module Run = struct
  type t = { blocks : int array array; len : int }

  let cap = 64
  let empty = { blocks = [||]; len = 0 }
  let length r = r.len
  let get r i = r.blocks.(i / cap).(i mod cap)

  (* the first [keep] positions of [r], then [f 0], [f 1], ... up to
     [len] positions; the kept prefix's whole blocks are shared *)
  let splice r ~keep len f =
    let block b =
      if (b + 1) * cap <= keep then r.blocks.(b)
      else
        Array.init
          (min cap (len - (b * cap)))
          (fun j ->
            let i = (b * cap) + j in
            if i < keep then get r i else f (i - keep))
    in
    { blocks = Array.init ((len + cap - 1) / cap) block; len }

  let init len f = splice empty ~keep:0 len f
  let push r x = splice r ~keep:r.len (r.len + 1) (fun _ -> x)
  let drop r k = init (r.len - k) (fun j -> get r (k + j))

  (* every position at or after [p] gains one, in fresh copies *)
  let shift r p =
    let bump b =
      let b = Array.copy b in
      for j = 0 to Array.length b - 1 do
        if b.(j) >= p then b.(j) <- b.(j) + 1
      done;
      b
    in
    { r with blocks = Array.map bump r.blocks }
end

(* Entries in execution order in a stat tree (measure: tentative normal
   entries, so the tentative set enumerates without scanning settled
   entries), with the tail's positions in a run beside it (see the .mli
   for why an insertion crossing the tail needs no transposition).  A
   tail entry keeps in the tree the operation it was appended with, and
   [tail] holds where it stands now; {!current} reads the two together.

   [seen] is the highest serial per site the log has held, for [mem]
   and [causally_ready]: a site's serials integrate in order (a
   request's context holds its own site's previous serial), so they
   are every serial up to it.  Reorderings never touch it, and
   compaction neither.

   A tentative entry before the tail maps to its position in [tpos], a
   tentative tail entry to its offset from the tail start in [toff]; an
   insertion landing at the tail start changes neither, a separation
   re-places only the tentative entries it moves, and looking up a
   settled entry scans instead.  [tpos] positions are absolute — [base]
   counts entries dropped by compaction, so the tree position of id is
   [tpos(id) - base], and compaction, which drops no tentative entry,
   rewrites [tpos] never and [toff] only when its cut reaches into the
   tail.  [compacted] is the highest serial per site compaction has
   dropped. *)
type 'e t = {
  entries : 'e Log.t;
  tail : Run.t;
  seen : Vclock.t;
  tpos : int Id_map.t;
  toff : int Id_map.t;
  base : int;
  compacted : Vclock.t;
}

(* record entry [e] under [key] if it is tentative *)
let place e key index =
  if is_tentative e then Id_map.add e.req.Request.id key index else index

let empty =
  {
    entries = Log.empty;
    tail = Run.empty;
    seen = Vclock.empty;
    tpos = Id_map.empty;
    toff = Id_map.empty;
    base = 0;
    compacted = Vclock.empty;
  }

let length h = Log.length h.entries

let live_length = length

(* the clock [c] raised to count [id] *)
let raise_to c (id : Request.id) =
  if id.Request.serial <= Vclock.get c id.Request.site then c
  else Vclock.merge c (Vclock.of_list [ (id.Request.site, id.Request.serial) ])

let tail_start h = length h - Run.length h.tail

let with_op e op =
  if op == e.req.Request.op then e else { e with req = { e.req with Request.op } }

(* movable [o] at model position [pos]; [o] itself if it stands there *)
let moved_to pos (o : _ Op.t) : _ Op.t =
  match o with
  | Del d -> if d.pos = pos then o else Del { d with pos }
  | Undel d -> if d.pos = pos then o else Undel { d with pos }
  | Up u -> if u.pos = pos then o else Up { u with pos }
  | Ins _ | Unup _ | Nop -> assert false

(* The one accessor: [e], stored at tree position [i], as the log holds
   it — a tail entry (from [ts], the tail start) stands where the run
   says. *)
let read h ~ts i e =
  if i < ts then e else with_op e (moved_to (Run.get h.tail (i - ts)) e.req.Request.op)

let current h i e = read h ~ts:(tail_start h) i e

let fold_range f acc h ~pos ~len =
  let ts = tail_start h in
  let i = ref (pos - 1) in
  Log.fold_range
    (fun acc e ->
      incr i;
      f acc (read h ~ts !i e))
    acc h.entries ~pos ~len

(* entries [pos, pos + len) as the log holds them, in a fresh array *)
let slice h ~pos ~len =
  let a = Array.make len (Log.get h.entries pos) in
  let (_ : int) =
    fold_range
      (fun i e ->
        a.(i) <- e;
        i + 1)
      0 h ~pos ~len
  in
  a

let entries h = List.rev (fold_range (fun acc e -> e :: acc) [] h ~pos:0 ~len:(length h))

let of_entries ~compacted entries =
  let a = Array.of_list entries in
  let ts = ref (Array.length a) in
  while !ts > 0 && movable a.(!ts - 1) do
    decr ts
  done;
  let ts = !ts in
  let seen = ref compacted and tpos = ref Id_map.empty and toff = ref Id_map.empty in
  Array.iteri
    (fun i e ->
      match e.role with
      | Normal ->
        seen := raise_to !seen e.req.Request.id;
        if i < ts then tpos := place e i !tpos else toff := place e (i - ts) !toff
      | Canceller _ -> ())
    a;
  {
    entries = Log.of_list entries;
    tail = Run.init (Array.length a - ts) (fun j -> pos_of a.(ts + j));
    seen = !seen;
    tpos = !tpos;
    toff = !toff;
    base = 0;
    compacted;
  }

let compacted_upto h = h.compacted

let requests h =
  List.filter_map
    (fun e -> match e.role with Normal -> Some e.req | Canceller _ -> None)
    (entries h)

let ops h = List.map (fun e -> e.req.Request.op) (entries h)

let mem (id : Request.id) h = id.Request.serial <= Vclock.get h.seen id.Request.site

(* Tree position of the normal entry [id]: one map lookup for a
   tentative entry; for a settled one a scan from the right, which no
   controller path takes.  A settled id at or below [seen] may have
   been compacted away, even behind a live one of its site (Canonize
   puts a site's later insertion before its earlier deletion), and then
   the scan finds nothing. *)
let position id h =
  match Id_map.find_opt id h.tpos with
  | Some pos -> Some (pos - h.base)
  | None -> (
    match Id_map.find_opt id h.toff with
    | Some off -> Some (tail_start h + off)
    | None when not (mem id h) -> None
    | None ->
      let other e =
        match e.role with
        | Normal -> Id.compare e.req.Request.id id <> 0
        | Canceller _ -> true
      in
      let k = Log.suffix_length other h.entries in
      if k = length h then None else Some (length h - 1 - k))

let find id h =
  Option.map (fun i -> (current h i (Log.get h.entries i)).req) (position id h)

(* Flag the normal entry at tree position [i].  Only the flag changes:
   a tail entry keeps its stored operation. *)
let flag_at h i flag =
  let e = Log.get h.entries i in
  let e = { e with req = { e.req with Request.flag } } in
  let id = e.req.Request.id in
  let entries = Log.set h.entries i e in
  let tpos = Id_map.remove id h.tpos and toff = Id_map.remove id h.toff in
  let ts = tail_start h in
  if i < ts then { h with entries; tpos = place e (h.base + i) tpos; toff }
  else { h with entries; tpos; toff = place e (i - ts) toff }

let set_flag id flag h =
  match position id h with None -> h | Some i -> flag_at h i flag

let validate id h =
  if Id_map.mem id h.tpos || Id_map.mem id h.toff then Some (set_flag id Request.Valid h)
  else None

let tentative_requests h =
  (* exactly the nonzero-measure entries, all normal by construction; a
     tail one stands where the run says *)
  let ts = tail_start h in
  let read e =
    match Id_map.find_opt e.req.Request.id h.toff with
    | Some off -> current h (ts + off) e
    | None -> e
  in
  List.rev (Log.fold_nonzero (fun acc e -> (read e).req :: acc) [] h.entries)

let broadcast_form (q : 'e Request.t) h =
  let rec last_normal i =
    if i < 0 then None
    else
      let e = Log.get h.entries i in
      match e.role with
      | Normal -> Some e.req.Request.id
      | Canceller _ -> last_normal (i - 1)
  in
  { q with Request.dep = last_normal (length h - 1) }

(* Adjacent transposition: given consecutive entries [a; b], produce
   [b'; a'] with the same combined effect.  [b'] excludes [a]'s effect;
   [a'] re-includes [b']'s.  Only [op] is rewritten: identity, role,
   flag and policy version are untouched, which is what lets the
   context classification survive reorderings.  An operation the
   transposition leaves alone keeps its entry record. *)
let transpose a b =
  let b_op = Transform.et b.req.Request.op a.req.Request.op in
  let a_op = Transform.it a.req.Request.op b_op in
  (with_op b b_op, with_op a a_op)

(* End the tail: write its positions into the tree and index its
   tentative entries by absolute position. *)
let settle h =
  let k = Run.length h.tail in
  if k = 0 then h
  else
    let ts = tail_start h in
    {
      h with
      entries = Log.set_range h.entries ~pos:ts (slice h ~pos:ts ~len:k);
      tail = Run.empty;
      tpos = Id_map.fold (fun id off tpos -> Id_map.add id (h.base + ts + off) tpos) h.toff h.tpos;
      toff = Id_map.empty;
    }

(* Append an entry that is not an insertion: a deletion or update joins
   the tail; anything else (an update's undo, a Nop) ends it. *)
let push h e =
  if movable e then
    {
      h with
      entries = Log.append h.entries e;
      tail = Run.push h.tail (pos_of e);
      toff = place e (Run.length h.tail) h.toff;
    }
  else
    let h = settle h in
    { h with entries = Log.append h.entries e; tpos = place e (h.base + length h) h.tpos }

(* Canonize in one step: an insertion lands at the tail start as it is,
   and every tail position at or after its own gains one — one tree
   insert and one pass over the run, with no transposition, no fresh
   entry and no index write for the tail.  [entry] is a normal entry. *)
let append_entry_canonized h entry =
  let h = { h with seen = raise_to h.seen entry.req.Request.id } in
  match entry.req.Request.op with
  | Op.Ins { pos; _ } ->
    let ts = tail_start h in
    {
      h with
      entries = Log.insert h.entries ts entry;
      tail = Run.shift h.tail pos;
      tpos = place entry (h.base + ts) h.tpos;
    }
  | Op.Del _ | Op.Undel _ | Op.Up _ | Op.Unup _ | Op.Nop -> push h entry

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

(* Write back the window [p, length h), permuted by a separation, and
   re-derive the tail: the window's longest movable suffix, behind the
   old tail's entries before [p] when the window lies inside the old
   tail (then every window entry is movable, the separation only
   permuted them, and the whole window stays in the tail).  A window
   that starts at or before the old tail start holds the non-movable
   entry before it, if any, so the tail cannot reach back past [p]. *)
let reorder h p window =
  let w = Array.length window in
  let s = ref w in
  while !s > 0 && movable window.(!s - 1) do
    decr s
  done;
  let s = !s in
  let keep = max 0 (p - tail_start h) in
  assert (keep = 0 || s = 0);
  let tpos = ref h.tpos in
  let toff = ref (Id_map.filter (fun _ off -> off < keep) h.toff) in
  Array.iteri
    (fun i e ->
      if i < s then tpos := place e (h.base + p + i) !tpos
      else if is_tentative e then begin
        tpos := Id_map.remove e.req.Request.id !tpos;
        toff := place e (keep + i - s) !toff
      end)
    window;
  {
    h with
    entries = Log.set_range h.entries ~pos:p window;
    tail = Run.splice h.tail ~keep (keep + w - s) (fun j -> pos_of window.(s + j));
    tpos = !tpos;
    toff = !toff;
  }

(* ComputeFF, window-local.  Entries in the longest all-in-context
   prefix would be left in place by SOCT2 separation (context entries
   bubble leftwards, and there is nothing concurrent before them to
   bubble past), so only the suffix after that prefix — the concurrency
   window — is extracted, reordered and written back.  If the window
   contains no context entries (the common case: a remote request
   concurrent with the whole suffix), separation moves nothing and the
   write-back is skipped entirely. *)
let integrate q h =
  let n = length h in
  let p = Log.prefix_length (in_context_of q) h.entries in
  let h, op =
    if p = n then (h, q.Request.op)
    else begin
      let w = n - p in
      let window = slice h ~pos:p ~len:w in
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
      ((if !boundary = 0 then h else reorder h p window), !op)
    end
  in
  let entry = { req = { q with Request.op }; role = Normal } in
  (op, append_entry_canonized h entry)

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
    let e = current h i (Log.get h.entries i) in
    if e.req.Request.flag = Request.Invalid then None
    else
      let inv =
        fold_range
          (fun op e' -> Transform.it op e'.req.Request.op)
          (Op.inverse e.req.Request.op)
          h ~pos:(i + 1) ~len:(length h - i - 1)
      in
      let h = flag_at h i Request.Invalid in
      Some (inv, push h (canceller_of ~cancel_version e.req inv))

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

let causally_ready (q : _ Request.t) h = Vclock.leq q.Request.ctx h.seen

let is_canonical h =
  let ok, _ =
    fold_range
      (fun (ok, seen_du) e ->
        let op = e.req.Request.op in
        if (not ok) || (Op.is_ins op && seen_du) then (false, seen_du)
        else (true, seen_du || Op.is_del op || Op.is_up op))
      (true, false) h ~pos:0 ~len:(length h)
  in
  ok

(* Compaction: drop the longest stable prefix (see the .mli for the
   soundness argument).  Only settled entries are dropped, so no index
   loses members; [base] absorbs the shift of the tentative positions
   before the tail.  A cut reaching into the tail drops the run's first
   positions with their entries, and the tail offsets move with it.
   Dropped entries are read for their ids only, and the tree keeps its
   stored operations for the run to override. *)
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
    let n = length h in
    let dropped =
      List.rev (Log.fold_range (fun acc e -> e :: acc) [] h.entries ~pos:0 ~len:k)
    in
    let compacted =
      List.fold_left
        (fun compacted e ->
          match e.role with
          | Normal -> raise_to compacted e.req.Request.id
          | Canceller _ -> compacted)
        h.compacted dropped
    in
    let rest =
      List.rev
        (Log.fold_range (fun acc e -> e :: acc) [] h.entries ~pos:k ~len:(n - k))
    in
    let cut = k - tail_start h in
    {
      entries = Log.of_list rest;
      tail = (if cut > 0 then Run.drop h.tail cut else h.tail);
      seen = h.seen;
      tpos = h.tpos;
      toff = (if cut > 0 then Id_map.map (fun off -> off - cut) h.toff else h.toff);
      base = h.base + k;
      compacted;
    }

(* The cells no later insertion created, as runs over the current
   model: a free run of [n > 0] cells weighs [n], a created cell is [0]
   and weighs nothing.  [select] on the weight finds the [p]-th free
   cell. *)
module Gaps = Stree.Make (struct
  type 'a t = int

  let size n = max n 1
  let weight n = n
end)

(* Walking the log backwards, an entry's position [p] is the [p]-th
   cell among those no later insertion created: the cells of its own
   context are the current ones less those.  The free run starts
   unbounded, so the model length is not needed. *)
let touched_positions h =
  let n = length h in
  let entries = if n = 0 then [||] else slice h ~pos:0 ~len:n in
  let free = ref (Gaps.of_list [ max_int / 2 ]) and out = ref [] in
  for i = n - 1 downto 0 do
    let op = entries.(i).req.Request.op in
    match Op.pos op with
    | None -> ()
    | Some p ->
      let x = Gaps.select !free p (fun _ k -> k) in
      if Op.is_ins op then begin
        let run, off = Gaps.find !free x in
        let t = Gaps.update !free x (fun _ _ -> 0) in
        let t = if off > 0 then Gaps.insert t (x - off) off else t in
        free := if run - off > 1 then Gaps.insert t (x + 1) (run - off - 1) else t
      end
      else out := x :: !out
  done;
  Array.of_list (List.sort_uniq Int.compare !out)

(* Each site's live normal entries above its compacted floor must be
   every serial up to [seen] once: one mark per serial of (floor, seen],
   each set by exactly one entry, every one set at the end. *)
let serials_complete h =
  let spans =
    List.filter_map
      (fun (site, n) ->
        let floor = Vclock.get h.compacted site in
        if n > floor then Some (site, floor, n - floor) else None)
      (Vclock.to_list h.seen)
  in
  let live = length h in
  (* every marked serial needs an entry of its own, so spans longer in
     all than the log (a hostile state's serial 2^40) fail before their
     marks are allocated *)
  List.fold_left (fun total (_, _, k) -> total + min k (live + 1)) 0 spans <= live
  &&
  let marks = Hashtbl.create 8 in
  List.iter (fun (site, floor, k) -> Hashtbl.replace marks site (floor, Bytes.make k '0')) spans;
  let mark ok e =
    ok
    &&
    match e.role with
    | Canceller _ -> true
    | Normal -> (
      let { Request.site; serial } = e.req.Request.id in
      serial <= Vclock.get h.compacted site
      ||
      match Hashtbl.find_opt marks site with
      | Some (floor, m)
        when serial - floor <= Bytes.length m && Bytes.get m (serial - floor - 1) = '0' ->
        Bytes.set m (serial - floor - 1) '1';
        true
      | _ -> false)
  in
  Log.fold_range mark true h.entries ~pos:0 ~len:live
  && Hashtbl.fold (fun _ (_, m) ok -> ok && not (Bytes.contains m '0')) marks true

let well_formed h =
  let ts = tail_start h in
  let indexed = List.mapi (fun i e -> (i, e)) (entries h) in
  let normal = List.filter (fun (_, e) -> e.role = Normal) indexed in
  let tentative = List.filter (fun (_, e) -> is_tentative e) normal in
  let indexed_at (i, e) =
    let id = e.req.Request.id in
    if i < ts then Id_map.find_opt id h.tpos = Some (h.base + i)
    else Id_map.find_opt id h.toff = Some (i - ts)
  in
  serials_complete h
  && Id_map.cardinal h.tpos + Id_map.cardinal h.toff = List.length tentative
  && List.for_all indexed_at tentative
  && Run.length h.tail = Log.suffix_length movable h.entries

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
