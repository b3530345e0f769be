type 'e write = { wtag : Op.tag; value : 'e; retracted : int }

type 'e cell = { elt : 'e; writes : 'e write list; hidden : int }

type _ run = Chars : string -> char run | Elts : 'e array -> 'e run

(* fresh copies of [a] with [x] inserted at, or [x] written to, or the
   slot removed from index [j] *)
let insert_at a j x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 j;
  Array.blit a j b (j + 1) (n - j);
  b

let replace_at a j x =
  let b = Array.copy a in
  b.(j) <- x;
  b

let remove_at a j =
  let n = Array.length a in
  let b = Array.sub a 0 (n - 1) in
  Array.blit a (j + 1) b j (n - 1 - j);
  b

(* A run's cells: one byte each in a packed run, one slot in an array
   run.  Neither is written once built: the packed kind is an immutable
   string, and an array run is only ever copied. *)
module Run = struct
  let length : type e. e run -> int = function
    | Chars s -> String.length s
    | Elts a -> Array.length a

  let get : type e. e run -> int -> e =
   fun r i -> match r with Chars s -> s.[i] | Elts a -> a.(i)

  let sub : type e. e run -> int -> int -> e run =
   fun r pos len ->
    match r with
    | Chars s -> Chars (String.sub s pos len)
    | Elts a -> Elts (Array.sub a pos len)

  (* the empty run of [r]'s kind *)
  let empty : type e. e run -> e run = function Chars _ -> Chars "" | Elts _ -> Elts [||]

  let iteri : type e. (int -> e -> unit) -> e run -> unit =
   fun f r -> match r with Chars s -> String.iteri f s | Elts a -> Array.iteri f a

  (* a fresh run of [r]'s kind with [x] inserted at index [j] *)
  let insert : type e. e run -> int -> e -> e run =
   fun r j x ->
    match r with
    | Chars s ->
      let n = String.length s in
      let b = Bytes.create (n + 1) in
      Bytes.blit_string s 0 b 0 j;
      Bytes.set b j x;
      Bytes.blit_string s j b (j + 1) (n - j);
      Chars (Bytes.unsafe_to_string b)
    | Elts a -> Elts (insert_at a j x)

  (* [a]'s cells then [b]'s, in a fresh run; a document's chunks all
     have its kind *)
  let append : type e. e run -> e run -> e run =
   fun a b ->
    match (a, b) with
    | Chars x, Chars y -> Chars (x ^ y)
    | Elts x, Elts y -> Elts (Array.append x y)
    | Chars _, Elts _ | Elts _, Chars _ -> invalid_arg "Tdoc: runs of two kinds"

  (* a fresh copy of [r] with element [x] written at index [j] for each
     [(j, x)] of [writes] *)
  let with_elts : type e. e run -> (int * e) list -> e run =
   fun r writes ->
    match r with
    | Chars s ->
      let b = Bytes.of_string s in
      List.iter (fun (j, x) -> Bytes.set b j x) writes;
      Chars (Bytes.unsafe_to_string b)
    | Elts a ->
      let a = Array.copy a in
      List.iter (fun (j, x) -> a.(j) <- x) writes;
      Elts a
end

(* A chunk's dead mask: bit [off] is set when the cell at offset [off]
   is dead, with no write and exactly one hide, the form every hidden
   cell collapses to.  Only [collapse] sets bits, so a document that
   never collapses holds none; a masked cell is never in the overlay
   too.  64 bits, one per cell of a full chunk; an empty mask is the
   shared constant [0L]. *)
module Mask = struct
  let bit off = Int64.shift_left 1L off

  (* the shared empty mask when [m] holds no bit *)
  let norm m = if Int64.equal m 0L then 0L else m

  let mem m off = Int64.logand m (bit off) <> 0L

  let add m off = Int64.logor m (bit off)

  let remove m off = norm (Int64.logand m (Int64.lognot (bit off)))

  let count m =
    let open Int64 in
    let m = sub m (logand (shift_right_logical m 1) 0x5555555555555555L) in
    let m =
      add (logand m 0x3333333333333333L) (logand (shift_right_logical m 2) 0x3333333333333333L)
    in
    let m = logand (add m (shift_right_logical m 4)) 0x0f0f0f0f0f0f0f0fL in
    to_int (shift_right_logical (mul m 0x0101010101010101L) 56)

  (* the bits below offset [off], [0 <= off <= 64] *)
  let below m off = if off >= 64 then m else norm (Int64.logand m (Int64.pred (bit off)))

  (* the bits from offset [off] on, moved down to offset 0 *)
  let from m off = if off >= 64 then 0L else norm (Int64.shift_right_logical m off)

  (* [m] with the bits of a chunk of [len] cells, [len < 64], above it *)
  let concat m len m' =
    if Int64.equal m' 0L then m else norm (Int64.logor m (Int64.shift_left m' len))

  (* room for a cell inserted at [off]: the bits from [off] on move one up *)
  let open_at m off =
    if Int64.equal m 0L then m else concat (below m off) (off + 1) (from m off)

end

(* A chunk is a run of up to [cap] cells: every cell's element in
   [run]; the collapsed dead cells' bits in [dead]; and a sparse overlay
   holding the whole record of every other touched cell (one with a
   write or a hide count), sorted by offset in [offs] and [cells].  An
   untouched cell is one byte of a packed run or one slot of an array
   run, and a masked one is that plus one bit.  [vis] counts the
   visible cells.
   Nothing is written after the chunk holding it is built: documents
   share chunks across versions. *)
type 'e chunk = {
  run : 'e run;
  offs : int array;
  cells : 'e cell array;
  dead : int64;
  vis : int;
}

let cap = 64

(* A stat tree of chunks, each as large as its cell count and weighed by
   its visible cells: tree positions are model positions, the cached
   weight is the visible length, and select/rank descend to a chunk and
   finish the visible<->model translation inside it. *)
module T = Stree.Make (struct
  type 'e t = 'e chunk

  let size k = Run.length k.run
  let weight k = k.vis
end)

(* [blank] is an empty run of the kind the document was built with: the
   chunk a first insertion creates grows from it, so a document built
   packed stays packed while it holds no cell.  Every later chunk
   inherits its run's kind from the chunk it was inserted into or split
   from. *)
type 'e t = { tree : 'e T.t; blank : 'e run }

let fresh_cell elt = { elt; writes = []; hidden = 0 }

let dead_cell elt = { elt; writes = []; hidden = 1 }

let touched c = c.writes <> [] || c.hidden <> 0

let is_dead c = c.writes = [] && c.hidden = 1

let vis_of c = if c.hidden = 0 then 1 else 0

let chunk run offs cells dead =
  let vis =
    Array.fold_left (fun v c -> v - 1 + vis_of c) (Run.length run - Mask.count dead) cells
  in
  { run; offs; cells; dead; vis }

(* index in [k.offs] of the first offset at or past [off] *)
let slot k off =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if k.offs.(mid) < off then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length k.offs)

let marked k j off = j < Array.length k.offs && k.offs.(j) = off

let cell_at k off =
  let j = slot k off in
  if marked k j off then k.cells.(j)
  else if Mask.mem k.dead off then dead_cell (Run.get k.run off)
  else fresh_cell (Run.get k.run off)

(* [k] with the cell at [off] replaced by [c], which has the same
   element: a masked cell keeps its bit while it stays dead *)
let set_cell k off c =
  let j = slot k off in
  if Mask.mem k.dead off then
    if is_dead c then k
    else
      let k = { k with dead = Mask.remove k.dead off; vis = k.vis + vis_of c } in
      if touched c then { k with offs = insert_at k.offs j off; cells = insert_at k.cells j c }
      else k
  else
    let was = marked k j off in
    let vis = k.vis - (if was then vis_of k.cells.(j) else 1) + vis_of c in
    match (was, touched c) with
    | true, true -> { k with cells = replace_at k.cells j c; vis }
    | true, false -> { k with offs = remove_at k.offs j; cells = remove_at k.cells j; vis }
    | false, true -> { k with offs = insert_at k.offs j off; cells = insert_at k.cells j c; vis }
    | false, false -> k

(* [k], not full, with a fresh cell inserted at [off] *)
let insert_cell k off elt =
  let j = slot k off in
  let offs = Array.copy k.offs in
  for i = j to Array.length offs - 1 do
    offs.(i) <- offs.(i) + 1
  done;
  { k with run = Run.insert k.run off elt; offs; dead = Mask.open_at k.dead off; vis = k.vis + 1 }

(* [k]'s first [h] cells and the rest *)
let split_at k h =
  let n = Run.length k.run and m = Array.length k.offs in
  let j = slot k h in
  ( chunk (Run.sub k.run 0 h) (Array.sub k.offs 0 j) (Array.sub k.cells 0 j) (Mask.below k.dead h),
    chunk (Run.sub k.run h (n - h))
      (Array.init (m - j) (fun i -> k.offs.(j + i) - h))
      (Array.sub k.cells j (m - j))
      (Mask.from k.dead h) )

(* [a]'s cells then [b]'s, in one chunk of at most [cap] cells *)
let concat a b =
  let la = Run.length a.run in
  {
    run = Run.append a.run b.run;
    offs = Array.append a.offs (Array.map (fun o -> o + la) b.offs);
    cells = Array.append a.cells b.cells;
    dead = Mask.concat a.dead la b.dead;
    vis = a.vis + b.vis;
  }

(* offset of the [v]-th visible cell of [k]: each hidden overlay cell
   at or before the candidate pushes it one further; with masked cells,
   a walk over the offsets *)
let select_in k v =
  let n = Array.length k.offs in
  let rec go j off =
    if j = n || k.offs.(j) > off then off
    else go (j + 1) (if k.cells.(j).hidden <> 0 then off + 1 else off)
  in
  let rec walk off j seen =
    if j < n && k.offs.(j) = off then
      if k.cells.(j).hidden <> 0 then walk (off + 1) (j + 1) seen
      else if seen = v then off
      else walk (off + 1) (j + 1) (seen + 1)
    else if Mask.mem k.dead off then walk (off + 1) j seen
    else if seen = v then off
    else walk (off + 1) j (seen + 1)
  in
  if Int64.equal k.dead 0L then go 0 v else walk 0 0 0

(* visible cells of [k] before offset [off] *)
let rank_in k off =
  let rec go j r =
    if j = Array.length k.offs || k.offs.(j) >= off then r
    else go (j + 1) (if k.cells.(j).hidden <> 0 then r - 1 else r)
  in
  if Int64.equal k.dead 0L then go 0 off else go 0 off - Mask.count (Mask.below k.dead off)

(* [run]'s cells in full chunks of its kind, with [touched] the touched
   cells' (model position, record) pairs in position order *)
let pack run touched =
  let n = Run.length run in
  let chunks = ref [] and j = ref (Array.length touched) in
  for b = ((n + cap - 1) / cap) - 1 downto 0 do
    let lo = b * cap and hi = !j in
    while !j > 0 && fst touched.(!j - 1) >= lo do
      decr j
    done;
    let first = !j in
    let marks = hi - first in
    chunks :=
      chunk
        (Run.sub run lo (min cap (n - lo)))
        (Array.init marks (fun i -> fst touched.(first + i) - lo))
        (Array.init marks (fun i -> snd touched.(first + i)))
        0L
      :: !chunks
  done;
  { tree = T.of_list !chunks; blank = Run.empty run }

let empty = { tree = T.empty; blank = Elts [||] }

let of_list l = pack (Elts (Array.of_list l)) [||]

let of_string s = pack (Chars s) [||]

let of_cells cells =
  let a = Array.of_list cells in
  let marks = ref [] in
  for i = Array.length a - 1 downto 0 do
    if touched a.(i) then marks := (i, a.(i)) :: !marks
  done;
  pack (Elts (Array.map (fun c -> c.elt) a)) (Array.of_list !marks)

let of_overlay run overlay =
  let n = Run.length run in
  let rec marks prev acc = function
    | [] -> Ok (pack run (Array.of_list (List.rev acc)))
    | (pos, writes, hidden) :: rest ->
      if pos < 0 || pos >= n then Error "overlay position out of range"
      else if pos <= prev then Error "overlay position out of order"
      else
        let c = { elt = Run.get run pos; writes; hidden } in
        if touched c then marks pos ((pos, c) :: acc) rest
        else Error "overlay entry names an untouched cell"
  in
  marks (-1) [] overlay

let run_length = Run.length

let iter_runs f d = T.fold_left (fun () k -> f k.run) () d.tree

(* [k]'s touched cells folded in offset order: the overlay's, and with
   masked cells the mask's merged in by a walk over the offsets *)
let fold_chunk_touched f acc base k =
  let acc = ref acc in
  if Int64.equal k.dead 0L then
    Array.iteri (fun j off -> acc := f !acc (base + off) k.cells.(j)) k.offs
  else begin
    let j = ref 0 in
    for off = 0 to Run.length k.run - 1 do
      if !j < Array.length k.offs && k.offs.(!j) = off then begin
        acc := f !acc (base + off) k.cells.(!j);
        incr j
      end
      else if Mask.mem k.dead off then acc := f !acc (base + off) (dead_cell (Run.get k.run off))
    done
  end;
  !acc

let fold_touched f acc d =
  fst
    (T.fold_left
       (fun (acc, base) k -> (fold_chunk_touched f acc base k, base + Run.length k.run))
       (acc, 0) d.tree)

let model_length d = T.length d.tree

let visible_length d = T.weight d.tree

let content c =
  let best =
    List.fold_left
      (fun acc w ->
        if w.retracted > 0 then acc
        else
          match acc with
          | Some b when Op.compare_tag b.wtag w.wtag >= 0 -> acc
          | _ -> Some w)
      None c.writes
  in
  match best with Some w -> w.value | None -> c.elt

let history c = c.elt :: List.map (fun w -> w.value) c.writes

let cell d i =
  let k, off = T.find d.tree i in
  cell_at k off

(* visible cells live in chunks of nonzero weight, so both projections
   skip fully hidden chunks and subtrees *)
let fold_visible f acc d =
  T.fold_nonzero
    (fun acc k ->
      let acc = ref acc and j = ref 0 in
      Run.iteri
        (fun off e ->
          if marked k !j off then begin
            let c = k.cells.(!j) in
            incr j;
            if c.hidden = 0 then acc := f !acc (content c)
          end
          else if not (Mask.mem k.dead off) then acc := f !acc e)
        k.run;
      !acc)
    acc d.tree

let visible_list d = List.rev (fold_visible (fun acc e -> e :: acc) [] d)

let visible_string d =
  let b = Buffer.create (visible_length d) in
  fold_visible (fun () -> Buffer.add_char b) () d;
  Buffer.contents b

(* [k]'s cells consed onto [acc], walking right to left, so the whole
   list is built without a reversal *)
let cells_onto k acc =
  let acc = ref acc and j = ref (Array.length k.offs - 1) in
  for off = Run.length k.run - 1 downto 0 do
    if !j >= 0 && k.offs.(!j) = off then begin
      acc := k.cells.(!j) :: !acc;
      decr j
    end
    else
      let e = Run.get k.run off in
      acc := (if Mask.mem k.dead off then dead_cell e else fresh_cell e) :: !acc
  done;
  !acc

let model_list d =
  List.fold_left (fun acc k -> cells_onto k acc) [] (T.fold_left (fun ks k -> k :: ks) [] d.tree)

let model_of_visible d v =
  if v < 0 then invalid_arg "Tdoc.model_of_visible: negative position";
  let vl = visible_length d in
  if v < vl then T.select d.tree v select_in
  else if v = vl then model_length d
  else invalid_arg "Tdoc.model_of_visible: beyond visible length"

let visible_of_model d m =
  if m < 0 then invalid_arg "Tdoc.visible_of_model: negative position";
  T.rank d.tree (min m (model_length d)) rank_in

let conflict fmt = Format.kasprintf (fun s -> raise (Document.Edit_conflict s)) fmt

let check_history ~eq ~what ~pos c expected =
  if not (List.exists (eq expected) (history c)) then
    conflict "%s at model position %d: element never present in the cell" what pos

let apply ?(eq = ( = )) d op =
  let n = model_length d in
  let in_range what pos =
    if pos < 0 || pos >= n then
      invalid_arg (Printf.sprintf "Tdoc.apply: %s position %d out of range" what pos)
  in
  (* the cell at [pos] replaced by [f] of it, in one descent *)
  let with_cell pos f =
    { d with tree = T.update d.tree pos (fun k off -> set_cell k off (f (cell_at k off))) }
  in
  match op with
  | Op.Nop -> d
  | Op.Ins { pos; elt; _ } ->
    if pos < 0 || pos > n then invalid_arg "Tdoc.apply: Ins position out of range";
    if n = 0 then
      { d with tree = T.insert d.tree 0 (chunk (Run.insert d.blank 0 elt) [||] [||] 0L) }
    else
      (* a position between two chunks goes to the later one; the end
         of the document to the last chunk *)
      let at = min pos (n - 1) in
      let k, off = T.find d.tree at in
      let off = off + pos - at in
      if Run.length k.run < cap then { d with tree = T.set d.tree at (insert_cell k off elt) }
      else
        (* a full chunk splits into halves of [cap / 2] and [cap / 2 + 1]
           cells, the new one in whichever half it falls in *)
        let h = cap / 2 in
        let a, b =
          if off < h then
            let a, b = split_at k (h - 1) in
            (insert_cell a off elt, b)
          else
            let a, b = split_at k h in
            (a, insert_cell b (off - h) elt)
        in
        { d with tree = T.insert (T.set d.tree at a) (pos - off + Run.length a.run) b }
  | Op.Del { pos; elt } ->
    in_range "Del" pos;
    with_cell pos (fun c ->
        check_history ~eq ~what:"Del" ~pos c elt;
        { c with hidden = c.hidden + 1 })
  | Op.Undel { pos; elt } ->
    in_range "Undel" pos;
    with_cell pos (fun c ->
        check_history ~eq ~what:"Undel" ~pos c elt;
        if c.hidden = 0 then invalid_arg "Tdoc.apply: Undel of a visible cell";
        { c with hidden = c.hidden - 1 })
  | Op.Up { pos; before; after; tag } ->
    in_range "Up" pos;
    with_cell pos (fun c ->
        check_history ~eq ~what:"Up" ~pos c before;
        if List.exists (fun w -> Op.compare_tag w.wtag tag = 0) c.writes then
          conflict "Up at model position %d: duplicate write tag" pos;
        { c with writes = { wtag = tag; value = after; retracted = 0 } :: c.writes })
  | Op.Unup { pos; tag; _ } ->
    in_range "Unup" pos;
    with_cell pos (fun c ->
        if not (List.exists (fun w -> Op.compare_tag w.wtag tag = 0) c.writes) then
          conflict "Unup at model position %d: unknown write tag" pos;
        {
          c with
          writes =
            List.map
              (fun w ->
                if Op.compare_tag w.wtag tag = 0 then { w with retracted = w.retracted + 1 }
                else w)
              c.writes;
        })

let apply_all ?eq d ops = List.fold_left (fun d o -> apply ?eq d o) d ops

(* ----- collapse ----- *)

(* [k], starting at model position [base], with every overlay cell whose
   position is not in [keep] collapsed: its content becomes its element,
   and a hidden one turns dead.  [ki] walks the sorted [keep] across the
   whole document.  [k] itself when every overlay cell is kept. *)
let collapse_chunk keep ki base k =
  let kept pos =
    while !ki < Array.length keep && keep.(!ki) < pos do
      incr ki
    done;
    !ki < Array.length keep && keep.(!ki) = pos
  in
  let marks = ref [] and elts = ref [] and dead = ref k.dead in
  Array.iteri
    (fun j off ->
      let c = k.cells.(j) in
      if kept (base + off) then marks := (off, c) :: !marks
      else begin
        elts := (off, content c) :: !elts;
        if c.hidden > 0 then dead := Mask.add !dead off
      end)
    k.offs;
  if !elts = [] then k
  else
    let marks = List.rev !marks in
    chunk (Run.with_elts k.run !elts)
      (Array.of_list (List.map fst marks))
      (Array.of_list (List.map snd marks))
      !dead

(* [chunks]' cells, in order, cut into chunks of the given [sizes] *)
let rechunk sizes chunks =
  let rec go out acc sizes chunks =
    match (sizes, acc, chunks) with
    | [], _, _ -> List.rev out
    | s :: rest, Some a, _ when Run.length a.run = s -> go (a :: out) None rest chunks
    | s :: _, _, k :: ks ->
      let need = s - match acc with None -> 0 | Some a -> Run.length a.run in
      let take, ks =
        if Run.length k.run <= need then (k, ks)
        else
          let a, b = split_at k need in
          (a, b :: ks)
      in
      go out (Some (match acc with None -> take | Some a -> concat a take)) sizes ks
    | _ :: _, _, [] -> assert false
  in
  go [] None sizes chunks

(* Each maximal run of adjacent chunks that are not full and whose cells
   fit in fewer chunks is repacked: full chunks, the last two sharing
   the rest when it is under half a chunk, so no chunk but a document's
   first holds fewer than [cap / 2] cells.  A full chunk is never
   touched, so the work is bounded by the runs.  Also returns whether
   any run was repacked. *)
let merge chunks =
  let sizes total =
    let c = (total + cap - 1) / cap in
    let r = total - (cap * (c - 1)) in
    if c = 1 then [ total ]
    else if 2 * r >= cap then List.init (c - 1) (fun _ -> cap) @ [ r ]
    else List.init (c - 2) (fun _ -> cap) @ [ (cap + r + 1) / 2; (cap + r) / 2 ]
  in
  let out = ref [] and run = ref [] and count = ref 0 and total = ref 0 and changed = ref false in
  let flush () =
    if !count >= 2 && (!total + cap - 1) / cap < !count then begin
      changed := true;
      out := List.rev_append (rechunk (sizes !total) (List.rev !run)) !out
    end
    else out := !run @ !out;
    run := [];
    count := 0;
    total := 0
  in
  List.iter
    (fun k ->
      let n = Run.length k.run in
      if n < cap then begin
        run := k :: !run;
        incr count;
        total := !total + n
      end
      else begin
        flush ();
        out := k :: !out
      end)
    chunks;
  flush ();
  (List.rev !out, !changed)

let collapse ~keep d =
  let ki = ref 0 and collapsed = ref false in
  let chunks, _ =
    T.fold_left
      (fun (acc, base) k ->
        let k' = collapse_chunk keep ki base k in
        if k' != k then collapsed := true;
        (k' :: acc, base + Run.length k.run))
      ([], 0) d.tree
  in
  let chunks, merged = merge (List.rev chunks) in
  if !collapsed || merged then { d with tree = T.of_list chunks } else d

let ins_visible ?pr d v elt = Op.ins ?pr (model_of_visible d v) elt

let visible_cell d v =
  let m = model_of_visible d v in
  if m >= model_length d then invalid_arg "Tdoc: no visible cell at this position";
  let c = cell d m in
  if c.hidden <> 0 then invalid_arg "Tdoc: no visible cell at this position";
  (m, c)

let del_visible d v =
  let m, c = visible_cell d v in
  Op.del m (content c)

let up_visible ?tag d v after =
  let m, c = visible_cell d v in
  Op.up ?tag m (content c) after

let equal_visible eq a b =
  let la = visible_list a and lb = visible_list b in
  List.length la = List.length lb && List.for_all2 eq la lb

let equal_cell eq a b =
  eq (content a) (content b)
  && a.hidden = b.hidden
  &&
  let norm c =
    List.sort (fun x y -> Op.compare_tag x.wtag y.wtag) c.writes
  in
  let wa = norm a and wb = norm b in
  List.length wa = List.length wb
  && List.for_all2
       (fun x y ->
         Op.compare_tag x.wtag y.wtag = 0 && eq x.value y.value
         && x.retracted = y.retracted)
       wa wb

let equal_cell_modulo_collapse eq a b =
  let agrees w =
    match List.find_opt (fun w' -> Op.compare_tag w.wtag w'.wtag = 0) b.writes with
    | None -> true
    | Some w' -> eq w.value w'.value && w.retracted = w'.retracted
  in
  eq (content a) (content b)
  && (a.hidden = 0) = (b.hidden = 0)
  && (a.hidden <= 1 || b.hidden <= 1 || a.hidden = b.hidden)
  && List.for_all agrees a.writes

let equal_modulo_collapse eq a b =
  model_length a = model_length b
  && List.for_all2 (equal_cell_modulo_collapse eq) (model_list a) (model_list b)

let equal_model eq a b =
  model_length a = model_length b
  &&
  let rec go = function
    | [], [] -> true
    | ca :: ra, cb :: rb -> equal_cell eq ca cb && go (ra, rb)
    | _ -> false
  in
  go (model_list a, model_list b)

let pp pp_elt ppf d =
  let pp_cell ppf c =
    if c.hidden = 0 then pp_elt ppf (content c)
    else Format.fprintf ppf "(%a/%d)" pp_elt (content c) c.hidden
  in
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) pp_cell)
    (model_list d)
