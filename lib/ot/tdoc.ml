type 'e write = { wtag : Op.tag; value : 'e; retracted : int }

type 'e cell = { elt : 'e; writes : 'e write list; hidden : int }

(* A chunk is a run of up to [cap] cells: every cell's element in
   [elts], plus a sparse overlay holding the whole record of each
   touched cell (one with a write or a hide count), sorted by offset in
   [offs] and [cells].  An untouched cell is one array slot.  [vis]
   counts the visible cells.  No array is written after the chunk
   holding it is built: documents share chunks across versions. *)
type 'e chunk = { elts : 'e array; offs : int array; cells : 'e cell array; vis : int }

let cap = 64

(* A stat tree of chunks, each as large as its cell count and weighed by
   its visible cells: tree positions are model positions, the cached
   weight is the visible length, and select/rank descend to a chunk and
   finish the visible<->model translation inside it. *)
module T = Stree.Make (struct
  type 'e t = 'e chunk

  let size k = Array.length k.elts
  let weight k = k.vis
end)

type 'e t = 'e T.t

let fresh_cell elt = { elt; writes = []; hidden = 0 }

let touched c = c.writes <> [] || c.hidden <> 0

let chunk elts offs cells =
  let vis =
    Array.fold_left (fun v c -> if c.hidden = 0 then v else v - 1) (Array.length elts) cells
  in
  { elts; offs; cells; vis }

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
  if marked k j off then k.cells.(j) else fresh_cell k.elts.(off)

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

let vis_of c = if c.hidden = 0 then 1 else 0

(* [k] with the cell at [off] replaced by [c], which has the same element *)
let set_cell k off c =
  let j = slot k off in
  let was = marked k j off in
  let vis = k.vis - (if was then vis_of k.cells.(j) else 1) + vis_of c in
  match (was, touched c) with
  | true, true -> { k with cells = replace_at k.cells j c; vis }
  | true, false -> { k with offs = remove_at k.offs j; cells = remove_at k.cells j; vis }
  | false, true -> { k with offs = insert_at k.offs j off; cells = insert_at k.cells j c; vis }
  | false, false -> k

(* [k] with a fresh cell inserted at [off] *)
let insert_cell k off elt =
  let j = slot k off in
  let offs = Array.copy k.offs in
  for i = j to Array.length offs - 1 do
    offs.(i) <- offs.(i) + 1
  done;
  { elts = insert_at k.elts off elt; offs; cells = k.cells; vis = k.vis + 1 }

(* the two halves of an overfull chunk *)
let split k =
  let n = Array.length k.elts and m = Array.length k.offs in
  let h = n / 2 in
  let j = slot k h in
  ( chunk (Array.sub k.elts 0 h) (Array.sub k.offs 0 j) (Array.sub k.cells 0 j),
    chunk (Array.sub k.elts h (n - h))
      (Array.init (m - j) (fun i -> k.offs.(j + i) - h))
      (Array.sub k.cells j (m - j)) )

(* offset of the [v]-th visible cell of [k]: each hidden cell at or
   before the candidate pushes it one further *)
let select_in k v =
  let rec go j off =
    if j = Array.length k.offs || k.offs.(j) > off then off
    else go (j + 1) (if k.cells.(j).hidden <> 0 then off + 1 else off)
  in
  go 0 v

(* visible cells of [k] before offset [off] *)
let rank_in k off =
  let rec go j r =
    if j = Array.length k.offs || k.offs.(j) >= off then r
    else go (j + 1) (if k.cells.(j).hidden <> 0 then r - 1 else r)
  in
  go 0 off

(* [n] cells in full chunks: [elt i] is cell [i]'s element, and
   [touched] the touched cells' (model position, record) pairs in
   position order *)
let pack n elt touched =
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
        (Array.init (min cap (n - lo)) (fun i -> elt (lo + i)))
        (Array.init marks (fun i -> fst touched.(first + i) - lo))
        (Array.init marks (fun i -> snd touched.(first + i)))
      :: !chunks
  done;
  T.of_list !chunks

let empty = T.empty

let of_list l =
  let a = Array.of_list l in
  pack (Array.length a) (Array.get a) [||]

let of_string s = pack (String.length s) (String.get s) [||]

let of_cells cells =
  let a = Array.of_list cells in
  let marks = ref [] in
  for i = Array.length a - 1 downto 0 do
    if touched a.(i) then marks := (i, a.(i)) :: !marks
  done;
  pack (Array.length a) (fun i -> a.(i).elt) (Array.of_list !marks)

let of_overlay elts overlay =
  let n = Array.length elts in
  let rec marks prev acc = function
    | [] -> Ok (pack n (Array.get elts) (Array.of_list (List.rev acc)))
    | (pos, writes, hidden) :: rest ->
      if pos < 0 || pos >= n then Error "overlay position out of range"
      else if pos <= prev then Error "overlay position out of order"
      else
        let c = { elt = elts.(pos); writes; hidden } in
        if touched c then marks pos ((pos, c) :: acc) rest
        else Error "overlay entry names an untouched cell"
  in
  marks (-1) [] overlay

let iter_elts f d = T.fold_left (fun () k -> Array.iter f k.elts) () d

let fold_touched f acc d =
  let acc, _ =
    T.fold_left
      (fun (acc, base) k ->
        let acc = ref acc in
        Array.iteri (fun j off -> acc := f !acc (base + off) k.cells.(j)) k.offs;
        (!acc, base + Array.length k.elts))
      (acc, 0) d
  in
  acc

let model_length = T.length

let visible_length = T.weight

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
  let k, off = T.find d i in
  cell_at k off

(* visible cells live in chunks of nonzero weight, so both projections
   skip fully hidden chunks and subtrees *)
let fold_visible f acc d =
  T.fold_nonzero
    (fun acc k ->
      let acc = ref acc and j = ref 0 in
      Array.iteri
        (fun off e ->
          if marked k !j off then begin
            let c = k.cells.(!j) in
            incr j;
            if c.hidden = 0 then acc := f !acc (content c)
          end
          else acc := f !acc e)
        k.elts;
      !acc)
    acc d

let visible_list d = List.rev (fold_visible (fun acc e -> e :: acc) [] d)

let visible_string d =
  let b = Buffer.create (T.weight d) in
  fold_visible (fun () -> Buffer.add_char b) () d;
  Buffer.contents b

(* [k]'s cells consed onto [acc], walking right to left, so the whole
   list is built without a reversal *)
let cells_onto k acc =
  let acc = ref acc and j = ref (Array.length k.offs - 1) in
  for off = Array.length k.elts - 1 downto 0 do
    if !j >= 0 && k.offs.(!j) = off then begin
      acc := k.cells.(!j) :: !acc;
      decr j
    end
    else acc := fresh_cell k.elts.(off) :: !acc
  done;
  !acc

let model_list d =
  List.fold_left (fun acc k -> cells_onto k acc) [] (T.fold_left (fun ks k -> k :: ks) [] d)

let model_of_visible d v =
  if v < 0 then invalid_arg "Tdoc.model_of_visible: negative position";
  let vl = visible_length d in
  if v < vl then T.select d v select_in
  else if v = vl then model_length d
  else invalid_arg "Tdoc.model_of_visible: beyond visible length"

let visible_of_model d m =
  if m < 0 then invalid_arg "Tdoc.visible_of_model: negative position";
  T.rank d (min m (model_length d)) rank_in

let conflict fmt = Format.kasprintf (fun s -> raise (Document.Edit_conflict s)) fmt

let check_history ~eq ~what ~pos c expected =
  if not (List.exists (eq expected) (history c)) then
    conflict "%s at model position %d: element never present in the cell" what pos

let apply ?(eq = ( = )) d op =
  let n = T.length d in
  let in_range what pos =
    if pos < 0 || pos >= n then
      invalid_arg (Printf.sprintf "Tdoc.apply: %s position %d out of range" what pos)
  in
  (* the cell at [pos] replaced by [f] of it, in one descent *)
  let with_cell pos f = T.update d pos (fun k off -> set_cell k off (f (cell_at k off))) in
  match op with
  | Op.Nop -> d
  | Op.Ins { pos; elt; _ } ->
    if pos < 0 || pos > n then invalid_arg "Tdoc.apply: Ins position out of range";
    if n = 0 then T.insert d 0 (chunk [| elt |] [||] [||])
    else
      (* a position between two chunks goes to the later one; the end
         of the document to the last chunk *)
      let at = min pos (n - 1) in
      let k, off = T.find d at in
      let off = off + pos - at in
      let k = insert_cell k off elt in
      if Array.length k.elts <= cap then T.set d at k
      else
        let a, b = split k in
        T.insert (T.set d at a) (pos - off + Array.length a.elts) b
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

let ins_visible ?pr d v elt = Op.ins ?pr (model_of_visible d v) elt

let visible_cell d v =
  let m = model_of_visible d v in
  if m >= T.length d then invalid_arg "Tdoc: no visible cell at this position";
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

let equal_model eq a b =
  T.length a = T.length b
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
