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
end

(* A chunk is a run of up to [cap] cells: every cell's element in
   [run], plus a sparse overlay holding the whole record of each
   touched cell (one with a write or a hide count), sorted by offset in
   [offs] and [cells].  An untouched cell is one byte of a packed run
   or one slot of an array run.  [vis] counts the visible cells.
   Nothing is written after the chunk holding it is built: documents
   share chunks across versions. *)
type 'e chunk = { run : 'e run; offs : int array; cells : 'e cell array; vis : int }

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

let touched c = c.writes <> [] || c.hidden <> 0

let chunk run offs cells =
  let vis =
    Array.fold_left (fun v c -> if c.hidden = 0 then v else v - 1) (Run.length run) cells
  in
  { run; offs; cells; vis }

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
  if marked k j off then k.cells.(j) else fresh_cell (Run.get k.run off)

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
  { run = Run.insert k.run off elt; offs; cells = k.cells; vis = k.vis + 1 }

(* the two halves of an overfull chunk *)
let split k =
  let n = Run.length k.run and m = Array.length k.offs in
  let h = n / 2 in
  let j = slot k h in
  ( chunk (Run.sub k.run 0 h) (Array.sub k.offs 0 j) (Array.sub k.cells 0 j),
    chunk (Run.sub k.run h (n - h))
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

let fold_touched f acc d =
  let acc, _ =
    T.fold_left
      (fun (acc, base) k ->
        let acc = ref acc in
        Array.iteri (fun j off -> acc := f !acc (base + off) k.cells.(j)) k.offs;
        (!acc, base + Run.length k.run))
      (acc, 0) d.tree
  in
  acc

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
          else acc := f !acc e)
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
    else acc := fresh_cell (Run.get k.run off) :: !acc
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
    if n = 0 then { d with tree = T.insert d.tree 0 (chunk (Run.insert d.blank 0 elt) [||] [||]) }
    else
      (* a position between two chunks goes to the later one; the end
         of the document to the last chunk *)
      let at = min pos (n - 1) in
      let k, off = T.find d.tree at in
      let off = off + pos - at in
      let k = insert_cell k off elt in
      if Run.length k.run <= cap then { d with tree = T.set d.tree at k }
      else
        let a, b = split k in
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
