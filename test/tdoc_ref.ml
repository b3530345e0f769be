(* Array-based reference tombstone document: the pre-stat-tree
   representation (flat ['e cell array], O(n) apply and coordinate
   scans), kept in the test tree as a differential-testing oracle for
   [Dce_ot.Tdoc] and as the before-side baseline of the core bench.
   Operates on the public [Tdoc.cell] records so states can be compared
   and converted directly. *)

open Dce_ot

type 'e t = 'e Tdoc.cell array

let fresh_cell elt = { Tdoc.elt; writes = []; hidden = 0 }

let of_list l = Array.of_list (List.map fresh_cell l)

let of_string s = of_list (List.init (String.length s) (String.get s))

let of_cells cells = Array.of_list cells

let model_length = Array.length

let content = Tdoc.content

let history (c : _ Tdoc.cell) =
  c.Tdoc.elt :: List.map (fun w -> w.Tdoc.value) c.Tdoc.writes

let visible_length d =
  Array.fold_left (fun n (c : _ Tdoc.cell) -> if c.Tdoc.hidden = 0 then n + 1 else n) 0 d

let cell (d : 'e t) i = d.(i)

let visible_list d =
  Array.fold_right
    (fun (c : _ Tdoc.cell) acc -> if c.Tdoc.hidden = 0 then content c :: acc else acc)
    d []

let visible_string d =
  let b = Buffer.create (Array.length d) in
  Array.iter
    (fun (c : _ Tdoc.cell) -> if c.Tdoc.hidden = 0 then Buffer.add_char b (content c))
    d;
  Buffer.contents b

let model_list = Array.to_list

let to_tdoc d = Tdoc.of_cells (model_list d)

let of_tdoc d = of_cells (Tdoc.model_list d)

let model_of_visible (d : 'e t) v =
  if v < 0 then invalid_arg "Tdoc_ref.model_of_visible: negative position";
  let n = Array.length d in
  let rec go i seen =
    if seen = v && (i >= n || d.(i).Tdoc.hidden = 0) then i
    else if i >= n then invalid_arg "Tdoc_ref.model_of_visible: beyond visible length"
    else go (i + 1) (if d.(i).Tdoc.hidden = 0 then seen + 1 else seen)
  in
  go 0 0

let visible_of_model (d : 'e t) m =
  if m < 0 then invalid_arg "Tdoc_ref.visible_of_model: negative position";
  let m = min m (Array.length d) in
  let count = ref 0 in
  for i = 0 to m - 1 do
    if d.(i).Tdoc.hidden = 0 then incr count
  done;
  !count

let conflict fmt = Format.kasprintf (fun s -> raise (Document.Edit_conflict s)) fmt

let check_history ~eq ~what ~pos c expected =
  if not (List.exists (eq expected) (history c)) then
    conflict "%s at model position %d: element never present in the cell" what pos

let apply ?(eq = ( = )) (d : 'e t) op =
  let n = Array.length d in
  let in_range what pos =
    if pos < 0 || pos >= n then
      invalid_arg (Printf.sprintf "Tdoc_ref.apply: %s position %d out of range" what pos)
  in
  let update_cell pos f =
    let d' = Array.copy d in
    d'.(pos) <- f d.(pos);
    d'
  in
  match op with
  | Op.Nop -> d
  | Op.Ins { pos; elt; _ } ->
    if pos < 0 || pos > n then invalid_arg "Tdoc_ref.apply: Ins position out of range";
    Array.init (n + 1) (fun i ->
        if i < pos then d.(i) else if i = pos then fresh_cell elt else d.(i - 1))
  | Op.Del { pos; elt } ->
    in_range "Del" pos;
    check_history ~eq ~what:"Del" ~pos d.(pos) elt;
    update_cell pos (fun c -> { c with Tdoc.hidden = c.Tdoc.hidden + 1 })
  | Op.Undel { pos; elt } ->
    in_range "Undel" pos;
    check_history ~eq ~what:"Undel" ~pos d.(pos) elt;
    if d.(pos).Tdoc.hidden = 0 then invalid_arg "Tdoc_ref.apply: Undel of a visible cell";
    update_cell pos (fun c -> { c with Tdoc.hidden = c.Tdoc.hidden - 1 })
  | Op.Up { pos; before; after; tag } ->
    in_range "Up" pos;
    check_history ~eq ~what:"Up" ~pos d.(pos) before;
    if
      List.exists (fun w -> Op.compare_tag w.Tdoc.wtag tag = 0) d.(pos).Tdoc.writes
    then conflict "Up at model position %d: duplicate write tag" pos;
    update_cell pos (fun c ->
        {
          c with
          Tdoc.writes =
            { Tdoc.wtag = tag; value = after; retracted = 0 } :: c.Tdoc.writes;
        })
  | Op.Unup { pos; tag; _ } ->
    in_range "Unup" pos;
    if
      not
        (List.exists (fun w -> Op.compare_tag w.Tdoc.wtag tag = 0) d.(pos).Tdoc.writes)
    then conflict "Unup at model position %d: unknown write tag" pos;
    update_cell pos (fun c ->
        {
          c with
          Tdoc.writes =
            List.map
              (fun w ->
                if Op.compare_tag w.Tdoc.wtag tag = 0 then
                  { w with Tdoc.retracted = w.Tdoc.retracted + 1 }
                else w)
              c.Tdoc.writes;
        })

let apply_all ?eq d ops = List.fold_left (fun d o -> apply ?eq d o) d ops

let ins_visible ?pr d v elt = Op.ins ?pr (model_of_visible d v) elt

let visible_cell_pos (d : 'e t) v =
  let m = model_of_visible d v in
  if m >= Array.length d || d.(m).Tdoc.hidden <> 0 then
    invalid_arg "Tdoc_ref: no visible cell at this position";
  m

let del_visible (d : 'e t) v =
  let m = visible_cell_pos d v in
  Op.del m (content d.(m))

let up_visible ?tag (d : 'e t) v after =
  let m = visible_cell_pos d v in
  Op.up ?tag m (content d.(m)) after

(* Every touched cell whose position is not in [keep] (sorted) takes its
   content as its element and loses its writes; a hidden one keeps one
   hide.  The cell-by-cell statement of [Tdoc.collapse]. *)
let collapse ~keep (d : 'e t) =
  Array.mapi
    (fun i (c : _ Tdoc.cell) ->
      if (c.Tdoc.writes = [] && c.Tdoc.hidden = 0) || Array.mem i keep then c
      else { Tdoc.elt = content c; writes = []; hidden = min c.Tdoc.hidden 1 })
    d
