open Op

(* Inclusion transformation in the tombstone model.  Only insertions
   shift positions: deletions hide cells in place, updates add tagged
   writes in place, and their undos retract in place.  Content conflicts
   are resolved by the cells themselves (hide counters, write tags), so
   no transformation case needs to produce Nop or rewrite elements —
   which is what makes the rule set satisfy TP1 and TP2 and keeps every
   operation retractable (see op.mli). *)

let shift_after_ins p ins_pos = if p < ins_pos then p else p + 1

(* [o]'s cell position mapped by [shift] against an insertion at
   [ins_pos]; [o] itself when the position does not move, so callers
   can tell an unchanged operation by physical equality *)
let reposition o shift ins_pos =
  match o with
  | Del d ->
    let pos = shift d.pos ins_pos in
    if pos = d.pos then o else Del { d with pos }
  | Undel d ->
    let pos = shift d.pos ins_pos in
    if pos = d.pos then o else Undel { d with pos }
  | Up u ->
    let pos = shift u.pos ins_pos in
    if pos = u.pos then o else Up { u with pos }
  | Unup u ->
    let pos = shift u.pos ins_pos in
    if pos = u.pos then o else Unup { u with pos }
  | Ins _ | Nop -> assert false

let it o1 o2 =
  match o1, o2 with
  | Nop, _ -> Nop
  | o1, Nop -> o1
  | Ins i1, Ins i2 ->
    if i1.pos < i2.pos then o1
    else if i1.pos > i2.pos then Ins { i1 with pos = i1.pos + 1 }
    else if i1.pr > i2.pr then Ins { i1 with pos = i1.pos + 1 }
    else o1
  | Ins _, (Del _ | Undel _ | Up _ | Unup _) -> o1
  | (Del _ | Undel _ | Up _ | Unup _), Ins i2 -> reposition o1 shift_after_ins i2.pos
  | (Del _ | Undel _ | Up _ | Unup _), (Del _ | Undel _ | Up _ | Unup _) -> o1

(* Exclusion transformation: [et o1 o2] rewrites [o1] — defined on a state
   that includes [o2]'s effect — as if [o2] had never executed.  Inverts
   [it] on every reachable pair. *)
let unshift_after_ins p ins_pos = if p <= ins_pos then p else p - 1

let et o1 o2 =
  match o1, o2 with
  | Nop, _ -> Nop
  | o1, Nop -> o1
  | Ins i1, Ins i2 -> if i1.pos <= i2.pos then o1 else Ins { i1 with pos = i1.pos - 1 }
  | Ins _, (Del _ | Undel _ | Up _ | Unup _) -> o1
  | (Del _ | Undel _ | Up _ | Unup _), Ins i2 -> reposition o1 unshift_after_ins i2.pos
  | (Del _ | Undel _ | Up _ | Unup _), (Del _ | Undel _ | Up _ | Unup _) -> o1

let it_list o ops = List.fold_left it o ops
