(* Height-balanced (AVL, stdlib-Map style) tree over a sequence indexed
   by position.  Each node caches the subtree height, size and weight
   (summed measure); rebalancing happens only on insertion, which
   changes a subtree height by at most one, so the two single/double
   rotation cases of [bal] suffice. *)

type 'a t =
  | Leaf
  | Node of { l : 'a t; v : 'a; r : 'a t; h : int; n : int; w : int }

let empty = Leaf

let is_empty = function Leaf -> true | Node _ -> false

let height = function Leaf -> 0 | Node { h; _ } -> h

let length = function Leaf -> 0 | Node { n; _ } -> n

let weight = function Leaf -> 0 | Node { w; _ } -> w

let mk ~measure l v r =
  Node
    {
      l;
      v;
      r;
      h = 1 + max (height l) (height r);
      n = length l + 1 + length r;
      w = weight l + measure v + weight r;
    }

(* Precondition (as in stdlib Map): [l] and [r] are balanced and their
   heights differ by at most 3. *)
let bal ~measure l v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Leaf -> assert false
    | Node { l = ll; v = lv; r = lr; _ } ->
      if height ll >= height lr then mk ~measure ll lv (mk ~measure lr v r)
      else (
        match lr with
        | Leaf -> assert false
        | Node { l = lrl; v = lrv; r = lrr; _ } ->
          mk ~measure (mk ~measure ll lv lrl) lrv (mk ~measure lrr v r))
  else if hr > hl + 2 then
    match r with
    | Leaf -> assert false
    | Node { l = rl; v = rv; r = rr; _ } ->
      if height rr >= height rl then mk ~measure (mk ~measure l v rl) rv rr
      else (
        match rl with
        | Leaf -> assert false
        | Node { l = rll; v = rlv; r = rlr; _ } ->
          mk ~measure (mk ~measure l v rll) rlv (mk ~measure rlr rv rr))
  else mk ~measure l v r

let get t i =
  if i < 0 || i >= length t then invalid_arg "Stree.get: index out of range";
  let rec go t i =
    match t with
    | Leaf -> assert false
    | Node { l; v; r; _ } ->
      let nl = length l in
      if i < nl then go l i else if i = nl then v else go r (i - nl - 1)
  in
  go t i

let update ~measure t i f =
  if i < 0 || i >= length t then invalid_arg "Stree.update: index out of range";
  let rec go t i =
    match t with
    | Leaf -> assert false
    | Node { l; v; r; _ } ->
      let nl = length l in
      if i < nl then mk ~measure (go l i) v r
      else if i = nl then mk ~measure l (f v) r
      else mk ~measure l v (go r (i - nl - 1))
  in
  go t i

let set ~measure t i x = update ~measure t i (fun _ -> x)

let set_range ~measure t ~pos arr =
  let len = Array.length arr in
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Stree.set_range: range out of bounds";
  if len = 0 then t
  else
    (* [lo] = global index of the first element of the subtree at hand.
       Subtrees disjoint from [pos, pos + len) are shared unchanged; the
       shape never changes, so no rebalancing is needed. *)
    let rec go t lo =
      match t with
      | Leaf -> t
      | Node { l; v; r; _ } ->
        if lo + length t <= pos || lo >= pos + len then t
        else
          let i = lo + length l in
          let l' = go l lo in
          let v' = if i >= pos && i < pos + len then arr.(i - pos) else v in
          let r' = go r (i + 1) in
          mk ~measure l' v' r'
    in
    go t 0

let insert ~measure t i x =
  if i < 0 || i > length t then invalid_arg "Stree.insert: index out of range";
  let rec go t i =
    match t with
    | Leaf -> mk ~measure Leaf x Leaf
    | Node { l; v; r; _ } ->
      let nl = length l in
      if i <= nl then bal ~measure (go l i) v r
      else bal ~measure l v (go r (i - nl - 1))
  in
  go t i

let append ~measure t x = insert ~measure t (length t) x

let select t k =
  if k < 0 || k >= weight t then invalid_arg "Stree.select: weight out of range";
  let rec go t k acc =
    match t with
    | Leaf -> assert false
    | Node { l; v = _; r; w; _ } ->
      let wl = weight l in
      if k < wl then go l k acc
      else
        let k = k - wl in
        let wv = w - wl - weight r in
        if k < wv then acc + length l else go r (k - wv) (acc + length l + 1)
  in
  go t k 0

let rank t i =
  if i < 0 || i > length t then invalid_arg "Stree.rank: index out of range";
  let rec go t i =
    match t with
    | Leaf -> 0
    | Node { l; v = _; r; w; _ } ->
      let nl = length l in
      if i <= nl then go l i
      else
        let wv = w - weight l - weight r in
        weight l + wv + go r (i - nl - 1)
  in
  go t i

let rec iter f = function
  | Leaf -> ()
  | Node { l; v; r; _ } ->
    iter f l;
    f v;
    iter f r

let rec fold_left f acc = function
  | Leaf -> acc
  | Node { l; v; r; _ } -> fold_left f (f (fold_left f acc l) v) r

let fold_range f acc t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length t then
    invalid_arg "Stree.fold_range: range out of bounds";
  (* indices [lo, hi) relative to the subtree at hand *)
  let rec go t lo hi acc =
    if lo >= hi then acc
    else
      match t with
      | Leaf -> acc
      | Node { l; v; r; _ } ->
        let nl = length l in
        let acc = if lo < min hi nl then go l lo (min hi nl) acc else acc in
        let acc = if lo <= nl && nl < hi then f acc v else acc in
        if hi > nl + 1 then go r (max 0 (lo - nl - 1)) (hi - nl - 1) acc else acc
  in
  go t pos (pos + len) acc

let rec fold_nonzero f acc = function
  | Leaf -> acc
  | Node { l; v; r; w; _ } ->
    if w = 0 then acc
    else
      let acc = fold_nonzero f acc l in
      let acc = if w - weight l - weight r <> 0 then f acc v else acc in
      fold_nonzero f acc r

let prefix_length p t =
  let count = ref 0 in
  (try iter (fun x -> if p x then incr count else raise Exit) t with Exit -> ());
  !count

let suffix_length p t =
  let count = ref 0 in
  let rec go = function
    | Leaf -> ()
    | Node { l; v; r; _ } ->
      go r;
      if p v then incr count else raise Exit;
      go l
  in
  (try go t with Exit -> ());
  !count

let to_list t = List.rev (fold_left (fun acc x -> x :: acc) [] t)

let of_list ~measure l =
  let a = Array.of_list l in
  let rec build lo hi =
    if lo >= hi then Leaf
    else
      let mid = (lo + hi) / 2 in
      mk ~measure (build lo mid) a.(mid) (build (mid + 1) hi)
  in
  build 0 (Array.length a)
