(* Height-balanced (AVL, stdlib-Map style) tree over a sequence of
   elements, each spanning [E.size] consecutive positions.  Each node
   caches the subtree height, size (positions spanned) and weight
   (summed measure); a node's own element's size and weight are read off
   those caches ([n - length l - length r]), so descents never call back
   into [E].  Rebalancing happens only on insertion, which changes a
   subtree height by at most one, so the two single/double rotation
   cases of [bal] suffice. *)

module type ELT = sig
  type 'a t

  val size : 'a t -> int
  val weight : 'a t -> int
end

module Make (E : ELT) = struct
  type 'a elt = 'a E.t

  type 'a t =
    | Leaf
    | Node of { l : 'a t; v : 'a E.t; r : 'a t; h : int; n : int; w : int }

  let empty = Leaf

  let height = function Leaf -> 0 | Node { h; _ } -> h

  let length = function Leaf -> 0 | Node { n; _ } -> n

  let weight = function Leaf -> 0 | Node { w; _ } -> w

  let mk l v r =
    Node
      {
        l;
        v;
        r;
        h = 1 + max (height l) (height r);
        n = length l + E.size v + length r;
        w = weight l + E.weight v + weight r;
      }

  (* Precondition (as in stdlib Map): [l] and [r] are balanced and their
     heights differ by at most 3. *)
  let bal l v r =
    let hl = height l and hr = height r in
    if hl > hr + 2 then
      match l with
      | Leaf -> assert false
      | Node { l = ll; v = lv; r = lr; _ } ->
        if height ll >= height lr then mk ll lv (mk lr v r)
        else (
          match lr with
          | Leaf -> assert false
          | Node { l = lrl; v = lrv; r = lrr; _ } -> mk (mk ll lv lrl) lrv (mk lrr v r))
    else if hr > hl + 2 then
      match r with
      | Leaf -> assert false
      | Node { l = rl; v = rv; r = rr; _ } ->
        if height rr >= height rl then mk (mk l v rl) rv rr
        else (
          match rl with
          | Leaf -> assert false
          | Node { l = rll; v = rlv; r = rlr; _ } -> mk (mk l v rll) rlv (mk rlr rv rr))
    else mk l v r

  let find t i =
    if i < 0 || i >= length t then invalid_arg "Stree.find: position out of range";
    let rec go t i =
      match t with
      | Leaf -> assert false
      | Node { l; v; r; n; _ } ->
        let nl = length l in
        let sv = n - nl - length r in
        if i < nl then go l i else if i < nl + sv then (v, i - nl) else go r (i - nl - sv)
    in
    go t i

  let get t i = fst (find t i)

  let update t i f =
    if i < 0 || i >= length t then invalid_arg "Stree.update: position out of range";
    let rec go t i =
      match t with
      | Leaf -> assert false
      | Node { l; v; r; n; _ } ->
        let nl = length l in
        let sv = n - nl - length r in
        if i < nl then mk (go l i) v r
        else if i < nl + sv then mk l (f v (i - nl)) r
        else mk l v (go r (i - nl - sv))
    in
    go t i

  let set t i x = update t i (fun _ _ -> x)

  let set_range t ~pos arr =
    let len = Array.fold_left (fun s x -> s + E.size x) 0 arr in
    if pos < 0 || pos + len > length t then
      invalid_arg "Stree.set_range: range out of bounds";
    if len = 0 then t
    else
      (* [lo] = start position of the subtree at hand; [next] = the next
         replacement, consumed in order.  Subtrees disjoint from
         [pos, pos + len) are shared unchanged; the shape never changes,
         so no rebalancing is needed. *)
      let next = ref 0 in
      let rec go t lo =
        match t with
        | Leaf -> t
        | Node { l; v; r; n; _ } ->
          if lo + n <= pos || lo >= pos + len then t
          else
            let l' = go l lo in
            let i = lo + length l in
            let v' =
              if i >= pos && i < pos + len then begin
                let x = arr.(!next) in
                incr next;
                x
              end
              else v
            in
            let r' = go r (lo + n - length r) in
            mk l' v' r'
      in
      go t 0

  let insert t i x =
    if i < 0 || i > length t then invalid_arg "Stree.insert: position out of range";
    let rec go t i =
      match t with
      | Leaf -> mk Leaf x Leaf
      | Node { l; v; r; n; _ } ->
        let nl = length l in
        let sv = n - nl - length r in
        if i <= nl then bal (go l i) v r
        else if i >= nl + sv then bal l v (go r (i - nl - sv))
        else invalid_arg "Stree.insert: position inside an element"
    in
    go t i

  let append t x = insert t (length t) x

  let select t k part =
    if k < 0 || k >= weight t then invalid_arg "Stree.select: weight out of range";
    let rec go t k pos =
      match t with
      | Leaf -> assert false
      | Node { l; v; r; n; w; _ } ->
        let wl = weight l in
        if k < wl then go l k pos
        else
          let k = k - wl in
          let wv = w - wl - weight r in
          let nl = length l in
          if k < wv then pos + nl + part v k
          else go r (k - wv) (pos + n - length r)
    in
    go t k 0

  let rank t i part =
    if i < 0 || i > length t then invalid_arg "Stree.rank: position out of range";
    let rec go t i =
      match t with
      | Leaf -> 0
      | Node { l; v; r; n; w; _ } ->
        let nl = length l in
        let sv = n - nl - length r in
        if i < nl then go l i
        else if i < nl + sv then weight l + part v (i - nl)
        else w - weight r + go r (i - nl - sv)
    in
    go t i

  let rec fold_left f acc = function
    | Leaf -> acc
    | Node { l; v; r; _ } -> fold_left f (f (fold_left f acc l) v) r

  let fold_range f acc t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > length t then
      invalid_arg "Stree.fold_range: range out of bounds";
    (* positions [lo, hi) relative to the subtree at hand *)
    let rec go t lo hi acc =
      if lo >= hi then acc
      else
        match t with
        | Leaf -> acc
        | Node { l; v; r; n; _ } ->
          let nl = length l in
          let nv = n - length r in
          let acc = if lo < nl then go l lo (min hi nl) acc else acc in
          let acc = if lo < nv && nl < hi then f acc v else acc in
          if hi > nv then go r (max 0 (lo - nv)) (hi - nv) acc else acc
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
    let rec go = function
      | Leaf -> ()
      | Node { l; v; r; n; _ } ->
        go l;
        if p v then count := !count + n - length l - length r else raise Exit;
        go r
    in
    (try go t with Exit -> ());
    !count

  let suffix_length p t =
    let count = ref 0 in
    let rec go = function
      | Leaf -> ()
      | Node { l; v; r; n; _ } ->
        go r;
        if p v then count := !count + n - length l - length r else raise Exit;
        go l
    in
    (try go t with Exit -> ());
    !count

  let to_list t = List.rev (fold_left (fun acc x -> x :: acc) [] t)

  let of_list l =
    let a = Array.of_list l in
    let rec build lo hi =
      if lo >= hi then Leaf
      else
        let mid = (lo + hi) / 2 in
        mk (build lo mid) a.(mid) (build (mid + 1) hi)
    in
    build 0 (Array.length a)
end
