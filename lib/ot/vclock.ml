type site = int

(* [| s0; n0; s1; n1; ... |]: each site's count after it, sites strictly
   ascending.  An int array is unboxed, so a clock of k sites is 2k + 1
   words, and it is never written once built. *)
type t = int array

let empty = [||]

let sites (c : t) = Array.length c / 2

(* The binding index of [s] among bindings [lo, hi) of [c], or [-1 - i]
   where [i] is the index it would take.  Top-level and over ints only,
   so a lookup allocates nothing; the annotations keep its reads and
   comparisons on ints, not the polymorphic primitives. *)
let rec search (c : t) (s : site) lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let m = c.(2 * mid) in
    if m = s then mid else if m < s then search c s (mid + 1) hi else search c s lo mid

let get (c : t) s =
  let i = search c s 0 (sites c) in
  if i < 0 then 0 else c.((2 * i) + 1)

(* The pointwise combination of [a] and [b] by [f], over the sites of
   either ([union]) or of both: one ordered walk into a buffer wide
   enough for both, trimmed to what it holds. *)
let combine ~union f (a : t) (b : t) =
  let na = sites a and nb = sites b in
  let r = Array.make (2 * (na + nb)) 0 in
  let put k s n =
    r.(2 * k) <- s;
    r.((2 * k) + 1) <- n;
    k + 1
  in
  let rec fill i j k =
    if i < na && j < nb && a.(2 * i) = b.(2 * j) then
      fill (i + 1) (j + 1) (put k a.(2 * i) (f a.((2 * i) + 1) b.((2 * j) + 1)))
    else if i < na && (j = nb || a.(2 * i) < b.(2 * j)) then
      fill (i + 1) j (if union then put k a.(2 * i) a.((2 * i) + 1) else k)
    else if j < nb then fill i (j + 1) (if union then put k b.(2 * j) b.((2 * j) + 1) else k)
    else k
  in
  Array.sub r 0 (2 * fill 0 0 0)

let merge a b = combine ~union:true Int.max a b

let meet a b = combine ~union:false Int.min a b

let tick c s = merge c [| s; get c s + 1 |]

(* every binding of [a] from the [i]-th on is covered by [b] from the
   [j]-th on; top-level, so a comparison allocates nothing either *)
let rec leq_from (a : t) (b : t) i j =
  i = sites a
  ||
  let s = a.(2 * i) and n = a.((2 * i) + 1) in
  if j = sites b || b.(2 * j) > s then n <= 0 && leq_from a b (i + 1) j
  else if b.(2 * j) < s then leq_from a b i (j + 1)
  else n <= b.((2 * j) + 1) && leq_from a b (i + 1) (j + 1)

let leq a b = leq_from a b 0 0

let equal a b = leq a b && leq b a

let concurrent a b = (not (leq a b)) && not (leq b a)

let dominates_event c ~site ~count = get c site >= count

let sum (c : t) =
  let acc = ref 0 in
  for i = 0 to sites c - 1 do
    acc := !acc + c.((2 * i) + 1)
  done;
  !acc

let to_list (c : t) = List.init (sites c) (fun i -> (c.(2 * i), c.((2 * i) + 1)))

(* sorted by site, a site's last binding winning *)
let of_list l =
  let rec last_wins = function
    | ((a : site), _) :: ((b, _) :: _ as rest) when a = b -> last_wins rest
    | x :: rest -> x :: last_wins rest
    | [] -> []
  in
  let l = last_wins (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) l) in
  let c = Array.make (2 * List.length l) 0 in
  List.iteri
    (fun i (s, n) ->
      c.(2 * i) <- s;
      c.((2 * i) + 1) <- n)
    l;
  c

let pp ppf c =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (s, n) -> Format.fprintf ppf "%d:%d" s n))
    (to_list c)
