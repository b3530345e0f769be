(* Map-based reference vector clock: the representation [Dce_ot.Vclock]
   had before it became a sorted unboxed array.  Kept in the test tree
   as the differential oracle the array clock is checked against, as
   [Tdoc_ref] and [Oplog_ref] are for theirs. *)

type site = int

module M = Map.Make (Int)

type t = int M.t

let empty = M.empty

let get c s = match M.find_opt s c with Some n -> n | None -> 0

let tick c s = M.add s (get c s + 1) c

let merge a b = M.union (fun _ x y -> Some (max x y)) a b

let meet a b =
  M.merge
    (fun _ x y -> match x, y with Some x, Some y -> Some (min x y) | _ -> None)
    a b

let leq a b = M.for_all (fun s n -> n <= get b s) a

let equal a b = leq a b && leq b a

let concurrent a b = (not (leq a b)) && not (leq b a)

let dominates_event c ~site ~count = get c site >= count

let sum c = M.fold (fun _ n acc -> acc + n) c 0

let to_list c = M.bindings c

let of_list l = List.fold_left (fun acc (s, n) -> M.add s n acc) M.empty l
