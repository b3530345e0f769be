(* Order statistics over float samples. *)

(* Linear interpolation between closest ranks (numpy's default); [nan]
   on an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = truncate r in
    let frac = r -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile xs 50.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the "exclusive" method), so spreads printed here match the ones a
   reader recomputes from the same values. *)
let quartiles xs =
  let n = Array.length xs in
  if n < 2 then
    let m = median xs in
    (m, m, m)
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let q k =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (k * m / 4)) in
      let delta = (k * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

(* A growable float sample. *)
type sample = { mutable xs : float array; mutable len : int }

let sample () = { xs = Array.make 64 0.; len = 0 }

let add s x =
  if s.len = Array.length s.xs then begin
    let a = Array.make (2 * s.len) 0. in
    Array.blit s.xs 0 a 0 s.len;
    s.xs <- a
  end;
  s.xs.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.xs 0 s.len
let count s = s.len
