let source : (unit -> float) option ref = ref None

let set_source s = source := s

let raw () = match !source with None -> Unix.gettimeofday () | Some f -> f ()

let last = ref 0

let now_ns () =
  let t = int_of_float (raw () *. 1e9) in
  let t = if t <= !last then !last + 1 else t in
  last := t;
  t

(* The ms clock is clamped to be non-decreasing rather than strictly
   increasing: callers compare deltas against timeouts, and a frozen
   clock (wall time stepped backwards) must read as "no time elapsed",
   not accumulate artificial microseconds. *)
let last_ms = ref neg_infinity

let now_ms () =
  let t = raw () *. 1000. in
  if t < !last_ms then !last_ms
  else begin
    last_ms := t;
    t
  end

let tick ~period_ms ~last now =
  if last = neg_infinity then Some now
  else if now -. last < period_ms then None
  else Some (last +. (period_ms *. Float.floor ((now -. last) /. period_ms)))
