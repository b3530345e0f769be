(* Outside-in layer timing.

   The harness wraps every call it makes into a layer's public function
   in [span t name f].  With timing off, [span] is one branch and the
   call itself.  With timing on it records the call's duration in the
   layer's series and, when spans are kept, a span record (layer, site,
   request id, start, end, parent) for the offline breakdown.

   A layer's self time is its span's duration minus the part covered by
   child spans; shares divide self time accumulated while [window] is set
   by the window's wall time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Which request a span served: a cooperative request [site:serial], an
   administrative version [admin:v], or none (loop-level calls). *)
type req = No_req | Coop of int * int | Adm of int

let req_to_string = function
  | No_req -> ""
  | Coop (s, n) -> Printf.sprintf "%d:%d" s n
  | Adm v -> Printf.sprintf "admin:%d" v

type series = {
  mutable durs : int array; (* ns, first [n] valid *)
  mutable n : int;
  mutable self_ns : int; (* accumulated while [window] is set *)
}

type span = {
  name : string;
  site : int;
  req : req;
  t0 : int;
  t1 : int;
  parent : int; (* index into the span list, -1 for a root *)
}

type frame = { f_index : int; mutable child_ns : int }

type t = {
  on : bool;
  keep : bool;
  series : (string, series) Hashtbl.t;
  mutable spans : span array;
  mutable nspans : int;
  mutable stack : frame list;
  mutable window : bool;
  mutable calls : int;
}

let create ~on ~keep =
  {
    on;
    keep = on && keep;
    series = Hashtbl.create 64;
    spans = [||];
    nspans = 0;
    stack = [];
    window = false;
    calls = 0;
  }

let series t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = { durs = Array.make 256 0; n = 0; self_ns = 0 } in
    Hashtbl.add t.series name s;
    s

let push_dur s d =
  if s.n = Array.length s.durs then begin
    let a = Array.make (2 * s.n) 0 in
    Array.blit s.durs 0 a 0 s.n;
    s.durs <- a
  end;
  s.durs.(s.n) <- d;
  s.n <- s.n + 1

let push_span t sp =
  if t.nspans = Array.length t.spans then begin
    let a = Array.make (max 1024 (2 * t.nspans)) sp in
    Array.blit t.spans 0 a 0 t.nspans;
    t.spans <- a
  end;
  t.spans.(t.nspans) <- sp;
  t.nspans <- t.nspans + 1

(* Record a finished span: [t0]/[t1] in ns, [child_ns] the time its
   children covered. *)
let close t name ~site ~req ~index ~t0 ~t1 ~child_ns =
  let d = t1 - t0 in
  let s = series t name in
  push_dur s d;
  if t.window then s.self_ns <- s.self_ns + (d - child_ns);
  (match t.stack with f :: _ -> f.child_ns <- f.child_ns + d | [] -> ());
  if t.keep then begin
    let parent = match t.stack with f :: _ -> f.f_index | [] -> -1 in
    let sp = { name; site; req; t0; t1; parent } in
    if index < 0 then push_span t sp else t.spans.(index) <- sp
  end

let span t ?(site = -1) ?(req = No_req) name f =
  if not t.on then f ()
  else begin
    t.calls <- t.calls + 1;
    (* reserve the span slot before the children so parents precede them *)
    let index =
      if t.keep then begin
        push_span t { name; site; req; t0 = 0; t1 = 0; parent = -1 };
        t.nspans - 1
      end
      else -1
    in
    let frame = { f_index = index; child_ns = 0 } in
    let outer = t.stack in
    t.stack <- frame :: outer;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      t.stack <- outer;
      close t name ~site ~req ~index ~t0 ~t1 ~child_ns:frame.child_ns
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* A span whose start lies in the past (an op's echo starts at its due
   time, before the harness got to it).  Recorded as a root. *)
let record t ?(site = -1) ?(req = No_req) name ~t0 ~t1 =
  if t.on then begin
    t.calls <- t.calls + 1;
    let outer = t.stack in
    t.stack <- [];
    close t name ~site ~req ~index:(-1) ~t0 ~t1 ~child_ns:0;
    t.stack <- outer
  end

(* Forget everything recorded so far, e.g. set-ups that were torn down. *)
let reset t =
  Hashtbl.reset t.series;
  t.spans <- [||];
  t.nspans <- 0;
  t.calls <- 0

let set_window t b = t.window <- b

let samples t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> Array.sub s.durs 0 s.n
  | None -> [||]

let self_ns t name =
  match Hashtbl.find_opt t.series name with Some s -> s.self_ns | None -> 0

let calls t = t.calls

let names t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.series [])

(* The cost of one span with this configuration, measured on empty
   calls; the traced run's overhead estimate multiplies it by the number
   of spans recorded. *)
let calibrate t =
  if not t.on then 0.
  else begin
    let probe = create ~on:true ~keep:t.keep in
    let n = 20_000 in
    let t0 = now_ns () in
    for _ = 1 to n do
      probe.window <- true;
      span probe "probe" ignore
    done;
    float_of_int (now_ns () - t0) /. float_of_int n
  end

let write_spans t oc =
  for i = 0 to t.nspans - 1 do
    let sp = t.spans.(i) in
    Printf.fprintf oc
      "{\"i\":%d,\"name\":%S,\"site\":%d,\"req\":%S,\"t0\":%d,\"t1\":%d,\"parent\":%d}\n"
      i sp.name sp.site (req_to_string sp.req) sp.t0 sp.t1 sp.parent
  done
