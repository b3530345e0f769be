type latency = Fixed of int | Uniform of int * int

module Key = struct
  (* deliveries ordered by (time, sequence) *)
  type t = int * int

  let compare = compare
end

module Q = Map.Make (Key)

type 'm t = {
  fifo : bool;
  latency : latency;
  sites : int list;
  queue : (int * int * 'm) Q.t; (* key -> destination, enqueue time, message *)
  seq : int;
  last_on_link : ((int * int) * int) list; (* (src,dst) -> last delivery time *)
}

let create ?(fifo = false) ~latency ~sites () =
  { fifo; latency; sites; queue = Q.empty; seq = 0; last_on_link = [] }

let draw_latency t rng =
  match t.latency with
  | Fixed d -> (d, rng)
  | Uniform (lo, hi) -> Rng.in_range rng lo hi

let send t rng ~now ~src ~dst m =
  let d, rng = draw_latency t rng in
  let at = now + d in
  let at, last_on_link =
    if not t.fifo then (at, t.last_on_link)
    else
      let key = (src, dst) in
      let prev = Option.value ~default:min_int (List.assoc_opt key t.last_on_link) in
      let at = max at prev in
      (at, (key, at) :: List.remove_assoc key t.last_on_link)
  in
  ( {
      t with
      queue = Q.add (at, t.seq) (dst, now, m) t.queue;
      seq = t.seq + 1;
      last_on_link;
    },
    rng )

let broadcast t rng ~now ~src m =
  List.fold_left
    (fun (t, rng) dst -> if dst = src then (t, rng) else send t rng ~now ~src ~dst m)
    (t, rng) t.sites

type 'm delivery = { at : int; dst : int; sent_at : int; msg : 'm }

let pop_delivery t =
  match Q.min_binding_opt t.queue with
  | None -> None
  | Some (((time, _) as key), (dst, sent_at, m)) ->
    Some ({ at = time; dst; sent_at; msg = m }, { t with queue = Q.remove key t.queue })

let pop t =
  match pop_delivery t with
  | None -> None
  | Some (d, t) -> Some ((d.at, d.dst, d.msg), t)

let peek_time t =
  match Q.min_binding_opt t.queue with Some (((time, _), _)) -> Some time | None -> None

let in_flight t = Q.cardinal t.queue

let partition_heal t ~now =
  let queue, seq =
    Q.fold
      (fun _ v (q, seq) -> (Q.add (now, seq) v q, seq + 1))
      t.queue (Q.empty, t.seq)
  in
  { t with queue; seq }
