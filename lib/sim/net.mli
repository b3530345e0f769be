(** Simulated broadcast network.

    Reliable, authenticated point-to-point links between every pair of
    sites — the paper's §3.3 assumption — with configurable latency and,
    optionally, per-link FIFO ordering.  Without FIFO, messages travelling
    on the same link may overtake one another (random latencies), which is
    exactly the reordering the control algorithm must tolerate.

    Time is a virtual integer clock (think milliseconds).  The network is
    a priority queue of in-flight messages; {!pop} yields the next
    delivery in (time, insertion) order, so simulations are deterministic
    given the RNG seed. *)

type latency = Fixed of int | Uniform of int * int
(** Per-message delay model; [Uniform (lo, hi)] is inclusive. *)

type 'm t

val create : ?fifo:bool -> latency:latency -> sites:int list -> unit -> 'm t
(** [fifo] (default [false]) forces per-link FIFO delivery by clamping
    each delivery time to be no earlier than the previous one on the same
    link. *)

val broadcast : 'm t -> Rng.t -> now:int -> src:int -> 'm -> 'm t * Rng.t
(** Enqueue a copy for every site except [src]. *)

val send : 'm t -> Rng.t -> now:int -> src:int -> dst:int -> 'm -> 'm t * Rng.t

val pop : 'm t -> ((int * int * 'm) * 'm t) option
(** Next delivery: [(time, destination, message)]. *)

type 'm delivery = {
  at : int;  (** delivery time *)
  dst : int;
  sent_at : int;  (** enqueue time; [at - sent_at] is the link latency *)
  msg : 'm;
}

val pop_delivery : 'm t -> ('m delivery * 'm t) option
(** {!pop} with the full delivery record — telemetry wants the latency
    actually experienced, which under FIFO clamping can exceed the drawn
    delay. *)

val peek_time : 'm t -> int option
val in_flight : 'm t -> int

val partition_heal : 'm t -> now:int -> 'm t
(** Re-stamp every in-flight delivery to occur at [now] (used to model a
    partition healing: everything that was queued floods in at once). *)
