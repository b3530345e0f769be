(** Discrete-event execution of a workload over secured controllers.

    The runner owns one {!Dce_core.Controller} per site (site 0 is the
    administrator), a simulated {!Net}, and a virtual clock.  It samples
    the workload profile deterministically from the seed, interleaves
    local edits, administrative actions and message deliveries in
    time order, and finally flushes the network so the session reaches
    quiescence.  The result carries the final controllers plus counters;
    feed it to {!Convergence} for the oracles.

    No site crashes here.  A crash of any site, the administrator
    included, is searched by the model checker ([Dce_check],
    [Scenario.make ~crash]), whose sites are the shipped
    [Dce_store.Replica] over its real journal, and tortured by
    [crashtest]. *)

type stats = {
  edits_generated : int;
  edits_denied_locally : int;  (** rejected by the issuer's local policy copy *)
  admin_requests : int;
  restrictive_requests : int;
  messages_delivered : int;
  invalidated : int;
      (** requests invalidated at site 0, derived from the controller's
          trace events ([invalidate] + [retroactive_undo]) — never
          hand-incremented, so these counts cannot drift from the
          telemetry stream *)
  validated : int;  (** likewise: [validate] + born/delivered-valid events at site 0 *)
}

type result = {
  controllers : char Dce_core.Controller.t list;  (** site order: admin first *)
  stats : stats;
  final_time : int;
}

val run :
  ?trace:Format.formatter ->
  ?features:Dce_core.Controller.features ->
  ?policy:Dce_core.Policy.t ->
  ?sink:Dce_obs.Trace.sink ->
  ?metrics:Dce_obs.Metrics.t ->
  Workload.profile ->
  seed:int ->
  result
(** [features] (default [Controller.secure]) selects which of the
    paper's three mechanisms are active — disable some to reproduce the
    §4 security holes (see [Dce_baseline.Naive] and the ablation bench).
    [policy] defaults to "everyone may do everything" over the profile's
    sites, which is what lets a restrictive administrator bite.

    [sink] receives every controller trace event of every site plus the
    runner's own [broadcast] events.  [metrics] (default: a private
    registry) accumulates counters mirroring {!stats} and histograms for
    network latency, queue depth and wall-clock per-delivery /
    per-generation timings ([net.latency_vms], [net.queue_depth],
    [sim.deliver_ns], [sim.generate_ns]). *)

val pp_stats : Format.formatter -> stats -> unit
