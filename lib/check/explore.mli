(** Exhaustive bounded exploration of delivery interleavings.

    The explorer runs a {!Scenario} through the real
    [Dce_core.Controller], each site wrapped in the shipped
    [Dce_store.Replica] — this is a race detector for the protocol
    itself, not a reimplementation of it.  The transition system's
    events are:

    - [Act u]: site [u] executes the next step of its script (a
      cooperative generation or an administrative operation), which may
      put a message in flight to every other site;
    - [Dlv (u, m)]: the in-flight message [m] is delivered to site [u]
      ([Replica.receive]) — the administrator's reception can itself
      emit validation messages, which join the in-flight set.

    A message travels as the frame the wire carries
    ([Proto.encode_message], a beacon as a one-entry
    [Proto.encode_frontier]) and is decoded at delivery as a peer
    decodes a hub's relay, so the search crosses the shipped codec; a
    frame that does not decode is a violation.

    Every interleaving of these events is explored.  At each {e quiescent
    frontier} — a state with no message in flight — the paper's oracles
    must hold: convergence of document/policy/version
    ({!Dce_sim.Convergence}), no accepted-illegal or rejected-legal
    request (the Figs. 2–4 holes, checked against a ghost log of every
    administrative request as first issued, which is never cut), and
    administrative-log agreement with that ghost: the same policy and
    administrator at every version, and the same requests above each
    site's cut.  At {e every} state, no site may have cut its
    administrative log above the version of any group member.

    Tractability comes from two mechanisms.  {e Canonical state hashing}:
    each site is hashed as its shipped state encoding
    ([Proto.encode_state] of [Controller.dump], the bytes recovery and
    state transfer compare, from which [Controller.load] restores it),
    in-flight messages as their frames, a multiset sorted by message
    identity, so equal states reached by different event orders are
    explored once.  {e Sleep sets}: events at different sites commute, so
    after exploring event [a] before [b], the [b]-first branch is pruned
    from re-exploring [a] at the same point (Godefroid-style sleep sets,
    sound with the state cache by re-exploring a cached state whenever it
    is reached with a sleep set that does not contain the stored one). *)

open Dce_core

type mid =
  | Mcoop of Dce_ot.Request.id
  | Madmin of int  (** administrative requests are keyed by version *)
  | Mbeacon of int * int
      (** stability beacons, keyed by (issuer site, per-site sequence
          number); delivery feeds [Replica.absorb] and never emits
          follow-up messages *)

type event = Act of Subject.user | Dlv of Subject.user * mid

type stats = {
  states : int;  (** search nodes visited (post-dedup visits included) *)
  distinct : int;  (** distinct canonical states *)
  dedup_hits : int;  (** nodes pruned by the state cache *)
  sleep_skips : int;  (** enabled events pruned by sleep sets *)
  frontiers : int;  (** quiescent frontiers checked *)
  peak_inflight : int;  (** most messages simultaneously in flight *)
  max_depth : int;
  elapsed_s : float;
}

type violation = {
  schedule : event list;  (** the violating schedule, root to frontier *)
  report : Dce_sim.Convergence.report;
  detail : string;  (** first failing oracle, in words *)
}

type outcome =
  | Exhausted  (** every interleaving explored, all frontiers green *)
  | Found of violation
  | Capped  (** gave up at [max_states] *)

type mutant =
  | No_clamp
      (** checker-sanity seeded bug: [Compact] calls
          [Controller.compact] instead of [Replica.compact], garbage-
          collecting straight to the stability frontier and skipping
          the durability clamp and the pre-compaction checkpoint (the
          rule every journaled replica keeps).  A crash-mode run must
          catch it. *)
  | Cut_unstable
      (** checker-sanity seeded bug: after [Replica.compact], [Compact]
          re-cuts the administrative log at the site's own version
          instead of its stable version (the shipped
          {!Dce_core.Admin_log.compact} with the wrong bound).  Any
          stability run must catch it. *)
  | Collapse_live
      (** checker-sanity seeded bug: after [Replica.compact], [Compact]
          re-collapses the site's document with an empty keep set
          (the shipped {!Dce_ot.Tdoc.collapse}, through a dump and a
          load), so cells that live log entries still touch lose their
          writes and hide counts.  A stability run in which such an
          entry is later undone, or meets a concurrent write, must
          catch it. *)

val run :
  ?metrics:Dce_obs.Metrics.t ->
  ?max_states:int ->
  ?mutant:mutant ->
  Scenario.t ->
  outcome * stats
(** [metrics] (optional) accumulates [check.states], [check.distinct],
    [check.dedup_hits], [check.sleep_skips] and [check.frontiers]
    counters alongside the returned {!stats}.

    Every site is the shipped [Dce_store.Replica]: each input
    ([generate], [admin], [receive], [absorb], [compact]) goes through
    it, so what is recorded, checkpointed and clamped is its decision.
    A [receive] it answers with [Error] is a violation naming the
    event.  When the scenario sets [persist], each site's replica runs
    over its own journal image ({!Journal}), [Crash] and [Recover]
    become executable ([Scenario.make ~crash] weaves them into every
    site's script, the administrator's included), and three more oracle
    families run:
    - at {e every} explored state, no live site's compacted window may
      exceed its durable cut (durability leads, GC follows);
    - at every [Crash], a corrupted-newest-snapshot copy of the journal
      must recover through the fallback generation to {e exactly} the
      durable cut;
    - at every [Recover], the rebuilt controller must match the
      pre-crash one: clock and content fingerprint always, full
      fingerprint whenever nothing unjournaled (received beacons,
      compaction) happened since the last checkpoint.
    Quiescent-frontier oracles only run when every site is alive. *)

(* {2 Replay} *)

type replay = {
  controllers : (Subject.user * char Controller.t) list;
  executed : event list;  (** events actually executed, drain included *)
  skipped : int;  (** schedule entries that were not enabled *)
  messages : int;  (** messages put in flight over the run *)
  log : string list;  (** one human-readable line per executed event *)
  violation : string option;  (** oracle diagnosis of the final state *)
}

val replay : ?drain:bool -> ?mutant:mutant -> Scenario.t -> event list -> replay
(** Execute one specific schedule (events that are not enabled are
    skipped: exactly those the search would not offer, so no delivery
    to a crashed site), then — unless [drain] is [false] — deliver every remaining
    in-flight message in deterministic order so the final state is a
    quiescent frontier, and run the oracles on it.  In a journaled
    scenario the durability invariant is checked (and latched) after
    every step, exactly as {!run} checks it at every state. *)

(* {2 Schedule scripts}

   The textual form printed by shrunk counterexamples and accepted by
   [dcecheck --schedule]: events separated by whitespace or commas,
   [gU] for [Act U], [dU:cS.N] for delivery of cooperative request [S.N]
   to site [U], [dU:aV] for delivery of administrative request version
   [V] to site [U], [dU:bS.K] for delivery of site [S]'s [K]-th
   stability beacon to site [U]. *)

val event_to_string : event -> string
val event_of_string : string -> (event, string) result
val schedule_to_string : event list -> string
val schedule_of_string : string -> (event list, string) result
