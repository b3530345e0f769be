(* dcecheck: exhaustive bounded model checker for the secured-OT protocol.

   Explores EVERY delivery interleaving of a small scenario through the
   real controller (lib/check), checking the convergence and security
   oracles at every quiescent frontier.  Every site is the shipped
   Dce_store.Replica, so the journal rules searched are the ones the
   daemons run.  Where bin/replay.exe samples
   random schedules, dcecheck proves a bounded scenario has none at all
   — or produces a minimal, replayable counterexample.

     dune exec bin/dcecheck.exe -- --sites 3 --coop 3 --admin-ops 1
     dune exec bin/dcecheck.exe -- --no-retro          # find the Fig. 2 hole
     dune exec bin/dcecheck.exe -- --schedule 'g1 d0:c1.0 ...'
     dune exec bin/dcecheck.exe -- --enum              # exhaustive TP1/TP2/inversion
     dune exec bin/dcecheck.exe -- --smoke             # CI suite
     dune exec bin/dcecheck.exe -- --crash --stability 1 --sites 2
                                                       # kill -9 + recovery at every point
     dune exec bin/dcecheck.exe -- --crash --stability 1 --sites 2 --mutant no-clamp
                                                       # seeded bug: must exit 1
     dune exec bin/dcecheck.exe -- --stability 2 --coop 2 --sites 2 --mutant cut-unstable
                                                       # seeded bug: must exit 1

   With --crash K every site, the administrator included, is killed
   (kill -9 over its journal, run through the real store stack in
   memory) after its K-th action and rebuilt through the production
   replay path, exhaustively interleaved with deliveries, beacons and
   compaction; recovery exactness, fallback-generation recovery, and the
   durability clamp are checked as additional oracles.  --mutant
   no-clamp compacts with Controller.compact instead of the replica,
   skipping the clamp, as a sanity check that the checker catches it.
   --mutant cut-unstable cuts the administrative log at each site's own
   version instead of its stable version; the per-state cut oracle (no
   cut above any member's version) must catch it.  --mutant
   collapse-live collapses every touched document cell after each
   compaction, the ones live log entries touch included; the
   convergence oracles must catch it.

   Exit status: 0 all green, 1 a violation was found, 2 state cap hit. *)

open Dce_check

let pp_stats ppf (s : Explore.stats) =
  Format.fprintf ppf
    "%d states (%d distinct, %d dedup hits, %d sleep-set skips), %d frontiers, peak \
     in-flight %d, depth %d, %.2fs (%.0f states/s)"
    s.Explore.states s.Explore.distinct s.Explore.dedup_hits s.Explore.sleep_skips
    s.Explore.frontiers s.Explore.peak_inflight s.Explore.max_depth s.Explore.elapsed_s
    (float_of_int s.Explore.states /. Float.max s.Explore.elapsed_s 1e-6)

let print_replay (r : Explore.replay) =
  List.iter (fun line -> Format.printf "    %s@." line) r.Explore.log;
  (match r.Explore.violation with
   | Some v -> Format.printf "  final frontier: %s@." v
   | None -> Format.printf "  final frontier: all oracles hold@.");
  Format.printf "  %d message(s), %d event(s)@." r.Explore.messages
    (List.length r.Explore.executed)

let report_violation ?mutant scenario (v : Explore.violation) =
  Format.printf "VIOLATION: %s@." v.Explore.detail;
  Format.printf "  oracle report: %a@." Dce_sim.Convergence.pp v.Explore.report;
  Format.printf "shrinking schedule (%d events)...@." (List.length v.Explore.schedule);
  let minimal = Shrink.minimize ?mutant scenario v.Explore.schedule in
  let r = Explore.replay ?mutant scenario minimal in
  Format.printf "minimal replayable schedule (%d events, %d messages):@.  --schedule '%s'@."
    (List.length r.Explore.executed)
    r.Explore.messages
    (Explore.schedule_to_string r.Explore.executed);
  print_replay r

let check_scenario ~stats ~metrics ~max_states ?mutant scenario =
  Format.printf "scenario: %a@." Scenario.pp scenario;
  let outcome, s = Explore.run ?metrics ~max_states ?mutant scenario in
  Format.printf "explored: %a@." pp_stats s;
  (match (metrics, stats) with
   | Some m, true -> Format.printf "%a@." Dce_obs.Metrics.pp m
   | _ -> ());
  match outcome with
  | Explore.Exhausted ->
    Format.printf "EXHAUSTED: every interleaving satisfies the oracles@.";
    0
  | Explore.Capped ->
    Format.printf "CAPPED: state budget exceeded (%d); raise --max-states@." max_states;
    2
  | Explore.Found v ->
    report_violation ?mutant scenario v;
    1

let run_enum len =
  let bounds = { Enum.default with Enum.max_len = len } in
  let failed = ref false in
  List.iter
    (fun (name, f) ->
      let o = f ~bounds () in
      match o.Enum.failed with
      | None ->
        Format.printf "%s: holds over %d docs, %d cases@." name o.Enum.docs o.Enum.cases
      | Some c ->
        failed := true;
        Format.printf "%s: FAILED@.  %s@." name c)
    [ ("TP1", fun ~bounds () -> Enum.tp1 ~bounds ());
      ("TP2", fun ~bounds () -> Enum.tp2 ~bounds ());
      ("IT/ET inversion", fun ~bounds () -> Enum.inversion ~bounds ()) ];
  if !failed then 1 else 0

let features ~no_retro ~no_interval ~no_validation =
  {
    Dce_core.Controller.retroactive_undo = not no_retro;
    interval_check = not no_interval;
    validation = not no_validation;
  }

(* The CI suite: every secure scenario must exhaust green, every
   crippled one must surface its hole and shrink it to a short trace. *)
let run_smoke max_states =
  let secure = Dce_core.Controller.secure in
  let expect ?mutant name want scenario =
    let outcome, s = Explore.run ~max_states ?mutant scenario in
    let got, code =
      match outcome with
      | Explore.Exhausted -> (`Green, 0)
      | Explore.Capped -> (`Capped, 2)
      | Explore.Found v ->
        let minimal = Shrink.minimize ?mutant scenario v.Explore.schedule in
        let r = Explore.replay ?mutant scenario minimal in
        Format.printf "  %s: %s@.  minimal: --schedule '%s' (%d messages)@." name
          v.Explore.detail
          (Explore.schedule_to_string r.Explore.executed)
          r.Explore.messages;
        (`Violation, 1)
    in
    ignore code;
    let ok = got = want in
    Format.printf "%s %s: %a@."
      (if ok then "ok  " else "FAIL")
      name pp_stats s;
    ok
  in
  let mk = Scenario.make in
  let checks =
    [ (fun () ->
        expect "secure 3 sites / 3 ops / 1 revocation" `Green
          (mk ~features:secure ~sites:3 ~coop:3 ~admin_ops:1 ()));
      (fun () ->
        expect "secure 3 sites / 2 mixed ops / 2 admin ops" `Green
          (mk ~features:secure ~mixed:true ~sites:3 ~coop:2 ~admin_ops:2 ()));
      (fun () ->
        (* beacons and compaction woven between every action: exhausts in
           ~1s at 2 sites (3 sites put ~10^6 distinct states behind the
           same frontiers and adds nothing the oracles can see) *)
        expect "secure 2 sites / 2 ops / 1 revocation, compaction interleaved" `Green
          (mk ~features:secure ~stability:1 ~sites:2 ~coop:2 ~admin_ops:1 ()));
      (fun () ->
        expect "no retroactive undo finds the Fig. 2 hole" `Violation
          (mk
             ~features:(features ~no_retro:true ~no_interval:false ~no_validation:false)
             ~sites:3 ~coop:2 ~admin_ops:1 ()));
      (fun () ->
        expect "no interval check finds the Fig. 3 hole" `Violation
          (mk
             ~features:(features ~no_retro:false ~no_interval:true ~no_validation:false)
             ~sites:3 ~coop:2 ~admin_ops:2 ()));
      (fun () ->
        expect "no validation finds the Fig. 4 hole" `Violation
          (mk
             ~features:(features ~no_retro:false ~no_interval:false ~no_validation:true)
             ~sites:3 ~coop:2 ~admin_ops:1 ()));
      (fun () ->
        (* every site, the administrator included, killed and rebuilt
           through the real store replay path, interleaved with beacons
           and compaction *)
        expect "crash + recovery at every point, compaction interleaved" `Green
          (mk ~features:secure ~stability:1 ~crash:1 ~sites:2 ~coop:2 ~admin_ops:1 ()));
      (fun () ->
        expect ~mutant:Explore.No_clamp
          "seeded mutant: unclamped compaction is caught" `Violation
          (mk ~features:secure ~stability:1 ~crash:1 ~sites:2 ~coop:2 ~admin_ops:1 ()));
      (fun () ->
        let code = run_enum Enum.default.Enum.max_len in
        Format.printf "%s exhaustive TP1/TP2/inversion@."
          (if code = 0 then "ok  " else "FAIL");
        code = 0)
    ]
  in
  let ok = List.for_all (fun f -> f ()) checks in
  Format.printf "%s@." (if ok then "smoke: all checks behaved as expected" else "smoke: FAILURES");
  if ok then 0 else 1

let main sites coop admin_ops mixed initial stability crash mutant no_retro no_interval
    no_validation max_states stats smoke enum enum_len schedule =
  let features = features ~no_retro ~no_interval ~no_validation in
  match
    match mutant with
    | None -> Ok None
    | Some "no-clamp" -> Ok (Some Explore.No_clamp)
    | Some "cut-unstable" -> Ok (Some Explore.Cut_unstable)
    | Some "collapse-live" -> Ok (Some Explore.Collapse_live)
    | Some m -> Error m
  with
  | Error m ->
    Format.eprintf "unknown --mutant %S (known: no-clamp, cut-unstable, collapse-live)@." m;
    2
  | Ok mutant ->
    if smoke then run_smoke max_states
    else if enum then run_enum enum_len
    else
      let scenario =
        Scenario.make ~features ?initial ~mixed ?stability ?crash ~sites ~coop
          ~admin_ops ()
      in
      (match schedule with
       | Some s -> (
         match Explore.schedule_of_string s with
         | Error e ->
           Format.eprintf "bad --schedule: %s@." e;
           2
         | Ok events ->
           Format.printf "replaying %d event(s) on: %a@." (List.length events) Scenario.pp
             scenario;
           let r = Explore.replay ?mutant scenario events in
           if r.Explore.skipped > 0 then
             Format.printf "  (%d event(s) not enabled, skipped)@." r.Explore.skipped;
           print_replay r;
           if r.Explore.violation = None then 0 else 1)
       | None ->
         let metrics = if stats then Some (Dce_obs.Metrics.create ()) else None in
         check_scenario ~stats ~metrics ~max_states ?mutant scenario)

open Cmdliner

let sites = Arg.(value & opt int 3 & info [ "sites" ] ~doc:"Sites, admin included (>= 2).")
let coop = Arg.(value & opt int 3 & info [ "coop" ] ~doc:"Cooperative ops, dealt round-robin.")

let admin_ops =
  Arg.(value & opt int 1
       & info [ "admin-ops" ] ~doc:"Admin ops, alternating revoke/re-grant of user 1's insert.")

let mixed =
  Arg.(value & flag & info [ "mixed" ] ~doc:"Mix ins/del/up edits instead of insertions only.")

let initial =
  Arg.(value & opt (some string) None & info [ "initial" ] ~docv:"TEXT" ~doc:"Initial document.")

let stability =
  Arg.(value & opt (some int) None
       & info [ "stability" ] ~docv:"K"
           ~doc:"Weave a beacon broadcast + window compaction into every site's script \
                 after each K-th action, interleaved with all delivery orders.")

let crash =
  Arg.(value & opt ~vopt:(Some 1) (some int) None
       & info [ "crash" ] ~docv:"K"
           ~doc:"Journal every site's inputs through the shipped replica and the real \
                 store stack (in memory) and kill -9 + recover every site, the \
                 administrator included, after its K-th action (default 1), \
                 interleaved with all delivery orders; checks recovery exactness, \
                 corrupt-snapshot fallback, and the durability clamp.")

let mutant =
  Arg.(value & opt (some string) None
       & info [ "mutant" ] ~docv:"NAME"
           ~doc:"Run with a deliberately seeded bug (known: no-clamp, which compacts \
                 past the durable cut; cut-unstable, which cuts the administrative \
                 log above the stable version; collapse-live, which collapses the \
                 document cells live log entries still touch) — the checker must \
                 find a violation, proving the crash, cut and convergence oracles \
                 have teeth.")

let no_retro =
  Arg.(value & flag & info [ "no-retro"; "no-undo" ] ~doc:"Disable retroactive undo (Fig. 2 hole).")

let no_interval =
  Arg.(value & flag
       & info [ "no-interval-check" ] ~doc:"Disable administrative log checks (Fig. 3 hole).")

let no_validation =
  Arg.(value & flag & info [ "no-validation" ] ~doc:"Disable validation (Fig. 4 hole).")

let max_states =
  Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~doc:"State budget before giving up.")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print the metrics registry after the run.")

let smoke = Arg.(value & flag & info [ "smoke" ] ~doc:"Run the CI smoke suite.")

let enum =
  Arg.(value & flag
       & info [ "enum" ] ~doc:"Exhaustive TP1/TP2/inversion sweep instead of exploration.")

let enum_len =
  Arg.(value & opt int 2 & info [ "enum-len" ] ~doc:"Maximum document length for --enum.")

let schedule =
  Arg.(value & opt (some string) None
       & info [ "schedule" ] ~docv:"EVENTS"
           ~doc:"Replay one schedule (as printed by a shrunk counterexample) and stop.")

let cmd =
  Cmd.v
    (Cmd.info "dcecheck" ~doc:"Exhaustive bounded model checker for the secured-OT protocol")
    Term.(
      const main $ sites $ coop $ admin_ops $ mixed $ initial $ stability $ crash
      $ mutant $ no_retro $ no_interval $ no_validation $ max_states $ stats $ smoke
      $ enum $ enum_len $ schedule)

let () = exit (Cmd.eval' cmd)
