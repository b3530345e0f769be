(* Tests for the bounded model checker (lib/check): the secure protocol
   exhausts green at small bounds, each disabled mechanism surfaces its
   paper figure's hole, counterexamples shrink to short replayable
   traces, and the schedule codec round-trips. *)

open Dce_check
module Controller = Dce_core.Controller

let secure = Controller.secure

let no_retro = { Controller.secure with Controller.retroactive_undo = false }
let no_interval = { Controller.secure with Controller.interval_check = false }
let no_validation = { Controller.secure with Controller.validation = false }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let run ?max_states scenario = Explore.run ?max_states scenario

(* The search's exact size pins the state fingerprint: one that splits
   equal states raises these counts, one that merges distinct states
   lowers them. *)
let check_size (st : Explore.stats) ~states ~distinct =
  Alcotest.(check int) "states" states st.Explore.states;
  Alcotest.(check int) "distinct states" distinct st.Explore.distinct

let expect_found name (outcome, _stats) =
  match outcome with
  | Explore.Found v -> v
  | Explore.Exhausted -> Alcotest.failf "%s: expected a violation, exhausted green" name
  | Explore.Capped -> Alcotest.failf "%s: state cap hit before any violation" name

let scenario_tests =
  [
    Alcotest.test_case "scripts deal every action exactly once" `Quick (fun () ->
        let s = Scenario.make ~sites:3 ~coop:3 ~admin_ops:1 () in
        Alcotest.(check int) "total actions" 4 (Scenario.total_actions s);
        Alcotest.(check int) "sites" 3 (List.length s.Scenario.sites);
        (* round-robin: user 1 gets ops 0 and 2, user 2 gets op 1 *)
        Alcotest.(check int) "user 1 script" 2
          (List.length (List.assoc 1 s.Scenario.scripts));
        Alcotest.(check int) "user 2 script" 1
          (List.length (List.assoc 2 s.Scenario.scripts)));
    Alcotest.test_case "controllers share document, policy and admin" `Quick (fun () ->
        let s = Scenario.make ~sites:3 ~coop:2 ~admin_ops:1 () in
        let cs = Scenario.controllers s in
        Alcotest.(check int) "three controllers" 3 (List.length cs);
        List.iter
          (fun (u, c) ->
            Alcotest.(check int) "site id" u (Controller.site c);
            Alcotest.(check int) "admin is site 0" 0 (Controller.admin c);
            Alcotest.(check string) "initial text" s.Scenario.initial
              (Dce_ot.Tdoc.visible_string (Controller.document c)))
          cs);
  ]

let explore_tests =
  [
    Alcotest.test_case "secure 3 sites / 2 ops / 1 revocation exhausts green" `Quick
      (fun () ->
        let s = Scenario.make ~features:secure ~sites:3 ~coop:2 ~admin_ops:1 () in
        let outcome, stats = run s in
        (match outcome with
         | Explore.Exhausted -> ()
         | Explore.Found v -> Alcotest.failf "violation: %s" v.Explore.detail
         | Explore.Capped -> Alcotest.fail "capped");
        check_size stats ~states:7_415 ~distinct:3_549;
        Alcotest.(check bool) "checked frontiers" true (stats.Explore.frontiers > 0);
        Alcotest.(check bool) "state cache hits" true (stats.Explore.dedup_hits > 0);
        Alcotest.(check bool) "sleep sets pruned" true (stats.Explore.sleep_skips > 0));
    Alcotest.test_case "secure 3 sites / 3 ops / 1 revocation exhausts green" `Slow
      (fun () ->
        let s = Scenario.make ~features:secure ~sites:3 ~coop:3 ~admin_ops:1 () in
        match run s with
        | Explore.Exhausted, _ -> ()
        | Explore.Found v, _ -> Alcotest.failf "violation: %s" v.Explore.detail
        | Explore.Capped, _ -> Alcotest.fail "capped");
    Alcotest.test_case "secure mixed edits / revoke+regrant exhausts green" `Slow
      (fun () ->
        let s =
          Scenario.make ~features:secure ~mixed:true ~sites:3 ~coop:2 ~admin_ops:2 ()
        in
        match run s with
        | Explore.Exhausted, _ -> ()
        | Explore.Found v, _ -> Alcotest.failf "violation: %s" v.Explore.detail
        | Explore.Capped, _ -> Alcotest.fail "capped");
    Alcotest.test_case "compaction interleaved with delivery exhausts green" `Quick
      (fun () ->
        (* beacon + compact woven after every action: the explorer
           interleaves window GC with every delivery order, and the
           compaction-tolerant oracles must stay green at each frontier *)
        let s =
          Scenario.make ~features:secure ~stability:1 ~sites:2 ~coop:2 ~admin_ops:1 ()
        in
        let outcome, stats = run s in
        (match outcome with
         | Explore.Exhausted -> ()
         | Explore.Found v -> Alcotest.failf "violation: %s" v.Explore.detail
         | Explore.Capped -> Alcotest.fail "capped");
        Alcotest.(check bool) "checked frontiers" true (stats.Explore.frontiers > 100);
        Alcotest.(check bool) "sleep sets still prune" true
          (stats.Explore.sleep_skips > 0);
        (* the same scripts replay deterministically with beacons drained
           like any other message *)
        let r = Explore.replay s [ Explore.Act 0; Explore.Act 1; Explore.Act 1 ] in
        Alcotest.(check (option string)) "drained run green" None r.Explore.violation);
    Alcotest.test_case "state cap yields Capped, not a wrong verdict" `Quick (fun () ->
        let s = Scenario.make ~features:secure ~sites:3 ~coop:2 ~admin_ops:1 () in
        match run ~max_states:50 s with
        | Explore.Capped, stats ->
          Alcotest.(check bool) "stopped at the cap" true (stats.Explore.states <= 51)
        | _ -> Alcotest.fail "expected Capped");
  ]

let hole_tests =
  [
    Alcotest.test_case "no retroactive undo: Fig. 2 hole, shrunk to <= 6 messages"
      `Quick (fun () ->
        let s = Scenario.make ~features:no_retro ~sites:3 ~coop:2 ~admin_ops:1 () in
        let v = expect_found "no-retro" (run s) in
        let minimal = Shrink.minimize s v.Explore.schedule in
        Alcotest.(check bool) "minimal schedule still fails" true
          (Shrink.fails s minimal);
        let r = Explore.replay s minimal in
        (match r.Explore.violation with
         | None -> Alcotest.fail "replay of the minimal schedule does not violate"
         | Some _ -> ());
        Alcotest.(check bool)
          (Printf.sprintf "at most 6 messages (got %d)" r.Explore.messages)
          true (r.Explore.messages <= 6);
        (* the printed trace is replayable: text -> events -> same verdict *)
        let printed = Explore.schedule_to_string r.Explore.executed in
        (match Explore.schedule_of_string printed with
         | Error e -> Alcotest.failf "printed trace does not parse: %s" e
         | Ok events ->
           Alcotest.(check bool) "round-trips" true (events = r.Explore.executed);
           let r' = Explore.replay s events in
           Alcotest.(check (option string)) "same diagnosis on replay"
             r.Explore.violation r'.Explore.violation));
    Alcotest.test_case "no interval check: Fig. 3 hole" `Quick (fun () ->
        let s = Scenario.make ~features:no_interval ~sites:3 ~coop:2 ~admin_ops:2 () in
        ignore (expect_found "no-interval" (run s)));
    Alcotest.test_case
      "interval + retro off: accepted-illegal caught by the security oracle alone"
      `Quick (fun () ->
        let features =
          { Controller.secure with
            Controller.retroactive_undo = false;
            interval_check = false
          }
        in
        let s = Scenario.make ~features ~sites:3 ~coop:2 ~admin_ops:2 () in
        let v = expect_found "no-retro+no-interval" (run s) in
        Alcotest.(check bool)
          (Printf.sprintf "security oracle fired (%s)" v.Explore.detail)
          true
          (contains v.Explore.detail "accepted-illegal");
        (* the point: every replicated-state oracle is green — only the
           ground-truth legality check sees this hole *)
        Alcotest.(check bool) "convergence oracles all hold" true
          (Dce_sim.Convergence.ok v.Explore.report));
    Alcotest.test_case "no validation: Fig. 4 hole (work stuck tentative)" `Quick
      (fun () ->
        let s = Scenario.make ~features:no_validation ~sites:3 ~coop:2 ~admin_ops:1 () in
        let v = expect_found "no-validation" (run s) in
        Alcotest.(check bool)
          (Printf.sprintf "tentative work named (%s)" v.Explore.detail)
          true
          (contains v.Explore.detail "tentative"));
  ]

let replay_tests =
  [
    Alcotest.test_case "schedule codec round-trips" `Quick (fun () ->
        let events =
          [ Explore.Act 0;
            Explore.Act 2;
            Explore.Dlv (1, Explore.Madmin 3);
            Explore.Dlv (0, Explore.Mcoop { Dce_ot.Request.site = 2; serial = 11 })
          ]
        in
        match Explore.schedule_of_string (Explore.schedule_to_string events) with
        | Ok events' -> Alcotest.(check bool) "equal" true (events = events')
        | Error e -> Alcotest.failf "parse error: %s" e);
    Alcotest.test_case "bad schedules are rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match Explore.schedule_of_string s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ "x1"; "d1"; "d1:z9"; "g"; "d1:c2" ]);
    Alcotest.test_case "replay skips disabled events and reports them" `Quick
      (fun () ->
        let s = Scenario.make ~features:secure ~sites:3 ~coop:2 ~admin_ops:1 () in
        let r =
          Explore.replay s
            [ Explore.Act 9; Explore.Act 1; Explore.Dlv (2, Explore.Madmin 7) ]
        in
        Alcotest.(check int) "two skipped" 2 r.Explore.skipped;
        (* one act, its two deliveries, then the admin's validation's two *)
        Alcotest.(check int) "one executed + drain" 5 (List.length r.Explore.executed);
        Alcotest.(check (option string)) "drained run is green" None
          r.Explore.violation);
    Alcotest.test_case "full in-order replay of a secure scenario is green" `Quick
      (fun () ->
        let s = Scenario.make ~features:secure ~sites:3 ~coop:2 ~admin_ops:1 () in
        (* acts only; drain delivers everything in creation order *)
        let r = Explore.replay s [ Explore.Act 0; Explore.Act 1; Explore.Act 2 ] in
        Alcotest.(check (option string)) "green" None r.Explore.violation;
        Alcotest.(check int) "no skips" 0 r.Explore.skipped;
        Alcotest.(check bool) "messages flowed" true (r.Explore.messages >= 3));
  ]

let shrink_tests =
  [
    Alcotest.test_case "minimize returns a failing subsequence, 1-minimal" `Quick
      (fun () ->
        let s = Scenario.make ~features:no_retro ~sites:3 ~coop:2 ~admin_ops:1 () in
        let v = expect_found "no-retro" (run s) in
        let minimal = Shrink.minimize s v.Explore.schedule in
        Alcotest.(check bool) "subsequence fails" true (Shrink.fails s minimal);
        Alcotest.(check bool) "no longer than the original" true
          (List.length minimal <= List.length v.Explore.schedule);
        (* 1-minimality: dropping any single event loses the violation *)
        List.iteri
          (fun i _ ->
            let without = List.filteri (fun j _ -> j <> i) minimal in
            if Shrink.fails s without then
              Alcotest.failf "dropping event %d still fails: not 1-minimal" i)
          minimal);
    Alcotest.test_case "minimize is the identity on green schedules" `Quick (fun () ->
        let s = Scenario.make ~features:secure ~sites:3 ~coop:2 ~admin_ops:1 () in
        let sched = [ Explore.Act 0; Explore.Act 1 ] in
        Alcotest.(check bool) "unchanged" true (Shrink.minimize s sched = sched));
  ]

let crash_tests =
  [
    Alcotest.test_case "crash + recover exhausts green" `Quick (fun () ->
        (* both sites, the administrator included, crash and restart *)
        let s = Scenario.make ~features:secure ~crash:1 ~sites:2 ~coop:2 ~admin_ops:1 () in
        match run s with
        | Explore.Exhausted, st -> check_size st ~states:382 ~distinct:345
        | Explore.Found v, _ -> Alcotest.failf "violation: %s" v.Explore.detail
        | Explore.Capped, _ -> Alcotest.fail "capped");
    Alcotest.test_case "crash interleaved with beacons and compaction" `Quick (fun () ->
        let s =
          Scenario.make ~features:secure ~stability:2 ~crash:1 ~sites:2 ~coop:2
            ~admin_ops:1 ()
        in
        match run s with
        | Explore.Exhausted, st -> check_size st ~states:24_301 ~distinct:14_399
        | Explore.Found v, _ -> Alcotest.failf "violation: %s" v.Explore.detail
        | Explore.Capped, _ -> Alcotest.fail "capped");
    Alcotest.test_case "no-clamp mutant is caught and shrinks" `Quick (fun () ->
        let s =
          Scenario.make ~features:secure ~stability:1 ~crash:1 ~sites:2 ~coop:2
            ~admin_ops:1 ()
        in
        let v =
          expect_found "no-clamp" (Explore.run ~mutant:Explore.No_clamp s)
        in
        Alcotest.(check bool)
          "durability oracle named" true
          (contains v.Explore.detail "durability invariant");
        let minimal = Shrink.minimize ~mutant:Explore.No_clamp s v.Explore.schedule in
        Alcotest.(check bool)
          "minimal schedule still fails under the mutant" true
          (Shrink.fails ~mutant:Explore.No_clamp s minimal);
        Alcotest.(check bool)
          "the production discipline passes the same schedule" false
          (Shrink.fails s minimal));
    Alcotest.test_case "cut-unstable mutant is caught and shrinks" `Quick (fun () ->
        let s =
          Scenario.make ~features:secure ~stability:2 ~sites:2 ~coop:2 ~admin_ops:1 ()
        in
        let v =
          expect_found "cut-unstable" (Explore.run ~mutant:Explore.Cut_unstable s)
        in
        Alcotest.(check bool)
          "cut oracle named" true
          (contains v.Explore.detail "cut its administrative log");
        let minimal = Shrink.minimize ~mutant:Explore.Cut_unstable s v.Explore.schedule in
        Alcotest.(check bool)
          "shrunk" true
          (List.length minimal < List.length v.Explore.schedule);
        Alcotest.(check bool)
          "minimal schedule still fails under the mutant" true
          (Shrink.fails ~mutant:Explore.Cut_unstable s minimal);
        Alcotest.(check bool)
          "the production cut passes the same schedule" false
          (Shrink.fails s minimal));
    Alcotest.test_case
      "crash scenario weaves the pair into non-admin scripts and the admin's" `Quick
      (fun () ->
        let s = Scenario.make ~crash:1 ~sites:3 ~coop:2 ~admin_ops:1 () in
        Alcotest.(check bool) "persist set" true (s.Scenario.persist <> None);
        Alcotest.(check int) "every site scripted" 3 (List.length s.Scenario.scripts);
        List.iter
          (fun (u, script) ->
            let crashes =
              List.length
                (List.filter (function Scenario.Crash -> true | _ -> false) script)
            in
            Alcotest.(check int) (Printf.sprintf "one crash at site %d" u) 1 crashes)
          s.Scenario.scripts);
    Alcotest.test_case "a crashed and restarted site still converges" `Quick (fun () ->
        (* site 1 dies with its own request unsent to anyone and site 2's
           not yet received; it recovers through its journal, both
           requests then cross, and the group converges *)
        let s = Scenario.make ~features:secure ~crash:1 ~sites:3 ~coop:2 ~admin_ops:0 () in
        let sched =
          match
            Explore.schedule_of_string "g1 g2 g1 g1 d1:c2.1 d2:c1.1 d0:c1.1 d0:c2.1"
          with
          | Ok e -> e
          | Error e -> Alcotest.fail e
        in
        let r = Explore.replay s sched in
        Alcotest.(check int) "nothing skipped" 0 r.Explore.skipped;
        let at sub =
          let rec go i = function
            | [] -> Alcotest.failf "no %S in the log" sub
            | l :: rest -> if contains l sub then i else go (i + 1) rest
          in
          go 0 r.Explore.log
        in
        Alcotest.(check (option string)) "green" None r.Explore.violation;
        Alcotest.(check bool) "both requests are in flight across the crash" true
          (at "-> c2.1" < at "site 1: crash"
          && at "site 1: recover" < at "deliver c2.1 -> site 1"
          && at "site 1: recover" < at "deliver c1.1 -> site 2");
        let cs = List.map snd r.Explore.controllers in
        let report = Dce_sim.Convergence.check cs in
        if not (Dce_sim.Convergence.ok report) then
          Alcotest.failf "diverged after crash/restart:@.%a@.%a" Dce_sim.Convergence.pp
            report Dce_sim.Convergence.pp_diff cs;
        List.iter
          (fun c ->
            Alcotest.(check int) "both insertions survive" 6
              (String.length (Dce_ot.Tdoc.visible_string (Controller.document c))))
          cs);
    Alcotest.test_case "even the administrator may crash" `Quick (fun () ->
        (* the administrator validates site 1's request, issues a
           revocation and dies with that Validate still in flight; it
           recovers through its journal and the group converges *)
        let s = Scenario.make ~features:secure ~crash:1 ~sites:2 ~coop:2 ~admin_ops:1 () in
        let sched =
          match Explore.schedule_of_string "g1 d0:c1.1 g0 g0 g0" with
          | Ok e -> e
          | Error e -> Alcotest.fail e
        in
        let r = Explore.replay s sched in
        Alcotest.(check int) "nothing skipped" 0 r.Explore.skipped;
        let at sub =
          let rec go i = function
            | [] -> Alcotest.failf "no %S in the log" sub
            | l :: rest -> if contains l sub then i else go (i + 1) rest
          in
          go 0 r.Explore.log
        in
        Alcotest.(check bool) "the Validate is in flight across the crash" true
          (at "(emits a1)" < at "site 0: crash"
          && at "site 0: crash" < at "deliver a1 -> site 1");
        Alcotest.(check (option string)) "green" None r.Explore.violation;
        let s = Scenario.make ~features:secure ~crash:1 ~sites:2 ~coop:2 ~admin_ops:2 () in
        match run s with
        | Explore.Exhausted, st ->
          Alcotest.(check bool) "explored something" true (st.Explore.states > 50)
        | Explore.Found v, _ -> Alcotest.failf "violation: %s" v.Explore.detail
        | Explore.Capped, _ -> Alcotest.fail "capped");
    Alcotest.test_case "replay never delivers to a crashed site" `Quick (fun () ->
        (* d1:a1 names a delivery to site 1 while it is down: replay
           must skip it, as the search never offers it *)
        let s = Scenario.make ~features:secure ~crash:1 ~sites:2 ~coop:2 ~admin_ops:1 () in
        let sched =
          match Explore.schedule_of_string "g1 g1 g0 d1:a1 g1" with
          | Ok e -> e
          | Error e -> Alcotest.fail e
        in
        let r = Explore.replay s sched in
        Alcotest.(check int) "the delivery to the down site is skipped" 1 r.Explore.skipped;
        Alcotest.(check (option string)) "green" None r.Explore.violation);
  ]

let enum_tests =
  [
    Alcotest.test_case "TP1 exhaustive at default bounds" `Quick (fun () ->
        let o = Enum.tp1 () in
        (match o.Enum.failed with Some c -> Alcotest.fail c | None -> ());
        Alcotest.(check bool) "swept a real space" true (o.Enum.cases > 1000));
    Alcotest.test_case "TP2 exhaustive at default bounds" `Quick (fun () ->
        let o = Enum.tp2 () in
        (match o.Enum.failed with Some c -> Alcotest.fail c | None -> ());
        Alcotest.(check bool) "swept a real space" true (o.Enum.cases > 10_000));
    Alcotest.test_case "IT/ET inversion exhaustive at default bounds" `Quick (fun () ->
        let o = Enum.inversion () in
        match o.Enum.failed with Some c -> Alcotest.fail c | None -> ());
  ]

let () =
  Alcotest.run "dce_check"
    [ ("scenario", scenario_tests);
      ("explore", explore_tests);
      ("holes", hole_tests);
      ("replay", replay_tests);
      ("shrink", shrink_tests);
      ("crash", crash_tests);
      ("enum", enum_tests)
    ]
