(* Tests for the simulator, and the repository's strongest evidence: the
   randomized end-to-end security property — any workload, any delivery
   schedule, the session converges with a uniformly enforced policy. *)

open Dce_sim

(* ----- Rng ----- *)

let rng_tests =
  [
    Alcotest.test_case "deterministic across runs" `Quick (fun () ->
        let take n r =
          let rec go acc r n =
            if n = 0 then List.rev acc
            else
              let x, r = Rng.int r 1000 in
              go (x :: acc) r (n - 1)
          in
          go [] r n
        in
        Alcotest.(check (list int))
          "same seed same stream"
          (take 20 (Rng.of_int 42))
          (take 20 (Rng.of_int 42));
        Alcotest.(check bool) "different seeds differ" true
          (take 20 (Rng.of_int 42) <> take 20 (Rng.of_int 43)));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = ref (Rng.of_int 7) in
        for _ = 1 to 1000 do
          let x, r' = Rng.int !r 13 in
          r := r';
          if x < 0 || x >= 13 then Alcotest.fail "out of bounds"
        done);
    Alcotest.test_case "in_range inclusive" `Quick (fun () ->
        let seen = Array.make 3 false in
        let r = ref (Rng.of_int 1) in
        for _ = 1 to 200 do
          let x, r' = Rng.in_range !r 5 7 in
          r := r';
          seen.(x - 5) <- true
        done;
        Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen));
    Alcotest.test_case "weighted zero-weight never picked" `Quick (fun () ->
        let r = ref (Rng.of_int 5) in
        for _ = 1 to 200 do
          let v, r' = Rng.weighted !r [ (0, `Never); (5, `Often) ] in
          r := r';
          if v = `Never then Alcotest.fail "picked zero weight"
        done);
    Alcotest.test_case "split decorrelates" `Quick (fun () ->
        let a, b = Rng.split (Rng.of_int 9) in
        let xa, _ = Rng.int a 1_000_000 and xb, _ = Rng.int b 1_000_000 in
        Alcotest.(check bool) "distinct streams" true (xa <> xb));
  ]

(* ----- Net ----- *)

let net_tests =
  [
    Alcotest.test_case "broadcast reaches everyone but the source" `Quick (fun () ->
        let n = Net.create ~latency:(Net.Fixed 10) ~sites:[ 0; 1; 2 ] () in
        let n, _ = Net.broadcast n (Rng.of_int 1) ~now:0 ~src:1 "hello" in
        Alcotest.(check int) "two copies" 2 (Net.in_flight n);
        let rec drain acc n =
          match Net.pop n with
          | None -> List.rev acc
          | Some ((t, dst, _), n) -> drain ((t, dst) :: acc) n
        in
        Alcotest.(check (list (pair int int))) "deliveries" [ (10, 0); (10, 2) ] (drain [] n));
    Alcotest.test_case "pop yields time order" `Quick (fun () ->
        let n = Net.create ~latency:(Net.Uniform (1, 100)) ~sites:[ 0; 1 ] () in
        let rng = Rng.of_int 3 in
        let n, rng = Net.send n rng ~now:0 ~src:0 ~dst:1 "a" in
        let n, rng = Net.send n rng ~now:0 ~src:0 ~dst:1 "b" in
        let n, _ = Net.send n rng ~now:0 ~src:0 ~dst:1 "c" in
        let rec drain acc n =
          match Net.pop n with
          | None -> List.rev acc
          | Some ((t, _, _), n) -> drain (t :: acc) n
        in
        let times = drain [] n in
        Alcotest.(check (list int)) "sorted" (List.sort compare times) times);
    Alcotest.test_case "fifo links never reorder" `Quick (fun () ->
        let n = Net.create ~fifo:true ~latency:(Net.Uniform (1, 100)) ~sites:[ 0; 1 ] () in
        let rng = ref (Rng.of_int 11) in
        let net = ref n in
        for i = 1 to 20 do
          let n', r' = Net.send !net !rng ~now:i ~src:0 ~dst:1 i in
          net := n';
          rng := r'
        done;
        let rec drain acc n =
          match Net.pop n with
          | None -> List.rev acc
          | Some ((_, _, m), n) -> drain (m :: acc) n
        in
        let msgs = drain [] !net in
        Alcotest.(check (list int)) "in order" (List.init 20 (fun i -> i + 1)) msgs);
    Alcotest.test_case "partition heal floods everything at now" `Quick (fun () ->
        let n = Net.create ~latency:(Net.Fixed 1000) ~sites:[ 0; 1 ] () in
        let n, _ = Net.send n (Rng.of_int 1) ~now:0 ~src:0 ~dst:1 "m" in
        let n = Net.partition_heal n ~now:5 in
        (match Net.pop n with
         | Some ((5, 1, "m"), _) -> ()
         | _ -> Alcotest.fail "expected immediate delivery"));
  ]

(* ----- Runner + Convergence: the end-to-end security property ----- *)

let quiescent_and_secure ?policy profile seed =
  let r = Runner.run ?policy profile ~seed in
  let report = Convergence.check r.Runner.controllers in
  if not (Convergence.ok report) then
    Alcotest.failf "seed %d violates the oracles:@.%a@.diagnosis: %a@.stats:@.%a" seed
      Convergence.pp report Convergence.pp_diff r.Runner.controllers Runner.pp_stats
      r.Runner.stats

let runner_tests =
  [
    Alcotest.test_case "quiet session converges (no admin)" `Quick (fun () ->
        for seed = 0 to 19 do
          quiescent_and_secure Workload.default seed
        done);
    Alcotest.test_case "sessions with an active administrator stay secure" `Slow
      (fun () ->
        for seed = 0 to 99 do
          quiescent_and_secure Workload.with_admin seed
        done);
    Alcotest.test_case "high latency variance (heavy reordering)" `Slow (fun () ->
        let p =
          { Workload.with_admin with latency = Net.Uniform (1, 500); users = 4 }
        in
        for seed = 100 to 149 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "fifo links also converge" `Quick (fun () ->
        let p = { Workload.with_admin with fifo = true } in
        for seed = 0 to 19 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "insert-only workload (paper's 100% INS)" `Quick (fun () ->
        let p = { Workload.with_admin with op_mix = Workload.mix 1 0 0 } in
        for seed = 0 to 19 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "delete-heavy workload" `Quick (fun () ->
        let p = { Workload.with_admin with op_mix = Workload.mix 1 5 1 } in
        for seed = 0 to 19 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "sessions with log compaction under fire stay secure" `Slow
      (fun () ->
        let p = { Workload.with_admin with compact_every = Some 5 } in
        for seed = 200 to 279 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "compaction equivalence: same final documents" `Quick (fun () ->
        (* the same seed with and without compaction must produce the
           same final documents: compaction moves no cell and changes no
           cell's content or visibility, whatever it collapses *)
        let base = Workload.with_admin in
        let compacted = { base with compact_every = Some 3 } in
        for seed = 300 to 319 do
          let plain = Runner.run base ~seed in
          let gc = Runner.run compacted ~seed in
          let visibility c =
            List.map
              (fun (x : char Dce_ot.Tdoc.cell) -> x.Dce_ot.Tdoc.hidden = 0)
              (Dce_ot.Tdoc.model_list (Dce_core.Controller.document c))
          in
          List.iter2
            (fun a b ->
              let what = Printf.sprintf "seed %d" seed in
              let doc = Dce_core.Controller.document in
              Alcotest.(check string) what
                (Dce_ot.Tdoc.visible_string (doc a))
                (Dce_ot.Tdoc.visible_string (doc b));
              Alcotest.(check int) (what ^ ": model length")
                (Dce_ot.Tdoc.model_length (doc a))
                (Dce_ot.Tdoc.model_length (doc b));
              Alcotest.(check (list bool)) (what ^ ": visibility") (visibility a) (visibility b))
            plain.Runner.controllers gc.Runner.controllers;
          (* and compaction must actually bite on every run *)
          Alcotest.(check bool) (Printf.sprintf "seed %d: compaction bites" seed) true
            (List.exists
               (fun c ->
                 Dce_ot.Vclock.sum
                   (Dce_ot.Oplog.compacted_upto (Dce_core.Controller.oplog c))
                 > 0)
               gc.Runner.controllers)
        done);
    Alcotest.test_case "compaction actually shrinks logs" `Quick (fun () ->
        let p =
          { Workload.with_admin with compact_every = Some 3; duration = 3_000 }
        in
        let r = Runner.run p ~seed:77 in
        let total_live =
          List.fold_left
            (fun acc c -> acc + Dce_ot.Oplog.live_length (Dce_core.Controller.oplog c))
            0 r.Runner.controllers
        in
        let total_requests = r.Runner.stats.Runner.edits_generated in
        Alcotest.(check bool)
          (Printf.sprintf "live %d < generated %d x sites" total_live total_requests)
          true
          (total_live < total_requests * List.length r.Runner.controllers));
    Alcotest.test_case "sessions with administrative handoff stay secure" `Slow
      (fun () ->
        let p = { Workload.with_admin with handoff_prob = 0.3 } in
        for seed = 400 to 479 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "handoff + compaction + heavy reordering" `Slow (fun () ->
        let p =
          {
            Workload.with_admin with
            handoff_prob = 0.25;
            compact_every = Some 4;
            latency = Net.Uniform (1, 400);
            users = 4;
          }
        in
        for seed = 500 to 559 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "partition-like extreme delays still converge" `Quick (fun () ->
        (* every message is delayed far beyond the editing horizon, so the
           whole session's traffic floods in at once, maximally stale *)
        let p =
          {
            Workload.with_admin with
            latency = Net.Uniform (5_000, 9_000);
            duration = 1_000;
          }
        in
        for seed = 600 to 629 do
          quiescent_and_secure p seed
        done);
    Alcotest.test_case "duplicated traffic is harmless" `Quick (fun () ->
        (* replay every message twice through a hand-driven session *)
        let open Dce_core in
        let policy =
          Policy.make ~users:[ 0; 1; 2 ]
            [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
        in
        let mk site =
          Controller.create ~eq:Char.equal ~site ~admin:0
            ~policy (Dce_ot.Tdoc.of_string "base")
        in
        let cs = ref [ (0, mk 0); (1, mk 1); (2, mk 2) ] in
        let set u c = cs := List.map (fun (v, c') -> if v = u then (v, c) else (v, c')) !cs in
        let rec deliver_twice src m =
          List.iter
            (fun (u, _) ->
              if u <> src then begin
                let c, out1 = Controller.receive (List.assoc u !cs) m in
                set u c;
                let c, out2 = Controller.receive (List.assoc u !cs) m in
                set u c;
                Alcotest.(check int) "duplicate emitted nothing" 0 (List.length out2);
                List.iter (deliver_twice u) out1
              end)
            !cs
        in
        let gen u op =
          match Controller.generate (List.assoc u !cs) op with
          | c, Controller.Accepted m ->
            set u c;
            deliver_twice u m
          | _, Controller.Denied r -> Alcotest.fail r
        in
        gen 1 (Dce_ot.Op.ins 0 'x');
        gen 2 (Dce_ot.Op.ins 5 'y');
        (match
           Controller.admin_update (List.assoc 0 !cs) (Admin_op.Add_user 9)
         with
         | Ok (c, m) ->
           set 0 c;
           deliver_twice 0 m;
           deliver_twice 0 m
         | Error e -> Alcotest.fail e);
        let docs = List.map (fun (_, c) -> Controller.document c) !cs in
        Alcotest.(check string) "content" "xbasey"
          (Dce_ot.Tdoc.visible_string (List.hd docs));
        Alcotest.(check bool) "equal" true
          (List.for_all
             (Dce_ot.Tdoc.equal_model Char.equal (List.hd docs))
             docs));
    Alcotest.test_case "restrictive administrator actually invalidates work" `Quick
      (fun () ->
        (* an aggressive revoker on a busy session must invalidate some
           requests across seeds, or the test harness is vacuous *)
        let p =
          {
            Workload.with_admin with
            admin_interval = Some (50, 150);
            revoke_bias = 0.8;
            duration = 3_000;
          }
        in
        let total_invalidated = ref 0 in
        for seed = 0 to 9 do
          let r = Runner.run p ~seed in
          total_invalidated := !total_invalidated + r.Runner.stats.Runner.invalidated
        done;
        Alcotest.(check bool) "some requests were invalidated" true
          (!total_invalidated > 0));
    Alcotest.test_case "stats are coherent" `Quick (fun () ->
        let r = Runner.run Workload.with_admin ~seed:7 in
        let s = r.Runner.stats in
        Alcotest.(check bool) "edits happened" true (s.Runner.edits_generated > 0);
        Alcotest.(check bool) "admin acted" true (s.Runner.admin_requests > 0);
        Alcotest.(check bool) "flags partition requests" true
          (s.Runner.invalidated + s.Runner.validated
           = List.length
               (Dce_ot.Oplog.requests
                  (Dce_core.Controller.oplog (List.hd r.Runner.controllers)))));
  ]

(* ----- Convergence: degenerate groups and diagnosis ----- *)

let convergence_tests =
  let mk site text =
    Dce_core.Controller.create ~eq:Char.equal ~site ~admin:0
      ~policy:
        (Dce_core.Policy.make ~users:[ 0; 1 ]
           [ Dce_core.Auth.grant [ Dce_core.Subject.Any ] [ Dce_core.Docobj.Whole ]
               Dce_core.Right.all ])
      (Dce_ot.Tdoc.of_string text)
  in
  [
    Alcotest.test_case "empty group is trivially convergent" `Quick (fun () ->
        let report = Convergence.check [] in
        Alcotest.(check bool) "ok" true (Convergence.ok report);
        Alcotest.(check bool) "no diagnosis" true (Convergence.explain [] = None));
    Alcotest.test_case "single site is trivially convergent" `Quick (fun () ->
        let c = mk 0 "abc" in
        let report = Convergence.check [ c ] in
        Alcotest.(check bool) "ok" true (Convergence.ok report);
        Alcotest.(check bool) "no diagnosis" true (Convergence.explain [ c ] = None));
    Alcotest.test_case "identical sites: all oracles hold, no diagnosis" `Quick
      (fun () ->
        let cs = [ mk 0 "abc"; mk 1 "abc" ] in
        Alcotest.(check bool) "ok" true (Convergence.ok (Convergence.check cs));
        Alcotest.(check bool) "no diagnosis" true (Convergence.explain cs = None));
    Alcotest.test_case "diverged documents are named, with the differing cell" `Quick
      (fun () ->
        let cs = [ mk 0 "abc"; mk 1 "axc" ] in
        let report = Convergence.check cs in
        Alcotest.(check bool) "documents disagree" false (Convergence.ok report);
        match Convergence.explain cs with
        | None -> Alcotest.fail "expected a diagnosis"
        | Some d ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
            m = 0 || go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "names the site pair (%s)" d)
            true
            (contains d "sites 0 and 1");
          Alcotest.(check bool)
            (Printf.sprintf "names the differing fragment (%s)" d)
            true
            (contains d "documents differ"));
  ]

let () =
  Alcotest.run "dce_sim"
    [ ("rng", rng_tests);
      ("net", net_tests);
      ("runner", runner_tests);
      ("convergence", convergence_tests)
    ]
