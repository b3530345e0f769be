(* Tests for the observability layer: histogram maths, ring buffers,
   JSONL round-trips, the causality audit, and the guarantee the runner
   leans on — its stats are the trace stream, not counts kept alongside
   it. *)

open Dce_ot
module Obs = Dce_obs
module M = Obs.Metrics
module T = Obs.Trace

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ----- metrics ----- *)

let metrics_tests =
  [
    Alcotest.test_case "counters count" `Quick (fun () ->
        let m = M.create () in
        let c = M.counter m "x" in
        M.incr c;
        M.add c 41;
        Alcotest.(check int) "value" 42 (M.value c);
        Alcotest.(check int) "same name same cell" 42 (M.value (M.counter m "x"));
        M.reset m;
        Alcotest.(check int) "reset" 0 (M.value c));
    Alcotest.test_case "disabled registry is inert" `Quick (fun () ->
        let m = M.create ~enabled:false () in
        let c = M.counter m "x" and h = M.histogram m "h" in
        M.incr c;
        M.observe h 5;
        Alcotest.(check int) "counter untouched" 0 (M.value c);
        Alcotest.(check int) "histogram untouched" 0 (M.summary h).M.count;
        M.set_enabled m true;
        M.incr c;
        Alcotest.(check int) "re-enabled" 1 (M.value c));
    Alcotest.test_case "small values are exact" `Quick (fun () ->
        let m = M.create () in
        let h = M.histogram m "h" in
        List.iter (M.observe h) [ 0; 1; 2; 3; 4; 5; 6; 7 ];
        let s = M.summary h in
        Alcotest.(check int) "count" 8 s.M.count;
        Alcotest.(check int) "sum" 28 s.M.sum;
        Alcotest.(check int) "min" 0 s.M.min;
        Alcotest.(check int) "max" 7 s.M.max;
        (* values 0..7 have their own buckets: percentiles are exact
           (ceil-rank: the 4th smallest of eight values is 3) *)
        Alcotest.(check (float 0.0)) "p50" 3.0 (M.percentile h 50.);
        Alcotest.(check (float 0.0)) "p100" 7.0 (M.percentile h 100.));
    Alcotest.test_case "percentile error is bounded" `Quick (fun () ->
        let m = M.create () in
        let h = M.histogram m "h" in
        for v = 1 to 10_000 do
          M.observe h v
        done;
        List.iter
          (fun p ->
            let exact = p /. 100. *. 10_000. in
            let est = M.percentile h p in
            let rel = Float.abs (est -. exact) /. exact in
            if rel > 0.125 then
              Alcotest.failf "p%.0f: estimate %.1f vs exact %.1f (rel %.3f)" p est
                exact rel)
          [ 50.; 90.; 95.; 99. ]);
    Alcotest.test_case "negative observations clamp to zero" `Quick (fun () ->
        let m = M.create () in
        let h = M.histogram m "h" in
        M.observe h (-5);
        let s = M.summary h in
        Alcotest.(check int) "min" 0 s.M.min;
        Alcotest.(check int) "count" 1 s.M.count);
    Alcotest.test_case "empty histogram summarizes safely" `Quick (fun () ->
        let m = M.create () in
        let h = M.histogram m "h" in
        let s = M.summary h in
        Alcotest.(check int) "count" 0 s.M.count;
        Alcotest.(check bool) "p50 nan" true (Float.is_nan s.M.p50));
  ]

(* ----- trace sinks ----- *)

let clk n = Vclock.of_list [ (0, n) ]

let emit_n sink n =
  for i = 1 to n do
    T.emit sink ~site:0 ~clock:(clk i) ~version:0
      (T.Generate { request = { Request.site = 0; serial = i }; valid = false })
  done

let serial_of e =
  match e.T.kind with
  | T.Generate { request; _ } -> request.Request.serial
  | _ -> -1

let sink_tests =
  [
    Alcotest.test_case "null sink is disabled" `Quick (fun () ->
        Alcotest.(check bool) "enabled" false (T.enabled T.null);
        emit_n T.null 3 (* and does not blow up *));
    Alcotest.test_case "ring keeps the most recent events in order" `Quick
      (fun () ->
        let r = T.ring ~capacity:4 in
        emit_n (T.ring_sink r) 10;
        let evs = T.ring_events r in
        Alcotest.(check (list int)) "last four, oldest first" [ 7; 8; 9; 10 ]
          (List.map serial_of evs);
        Alcotest.(check bool) "seq increases" true
          (List.sort compare (List.map (fun e -> e.T.seq) evs)
          = List.map (fun e -> e.T.seq) evs));
    Alcotest.test_case "ring below capacity returns everything" `Quick (fun () ->
        let r = T.ring ~capacity:8 in
        emit_n (T.ring_sink r) 3;
        Alcotest.(check int) "three events" 3 (List.length (T.ring_events r)));
    Alcotest.test_case "tee reaches both sinks" `Quick (fun () ->
        let a = ref 0 and b = ref 0 in
        let s = T.tee (T.callback (fun _ -> incr a)) (T.callback (fun _ -> incr b)) in
        emit_n s 5;
        Alcotest.(check (pair int int)) "both" (5, 5) (!a, !b));
    Alcotest.test_case "count_into tallies per kind" `Quick (fun () ->
        let m = M.create () in
        emit_n (T.count_into m) 4;
        Alcotest.(check int) "trace.generate" 4 (M.value (M.counter m "trace.generate")));
  ]

(* ----- JSONL round-trips ----- *)

let all_kinds =
  let id = { Request.site = 2; serial = 7 } in
  [
    T.Generate { request = id; valid = true };
    T.Check_local { granted = false };
    T.Broadcast { targets = 3; coop = true };
    T.Receive { coop = false; dup = true };
    T.Interval_recheck { request = id; from_version = 1; to_version = 4; denied_at = Some 2 };
    T.Interval_recheck { request = id; from_version = 0; to_version = 0; denied_at = None };
    T.Retroactive_undo { request = id; cancel_version = 3 };
    T.Validate id;
    T.Invalidate { request = id; cancel_version = 5 };
    T.Deliver { request = id; gen_version = 1; valid = false };
    T.Admin_apply { op = "AddAuth(0, <{s1}, {Doc}, {iR}, ->)"; restrictive = true };
  ]

let event_of_kind i kind =
  {
    T.seq = i;
    t_ns = 1_000_000 + i;
    site = i mod 3;
    clock = Vclock.of_list [ (0, i); (1, 2 * i) ];
    version = i;
    kind;
  }

let check_event_equal msg (a : T.event) (b : T.event) =
  Alcotest.(check int) (msg ^ " seq") a.T.seq b.T.seq;
  Alcotest.(check int) (msg ^ " t_ns") a.T.t_ns b.T.t_ns;
  Alcotest.(check int) (msg ^ " site") a.T.site b.T.site;
  Alcotest.(check bool) (msg ^ " clock") true (Vclock.equal a.T.clock b.T.clock);
  Alcotest.(check int) (msg ^ " version") a.T.version b.T.version;
  Alcotest.(check bool) (msg ^ " kind") true (a.T.kind = b.T.kind)

let json_tests =
  [
    Alcotest.test_case "every kind survives a JSON round-trip" `Quick (fun () ->
        List.iteri
          (fun i kind ->
            let e = event_of_kind i kind in
            match T.of_json (T.to_json e) with
            | Ok e' -> check_event_equal (T.kind_name kind) e e'
            | Error msg -> Alcotest.failf "%s: %s" (T.kind_name kind) msg)
          all_kinds);
    Alcotest.test_case "json text round-trips through the parser" `Quick (fun () ->
        List.iteri
          (fun i kind ->
            let e = event_of_kind i kind in
            let text = Obs.Json.to_string (T.to_json e) in
            match Obs.Json.of_string text with
            | Error msg -> Alcotest.failf "parse: %s" msg
            | Ok j -> (
              match T.of_json j with
              | Ok e' -> check_event_equal (T.kind_name kind) e e'
              | Error msg -> Alcotest.failf "decode: %s" msg))
          all_kinds);
    Alcotest.test_case "file round-trip via with_file/read_file" `Quick (fun () ->
        let path = Filename.temp_file "dce_obs" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            T.with_file path (fun s -> emit_n s 6);
            match T.read_file path with
            | Error msg -> Alcotest.fail msg
            | Ok evs ->
              Alcotest.(check int) "count" 6 (List.length evs);
              Alcotest.(check (list int)) "serials" [ 1; 2; 3; 4; 5; 6 ]
                (List.map serial_of evs)));
    Alcotest.test_case "malformed line is a located error" `Quick (fun () ->
        let path = Filename.temp_file "dce_obs" ".jsonl" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "not json\n";
            close_out oc;
            match T.read_file path with
            | Ok _ -> Alcotest.fail "expected an error"
            | Error msg ->
              Alcotest.(check bool) "mentions the line" true (contains msg "line 1")));
  ]

(* ----- causality audit ----- *)

let audit_tests =
  [
    Alcotest.test_case "a clean sim trace audits clean" `Quick (fun () ->
        let r = T.ring ~capacity:100_000 in
        let _ =
          Dce_sim.Runner.run ~sink:(T.ring_sink r) Dce_sim.Workload.with_admin ~seed:3
        in
        let evs = T.ring_events r in
        Alcotest.(check bool) "trace is non-trivial" true (List.length evs > 100);
        match Obs.Audit.causality evs with
        | [] -> ()
        | v :: _ -> Alcotest.failf "unexpected violation: %s" v);
    Alcotest.test_case "clock regression is flagged" `Quick (fun () ->
        let id = { Request.site = 1; serial = 1 } in
        let ev seq clock kind = { T.seq; t_ns = seq; site = 0; clock; version = 0; kind } in
        let evs =
          [
            ev 1 (clk 5) (T.Check_local { granted = true });
            ev 2 (clk 4) (T.Check_local { granted = true });
            ev 3 (clk 6) (T.Generate { request = id; valid = false });
          ]
        in
        Alcotest.(check bool) "violations found" true (Obs.Audit.causality evs <> []));
    Alcotest.test_case "serial regression is flagged" `Quick (fun () ->
        let deliver serial =
          T.Deliver
            { request = { Request.site = 1; serial }; gen_version = 0; valid = false }
        in
        let clock n = Vclock.of_list [ (1, n) ] in
        let evs =
          [
            { T.seq = 1; t_ns = 1; site = 0; clock = clock 2; version = 0; kind = deliver 2 };
            { T.seq = 2; t_ns = 2; site = 0; clock = clock 2; version = 0; kind = deliver 1 };
          ]
        in
        Alcotest.(check bool) "violations found" true (Obs.Audit.causality evs <> []));
  ]

(* ----- the runner's stats ARE the trace ----- *)

let runner_tests =
  [
    Alcotest.test_case "stats match the metrics registry and the oplog" `Quick
      (fun () ->
        let m = M.create () in
        let r = Dce_sim.Runner.run ~metrics:m Dce_sim.Workload.with_admin ~seed:7 in
        let stats = r.Dce_sim.Runner.stats in
        Alcotest.(check int) "invalidated counter"
          stats.Dce_sim.Runner.invalidated
          (M.value (M.counter m "controller.invalidated"));
        Alcotest.(check int) "validated counter"
          stats.Dce_sim.Runner.validated
          (M.value (M.counter m "controller.validated"));
        Alcotest.(check int) "delivered counter"
          stats.Dce_sim.Runner.messages_delivered
          (M.value (M.counter m "net.delivered"));
        (* and both agree with ground truth: site 0's final log flags *)
        let site0 = List.hd r.Dce_sim.Runner.controllers in
        let reqs = Dce_ot.Oplog.requests (Dce_core.Controller.oplog site0) in
        let invalid =
          List.length
            (List.filter (fun q -> q.Request.flag = Request.Invalid) reqs)
        in
        let valid =
          List.length (List.filter (fun q -> q.Request.flag = Request.Valid) reqs)
        in
        Alcotest.(check int) "invalidated = invalid-flagged requests" invalid
          stats.Dce_sim.Runner.invalidated;
        Alcotest.(check int) "validated = valid-flagged requests" valid
          stats.Dce_sim.Runner.validated);
  ]

(* ----- the export plane: gauges, exposition, snapshots ----- *)

let export_tests =
  [
    Alcotest.test_case "gauges hold the last set level" `Quick (fun () ->
        let m = M.create () in
        let g = M.gauge m "depth" in
        M.set g 7;
        M.set g 3;
        Alcotest.(check int) "last set wins" 3 (M.gauge_value g);
        Alcotest.(check int) "same name same cell" 3 (M.gauge_value (M.gauge m "depth"));
        Alcotest.(check (list (pair string int))) "listing" [ ("depth", 3) ]
          (M.gauges m);
        M.reset m;
        Alcotest.(check int) "reset zeroes" 0 (M.gauge_value g));
    Alcotest.test_case "disabled gauges are inert" `Quick (fun () ->
        let m = M.create ~enabled:false () in
        let g = M.gauge m "depth" in
        M.set g 9;
        Alcotest.(check int) "no-op" 0 (M.gauge_value g));
    Alcotest.test_case "exposition escapes names, sorts, and is stable" `Quick
      (fun () ->
        let m = M.create () in
        M.incr (M.counter m "netd.frames_in");
        M.add (M.counter m "a.b-c") 2;
        M.set (M.gauge m "9lives") 9;
        M.observe (M.histogram m "lat.ns") 5;
        let d = M.dump m in
        Alcotest.(check string) "two dumps byte-identical" d (M.dump m);
        List.iter
          (fun frag ->
            Alcotest.(check bool) ("contains " ^ frag) true (contains d frag))
          [
            "# TYPE netd_frames_in counter\nnetd_frames_in 1\n";
            "# TYPE a_b_c counter\na_b_c 2\n";
            "# TYPE _9lives gauge\n_9lives 9\n";
            "# TYPE lat_ns histogram\n";
            "lat_ns_bucket{le=\"5\"} 1\n";
            "lat_ns_bucket{le=\"+Inf\"} 1\n";
            "lat_ns_sum 5\n";
            "lat_ns_count 1\n";
          ];
        (* families come out sorted by name *)
        let idx frag =
          let rec go i =
            if i + String.length frag > String.length d then -1
            else if String.sub d i (String.length frag) = frag then i
            else go (i + 1)
          in
          go 0
        in
        Alcotest.(check bool) "a_b_c before netd_frames_in" true
          (idx "a_b_c 2" < idx "netd_frames_in 1"));
    Alcotest.test_case "observe_n replays buckets exactly" `Quick (fun () ->
        let m = M.create () in
        let h = M.histogram m "h" in
        List.iter (M.observe h) [ 0; 1; 5; 9; 123; 123; 4096; 100_000 ];
        let m2 = M.create () in
        let h2 = M.histogram m2 "h" in
        List.iter (fun (v, n) -> M.observe_n h2 v n) (M.buckets h);
        Alcotest.(check (list (pair int int))) "same buckets" (M.buckets h)
          (M.buckets h2);
        Alcotest.(check int) "same count" (M.summary h).M.count
          (M.summary h2).M.count);
    Alcotest.test_case "parse_exposition/merge_into round-trips a registry"
      `Quick (fun () ->
        let m = M.create () in
        M.add (M.counter m "c.x") 5;
        M.set (M.gauge m "g.y") 11;
        let h = M.histogram m "lat" in
        List.iter (M.observe h) [ 3; 70; 900; 60_000 ];
        let p = Obs.Export.parse_exposition (M.dump m) in
        let m2 = M.create () in
        Obs.Export.merge_into m2 p;
        Obs.Export.merge_into m2 p;
        (* merged twice: counters add, gauges sum, histograms double *)
        Alcotest.(check int) "counters add" 10 (M.value (M.counter m2 "c_x"));
        Alcotest.(check int) "gauges sum" 22 (M.gauge_value (M.gauge m2 "g_y"));
        let s = M.summary (M.histogram m2 "lat") in
        Alcotest.(check int) "histogram count" 8 s.M.count;
        Alcotest.(check bool) "p95 finite" true (Float.is_finite s.M.p95));
    Alcotest.test_case "labeled series round-trip dump/parse/merge" `Quick
      (fun () ->
        let m = M.create () in
        let frames d = M.with_label "hub.frames" ~key:"doc" ~value:d in
        M.add (M.counter m (frames "alpha")) 7;
        M.add (M.counter m (frames "beta")) 2;
        M.set (M.gauge m (M.with_label "hub.members" ~key:"doc" ~value:"alpha")) 3;
        let h = M.histogram m (M.with_label "fan.ns" ~key:"doc" ~value:"alpha") in
        List.iter (M.observe h) [ 10; 200; 3000 ];
        let d = M.dump m in
        List.iter
          (fun frag ->
            Alcotest.(check bool) ("contains " ^ frag) true (contains d frag))
          [
            (* one TYPE line per bare family, one series line per label *)
            "# TYPE hub_frames counter\n";
            "hub_frames{doc=\"alpha\"} 7\n";
            "hub_frames{doc=\"beta\"} 2\n";
            "hub_members{doc=\"alpha\"} 3\n";
            (* [le] rides after the existing labels on histogram buckets *)
            "fan_ns_bucket{doc=\"alpha\",le=";
            "fan_ns_sum{doc=\"alpha\"} 3210\n";
            "fan_ns_count{doc=\"alpha\"} 3\n";
          ];
        Alcotest.(check string) "labeled dump is stable" d (M.dump m);
        (* a scrape of the dump merges back into the same labeled series *)
        let p = Obs.Export.parse_exposition d in
        let m2 = M.create () in
        Obs.Export.merge_into m2 p;
        let back base doc =
          M.value (M.counter m2 (M.with_label base ~key:"doc" ~value:doc))
        in
        Alcotest.(check int) "alpha counter survives" 7 (back "hub_frames" "alpha");
        Alcotest.(check int) "beta counter survives" 2 (back "hub_frames" "beta");
        Alcotest.(check int) "labeled gauge survives" 3
          (M.gauge_value
             (M.gauge m2 (M.with_label "hub_members" ~key:"doc" ~value:"alpha")));
        let s =
          M.summary
            (M.histogram m2 (M.with_label "fan_ns" ~key:"doc" ~value:"alpha"))
        in
        Alcotest.(check int) "labeled histogram count survives" 3 s.M.count);
    Alcotest.test_case "snapshot counter deltas" `Quick (fun () ->
        let m = M.create () in
        let c = M.counter m "ops" in
        M.add c 3;
        let s1 = Obs.Export.snapshot m in
        M.add c 4;
        M.incr (M.counter m "fresh");
        let s2 = Obs.Export.snapshot m in
        Alcotest.(check (list (pair string int))) "increases since s1"
          [ ("fresh", 1); ("ops", 4) ]
          (Obs.Export.counter_deltas s1 s2));
    Alcotest.test_case "trace timestamps follow the injected clock" `Quick
      (fun () ->
        (* small offset: runs before the clock suite, whose bases are
           larger — the global monotone clamp must keep growing *)
        let base = Unix.gettimeofday () +. 0.02 in
        Obs.Clock.set_source (Some (fun () -> base));
        Fun.protect ~finally:(fun () -> Obs.Clock.set_source None) @@ fun () ->
        let r = T.ring ~capacity:4 in
        let sink = T.ring_sink r in
        T.emit sink ~site:0 ~clock:Vclock.empty ~version:0
          (T.Check_local { granted = true });
        T.emit sink ~site:0 ~clock:Vclock.empty ~version:0
          (T.Check_local { granted = false });
        match T.ring_events r with
        | [ e1; e2 ] ->
          let base_ns = int_of_float (base *. 1e9) in
          Alcotest.(check bool) "stamped from the source" true
            (abs (e1.T.t_ns - base_ns) < 10_000_000);
          Alcotest.(check bool) "strictly ordered" true (e1.T.t_ns < e2.T.t_ns)
        | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  ]

(* ----- clock: monotone clamp and test injection ----- *)

(* Fake sources start slightly ahead of the real clock: the monotone
   clamp never rewinds below a value already handed out, so a source in
   the past would read as frozen.  Keeping the offset small means the
   real clock catches up within a fraction of a second once restored. *)
let clock_tests =
  [
    Alcotest.test_case "an injected source drives both clocks" `Quick (fun () ->
        let base = Unix.gettimeofday () +. 0.05 in
        let now = ref base in
        Obs.Clock.set_source (Some (fun () -> !now));
        Fun.protect ~finally:(fun () -> Obs.Clock.set_source None) @@ fun () ->
        let a = Obs.Clock.now_ms () in
        now := base +. 0.005;
        let b = Obs.Clock.now_ms () in
        Alcotest.(check (float 0.01)) "advanced by the source step" 5.0 (b -. a));
    Alcotest.test_case "a backwards step freezes the ms clock, never rewinds it"
      `Quick (fun () ->
        let base = Unix.gettimeofday () +. 0.1 in
        let now = ref base in
        Obs.Clock.set_source (Some (fun () -> !now));
        Fun.protect ~finally:(fun () -> Obs.Clock.set_source None) @@ fun () ->
        let a = Obs.Clock.now_ms () in
        now := base -. 0.02;
        (* NTP stepped the wall clock back *)
        let b = Obs.Clock.now_ms () in
        Alcotest.(check (float 0.0001)) "no time elapsed" a b;
        now := base +. 0.03;
        let c = Obs.Clock.now_ms () in
        Alcotest.(check bool) "resumes once real time catches up" true (c > b));
    Alcotest.test_case "now_ns is strictly increasing even when the source is frozen"
      `Quick (fun () ->
        let base = Unix.gettimeofday () +. 0.15 in
        Obs.Clock.set_source (Some (fun () -> base));
        Fun.protect ~finally:(fun () -> Obs.Clock.set_source None) @@ fun () ->
        let a = Obs.Clock.now_ns () in
        let b = Obs.Clock.now_ns () in
        let c = Obs.Clock.now_ns () in
        Alcotest.(check bool) "distinct and ordered" true (a < b && b < c));
    Alcotest.test_case "set_source None restores a live clock" `Quick (fun () ->
        Obs.Clock.set_source None;
        let a = Obs.Clock.now_ms () in
        let b = Obs.Clock.now_ms () in
        Alcotest.(check bool) "still monotone" true (b >= a));
    Alcotest.test_case "a cadence keeps its phase when ticks are reached late" `Quick
      (fun () ->
        let tick = Obs.Clock.tick ~period_ms:5000. in
        let due = Alcotest.(option (float 1e-9)) in
        Alcotest.check due "the first tick is due at once" (Some 12.)
          (tick ~last:neg_infinity 12.);
        Alcotest.check due "not before a period" None (tick ~last:12. 5011.9);
        Alcotest.check due "reached 3 ms late, still on the grid" (Some 5012.)
          (tick ~last:12. 5015.);
        Alcotest.check due "the next one is not pushed back" (Some 10012.)
          (tick ~last:5012. 10012.5);
        Alcotest.check due "a stall over several periods ticks once" (Some 25012.)
          (tick ~last:5012. 27000.));
  ]

let () =
  Alcotest.run "dce_obs"
    [
      ("metrics", metrics_tests);
      ("sinks", sink_tests);
      ("jsonl", json_tests);
      ("audit", audit_tests);
      ("runner stats", runner_tests);
      ("export", export_tests);
      ("clock", clock_tests);
    ]
