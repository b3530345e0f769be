(* Metrics of one finished run, named as in BENCHMARK.json. *)

module H = Harness
module T = Timing
module Json = Dce_obs.Json

type metric = { name : string; value : float; unit_ : string; samples : int option }

let m ?samples name unit_ value = { name; value; unit_; samples }

let pct s p = Stats.percentile (Stats.values s) p
let per_op (r : H.t) x = x /. float_of_int (max 1 r.H.delivered)

(* The end-to-end metrics: set-up time, which every benchmark reports,
   and two costs a user pays that the host's speed does not move, bytes
   on an editor's link per edit and the memory the replicas hold.  The
   latencies and CPU time drift with the host's load by more than a 10%
   bound; they are in [timings], and README.md gives the measurements. *)
let end_to_end (r : H.t) ~setups =
  [
    m "setup_s" "s" (Stats.median (Array.of_list setups)) ~samples:(List.length setups);
    m "wire_bytes_per_op" "bytes" (per_op r (float_of_int r.H.wire_bytes));
    m "state_kib" "KiB" r.H.state_kib;
  ]

(* The user-visible timings, memory and failures, measured in every run
   and reported with the per-layer metrics.  A percentile is reported
   only where at least ten samples lie beyond it, except enforcement and
   joins outside the workload that exercises them, where the set-up
   probes give one sample each. *)
let timings (r : H.t) ~(win : H.window) ~failed =
  let p name s unit_ scale q =
    let v = pct s q in
    m name unit_ (if Float.is_nan v then 0. else v *. scale) ~samples:(Stats.count s)
  in
  [
    p "echo_p50_us" r.H.echo "us" 1. 50.;
    p "echo_p95_us" r.H.echo "us" 1. 95.;
    p "echo_p99_us" r.H.echo "us" 1. 99.;
    p "prop_p50_ms" r.H.prop "ms" 1. 50.;
    p "prop_p95_ms" r.H.prop "ms" 1. 95.;
    p "prop_p99_ms" r.H.prop "ms" 1. 99.;
    p "valid_p50_ms" r.H.valid "ms" 1. 50.;
    p "valid_p95_ms" r.H.valid "ms" 1. 95.;
    p "valid_p99_ms" r.H.valid "ms" 1. 99.;
    p "enforce_p50_ms" r.H.enforce "ms" 1. 50.;
    p "enforce_p95_ms" r.H.enforce "ms" 1. 95.;
    p "join_snap_p50_ms" r.H.join_snap "ms" 1. 50.;
    p "join_delta_p50_ms" r.H.join_delta "ms" 1. 50.;
    m "cpu_us_per_op" "us" (per_op r (win.H.cpu_s *. 1e6));
    m "rss_mb" "MiB" r.H.rss_peak;
    m "fail_ratio" "ratio" (float_of_int failed /. float_of_int (max 1 r.H.attempted));
  ]

(* Outside-in layer metrics of a traced run.  Shares are self time over
   the window's wall time; percentiles are of call durations since the
   last setup began, so join and enforcement costs include the setup
   probes. *)
let per_layer (r : H.t) ~(win : H.window) ~counters ~span_ns ~window_calls =
  let tm = r.H.tm in
  let wall_ns = win.H.wall_s *. 1e9 in
  let share names =
    float_of_int (List.fold_left (fun a n -> a + T.self_ns tm n) 0 names) /. wall_ns
  in
  let dur name p scale =
    let xs = Array.map float_of_int (T.samples tm name) in
    if xs = [||] then 0. else Stats.percentile xs p /. scale
  in
  let p_us name p = dur name p 1e3 and p_ms name p = dur name p 1e6 in
  let layer prefix = List.filter (fun n -> String.starts_with ~prefix n) (T.names tm) in
  let counter name = float_of_int (try List.assoc name counters with Not_found -> 0) in
  let kib s = if Stats.count s = 0 then 0. else Stats.median (Stats.values s) /. 1024. in
  let or0 x = if Float.is_nan x then 0. else x in
  let accounted =
    List.filter (fun n -> not (String.starts_with ~prefix:"op." n)) (T.names tm)
  in
  [
    m "Controller.receive.p50_us" "us" (p_us "Controller.receive" 50.);
    m "Controller.receive.p99_us" "us" (p_us "Controller.receive" 99.);
    m "Controller.receive.share" "ratio" (share [ "Controller.receive" ]);
    m "Controller.window_len.max" "count" (float_of_int r.H.window_max);
    m "Controller.stability.share" "ratio"
      (share [ "Controller.receive_beacon"; "Controller.compact" ]);
    m "Controller.generate.p50_us" "us" (p_us "Controller.generate" 50.);
    m "Controller.generate.p99_us" "us" (p_us "Controller.generate" 99.);
    m "Controller.generate.share" "ratio" (share [ "Controller.generate" ]);
    m "Controller.denied_local.count" "count" (float_of_int r.H.denied);
    m "Controller.receive_admin.p50_us" "us" (p_us "Controller.receive_admin" 50.);
    m "Controller.receive_admin.p99_us" "us" (p_us "Controller.receive_admin" 99.);
    m "Controller.receive_admin.share" "ratio" (share [ "Controller.receive_admin" ]);
    m "Controller.admin_update.p50_us" "us" (p_us "Controller.admin_update" 50.);
    m "Controller.undone.count" "count" (counter "controller.undone");
    m "Persist.record.p50_us" "us" (p_us "Persist.record" 50.);
    m "Persist.record.p99_us" "us" (p_us "Persist.record" 99.);
    m "Persist.record.share" "ratio" (share [ "Persist.record" ]);
    m "Persist.checkpoint.p50_ms" "ms" (p_ms "Persist.checkpoint" 50.);
    m "Proto.decode_state.p50_ms" "ms" (p_ms "Proto.decode_state" 50.);
    m "Proto.snapshot_kib" "KiB" (kib r.H.snapshot_bytes);
    m "Controller.load.p50_ms" "ms" (p_ms "Controller.load" 50.);
    m "Controller.catch_up.p50_ms" "ms" (p_ms "Controller.catch_up" 50.);
    m "Proto.decode_delta.p50_ms" "ms" (p_ms "Proto.decode_delta" 50.);
    m "Proto.delta_kib" "KiB" (kib r.H.delta_bytes);
    m "Controller.apply_delta.p50_ms" "ms" (p_ms "Controller.apply_delta" 50.);
    m "Proto.encode_message.p50_us" "us" (p_us "Proto.encode_message" 50.);
    m "Proto.decode_message.p50_us" "us" (p_us "Proto.decode_message" 50.);
    m "Proto.share" "ratio" (share (layer "Proto."));
    m "Proto.bytes_per_op" "bytes"
      (float_of_int r.H.msg_bytes /. float_of_int (max 1 r.H.msgs));
    m "Client.step.share" "ratio" (share [ "Client.step" ]);
    m "Client.send.p50_us" "us" (p_us "Client.send" 50.);
    m "Client.outbox_bytes.max" "bytes" (float_of_int r.H.client_outbox_max);
    m "Client.reconnects.count" "count" (float_of_int r.H.reconnects);
    m "Hub.step.p50_us" "us" (p_us "Hub.step" 50.);
    m "Hub.step.p99_us" "us" (p_us "Hub.step" 99.);
    m "Hub.step.share" "ratio" (share [ "Hub.step" ]);
    m "Hub.outbox_bytes.max" "bytes" (float_of_int r.H.hub_outbox_max);
    m "loop.idle.share" "ratio" (share [ "loop.idle" ]);
    m "loop.harness.share" "ratio" (share [ "loop.harness" ]);
    m "loop.late_p99_ms" "ms" (or0 (pct r.H.late 99.)) ~samples:(Stats.count r.H.late);
    m "loop.closure_pct" "%" (100. *. share accounted);
    m "trace.overhead_pct" "%"
      (100. *. span_ns *. float_of_int window_calls /. (win.H.cpu_s *. 1e9));
  ]

let to_json ms =
  Json.Obj
    (List.map
       (fun x ->
         (* a run that lost its samples is already incorrect; keep the
            line valid JSON *)
         let value = if Float.is_finite x.value then x.value else 0. in
         (x.name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String x.unit_) ]))
       ms)

let print ms =
  List.iter
    (fun x ->
      Printf.printf "  %-34s %14.4f %-6s%s\n" x.name x.value x.unit_
        (match x.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> ""))
    ms
