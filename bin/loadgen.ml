(* loadgen: open-loop SLO load harness for the networked deployment.

   Spawns one hub process plus N editor processes, drives each editor
   open-loop at a configured op rate — the next op is due at
   start + k/rate regardless of how the system keeps up, so queueing
   shows in the latency numbers instead of silently throttling the
   offered load — then scrapes every process's admin endpoint and
   folds the expositions into one report:

     dune exec bin/loadgen.exe -- --editors 3 --rate 20 --duration 5

   With --docs K the hub hosts K independent documents (load0..loadK-1)
   and editor i attaches to doc load(i mod K): each document is its own
   session with its own policy (users = the sites sharing the doc,
   admin = the lowest of them, so the validation path is exercised in
   every shard) and the report breaks delivered throughput down per
   document on top of the aggregate.

   Chaos mode (--chaos SPEC --seed N) runs every editor's outgoing
   frames through a seeded [Dce_netd.Faults] plan (drop, duplicate,
   delay, reorder), and --partition-ms cuts the odd-site editors off
   one-sidedly for a window in the middle of the run, then heals by
   forcing a reconnect: the resuming join (a delta, or a snapshot plus
   catch-up) and its re-broadcast must recover everything the partition
   swallowed, which the delivery ratio gate verifies.  The whole run is reproducible from --seed.

   Outputs BENCH_load.json (delivered throughput, end-to-end
   propagation percentiles, queue depths, overflow/reconnect counts)
   and leaves one JSONL trace per process in --trace-dir, ready for
   `trace.exe merge`.  Exits non-zero when nothing was delivered, no
   end-to-end sample was measured, or the delivery ratio falls under
   --min-delivery-ratio — the CI regression gate. *)

open Dce_core
module Obs = Dce_obs
module Netd = Dce_netd
module Hub = Dce_hub.Hub
module Proto = Dce_wire.Proto
module Tdoc = Dce_ot.Tdoc

let relay_site = 1_000_000

(* ----- a tiny blocking HTTP GET, for scraping the admin sockets ----- *)

let find_sub hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = needle then Some i
    else go (i + 1)
  in
  go 0

let http_get ~port ~path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let req =
      Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        path
    in
    ignore (Unix.write_substring fd req 0 (String.length req));
    let buf = Bytes.create 65536 in
    let b = Buffer.create 4096 in
    let rec drain () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes b buf 0 n;
        drain ()
    in
    drain ();
    let raw = Buffer.contents b in
    match find_sub raw "\r\n\r\n" with
    | None -> Error "no header/body separator"
    | Some i ->
      let body = String.sub raw (i + 4) (String.length raw - i - 4) in
      if String.length raw >= 12 && String.sub raw 9 3 = "200" then Ok body
      else Error (String.trim (String.sub raw 0 (min 32 (String.length raw))))
  with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* ----- the hub process ----- *)

let relay_child ~hub ~admin ~metrics ~oc () =
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let rec serve () =
    (* a SIGTERM mid-poll surfaces as EINTR; re-enter so on_tick sees
       the stop flag and shuts down cleanly *)
    try
      Hub.run ~tick_ms:50
        ~on_tick:(fun h ->
          Obs.Metrics.set (Obs.Metrics.gauge metrics "netd.conns")
            (Hub.conn_count h);
          Obs.Metrics.set (Obs.Metrics.gauge metrics "netd.outbox_bytes")
            (Hub.outbox_bytes h);
          Netd.Admin.step admin;
          if !stop then Hub.shutdown h)
        hub
    with Unix.Unix_error (Unix.EINTR, _, _) ->
      if not (Hub.stopped hub) then serve ()
  in
  serve ();
  Netd.Admin.close admin;
  close_out_noerr oc;
  exit 0

(* ----- an editor process -----

   Status shared with the pre-fork admin callbacks: the parent created
   the admin socket (so it knows the port), the child updates this
   cell and steps the server. *)

type editor_cell = {
  mutable ec_joined : bool;
  mutable ec_doc_len : int;
  mutable ec_version : int;
  mutable ec_pending_coop : int;
  mutable ec_pending_admin : int;
  mutable ec_tentative : int;
  mutable ec_sent : int;
}

let fresh_cell () =
  {
    ec_joined = false;
    ec_doc_len = 0;
    ec_version = 0;
    ec_pending_coop = 0;
    ec_pending_admin = 0;
    ec_tentative = 0;
    ec_sent = 0;
  }

let editor_child ~cell ~metrics ~admin ~site ~doc ~relay_port ~rate ~duration
    ~seed ~chaos ~partition ~trace_path () =
  let stop = ref false in
  let handler = Sys.Signal_handle (fun _ -> stop := true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let oc = open_out trace_path in
  let sink = Obs.Trace.to_channel oc in
  let faults =
    (* a partition window needs a plan to flip even without --chaos *)
    match (chaos, partition) with
    | None, None -> None
    | cfg, _ ->
      Some
        (Netd.Faults.create
           ?config:cfg
           ~seed ~label:(Printf.sprintf "site-%d" site) ())
  in
  let ed =
    Netd.Site.create ~metrics ~trace:sink ~codec:Proto.char_codec ~eq:Char.equal
      (Netd.Client.create ~metrics ~trace:sink ~seed ~doc ?faults ~host:"127.0.0.1"
         ~port:relay_port ~site ())
  in
  let client = Netd.Site.client ed in
  (* doc-labeled, so the harness can break the merged totals down per
     shard after scraping *)
  let sent_c =
    Obs.Metrics.counter metrics
      (Obs.Metrics.with_label "load.sent" ~key:"doc" ~value:doc)
  in
  let delivered_c =
    Obs.Metrics.counter metrics
      (Obs.Metrics.with_label "load.delivered" ~key:"doc" ~value:doc)
  in
  let outbox_g = Obs.Metrics.gauge metrics "netd.outbox_bytes" in
  (* open loop: op k is due at join + k/rate, whether or not the
     system kept up with op k-1 *)
  let total = int_of_float (rate *. duration) in
  let k = ref 0 in
  let start = ref None in
  let on_notice = function
    | Netd.Site.Joined _ -> if !start = None then start := Some (Obs.Clock.now_ms ())
    | Netd.Site.Integrated _ -> Obs.Metrics.incr delivered_c
    | Netd.Site.Link (Netd.Client.Gave_up _) -> stop := true
    | Netd.Site.Dropped _ | Netd.Site.Link _ -> ()
  in
  (* one-sided partition: outgoing frames silently dropped for the
     window, then heal by severing the link — the rejoin transfer and
     its re-broadcast recover what the partition swallowed *)
  let pstate = ref `Before in
  let partition_step () =
    match (partition, faults, !start) with
    | Some (off_ms, dur_ms), Some f, Some t0 -> (
      let now = Obs.Clock.now_ms () in
      match !pstate with
      | `Before when now >= t0 +. off_ms ->
        Netd.Faults.set_partitioned f true;
        pstate := `During
      | `During when now >= t0 +. off_ms +. dur_ms ->
        Netd.Faults.set_partitioned f false;
        Netd.Client.drop_link ~reason:"partition healed" client;
        pstate := `Healed
      | _ -> ())
    | _ -> ()
  in
  while not !stop do
    partition_step ();
    let due_ms =
      match !start with
      | Some t0 when !k < total -> Some (t0 +. (float_of_int !k *. 1000. /. rate))
      | _ -> None
    in
    let timeout_ms =
      match due_ms with
      | Some d -> max 0 (min 20 (int_of_float (d -. Obs.Clock.now_ms ())))
      | None -> 50
    in
    (try List.iter on_notice (Netd.Site.step ~timeout_ms ed)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Netd.Admin.step admin;
    Obs.Metrics.set outbox_g (Netd.Client.outbox_bytes client);
    (match (due_ms, Netd.Site.controller ed) with
     | Some d, Some c
       when Obs.Clock.now_ms () >= d && Netd.Client.connected client -> (
       incr k;
       let doc = Controller.document c in
       let len = Tdoc.visible_length doc in
       let pos = if len = 0 then 0 else !k mod len in
       let ch = Char.chr (Char.code 'a' + (!k mod 26)) in
       match Netd.Site.generate ed (Tdoc.ins_visible doc pos ch) with
       | Ok _ ->
         Obs.Metrics.incr sent_c;
         cell.ec_sent <- cell.ec_sent + 1
       | Error _ -> ())
     | _ -> ());
    cell.ec_joined <- Option.is_some (Netd.Site.controller ed);
    match Netd.Site.controller ed with
    | Some c ->
      cell.ec_doc_len <- Tdoc.visible_length (Controller.document c);
      cell.ec_version <- Controller.version c;
      cell.ec_pending_coop <- Controller.pending_coop c;
      cell.ec_pending_admin <- Controller.pending_admin c;
      cell.ec_tentative <- List.length (Controller.tentative c)
    | None -> ()
  done;
  Netd.Site.close ed;
  Netd.Admin.close admin;
  close_out_noerr oc;
  exit 0

(* ----- the harness ----- *)

let json_of_summary (s : Obs.Metrics.summary) =
  Obs.Json.Obj
    [
      ("count", Obs.Json.Int s.Obs.Metrics.count);
      ("sum", Obs.Json.Int s.Obs.Metrics.sum);
      ("min", Obs.Json.Int s.Obs.Metrics.min);
      ("max", Obs.Json.Int s.Obs.Metrics.max);
      ("median", Obs.Json.Float s.Obs.Metrics.p50);
      ("p95", Obs.Json.Float s.Obs.Metrics.p95);
      ("p99", Obs.Json.Float s.Obs.Metrics.p99);
    ]

let reap pid =
  let rec poll tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if tries = 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.1;
        poll (tries - 1)
      end
    | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) -> ()
  in
  poll 50

let kill_all pids =
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
    pids;
  List.iter reap pids

let run editors rate duration drain_ms port text trace_dir out min_ratio docs_k
    seed chaos_arg partition_ms =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let chaos =
    match chaos_arg with
    | None -> None
    | Some spec -> (
      match Netd.Faults.of_string spec with
      | Ok cfg -> Some cfg
      | Error e ->
        prerr_endline ("loadgen: --chaos: " ^ e);
        exit 2)
  in
  if editors < 2 then begin
    prerr_endline "loadgen: need at least 2 editors";
    exit 2
  end;
  if docs_k < 1 then begin
    prerr_endline "loadgen: --docs must be >= 1";
    exit 2
  end;
  (try Unix.mkdir trace_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* document sharding: editor i works on doc load(i mod K); every doc
     is an independent session whose users are exactly the sites that
     share it, the lowest of them the admin *)
  let ndocs = max 1 (min docs_k editors) in
  let doc_name d = Printf.sprintf "load%d" d in
  let doc_of_site i = doc_name (i mod ndocs) in
  let all_users = List.init editors Fun.id in
  let doc_sites d = List.filter (fun i -> i mod ndocs = d) all_users in
  (* hub created pre-fork so its ports are known here; the child
     inherits the bound sockets and runs the loop *)
  let relay_metrics = Obs.Metrics.create () in
  let relay_oc = open_out (Filename.concat trace_dir "relay.jsonl") in
  let relay_sink = Obs.Trace.to_channel relay_oc in
  let factory doc =
    let d =
      try Scanf.sscanf doc "load%d" Fun.id
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> -1
    in
    match doc_sites d with
    | [] -> Error (Printf.sprintf "unknown doc %S" doc)
    | (admin :: _) as sites ->
      let policy =
        Policy.make ~users:sites
          [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
      in
      (* one relay site per document, so the shared relay trace holds one
         monotone causal stream per hosted replica *)
      Ok
        ( Controller.create ~eq:Char.equal ~site:(relay_site + d) ~admin ~policy
            ~trace:relay_sink ~metrics:relay_metrics (Tdoc.of_string text),
          None )
  in
  let hub =
    Hub.create ~metrics:relay_metrics ~trace:relay_sink ~codec:Proto.char_codec ~factory
      ~docs:(List.init ndocs doc_name) ~port ()
  in
  let relay_port = Hub.port hub in
  let relay_admin =
    Netd.Admin.create ~metrics:relay_metrics
      ~healthz:(fun () ->
        match Hub.healthz hub () with
        | Obs.Json.Obj fields ->
          Obs.Json.Obj (fields @ [ ("port", Obs.Json.Int relay_port) ])
        | j -> j)
      ~sessions:(fun () ->
        Obs.Json.Obj
          [
            ( "docs",
              Obs.Json.List
                (List.map
                   (fun doc ->
                     let c = Hub.controller ~doc hub in
                     Obs.Json.Obj
                       [
                         ("doc", Obs.Json.String doc);
                         ( "sites",
                           Obs.Json.List
                             (List.map
                                (fun s -> Obs.Json.Int s)
                                (Hub.connected_sites ~doc hub)) );
                         ( "doc_len",
                           Obs.Json.Int
                             (Tdoc.visible_length (Controller.document c)) );
                         ("policy_version", Obs.Json.Int (Controller.version c));
                         ("window_len", Obs.Json.Int (Controller.window_len c));
                         ( "compacted_upto",
                           Obs.Json.Int
                             (Dce_ot.Vclock.sum (Controller.compacted_upto c)) );
                         ("stable_lag", Obs.Json.Int (Controller.stable_lag c));
                       ])
                   (Hub.docs hub)) );
          ])
      ~port:0 ()
  in
  let relay_admin_port = Netd.Admin.port relay_admin in
  let relay_pid = Unix.fork () in
  if relay_pid = 0 then
    relay_child ~hub ~admin:relay_admin ~metrics:relay_metrics ~oc:relay_oc ();
  (* editors: sites 0..N-1; each doc's lowest site is its administrator,
     so its copies validate the others' tentative requests *)
  let eds =
    List.map
      (fun site ->
        let metrics = Obs.Metrics.create () in
        let cell = fresh_cell () in
        let doc = doc_of_site site in
        let admin =
          Netd.Admin.create ~metrics
            ~healthz:(fun () ->
              Obs.Json.Obj
                [
                  ("status", Obs.Json.String "ok");
                  ("role", Obs.Json.String "editor");
                  ("site", Obs.Json.Int site);
                  ("doc", Obs.Json.String doc);
                  ("joined", Obs.Json.Bool cell.ec_joined);
                ])
            ~sessions:(fun () ->
              Obs.Json.Obj
                [
                  ("site", Obs.Json.Int site);
                  ("doc", Obs.Json.String doc);
                  ("joined", Obs.Json.Bool cell.ec_joined);
                  ("doc_len", Obs.Json.Int cell.ec_doc_len);
                  ("policy_version", Obs.Json.Int cell.ec_version);
                  ("pending_coop", Obs.Json.Int cell.ec_pending_coop);
                  ("pending_admin", Obs.Json.Int cell.ec_pending_admin);
                  ("tentative", Obs.Json.Int cell.ec_tentative);
                  ("sent", Obs.Json.Int cell.ec_sent);
                ])
            ~port:0 ()
        in
        let admin_port = Netd.Admin.port admin in
        let trace_path =
          Filename.concat trace_dir (Printf.sprintf "site%d.jsonl" site)
        in
        let partition =
          (* odd sites only: the even sites (and each doc's admin, site
             i mod K = lowest) keep the session alive through the cut *)
          if partition_ms > 0 && site mod 2 = 1 then
            Some (duration *. 1000. /. 3., float_of_int partition_ms)
          else None
        in
        let pid = Unix.fork () in
        if pid = 0 then
          editor_child ~cell ~metrics ~admin ~site ~doc ~relay_port ~rate
            ~duration ~seed ~chaos ~partition ~trace_path ();
        (site, pid, admin_port))
      all_users
  in
  let pids = relay_pid :: List.map (fun (_, p, _) -> p) eds in
  Printf.printf
    "loadgen: hub on %d (admin %d), %d editor(s) over %d doc(s), %g op/s each \
     for %gs\n%!"
    relay_port relay_admin_port editors ndocs rate duration;
  (match chaos with
   | Some cfg ->
     Printf.printf "loadgen: chaos %s (seed %d)%s\n%!" (Netd.Faults.to_string cfg)
       seed
       (if partition_ms > 0 then
          Printf.sprintf ", odd sites partitioned for %dms mid-run" partition_ms
        else "")
   | None ->
     if partition_ms > 0 then
       Printf.printf "loadgen: odd sites partitioned for %dms mid-run (seed %d)\n%!"
         partition_ms seed);
  (* phase 1: every editor joined *)
  let joined (_, _, aport) =
    match http_get ~port:aport ~path:"/healthz" with
    | Error _ -> false
    | Ok body -> (
      match Obs.Json.of_string (String.trim body) with
      | Error _ -> false
      | Ok j -> (
        match Obs.Json.member "joined" j with
        | Some (Obs.Json.Bool b) -> b
        | _ -> false))
  in
  let join_deadline = Obs.Clock.now_ms () +. 30_000. in
  let rec wait_join () =
    if List.for_all joined eds then true
    else if Obs.Clock.now_ms () > join_deadline then false
    else begin
      Unix.sleepf 0.1;
      wait_join ()
    end
  in
  if not (wait_join ()) then begin
    prerr_endline "loadgen: editors failed to join within 30s";
    kill_all pids;
    exit 2
  end;
  Printf.printf "loadgen: all editors joined; driving load...\n%!";
  (* phase 2: the measurement window, plus drain time for stragglers
     (a partition needs its heal reconnect to finish inside the drain) *)
  Unix.sleepf
    (duration
    +. (float_of_int drain_ms /. 1000.)
    +. if partition_ms > 0 then float_of_int partition_ms /. 1000. else 0.);
  (* phase 3: scrape every live admin endpoint and merge *)
  let merged = Obs.Metrics.create () in
  let scrape_failures = ref [] in
  List.iter
    (fun (name, aport) ->
      match http_get ~port:aport ~path:"/metrics" with
      | Ok body -> Obs.Export.merge_into merged (Obs.Export.parse_exposition body)
      | Error e -> scrape_failures := (name ^ ": " ^ e) :: !scrape_failures)
    (("relay", relay_admin_port)
     :: List.map (fun (s, _, p) -> (Printf.sprintf "site%d" s, p)) eds);
  kill_all pids;
  (* phase 4: the report *)
  let counters = Obs.Metrics.counters merged in
  let gauges = Obs.Metrics.gauges merged in
  let hists = Obs.Metrics.histograms merged in
  let counter name = try List.assoc name counters with Not_found -> 0 in
  let labeled base doc =
    counter (base ^ Obs.Metrics.render_labels [ ("doc", doc) ])
  in
  let per_doc =
    List.init ndocs (fun d ->
        let doc = doc_name d in
        let members = List.length (doc_sites d) in
        (doc, members, labeled "load_sent" doc, labeled "load_delivered" doc))
  in
  let sent = List.fold_left (fun a (_, _, s, _) -> a + s) 0 per_doc in
  let delivered = counter "controller_delivered" in
  let e2e =
    try Some (List.assoc "e2e_propagation_ns" hists) with Not_found -> None
  in
  let e2e_count = match e2e with Some s -> s.Obs.Metrics.count | None -> 0 in
  let e2e_p f = match e2e with Some s when e2e_count > 0 -> f s | _ -> 0. in
  let offered = float_of_int editors *. rate *. duration in
  (* every op sent into doc d should be delivered at the doc's other
     n_d - 1 editors plus the hub's own controller: n_d deliveries *)
  let expected =
    List.fold_left (fun a (_, n, s, _) -> a + (s * n)) 0 per_doc
  in
  let ratio =
    if expected = 0 then 0. else float_of_int delivered /. float_of_int expected
  in
  let throughput = float_of_int delivered /. duration in
  let per_doc_json =
    List.map
      (fun (doc, members, s, d) ->
        Obs.Json.Obj
          [
            ("doc", Obs.Json.String doc);
            ("editors", Obs.Json.Int members);
            ("sent_ops", Obs.Json.Int s);
            ("delivered", Obs.Json.Int d);
            ( "throughput_per_s",
              Obs.Json.Float (float_of_int d /. duration) );
          ])
      per_doc
  in
  let report =
    Obs.Json.Obj
      [
        ("section", Obs.Json.String "load");
        ("editors", Obs.Json.Int editors);
        ("docs", Obs.Json.Int ndocs);
        ("rate_per_editor", Obs.Json.Float rate);
        ("duration_s", Obs.Json.Float duration);
        ("seed", Obs.Json.Int seed);
        ( "chaos",
          match chaos with
          | Some cfg -> Obs.Json.String (Netd.Faults.to_string cfg)
          | None -> Obs.Json.String "" );
        ("partition_ms", Obs.Json.Int partition_ms);
        ("offered_ops", Obs.Json.Float offered);
        ("sent_ops", Obs.Json.Int sent);
        ("delivered", Obs.Json.Int delivered);
        ("delivery_ratio", Obs.Json.Float ratio);
        ("throughput_per_s", Obs.Json.Float throughput);
        ("per_doc", Obs.Json.List per_doc_json);
        ("e2e_samples", Obs.Json.Int e2e_count);
        ("e2e_p50_ns", Obs.Json.Float (e2e_p (fun s -> s.Obs.Metrics.p50)));
        ("e2e_p95_ns", Obs.Json.Float (e2e_p (fun s -> s.Obs.Metrics.p95)));
        ("e2e_p99_ns", Obs.Json.Float (e2e_p (fun s -> s.Obs.Metrics.p99)));
        ( "counters",
          Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Int v)) counters) );
        ( "gauges",
          Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Int v)) gauges) );
        ( "histograms",
          Obs.Json.Obj (List.map (fun (n, s) -> (n, json_of_summary s)) hists) );
      ]
  in
  let oc = open_out out in
  output_string oc (Obs.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Printf.printf
    "loadgen: sent %d, delivered %d (%.0f%% of expected), %.1f deliveries/s, \
     e2e p95 %.3f ms (%d sample(s))\n\
     report written to %s; traces in %s/\n%!"
    sent delivered (ratio *. 100.) throughput
    (e2e_p (fun s -> s.Obs.Metrics.p95) /. 1e6)
    e2e_count out trace_dir;
  let failures =
    List.concat
      [
        List.map (fun f -> "scrape failed: " ^ f) !scrape_failures;
        (if delivered = 0 then [ "nothing was delivered" ] else []);
        (if e2e_count = 0 then [ "no end-to-end latency samples" ] else []);
        (if ratio < min_ratio then
           [
             Printf.sprintf "delivery ratio %.2f under the gate %.2f" ratio
               min_ratio;
           ]
         else []);
      ]
  in
  List.iter (fun f -> Printf.eprintf "loadgen: FAIL: %s\n%!" f) failures;
  if failures = [] then 0 else 1

open Cmdliner

let editors =
  Arg.(value & opt int 3
       & info [ "editors" ] ~docv:"N" ~doc:"Editor processes (>= 2); site 0 is \
                                            the administrator.")

let rate =
  Arg.(value & opt float 20.
       & info [ "rate" ] ~docv:"OPS" ~doc:"Offered load per editor, ops/second \
                                           (open loop).")

let duration =
  Arg.(value & opt float 5.
       & info [ "duration" ] ~docv:"SECONDS" ~doc:"Length of the generation window.")

let drain_ms =
  Arg.(value & opt int 2000
       & info [ "drain-ms" ] ~docv:"MS"
           ~doc:"Extra settle time before scraping, for in-flight messages.")

let port =
  Arg.(value & opt int 0
       & info [ "port" ] ~docv:"PORT" ~doc:"Relay TCP port (0 = ephemeral).")

let text =
  Arg.(value & opt string "abc" & info [ "text" ] ~docv:"TEXT" ~doc:"Initial document.")

let trace_dir =
  Arg.(value & opt string "loadgen-traces"
       & info [ "trace-dir" ] ~docv:"DIR"
           ~doc:"Per-process JSONL traces land here (one per site plus the \
                 relay), ready for `trace.exe merge`.")

let out =
  Arg.(value & opt string "BENCH_load.json"
       & info [ "out" ] ~docv:"FILE" ~doc:"Report file.")

let min_ratio =
  Arg.(value & opt float 0.
       & info [ "min-delivery-ratio" ] ~docv:"R"
           ~doc:"Fail (exit 1) when delivered / expected falls under $(docv) — \
                 the CI throughput-regression gate.")

let docs_k =
  Arg.(value & opt int 1
       & info [ "docs" ] ~docv:"K"
           ~doc:"Shard the editors over $(docv) hub documents (editor i works \
                 on doc load(i mod K)); the report adds a per-document \
                 throughput breakdown.")

let seed =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N"
           ~doc:"Seed for the chaos fault plans and the reconnect jitter: the \
                 same seed replays the same fault schedule.")

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"Run every editor's outgoing frames through a seeded fault \
                 plan, e.g. \
                 $(b,dup=0.05,delay=0.1,delay_ms=40,reorder=0.05).  Combine \
                 with --min-delivery-ratio to gate graceful degradation.")

let partition_ms =
  Arg.(value & opt int 0
       & info [ "partition-ms" ] ~docv:"MS"
           ~doc:"Cut the odd-site editors off (outgoing frames dropped) for \
                 $(docv) starting a third of the way into the run, then heal \
                 by forcing a reconnect; the delivery gate then proves the \
                 rejoin snapshot + catch-up re-broadcast recovered the loss.")

let cmd =
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Open-loop SLO load harness: hub + N editors, scraped live")
    Term.(const run $ editors $ rate $ duration $ drain_ms $ port $ text
          $ trace_dir $ out $ min_ratio $ docs_k $ seed $ chaos_arg
          $ partition_ms)

let () = exit (Cmd.eval' cmd)
