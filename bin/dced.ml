(* dced: the hub daemon.

   Hosts any number of named collaborative editing sessions over real
   TCP: every document has its own controller, journal and member set,
   and every connected site's messages are fanned out to the other
   members of the same document.  Late joiners (or reconnecting sites)
   bootstrap from a snapshot of the hub's own session copy.  The hub
   enforces nothing from the paper's security model — each site's
   controller does, exactly as in the peer-to-peer deployment; the
   daemon only provides the reliable broadcast the model assumes (§3.3).

     dune exec bin/dced.exe -- --port 7471 --users 2 --text "abc"

   Then, from other terminals / machines:

     dune exec bin/p2pedit.exe -- --connect 127.0.0.1:7471 --site 1
     dune exec bin/p2pedit.exe -- --connect 127.0.0.1:7471 --site 1 --doc notes

   Clients without --doc attach to the document "main".
   Federation: a leaf hub relays a home hub's documents to its own
   members with

     dced --port 7472 --hub-id 2 --upstream 127.0.0.1:7471

   Site 0 is the administrator; sites 0..N are registered up front
   (more can join after an `adduser`).  SIGINT/SIGTERM shut down
   cleanly; with --metrics the transport counters are printed on
   exit. *)

open Dce_core
module Obs = Dce_obs
module Netd = Dce_netd
module Hub = Dce_hub.Hub

(* A site id no user will ever hold: each hosted controller is a
   passive group member that only integrates what it relays.  Offset by
   the hub id so federated hubs join each other's sessions under
   distinct sites. *)
let relay_site hub_id = 1_000_000 + hub_id

let parse_host_port s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i
    and p = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt p with
    | Some p when host <> "" -> Ok (host, p)
    | _ -> Error (Printf.sprintf "bad HOST:PORT %S" s))
  | None -> Error (Printf.sprintf "bad HOST:PORT %S" s)

let run port bind users text heartbeat_ms idle_timeout_ms data_dir fsync trace_file
    metrics_flag admin_port stats_jsonl docs_arg auto_create hub_id upstream_arg seed
    chaos_arg =
  (* a peer slamming its socket shut mid-write must surface as EPIPE on
     that connection, not kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the admin socket and the JSONL series both serve the registry, so
     either implies it *)
  let metrics =
    if metrics_flag || admin_port <> None || stats_jsonl <> None then
      Some (Obs.Metrics.create ())
    else None
  in
  Dce_wire.Codec.set_metrics metrics;
  let upstream =
    match upstream_arg with
    | None -> None
    | Some s -> (
      match parse_host_port s with
      | Ok hp -> Some hp
      | Error e ->
        prerr_endline ("dced: --upstream: " ^ e);
        exit 2)
  in
  let chaos =
    match chaos_arg with
    | None -> None
    | Some spec -> (
      match Netd.Faults.of_string spec with
      | Ok cfg -> Some (seed, cfg)
      | Error e ->
        prerr_endline ("dced: --chaos: " ^ e);
        exit 2)
  in
  let docs =
    List.filter (fun d -> d <> "") (String.split_on_char ',' docs_arg)
  in
  let docs = if docs = [] then [ "main" ] else docs in
  let default_doc = List.hd docs in
  let with_sink f =
    match trace_file with
    | None -> f Obs.Trace.null
    | Some path -> Obs.Trace.with_file path f
  in
  let fsync =
    match Dce_store.Store.fsync_policy_of_string fsync with
    | Ok p -> p
    | Error e ->
      prerr_endline ("dced: " ^ e);
      exit 2
  in
  with_sink (fun sink ->
      let fresh () =
        let all = List.init (users + 1) Fun.id in
        let policy =
          Policy.make ~users:all
            [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
        in
        Controller.create ~eq:Char.equal ~site:(relay_site hub_id) ~admin:0 ~policy
          ~trace:sink ?metrics (Dce_ot.Tdoc.of_string text)
      in
      (* Per-doc durability layout: the default document keeps the
         data-dir root (so a pre-hub directory recovers unchanged) and
         every other document journals under docs/<name>. *)
      let doc_dir root doc =
        if doc = default_doc then root else Filename.concat (Filename.concat root "docs") doc
      in
      let factory doc =
        match data_dir with
        | None -> Ok (fresh (), None)
        | Some root -> (
          let dir = doc_dir root doc in
          let config = { Dce_store.Store.default_config with fsync } in
          match
            Dce_store.Persist.opendir ~config ~eq:Char.equal ~trace:sink
              ~codec:Dce_wire.Proto.char_codec dir
          with
          | Error e -> Error e
          | Ok (j, rec_) -> (
            match rec_.Dce_store.Persist.controller with
            | Some c ->
              Printf.printf
                "dced: recovered session %S from %s (generation %d, %d log record(s) \
                 replayed%s)\n%!"
                doc dir
                (Dce_store.Persist.generation j)
                rec_.Dce_store.Persist.replayed
                (if rec_.Dce_store.Persist.truncated_bytes > 0 then
                   Printf.sprintf ", %d torn byte(s) dropped"
                     rec_.Dce_store.Persist.truncated_bytes
                 else "");
              let c =
                match metrics with Some m -> Controller.with_metrics m c | None -> c
              in
              Ok (c, Some j)
            | None -> Ok (fresh (), Some j)))
      in
      let addr = Unix.inet_addr_of_string bind in
      let config =
        {
          Hub.default_config with
          Hub.heartbeat_ms;
          idle_timeout_ms;
          hub_id;
          auto_create;
        }
      in
      let hub =
        try
          Hub.create ~config ?metrics ~trace:sink ~addr ?upstream ~seed ?chaos
            ~eq:Char.equal ~codec:Dce_wire.Proto.char_codec ~factory ~docs ~port ()
        with Failure e | Invalid_argument e ->
          prerr_endline ("dced: " ^ e);
          exit 1
      in
      (* each session's replica cut a fresh journal's base snapshot *)
      if Hub.journal_errors hub > 0 then begin
        Printf.eprintf "dced: %s cannot take its first checkpoint\n" (Option.get data_dir);
        exit 1
      end;
      let doc_json doc =
        let c = Hub.controller ~doc hub in
        Obs.Json.Obj
          [
            ("doc", Obs.Json.String doc);
            ("sites", Obs.Json.List
               (List.map (fun s -> Obs.Json.Int s) (Hub.connected_sites ~doc hub)));
            ("members", Obs.Json.Int (Hub.member_count ~doc hub));
            ("doc_len", Obs.Json.Int
               (Dce_ot.Tdoc.visible_length (Controller.document c)));
            ("doc_cells", Obs.Json.Int
               (Dce_ot.Tdoc.model_length (Controller.document c)));
            ("policy_version", Obs.Json.Int (Controller.version c));
            ("pending_coop", Obs.Json.Int (Controller.pending_coop c));
            ("pending_admin", Obs.Json.Int (Controller.pending_admin c));
            ("window_len", Obs.Json.Int (Controller.window_len c));
            ("compacted_upto", Obs.Json.Int
               (Dce_ot.Vclock.sum (Controller.compacted_upto c)));
            ("stable_lag", Obs.Json.Int (Controller.stable_lag c));
            ("fingerprint", Obs.Json.String
               (Dce_wire.Proto.content_fingerprint Dce_wire.Proto.char_codec c));
          ]
      in
      let sessions () =
        (* top-level fields describe the default document (the shape
           the single-session daemon served); "docs" lists everyone *)
        let c = Hub.controller hub in
        Obs.Json.Obj
          [
            ("sites", Obs.Json.List
               (List.map (fun s -> Obs.Json.Int s) (Hub.connected_sites hub)));
            ("doc_len", Obs.Json.Int
               (Dce_ot.Tdoc.visible_length (Controller.document c)));
            ("policy_version", Obs.Json.Int (Controller.version c));
            ("pending_coop", Obs.Json.Int (Controller.pending_coop c));
            ("pending_admin", Obs.Json.Int (Controller.pending_admin c));
            ("hub_id", Obs.Json.Int hub_id);
            ("upstream_connected", Obs.Json.Bool (Hub.upstream_connected hub));
            ("docs", Obs.Json.List (List.map doc_json (Hub.docs hub)));
          ]
      in
      (* real health: upstream degradation, journal write failures and
         runaway stability lag all flip the status (and the admin plane
         serves any not-"ok" status as a 503) *)
      let healthz () =
        match Hub.healthz hub () with
        | Obs.Json.Obj fields ->
          Obs.Json.Obj
            (fields
            @ [
                ("pid", Obs.Json.Int (Unix.getpid ()));
                ("port", Obs.Json.Int (Hub.port hub));
              ])
        | j -> j
      in
      let admin =
        Option.map
          (fun p -> Netd.Admin.create ?metrics ~healthz ~sessions ~port:p ())
          admin_port
      in
      let series =
        Option.map (fun path -> Obs.Export.series_create ~path ~interval_ms:1000)
          stats_jsonl
      in
      let stop = ref false in
      let handler = Sys.Signal_handle (fun _ -> stop := true) in
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigterm handler;
      Printf.printf "dced: listening on %s:%d (%d user(s) + admin, doc %S, %d doc(s))\n%!"
        bind (Hub.port hub) users text
        (List.length (Hub.docs hub));
      (match upstream with
       | Some (h, p) -> Printf.printf "dced: leaf of %s:%d (hub id %d)\n%!" h p hub_id
       | None -> ());
      (match admin with
       | Some a -> Printf.printf "dced: admin socket on %d\n%!" (Netd.Admin.port a)
       | None -> ());
      Hub.run ~tick_ms:100
        ~on_tick:(fun h ->
          (match metrics with
           | Some m ->
             Obs.Metrics.set (Obs.Metrics.gauge m "netd.conns") (Hub.conn_count h);
             Obs.Metrics.set (Obs.Metrics.gauge m "netd.outbox_bytes")
               (Hub.outbox_bytes h);
             Option.iter (fun s -> Obs.Export.series_tick s m) series
           | None -> ());
          Option.iter Netd.Admin.step admin;
          if !stop then begin
            (* shutdown checkpoints every session, so a clean restart
               replays nothing *)
            let before = Hub.journal_errors h in
            Hub.shutdown h;
            if Hub.journal_errors h > before then
              prerr_endline "dced: a final checkpoint failed; the next start replays the log"
          end)
        hub;
      Option.iter Netd.Admin.close admin;
      Option.iter Obs.Export.series_close series;
      List.iter
        (fun doc ->
          let c = Hub.controller ~doc hub in
          Printf.printf "dced: shut down; doc %S final %S (policy v%d)\n%!" doc
            (Dce_ot.Tdoc.visible_string (Controller.document c))
            (Controller.version c))
        (Hub.docs hub));
  (match trace_file with
   | Some path -> Printf.printf "trace written to %s\n" path
   | None -> ());
  match metrics with
  | Some m -> Format.printf "metrics:@.%a@." Obs.Metrics.pp m
  | None -> ()

open Cmdliner

let port =
  Arg.(value & opt int 7471
       & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on (0 = ephemeral).")

let bind =
  Arg.(value & opt string "127.0.0.1"
       & info [ "bind" ] ~docv:"ADDR" ~doc:"Address to bind.")

let users =
  Arg.(value & opt int 2
       & info [ "users" ] ~docv:"N" ~doc:"Number of non-admin users registered up front.")

let text =
  Arg.(value & opt string "abc" & info [ "text" ] ~docv:"TEXT" ~doc:"Initial document.")

let heartbeat_ms =
  Arg.(value & opt int 5000
       & info [ "heartbeat-ms" ] ~docv:"MS" ~doc:"Ping a silent connection after $(docv).")

let idle_timeout_ms =
  Arg.(value & opt int 30000
       & info [ "idle-timeout-ms" ] ~docv:"MS" ~doc:"Drop a silent connection after $(docv).")

let data_dir =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Persist the sessions to $(docv) (write-ahead log + snapshots): a \
                 killed or crashed daemon restarted on the same directory resumes \
                 every session with seqnos and late-joiner snapshots intact.  The \
                 default document keeps the directory root; other documents \
                 journal under $(docv)/docs/NAME.")

let fsync =
  Arg.(value & opt string "interval:64"
       & info [ "fsync" ] ~docv:"POLICY"
           ~doc:"Log durability policy with --data-dir: $(b,always), $(b,never), \
                 or $(b,interval:N) (fsync every N records).")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSONL trace (connection lifecycle + the hub's own \
                 integration events) to $(docv).")

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Count transport work (bytes/frames in/out, connection lifecycle, \
                 per-doc fan-out); print the registry on exit.")

let admin_port =
  Arg.(value & opt (some int) None
       & info [ "admin" ] ~docv:"PORT"
           ~doc:"Serve a loopback admin socket on $(docv) (0 = ephemeral): \
                 $(b,/metrics) (Prometheus text exposition), $(b,/healthz) and \
                 $(b,/sessions) (JSON, one entry per hosted document).  Implies \
                 --metrics.")

let stats_jsonl =
  Arg.(value & opt (some string) None
       & info [ "stats-jsonl" ] ~docv:"FILE"
           ~doc:"Append a JSON metrics snapshot to $(docv) every second (a JSONL \
                 time series).  Implies --metrics.")

let docs_arg =
  Arg.(value & opt string "main"
       & info [ "docs" ] ~docv:"NAMES"
           ~doc:"Comma-separated document names to host.  The first is the \
                 default document: its journal keeps the --data-dir root and \
                 /sessions reports it at top level.")

let auto_create =
  Arg.(value & flag
       & info [ "auto-create" ]
           ~doc:"Open a new session on the first $(b,Attach) to an unknown \
                 document name; without this flag, unknown names drop the peer.")

let hub_id =
  Arg.(value & opt int 0
       & info [ "hub-id" ] ~docv:"N"
           ~doc:"This hub's federation identity (loop prevention); required \
                 nonzero and unique with --upstream.")

let upstream_arg =
  Arg.(value & opt (some string) None
       & info [ "upstream" ] ~docv:"HOST:PORT"
           ~doc:"Run as a federation leaf of the given home hub: every hosted \
                 document is attached upstream, local frames are forwarded up and \
                 home frames are rebroadcast to local members.")

let seed =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N"
           ~doc:"Process-level randomness seed: fixes the upstream reconnect \
                 jitter and every --chaos fault plan, so a failing run can be \
                 replayed exactly.")

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"Inject deterministic faults into every outgoing frame (members \
                 and the federation link), e.g. \
                 $(b,drop=0.05,dup=0.02,delay=0.1,delay_ms=40,reorder=0.05).  \
                 Reproducible from --seed; for soak tests only.")

let cmd =
  Cmd.v
    (Cmd.info "dced" ~doc:"Hub daemon for multi-process collaborative sessions")
    Term.(const run $ port $ bind $ users $ text $ heartbeat_ms $ idle_timeout_ms
          $ data_dir $ fsync $ trace_file $ metrics_flag $ admin_port $ stats_jsonl
          $ docs_arg $ auto_create $ hub_id $ upstream_arg $ seed $ chaos_arg)

let () = exit (Cmd.eval cmd)
