(* p2pedit: a scriptable multi-site collaborative editor.

   The CLI counterpart of the paper's p2pEdit prototype (Fig. 6): it
   hosts every site of a session in one process with an explicit
   in-flight message pool, so delivery order — the whole subject of the
   paper — is under your control.

     dune exec bin/p2pedit.exe -- --users 2 --text "abc"

   With --connect the same tool becomes ONE site of a multi-process
   session hosted by a dced relay (see bin/dced.ml): this process drives
   a single [Dce_netd.Site], which joins from a snapshot (or a delta)
   and exchanges messages over real TCP.  Connect-mode commands drop the site column (you are
   the site) and add `sleep <ms>` to pump the network from scripts:

     dune exec bin/p2pedit.exe -- --connect 127.0.0.1:7471 --site 1

   Commands (one per line, '#' comments; read from stdin, so sessions
   can be piped in as scripts):

     ins <site> <pos> <char>     insert at a visible position
     del <site> <pos>            delete the element at a visible position
     up  <site> <pos> <char>     replace the element at a visible position
     deny <user> <right>         admin adds a top negative authorization
                                 (right: i, d or u)
     allow <user> <right>        admin adds a top positive authorization
     adduser <user>              admin registers a user
     deliver [<n>|all]           deliver the n-th in-flight message (default
                                 0), or everything
     save <site> <file>          persist a site's full state to disk
     load <site> <file>          replace a site's state from disk
     wire                        list in-flight messages
     show                        show every site's document and version
     log <site>                  show a site's cooperative log
     policy <site>               show a site's policy copy
     quit

   Site 0 is the administrator. *)

open Dce_ot
open Dce_core
module Obs = Dce_obs

type state = {
  mutable sites : (int * char Controller.t) list;
  mutable wire : (int * char Controller.message) list;
  sink : Obs.Trace.sink;
}

let controller st u =
  match List.assoc_opt u st.sites with
  | Some c -> c
  | None -> failwith (Printf.sprintf "no site %d" u)

let set st u c =
  st.sites <- List.map (fun (v, c') -> if v = u then (v, c) else (v, c')) st.sites

let post st src msgs =
  List.iter
    (fun m ->
      if Obs.Trace.enabled st.sink then begin
        let c = controller st src in
        Obs.Trace.emit st.sink ~site:src ~clock:(Controller.clock c)
          ~version:(Controller.version c)
          (Obs.Trace.Broadcast
             {
               targets = List.length st.sites - 1;
               coop = (match m with Controller.Coop _ -> true | Controller.Admin _ -> false);
             })
      end;
      List.iter (fun (u, _) -> if u <> src then st.wire <- st.wire @ [ (u, m) ]) st.sites)
    msgs

let pp_message ppf = function
  | Controller.Coop q -> Request.pp Fmt.char ppf q
  | Controller.Admin r -> Admin_op.pp_request ppf r

let show_site u c =
  Printf.printf "site %d%s: %S  (policy v%d%s)\n%!" u
    (if Controller.is_admin c then "*" else "")
    (Tdoc.visible_string (Controller.document c))
    (Controller.version c)
    (match List.length (Controller.tentative c) with
     | 0 -> ""
     | n -> Printf.sprintf ", %d tentative" n)

let show st =
  List.iter (fun (u, c) -> show_site u c) st.sites;
  Printf.printf "%d message(s) in flight\n" (List.length st.wire)

let edit st u op =
  match Controller.generate (controller st u) op with
  | c, Controller.Accepted m ->
    set st u c;
    post st u [ m ];
    Printf.printf "site %d -> %S\n" u (Tdoc.visible_string (Controller.document c))
  | _, Controller.Denied reason -> Printf.printf "site %d denied: %s\n" u reason

let admin st op =
  match Controller.admin_update (controller st 0) op with
  | Ok (c, m) ->
    set st 0 c;
    post st 0 [ m ];
    Printf.printf "admin -> policy v%d\n" (Controller.version c)
  | Error e -> Printf.printf "admin error: %s\n" e

let deliver st k =
  let rec take i acc = function
    | [] -> None
    | m :: rest when i = 0 -> Some (m, List.rev_append acc rest)
    | m :: rest -> take (i - 1) (m :: acc) rest
  in
  match take k [] st.wire with
  | None -> Printf.printf "no such message\n"
  | Some ((dst, m), rest) ->
    st.wire <- rest;
    let c, emitted = Controller.receive (controller st dst) m in
    set st dst c;
    post st dst emitted;
    Format.printf "delivered to %d: %a@." dst pp_message m

let right_of_string = function
  | "i" | "iR" -> Some Right.Insert
  | "d" | "dR" -> Some Right.Delete
  | "u" | "uR" -> Some Right.Update
  | "r" | "rR" -> Some Right.Read
  | _ -> None

(* the administrator's commands, in both modes: [None] when [words] is
   not one of them *)
let admin_command words =
  let auth mk u r =
    match right_of_string r with
    | Some right ->
      Ok (Admin_op.Add_auth (0, mk [ Subject.User (int_of_string u) ] [ Docobj.Whole ] [ right ]))
    | None -> Error (Printf.sprintf "unknown right %S (use i, d, u or r)" r)
  in
  match words with
  | [ "deny"; u; r ] -> Some (auth Auth.deny u r)
  | [ "allow"; u; r ] -> Some (auth Auth.grant u r)
  | [ "adduser"; u ] -> Some (Ok (Admin_op.Add_user (int_of_string u)))
  | _ -> None

let words_of line =
  List.filter (fun s -> s <> "") (String.split_on_char ' ' (String.trim line))

let session users text sink =
  let all = List.init (users + 1) Fun.id in
  let policy =
    Policy.make ~users:all [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  let doc0 = Tdoc.of_string text in
  let st =
    {
      sites =
        List.map
          (fun u ->
            (u, Controller.create ~eq:Char.equal ~site:u ~admin:0 ~policy ~trace:sink doc0))
          all;
      wire = [];
      sink;
    }
  in
  show st;
  (try
     while true do
       print_string "> ";
       let words = words_of (read_line ()) in
       try
         match words with
         | [] -> ()
         | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
         | [ "quit" ] | [ "exit" ] -> raise Exit
         | [ "show" ] -> show st
         | [ "wire" ] ->
           List.iteri
             (fun i (dst, m) -> Format.printf "%2d: to %d: %a@." i dst pp_message m)
             st.wire
         | [ "deliver" ] -> deliver st 0
         | [ "deliver"; "all" ] ->
           while st.wire <> [] do
             deliver st 0
           done
         | [ "deliver"; n ] -> deliver st (int_of_string n)
         | [ "ins"; u; p; ch ] when String.length ch = 1 ->
           let u = int_of_string u in
           edit st u
             (Tdoc.ins_visible (Controller.document (controller st u)) (int_of_string p)
                ch.[0])
         | [ "del"; u; p ] ->
           let u = int_of_string u in
           edit st u
             (Tdoc.del_visible (Controller.document (controller st u)) (int_of_string p))
         | [ "up"; u; p; ch ] when String.length ch = 1 ->
           let u = int_of_string u in
           edit st u
             (Tdoc.up_visible (Controller.document (controller st u)) (int_of_string p)
                ch.[0])
         | [ "save"; u; path ] ->
           Dce_wire.Proto.Char_proto.save path (controller st (int_of_string u));
           Printf.printf "site %s saved to %s\n" u path
         | [ "load"; u; path ] -> (
             match Dce_wire.Proto.Char_proto.restore ~trace:st.sink path with
             | Ok c -> begin
                 let u = int_of_string u in
                 match List.assoc_opt u st.sites with
                 | Some _ ->
                   set st u c;
                   Printf.printf "site %d restored from %s\n" u path
                 | None -> Printf.printf "no site %d in this session\n" u
               end
             | Error e -> Printf.printf "restore failed: %s\n" e)
         | [ "log"; u ] ->
           Format.printf "%a@."
             (Oplog.pp Fmt.char)
             (Controller.oplog (controller st (int_of_string u)))
         | [ "policy"; u ] ->
           Format.printf "%a@." Policy.pp
             (Controller.policy (controller st (int_of_string u)))
         | _ -> (
           match admin_command words with
           | Some (Ok op) -> admin st op
           | Some (Error e) -> print_endline e
           | None -> Printf.printf "unrecognized command (see the header of bin/p2pedit.ml)\n")
       with
       | Exit -> raise Exit
       | Failure msg -> Printf.printf "error: %s\n" msg
       | Invalid_argument msg -> Printf.printf "error: %s\n" msg
     done
   with Exit | End_of_file -> ());
  print_endline "\nfinal state:";
  show st

(* ----- networked mode (--connect): one site against a dced relay ----- *)

module Netd = Dce_netd
module Site = Netd.Site
module Persist = Dce_store.Persist
module Proto = Dce_wire.Proto

let net_show site =
  let me = Netd.Client.site (Site.client site) in
  match Site.controller site with
  | None -> Printf.printf "site %d: not joined yet\n%!" me
  | Some c -> show_site me c

let net_notice site = function
  | Site.Joined { delta; resent } ->
    if resent > 0 then
      Printf.printf "caught up%s; re-broadcasting %d message(s)\n%!"
        (if delta then " (delta)" else "")
        resent;
    net_show site
  | Site.Integrated _ -> ()
  | Site.Dropped reason -> Printf.printf "dropped: %s\n%!" reason
  | Site.Link Netd.Client.Connected ->
    Printf.printf "connected; joining as site %d...\n%!"
      (Netd.Client.site (Site.client site))
  | Site.Link (Netd.Client.Disconnected reason) ->
    Printf.printf "disconnected: %s\n%!" reason
  | Site.Link (Netd.Client.Reconnecting { attempt; delay_ms }) ->
    Printf.printf "reconnecting (attempt %d) in %d ms\n%!" attempt delay_ms
  | Site.Link (Netd.Client.Gave_up reason) -> Printf.printf "gave up: %s\n%!" reason
  | Site.Link _ -> ()

let net_step site admin_srv timeout_ms =
  List.iter (net_notice site) (Site.step ~timeout_ms site);
  Option.iter Netd.Admin.step admin_srv

let net_pump site admin_srv ms =
  let deadline = Obs.Clock.now_ms () +. float_of_int ms in
  let rec go () =
    let remaining_ms = deadline -. Obs.Clock.now_ms () in
    if remaining_ms > 0. && not (Netd.Client.stopped (Site.client site)) then begin
      net_step site admin_srv (int_of_float (Float.min 50. remaining_ms));
      go ()
    end
  in
  go ()

let net_command site admin_srv words =
  let joined f =
    match Site.controller site with
    | None -> Printf.printf "not joined yet\n%!"
    | Some c -> f c
  in
  let edit op_of_doc =
    joined (fun c ->
        match Site.generate site (op_of_doc (Controller.document c)) with
        | Ok _ ->
          Printf.printf "site %d -> %S\n%!" (Controller.site c)
            (Tdoc.visible_string
               (Controller.document (Option.get (Site.controller site))))
        | Error reason -> Printf.printf "denied: %s\n%!" reason)
  in
  match words with
  | [] -> ()
  | w :: _ when String.length w > 0 && w.[0] = '#' -> ()
  | [ "quit" ] | [ "exit" ] -> raise Exit
  | [ "show" ] -> net_show site
  | [ "sleep"; ms ] -> net_pump site admin_srv (int_of_string ms)
  | [ "ins"; p; ch ] when String.length ch = 1 ->
    edit (fun d -> Tdoc.ins_visible d (int_of_string p) ch.[0])
  | [ "del"; p ] -> edit (fun d -> Tdoc.del_visible d (int_of_string p))
  | [ "up"; p; ch ] when String.length ch = 1 ->
    edit (fun d -> Tdoc.up_visible d (int_of_string p) ch.[0])
  | [ "log" ] -> joined (fun c -> Format.printf "%a@." (Oplog.pp Fmt.char) (Controller.oplog c))
  | [ "policy" ] -> joined (fun c -> Format.printf "%a@." Policy.pp (Controller.policy c))
  | _ -> (
    match admin_command words with
    | Some (Ok op) -> (
      match Site.admin site op with
      | Ok _ ->
        Printf.printf "admin -> policy v%d\n%!"
          (Controller.version (Option.get (Site.controller site)))
      | Error e -> Printf.printf "admin error: %s\n%!" e)
    | Some (Error e) -> Printf.printf "%s\n%!" e
    | None ->
      Printf.printf
        "unrecognized command (connect mode: \
         ins/del/up/deny/allow/adduser/show/log/policy/sleep/quit)\n%!")

(* the health and session reports of the admin socket: a disconnected
   editor or a failed checkpoint is degraded (served as a 503) *)
let net_healthz site () =
  let connected = Netd.Client.connected (Site.client site) in
  let reasons =
    (if connected then [] else [ "relay link down" ])
    @ if Site.journal_errors site = 0 then [] else [ "journal errors" ]
  in
  Obs.Json.Obj
    ([
       ("status", Obs.Json.String (if reasons = [] then "ok" else "degraded"));
       ("role", Obs.Json.String "editor");
       ("site", Obs.Json.Int (Netd.Client.site (Site.client site)));
       ("pid", Obs.Json.Int (Unix.getpid ()));
       ("connected", Obs.Json.Bool connected);
       ("journal_errors", Obs.Json.Int (Site.journal_errors site));
     ]
    @
    if reasons = [] then []
    else [ ("reasons", Obs.Json.List (List.map (fun r -> Obs.Json.String r) reasons)) ])

let net_sessions site () =
  match Site.controller site with
  | None -> Obs.Json.Obj [ ("joined", Obs.Json.Bool false) ]
  | Some c ->
    Obs.Json.Obj
      [
        ("joined", Obs.Json.Bool true);
        ("site", Obs.Json.Int (Controller.site c));
        ("doc_len", Obs.Json.Int (Tdoc.visible_length (Controller.document c)));
        ("policy_version", Obs.Json.Int (Controller.version c));
        ("pending_coop", Obs.Json.Int (Controller.pending_coop c));
        ("pending_admin", Obs.Json.Int (Controller.pending_admin c));
        ("tentative", Obs.Json.Int (List.length (Controller.tentative c)));
        ("window_len", Obs.Json.Int (Controller.window_len c));
        ("compacted_upto", Obs.Json.Int (Vclock.sum (Controller.compacted_upto c)));
        ("stable_lag", Obs.Json.Int (Controller.stable_lag c));
      ]

(* stdin is consumed with raw reads and an explicit line buffer, so it
   can sit in the same poll as the socket without an in_channel
   buffering the lines away between wakeups *)
let net_session host port my_site doc sink metrics data_dir fsync admin_port seed
    chaos =
  let journal, recovered =
    match data_dir with
    | None -> (None, None)
    | Some dir -> (
      let config = { Dce_store.Store.default_config with fsync } in
      match Persist.opendir ~config ~eq:Char.equal ~trace:sink ~codec:Proto.char_codec dir with
      | Error e ->
        prerr_endline ("p2pedit: " ^ e);
        exit 1
      | Ok (j, r) -> (Some j, Some r))
  in
  let state = Option.bind recovered (fun r -> r.Persist.controller) in
  (match (state, recovered, journal) with
   | Some c, Some r, Some j ->
     Printf.printf
       "recovered site %d from %s (generation %d, %d log record(s) replayed%s)\n%!"
       my_site (Persist.dir j) (Persist.generation j) r.Persist.replayed
       (if r.Persist.truncated_bytes > 0 then
          Printf.sprintf ", %d torn byte(s) dropped" r.Persist.truncated_bytes
        else "");
     if Controller.site c <> my_site then begin
       Printf.eprintf "p2pedit: %s holds state for site %d, not --site %d\n"
         (Persist.dir j) (Controller.site c) my_site;
       exit 2
     end
   | _ -> ());
  let faults =
    Option.map
      (fun cfg ->
        Netd.Faults.create ~config:cfg ~seed ~label:(Printf.sprintf "site-%d" my_site) ())
      chaos
  in
  let site =
    Site.create ?metrics ~trace:sink ?journal ?state
      ?owed:(Option.map (fun r -> r.Persist.emitted) recovered)
      ~codec:Proto.char_codec ~eq:Char.equal
      (Netd.Client.create ?metrics ~trace:sink ~seed ?doc ?faults ~host ~port
         ~site:my_site ())
  in
  let admin_srv =
    Option.map
      (fun p ->
        let a =
          Netd.Admin.create ?metrics ~healthz:(net_healthz site)
            ~sessions:(net_sessions site) ~port:p ()
        in
        Printf.printf "admin socket on %d\n%!" (Netd.Admin.port a);
        a)
      admin_port
  in
  let client = Site.client site in
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let eof = ref false in
  (try
     while not !eof && not (Netd.Client.stopped client) do
       let fds =
         Unix.stdin
         :: ((match Netd.Client.fd client with Some fd -> [ fd ] | None -> [])
             @ match admin_srv with Some a -> Netd.Admin.fds a | None -> [])
       in
       let rd, _ = Netd.Evloop.wait ~timeout_ms:100 ~read:fds ~write:[] () in
       (match metrics with
        | Some m ->
          Obs.Metrics.set
            (Obs.Metrics.gauge m "netd.outbox_bytes")
            (Netd.Client.outbox_bytes client)
        | None -> ());
       net_step site admin_srv 0;
       if List.mem Unix.stdin rd then begin
         (match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
          | 0 -> eof := true
          | n -> Buffer.add_subbytes buf chunk 0 n);
         let data = Buffer.contents buf in
         Buffer.clear buf;
         let rec lines s =
           match String.index_opt s '\n' with
           | Some i ->
             let line = String.sub s 0 i in
             let rest = String.sub s (i + 1) (String.length s - i - 1) in
             (try net_command site admin_srv (words_of line) with
              | Exit -> raise Exit
              | Failure msg | Invalid_argument msg -> Printf.printf "error: %s\n%!" msg);
             lines rest
           | None -> Buffer.add_string buf s
         in
         lines data
       end
     done
   with Exit -> ());
  Option.iter Netd.Admin.close admin_srv;
  Site.close site;
  print_endline "final state:";
  net_show site

let run_local users text trace_file metrics_flag =
  let metrics = if metrics_flag then Some (Obs.Metrics.create ()) else None in
  Dce_wire.Codec.set_metrics metrics;
  let with_sink f =
    match trace_file with
    | None -> f Obs.Trace.null
    | Some path -> Obs.Trace.with_file path f
  in
  with_sink (fun file_sink ->
      let sink =
        match metrics with
        | None -> file_sink
        | Some m -> Obs.Trace.tee (Obs.Trace.count_into m) file_sink
      in
      session users text sink);
  (match trace_file with
   | Some path -> Printf.printf "trace written to %s\n" path
   | None -> ());
  match metrics with
  | Some m -> Format.printf "metrics:@.%a@." Obs.Metrics.pp m
  | None -> ()

let run users text trace_file metrics_flag connect site_arg doc_arg data_dir fsync
    admin_port seed chaos_arg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fsync =
    match Dce_store.Store.fsync_policy_of_string fsync with
    | Ok p -> p
    | Error e ->
      prerr_endline ("p2pedit: " ^ e);
      exit 2
  in
  let chaos =
    match chaos_arg with
    | None -> None
    | Some spec -> (
      match Netd.Faults.of_string spec with
      | Ok cfg -> Some cfg
      | Error e ->
        prerr_endline ("p2pedit: --chaos: " ^ e);
        exit 2)
  in
  match connect with
  | None ->
    ignore fsync;
    (match data_dir with
     | Some _ ->
       prerr_endline "p2pedit: --data-dir applies to connect mode (--connect)";
       exit 2
     | None -> ());
    (match doc_arg with
     | Some _ ->
       prerr_endline "p2pedit: --doc applies to connect mode (--connect)";
       exit 2
     | None -> ());
    run_local users text trace_file metrics_flag
  | Some spec ->
    let host, port =
      match String.rindex_opt spec ':' with
      | Some i -> (
          ( String.sub spec 0 i,
            try int_of_string (String.sub spec (i + 1) (String.length spec - i - 1))
            with Failure _ -> -1 ))
      | None -> (spec, -1)
    in
    if port < 0 then begin
      Printf.eprintf "p2pedit: --connect expects HOST:PORT, got %S\n" spec;
      exit 2
    end;
    let metrics =
      if metrics_flag || admin_port <> None then Some (Obs.Metrics.create ())
      else None
    in
    Dce_wire.Codec.set_metrics metrics;
    let with_sink f =
      match trace_file with
      | None -> f Obs.Trace.null
      | Some path -> Obs.Trace.with_file path f
    in
    with_sink (fun sink ->
        net_session host port site_arg doc_arg sink metrics data_dir fsync admin_port
          seed chaos);
    (match trace_file with
     | Some path -> Printf.printf "trace written to %s\n" path
     | None -> ());
    (match metrics with
     | Some m -> Format.printf "metrics:@.%a@." Obs.Metrics.pp m
     | None -> ())

open Cmdliner

let users =
  Arg.(value & opt int 2 & info [ "users" ] ~docv:"N" ~doc:"Number of non-admin users.")

let text =
  Arg.(value & opt string "abc" & info [ "text" ] ~docv:"TEXT" ~doc:"Initial document.")

let trace_file =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSONL trace of the session to $(docv) (inspect with bin/trace.exe).")

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Count events and wire-codec work; print the registry on exit.")

let connect =
  Arg.(value & opt (some string) None
       & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"Join a dced relay as a single site instead of hosting every site \
                 in-process.")

let site_arg =
  Arg.(value & opt int 1
       & info [ "site" ] ~docv:"N"
           ~doc:"Site id to join as (with --connect; 0 is the administrator).")

let doc_arg =
  Arg.(value & opt (some string) None
       & info [ "doc" ] ~docv:"NAME"
           ~doc:"With --connect: attach to the hub's document $(docv) (default \
                 $(b,main)).")

let data_dir =
  Arg.(value & opt (some string) None
       & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"With --connect: persist this site to $(docv) (write-ahead log + \
                 snapshots).  A killed process restarted on the same directory \
                 replays its log, resumes its identity, and re-broadcasts local \
                 requests the group has not seen — instead of the lossy snapshot \
                 rejoin.")

let fsync =
  Arg.(value & opt string "interval:64"
       & info [ "fsync" ] ~docv:"POLICY"
           ~doc:"Log durability policy with --data-dir: $(b,always), $(b,never), \
                 or $(b,interval:N).")

let admin_port =
  Arg.(value & opt (some int) None
       & info [ "admin" ] ~docv:"PORT"
           ~doc:"With --connect: serve a loopback admin socket on $(docv) (0 = \
                 ephemeral): $(b,/metrics) (Prometheus text exposition), \
                 $(b,/healthz) and $(b,/sessions) (JSON).  Implies --metrics.")

let seed =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N"
           ~doc:"Process-level randomness seed: fixes the reconnect jitter and \
                 the --chaos fault plan, so a failing run can be replayed \
                 exactly.")

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"With --connect: filter every outgoing frame through a seeded \
                 fault plan, e.g. \
                 $(b,drop=0.05,dup=0.02,delay=0.1,delay_ms=40,reorder=0.05).")

let cmd =
  Cmd.v
    (Cmd.info "p2pedit" ~doc:"Scriptable secured collaborative editing session")
    Term.(const run $ users $ text $ trace_file $ metrics_flag $ connect $ site_arg
          $ doc_arg $ data_dir $ fsync $ admin_port $ seed $ chaos_arg)

let () = exit (Cmd.eval cmd)
