(* Tests for the multi-document hub: document-name hygiene, the
   poll-based event loop (including the select() FD_SETSIZE cliff it
   exists to avoid), multi-doc isolation over real TCP, raw-socket
   multiplexing with attach/detach, hostile attach frames and the
   retired single-document greeting, two-hub federation with a late
   joiner snapshotting from the leaf, delta resumes, the editor
   runtime's journal discipline, and journal faults that degrade a hub
   or an editor without stopping it. *)

open Dce_ot
open Dce_core
module Netd = Dce_netd
module Site = Netd.Site
module Persist = Dce_store.Persist
module Io = Dce_store.Io
module Hub = Dce_hub.Hub
module Upstream = Dce_hub.Upstream
module Evloop = Dce_netd.Evloop
module Doc_name = Dce_hub.Doc_name
module Vclock = Dce_ot.Vclock
module Codec = Dce_wire.Codec
module Proto = Dce_wire.Proto
module Obs = Dce_obs

(* ----- document names ----- *)

let doc_name_tests =
  [
    Alcotest.test_case "accepts fs/metric/wire-safe names" `Quick (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check bool) (Printf.sprintf "valid %S" n) true
              (Doc_name.valid n))
          [ "main"; "a"; "notes-2024"; "team.docs"; "A_b.C-d"; String.make 64 'x' ]);
    Alcotest.test_case "rejects hostile names" `Quick (fun () ->
        List.iter
          (fun n ->
            Alcotest.(check bool) (Printf.sprintf "invalid %S" n) false
              (Doc_name.valid n))
          [
            "";
            String.make 65 'x';
            "../evil";
            "a/b";
            "a b";
            ".hidden";
            "-flag";
            "caf\xc3\xa9";
            "a\nb";
            "doc\x00";
          ]);
  ]

(* ----- evloop ----- *)

let evloop_tests =
  [
    Alcotest.test_case "readiness on a socketpair" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
        (* nothing to read yet: only write readiness *)
        let rd, wr = Evloop.wait ~timeout_ms:0 ~read:[ a ] ~write:[ a ] () in
        Alcotest.(check bool) "no read readiness on a quiet socket" true (rd = []);
        Alcotest.(check bool) "write readiness on an empty buffer" true (wr = [ a ]);
        ignore (Unix.write_substring b "x" 0 1);
        let rd, _ = Evloop.wait ~timeout_ms:100 ~read:[ a; b ] ~write:[] () in
        Alcotest.(check bool) "readable end reported" true (List.memq a rd);
        Alcotest.(check bool) "quiet end not reported" false (List.memq b rd));
    Alcotest.test_case "timeout expires on quiet fds" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
        let t0 = Unix.gettimeofday () in
        let rd, wr = Evloop.wait ~timeout_ms:60 ~read:[ a; b ] ~write:[] () in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "nothing ready" true (rd = [] && wr = []);
        Alcotest.(check bool) "waited for the timeout" true (dt >= 0.03));
    Alcotest.test_case "duplicate fds are reported once" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
        ignore (Unix.write_substring b "x" 0 1);
        let rd, _ = Evloop.wait ~timeout_ms:100 ~read:[ a; a; a ] ~write:[] () in
        Alcotest.(check int) "one entry" 1 (List.length rd));
    Alcotest.test_case "survives >1024 fds (select's FD_SETSIZE cliff)" `Quick
      (fun () ->
        (* allocate pipes until the read set alone passes FD_SETSIZE;
           select() would refuse or corrupt beyond 1024, poll() must
           not.  When the fd ulimit forbids it, log a skip. *)
        let pipes = ref [] in
        let failed = ref None in
        (try
           while List.length !pipes < 600 do
             pipes := Unix.pipe ~cloexec:true () :: !pipes
           done
         with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
           failed := Some "fd ulimit");
        Fun.protect ~finally:(fun () ->
            List.iter
              (fun (r, w) ->
                (try Unix.close r with Unix.Unix_error _ -> ());
                try Unix.close w with Unix.Unix_error _ -> ())
              !pipes)
        @@ fun () ->
        match !failed with
        | Some why ->
          Printf.printf "SKIP: cannot allocate >1024 fds here (%s)\n%!" why
        | None ->
          let reads = List.map fst !pipes in
          let high =
            List.fold_left (fun acc fd -> max acc (Obj.magic fd : int)) 0 reads
          in
          Alcotest.(check bool) "an fd beyond FD_SETSIZE is in the set" true
            (high >= 1024);
          let target_r, target_w = List.nth !pipes 17 in
          ignore (Unix.write_substring target_w "y" 0 1);
          let rd, _ = Evloop.wait ~timeout_ms:1000 ~read:reads ~write:[] () in
          Alcotest.(check bool) "the one readable pipe is found" true
            (List.memq target_r rd);
          Alcotest.(check int) "and only that one" 1 (List.length rd));
  ]

(* ----- loopback helpers ----- *)

let relay_site = 1_000_000

let mk_controller ~site text =
  let policy =
    Policy.make ~users:[ 0; 1; 2 ]
      [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  Controller.create ~eq:Char.equal ~site ~admin:0 ~policy ~trace:Obs.Trace.null
    (Tdoc.of_string text)

let mk_hub ?metrics ?(docs = [ "main" ]) ?(hub_id = 0) ?upstream ?(auto_create = false)
    ?beacon_ms ?compact_ms ?journal ?(port = 0) () =
  let config = { Hub.default_config with Hub.hub_id; auto_create } in
  let config =
    match beacon_ms with None -> config | Some b -> { config with Hub.beacon_ms = b }
  in
  let config =
    match compact_ms with None -> config | Some c -> { config with Hub.compact_ms = c }
  in
  Hub.create ~config ?metrics ?upstream ~codec:Proto.char_codec
    ~factory:(fun _doc -> Ok (mk_controller ~site:(relay_site + hub_id) "abc", journal))
    ~docs ~port ()

(* every endpoint is a [Netd.Site], the one editor runtime; the test
   keeps only counts *)
type endpoint = {
  s : char Site.t;
  site : int;
  mutable joins : int; (* state transfers integrated *)
  mutable resent : int; (* messages re-sent behind them *)
  mutable got_msgs : int;
}

let ctrl ep = Site.controller ep.s

let on_notice ep = function
  | Site.Joined { resent; _ } ->
    ep.joins <- ep.joins + 1;
    ep.resent <- ep.resent + resent
  | Site.Integrated _ -> ep.got_msgs <- ep.got_msgs + 1
  | Site.Dropped reason -> Alcotest.failf "site %d dropped input: %s" ep.site reason
  | Site.Link (Netd.Client.Gave_up reason) ->
    Alcotest.failf "site %d gave up: %s" ep.site reason
  | Site.Link _ -> ()

let mk_endpoint ?doc ?heartbeat_ms ?journal ?state ?owed ~port ~site () =
  let config =
    {
      Netd.Client.default_config with
      Netd.Client.backoff_base_ms = 5;
      backoff_max_ms = 50;
      max_attempts = Some 100;
    }
  in
  let config =
    match heartbeat_ms with
    | None -> config
    | Some h -> { config with Netd.Client.heartbeat_ms = h }
  in
  let client = Netd.Client.create ~config ~seed:site ?doc ~host:"127.0.0.1" ~port ~site () in
  {
    s = Site.create ?journal ?state ?owed ~codec:Proto.char_codec ~eq:Char.equal client;
    site;
    joins = 0;
    resent = 0;
    got_msgs = 0;
  }

let ep_step ep = List.iter (on_notice ep) (Site.step ep.s)

let close ep = Site.close ep.s

let pump_until ?(max_rounds = 8000) hubs eps cond =
  let rec go i =
    cond ()
    ||
    if i >= max_rounds then false
    else begin
      List.iter (fun h -> Hub.step ~timeout_ms:1 h) hubs;
      List.iter ep_step eps;
      go (i + 1)
    end
  in
  go 0

let require name ok = if not ok then Alcotest.failf "timeout waiting for %s" name

let doc_of ep =
  match ctrl ep with
  | Some c -> Tdoc.visible_string (Controller.document c)
  | None -> "<not joined>"

let settled ep =
  match ctrl ep with
  | None -> false
  | Some c ->
    Controller.tentative c = []
    && Controller.pending_coop c = 0
    && Controller.pending_admin c = 0

let edit ep pos ch =
  let c = Option.get (ctrl ep) in
  match Site.generate ep.s (Tdoc.ins_visible (Controller.document c) pos ch) with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "site %d denied: %s" ep.site r

let hub_doc ?doc hub = Tdoc.visible_string (Controller.document (Hub.controller ?doc hub))

(* ----- multi-doc isolation ----- *)

let isolation_test () =
  let metrics = Obs.Metrics.create () in
  let hub = mk_hub ~metrics ~docs:[ "alpha"; "beta" ] () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  (* alpha hosts sites 0 and 1; beta hosts its own site 1 — same user
     id, unrelated session *)
  let a0 = mk_endpoint ~doc:"alpha" ~port ~site:0 () in
  let a1 = mk_endpoint ~doc:"alpha" ~port ~site:1 () in
  let b1 = mk_endpoint ~doc:"beta" ~port ~site:1 () in
  let eps = [ a0; a1; b1 ] in
  require "all joined"
    (pump_until [ hub ] eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
  Alcotest.(check (list int)) "alpha members" [ 0; 1 ]
    (Hub.connected_sites ~doc:"alpha" hub);
  Alcotest.(check (list int)) "beta members" [ 1 ]
    (Hub.connected_sites ~doc:"beta" hub);
  edit a1 0 'x';
  edit a1 1 'y';
  require "alpha converged"
    (pump_until [ hub ] eps (fun () ->
         doc_of a0 = "xyabc" && doc_of a1 = "xyabc" && settled a0 && settled a1));
  (* isolation: beta saw nothing — not the hub copy, not the member *)
  Alcotest.(check string) "beta hub copy untouched" "abc" (hub_doc ~doc:"beta" hub);
  Alcotest.(check string) "beta member untouched" "abc" (doc_of b1);
  Alcotest.(check int) "no frame ever reached the beta member" 0 b1.got_msgs;
  (* and the reverse direction *)
  edit b1 3 'z';
  require "beta converged"
    (pump_until [ hub ] eps (fun () -> hub_doc ~doc:"beta" hub = "abcz"));
  Alcotest.(check string) "alpha hub copy untouched by beta" "xyabc"
    (hub_doc ~doc:"alpha" hub);
  Alcotest.(check string) "alpha members untouched by beta" "xyabc" (doc_of a0);
  (* per-doc labeled metrics carry the member counts *)
  let g =
    List.assoc
      (Obs.Metrics.with_label "hub.members" ~key:"doc" ~value:"alpha")
      (Obs.Metrics.gauges metrics)
  in
  Alcotest.(check int) "alpha member gauge" 2 g;
  List.iter close eps

(* ----- raw-socket multiplexing: one socket, two docs ----- *)

let send_payload fd s =
  let framed = Codec.frame s in
  ignore (Unix.write_substring fd framed 0 (String.length framed))

(* read frames off a raw socket until [stop] says enough or the server
   hangs up; the hub is stepped while we wait *)
let drain_frames hub fd ~rounds stop =
  let sp = Netd.Splitter.create () in
  let buf = Bytes.create 4096 in
  let got = ref [] in
  let eof = ref false in
  Unix.set_nonblock fd;
  let rec go i =
    if i < rounds && (not !eof) && not (stop !got) then begin
      Hub.step ~timeout_ms:1 hub;
      (match Unix.read fd buf 0 (Bytes.length buf) with
       | 0 -> eof := true
       | n -> Netd.Splitter.feed sp buf ~off:0 ~len:n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
       | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
         eof := true);
      let rec pull () =
        match Netd.Splitter.next sp with
        | Ok (Some p) -> (
          match Netd.Relay_proto.decode p with
          | Ok m ->
            got := !got @ [ m ];
            pull ()
          | Error e -> Alcotest.failf "undecodable frame from hub: %s" e)
        | Ok None -> ()
        | Error e -> Alcotest.failf "corrupt stream from hub: %s" e
      in
      pull ();
      go (i + 1)
    end
  in
  go 0;
  (!got, !eof)

let multiplex_test () =
  let hub = mk_hub ~docs:[ "alpha"; "beta" ] () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Hub.port hub));
  send_payload fd
    (Netd.Relay_proto.encode (Netd.Relay_proto.Attach { doc = "alpha"; site = 2 }));
  send_payload fd
    (Netd.Relay_proto.encode (Netd.Relay_proto.Attach { doc = "beta"; site = 2 }));
  let is_snapshot d = function
    | Netd.Relay_proto.Doc_snapshot { doc; _ } -> doc = d
    | _ -> false
  in
  let got, eof =
    drain_frames hub fd ~rounds:2000 (fun got ->
        List.exists (is_snapshot "alpha") got && List.exists (is_snapshot "beta") got)
  in
  Alcotest.(check bool) "still connected" false eof;
  Alcotest.(check bool) "snapshot for each attached doc" true
    (List.exists (is_snapshot "alpha") got && List.exists (is_snapshot "beta") got);
  Alcotest.(check (list int)) "one socket, member of both docs" [ 2 ]
    (Hub.connected_sites ~doc:"alpha" hub);
  Alcotest.(check (list int)) "…and beta" [ 2 ] (Hub.connected_sites ~doc:"beta" hub);
  (* an edit into alpha through the shared socket *)
  let donor = Controller.rejoin ~site:2 (Hub.controller ~doc:"alpha" hub) in
  let msg =
    match
      Controller.generate donor (Tdoc.ins_visible (Controller.document donor) 0 'm')
    with
    | _, Controller.Accepted m -> Proto.Char_proto.encode_message m
    | _, Controller.Denied r -> Alcotest.failf "donor denied: %s" r
  in
  send_payload fd
    (Netd.Relay_proto.encode
       (Netd.Relay_proto.Doc_msg { doc = "alpha"; origin = 0; msg }));
  let applied () = hub_doc ~doc:"alpha" hub = "mabc" in
  let _, eof = drain_frames hub fd ~rounds:2000 (fun _ -> applied ()) in
  Alcotest.(check bool) "edit applied to alpha" true (applied ());
  Alcotest.(check bool) "still connected after the edit" false eof;
  Alcotest.(check string) "beta isolated from the mux edit" "abc"
    (hub_doc ~doc:"beta" hub);
  (* detach from alpha; the beta attachment must survive *)
  send_payload fd
    (Netd.Relay_proto.encode (Netd.Relay_proto.Detach { doc = "alpha" }));
  let detached () = Hub.connected_sites ~doc:"alpha" hub = [] in
  let _, eof = drain_frames hub fd ~rounds:2000 (fun _ -> detached ()) in
  Alcotest.(check bool) "alpha detached" true (detached ());
  Alcotest.(check bool) "socket survives the detach" false eof;
  Alcotest.(check (list int)) "beta attachment survives" [ 2 ]
    (Hub.connected_sites ~doc:"beta" hub);
  (* a message for the now-unattached doc is a protocol violation *)
  send_payload fd
    (Netd.Relay_proto.encode
       (Netd.Relay_proto.Doc_msg { doc = "alpha"; origin = 0; msg }));
  let _, eof = drain_frames hub fd ~rounds:2000 (fun _ -> false) in
  Alcotest.(check bool) "message after detach drops the peer" true eof

(* ----- hostile attach frames ----- *)

let hostile_attach_test () =
  let hub = mk_hub ~docs:[ "main" ] () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let connect_raw () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Hub.port hub));
    fd
  in
  let dropped fd =
    let _, eof = drain_frames hub fd ~rounds:2000 (fun _ -> false) in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    eof
  in
  (* a traversal name must never reach the filesystem or the registry *)
  let fd = connect_raw () in
  send_payload fd
    (Netd.Relay_proto.encode
       (Netd.Relay_proto.Attach { doc = "../../etc/passwd"; site = 1 }));
  Alcotest.(check bool) "path traversal attach dropped" true (dropped fd);
  (* unknown doc without auto-create *)
  let fd = connect_raw () in
  send_payload fd
    (Netd.Relay_proto.encode (Netd.Relay_proto.Attach { doc = "nosuch"; site = 1 }));
  Alcotest.(check bool) "unknown doc attach dropped" true (dropped fd);
  (* oversized name *)
  let fd = connect_raw () in
  send_payload fd
    (Netd.Relay_proto.encode
       (Netd.Relay_proto.Attach { doc = String.make 400 'a'; site = 1 }));
  Alcotest.(check bool) "oversized doc name dropped" true (dropped fd);
  (* a malformed attach envelope: tag 'A' with a truncated body *)
  let fd = connect_raw () in
  send_payload fd "A\x05";
  Alcotest.(check bool) "malformed attach envelope dropped" true (dropped fd);
  (* attaching the same document twice on one socket *)
  let fd = connect_raw () in
  send_payload fd
    (Netd.Relay_proto.encode (Netd.Relay_proto.Attach { doc = "main"; site = 1 }));
  send_payload fd
    (Netd.Relay_proto.encode (Netd.Relay_proto.Attach { doc = "main"; site = 1 }));
  Alcotest.(check bool) "duplicate attach dropped" true (dropped fd);
  (* after all of it, an honest member still gets served *)
  let ep = mk_endpoint ~doc:"main" ~port:(Hub.port hub) ~site:2 () in
  require "honest client joins after abuse"
    (pump_until [ hub ] [ ep ] (fun () -> ctrl ep <> None));
  Alcotest.(check string) "and sees the document" "abc" (doc_of ep);
  Alcotest.(check int) "hostile attaches never became sessions" 1
    (List.length (Hub.docs hub));
  close ep

(* ----- federation: home + leaf, late joiner from the leaf ----- *)

let federation_test () =
  let home_metrics = Obs.Metrics.create () in
  let home = mk_hub ~metrics:home_metrics ~hub_id:1 () in
  Fun.protect ~finally:(fun () -> Hub.shutdown home) @@ fun () ->
  let leaf =
    mk_hub ~hub_id:2 ~upstream:("127.0.0.1", Hub.port home) ()
  in
  Fun.protect ~finally:(fun () -> Hub.shutdown leaf) @@ fun () ->
  let hubs = [ home; leaf ] in
  (* the admin joins the home hub, a user joins the leaf *)
  let ep0 = mk_endpoint ~doc:"main" ~port:(Hub.port home) ~site:0 () in
  let ep2 = mk_endpoint ~doc:"main" ~port:(Hub.port leaf) ~site:2 () in
  let eps = [ ep0; ep2 ] in
  require "members joined and the leaf linked up"
    (pump_until hubs eps (fun () ->
         ctrl ep0 <> None && ctrl ep2 <> None && Hub.upstream_connected leaf));
  (* the leaf presents its hosted site at the home hub *)
  Alcotest.(check (list int)) "home sees admin + leaf" [ 0; relay_site + 2 ]
    (Hub.connected_sites home);
  (* edits from both ends of the topology *)
  edit ep2 0 'l';
  require "leaf edit crosses up to the home member"
    (pump_until hubs eps (fun () -> doc_of ep0 = "labc"));
  edit ep0 4 'h';
  let fingerprint hub = Proto.content_fingerprint Proto.char_codec (Hub.controller hub) in
  let ok =
    pump_until hubs eps (fun () ->
        doc_of ep0 = "labch" && doc_of ep2 = "labch"
        && List.for_all settled eps
        && fingerprint home = fingerprint leaf)
  in
  if not ok then
    Printf.printf
      "DIAG ep0=%S ep2=%S settled0=%b settled2=%b home=%S leaf=%S fh=%s fl=%s \
       snaps2=%d msgs2=%d leaf_sites=%s up=%b\n%!"
      (doc_of ep0) (doc_of ep2) (settled ep0) (settled ep2) (hub_doc home)
      (hub_doc leaf) (fingerprint home) (fingerprint leaf) ep2.joins
      ep2.got_msgs
      (String.concat "," (List.map string_of_int (Hub.connected_sites leaf)))
      (Hub.upstream_connected leaf);
  require "home edit crosses down, everything settles" ok;
  (* the two hosted replicas sit at different sites, so convergence is
     checked on the site-independent content fingerprint *)
  Alcotest.(check string) "federated replicas converged" (fingerprint home)
    (fingerprint leaf);
  Alcotest.(check string) "home replica content" "labch" (hub_doc home);
  Alcotest.(check string) "leaf replica content" "labch" (hub_doc leaf);
  (* a late joiner attaches to the LEAF and must bootstrap from the
     leaf's snapshot — no round trip to the home hub *)
  let ep1 = mk_endpoint ~doc:"main" ~port:(Hub.port leaf) ~site:1 () in
  let eps = ep1 :: eps in
  require "late joiner boots from the leaf"
    (pump_until hubs eps (fun () -> ctrl ep1 <> None));
  Alcotest.(check string) "late joiner caught up from the leaf snapshot" "labch"
    (doc_of ep1);
  edit ep1 0 'z';
  require "late joiner's edit reaches every replica"
    (pump_until hubs eps (fun () ->
         doc_of ep0 = "zlabch" && doc_of ep2 = "zlabch"
         && List.for_all settled eps
         && fingerprint home = fingerprint leaf));
  (* convergence oracle over the three real member controllers *)
  let report =
    Dce_sim.Convergence.check (List.map (fun ep -> Option.get (ctrl ep)) eps)
  in
  if not (Dce_sim.Convergence.ok report) then
    Alcotest.failf "convergence violated: %s"
      (Format.asprintf "%a" Dce_sim.Convergence.pp report);
  (* a 2-node graph has no cycle, so the loop guard never fired *)
  Alcotest.(check int) "no loop drops at the home hub" 0
    (try List.assoc "hub.loop_drops" (Obs.Metrics.counters home_metrics)
     with Not_found -> 0);
  List.iter close eps

(* ----- upstream: reconnect storm ----- *)

(* A bare-socket stand-in for the home hub: the test accepts the leaf's
   federation link, decodes the frames it sends, and slams the door on a
   script — the [Upstream] state machine on the other end must survive
   the storm without ever duplicating an attach, must buffer (bounded)
   while the link is down, and must come back [Healthy] with an empty
   buffer once a session finally sticks. *)
let upstream_storm_test () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.set_nonblock lfd;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 16;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Fun.protect ~finally:(fun () ->
      try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let config =
    {
      Upstream.default_config with
      Upstream.backoff_base_ms = 1;
      backoff_max_ms = 4;
      max_buffer = 200;
    }
  in
  let up =
    Upstream.create ~config ~seed:7 ~host:"127.0.0.1" ~port ~site:relay_site ()
  in
  Fun.protect ~finally:(fun () -> Upstream.close up) @@ fun () ->
  Upstream.attach up ~doc:"main";
  (* a second attach for the same doc must stay a single attach *)
  Upstream.attach up ~doc:"main";
  let buf = Bytes.create 4096 in
  let accept_session () =
    let rec go n =
      if n > 5_000 then Alcotest.fail "upstream never reconnected";
      ignore (Upstream.step ~timeout_ms:1 up);
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        Unix.set_nonblock fd;
        fd
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> go (n + 1)
    in
    go 0
  in
  (* pump for a fixed window and return every frame the leaf sent *)
  let drain_session fd ~rounds =
    let data = Buffer.create 256 in
    let msgs = ref [] in
    let pos = ref 0 in
    for _ = 1 to rounds do
      ignore (Upstream.step ~timeout_ms:1 up);
      (match Unix.read fd buf 0 (Bytes.length buf) with
       | 0 -> ()
       | k -> Buffer.add_subbytes data buf 0 k
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
         -> ());
      let rec parse () =
        match Codec.unframe_prefix (Buffer.contents data) ~pos:!pos with
        | Ok (payload, next) ->
          pos := next;
          (match Netd.Relay_proto.decode payload with
           | Ok m -> msgs := m :: !msgs
           | Error e -> Alcotest.failf "bad frame from the leaf: %s" e);
          parse ()
        | Error Codec.Truncated -> ()
        | Error (Codec.Corrupt e) -> Alcotest.failf "corrupt frame: %s" e
      in
      parse ()
    done;
    List.rev !msgs
  in
  let count p msgs = List.length (List.filter p msgs) in
  let is_attach = function
    | Netd.Relay_proto.Attach { doc = "main"; _ } -> true
    | _ -> false
  in
  let is_doc_msg = function Netd.Relay_proto.Doc_msg _ -> true | _ -> false in
  for cycle = 1 to 5 do
    let fd = accept_session () in
    let msgs = drain_session fd ~rounds:40 in
    Alcotest.(check int)
      (Printf.sprintf "cycle %d: exactly one attach per session" cycle)
      1 (count is_attach msgs);
    (* slam the door mid-session *)
    Unix.close fd;
    let rec until_down n =
      if n > 5_000 then Alcotest.fail "upstream never noticed the hangup";
      if Upstream.connected up then begin
        ignore (Upstream.step ~timeout_ms:1 up);
        until_down (n + 1)
      end
    in
    until_down 0;
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d: degraded while down" cycle)
      true
      (match Upstream.health up with
       | Upstream.Degraded _ -> true
       | Upstream.Healthy -> false);
    (* local traffic while the link is down buffers, bounded: 10 sends
       of ~27 bytes each against a 200-byte cap must overflow *)
    for i = 1 to 10 do
      Upstream.send up ~doc:"main" ~origin:2 (Printf.sprintf "op-%d-%d" cycle i)
    done;
    Alcotest.(check bool)
      (Printf.sprintf "cycle %d: buffer stays under its bound" cycle)
      true
      (Upstream.buffered_bytes up <= config.Upstream.max_buffer)
  done;
  Alcotest.(check bool) "the overflow was counted, not leaked" true
    (Upstream.buffer_dropped up > 0);
  (* a session that finally sticks: one attach, the backlog flushes
     behind it, and the leaf reports healthy with an empty buffer *)
  let fd = accept_session () in
  let msgs = drain_session fd ~rounds:60 in
  Alcotest.(check int) "sticky session: exactly one attach" 1 (count is_attach msgs);
  Alcotest.(check bool) "the backlog flushed behind the attach" true
    (count is_doc_msg msgs > 0);
  Alcotest.(check int) "no buffered bytes leak across reconnects" 0
    (Upstream.buffered_bytes up);
  Alcotest.(check bool) "healthy again" true (Upstream.health up = Upstream.Healthy);
  Alcotest.(check bool) "connected" true (Upstream.connected up);
  Unix.close fd

(* ----- federation: partition, degraded local progress, heal ----- *)

let json_status = function
  | Obs.Json.Obj fields -> (
    match List.assoc_opt "status" fields with
    | Some (Obs.Json.String s) -> s
    | _ -> "?")
  | _ -> "?"

(* The home hub dies mid-session.  The leaf must report itself degraded
   (a probe on /healthz would turn non-200) while its local members keep
   editing, and a fresh home on the same port — which knows nothing of
   the partition-era edits — must reconverge through the snapshot
   healing path. *)
let degraded_heal_test () =
  let home = mk_hub ~hub_id:1 () in
  let home_port = Hub.port home in
  let leaf = mk_hub ~hub_id:2 ~upstream:("127.0.0.1", home_port) () in
  Fun.protect ~finally:(fun () -> Hub.shutdown leaf) @@ fun () ->
  let ep0 = mk_endpoint ~doc:"main" ~port:home_port ~site:0 () in
  let ep2 = mk_endpoint ~doc:"main" ~port:(Hub.port leaf) ~site:2 () in
  let eps = [ ep0; ep2 ] in
  require "everyone linked"
    (pump_until [ home; leaf ] eps (fun () ->
         ctrl ep0 <> None && ctrl ep2 <> None && Hub.upstream_connected leaf));
  edit ep2 0 'a';
  require "pre-partition convergence"
    (pump_until [ home; leaf ] eps (fun () ->
         doc_of ep0 = "aabc" && doc_of ep2 = "aabc" && List.for_all settled eps));
  Alcotest.(check string) "healthy before the cut" "ok"
    (json_status (Hub.healthz leaf ()));
  (* the partition: the home hub dies; ep0 is deliberately not stepped
     while the home is gone, like a member whose laptop sees the same
     outage *)
  Hub.shutdown home;
  require "leaf notices and degrades"
    (pump_until [ leaf ] [ ep2 ] (fun () ->
         match Hub.upstream_health leaf with
         | Some (Upstream.Degraded _) -> true
         | _ -> false));
  Alcotest.(check string) "healthz degraded during the partition" "degraded"
    (json_status (Hub.healthz leaf ()));
  (* local members keep editing against the degraded leaf *)
  edit ep2 0 'b';
  require "leaf-local progress during the partition"
    (pump_until [ leaf ] [ ep2 ] (fun () -> doc_of ep2 = "baabc"));
  (* heal: a fresh home hub on the same port, which has only the seed
     document — the partition-era history must survive the snapshot
     exchange in both directions *)
  let home2 = mk_hub ~hub_id:1 ~port:home_port () in
  Fun.protect ~finally:(fun () -> Hub.shutdown home2) @@ fun () ->
  let fingerprint hub =
    Proto.content_fingerprint Proto.char_codec (Hub.controller hub)
  in
  let ok =
    pump_until ~max_rounds:20_000 [ home2; leaf ] eps (fun () ->
        Hub.upstream_connected leaf
        && doc_of ep0 = "baabc" && doc_of ep2 = "baabc"
        && List.for_all settled eps
        && fingerprint home2 = fingerprint leaf)
  in
  if not ok then
    Printf.printf
      "DIAG up=%b ep0=%S ep2=%S settled0=%b settled2=%b home2=%S leaf=%S fh=%s \
       fl=%s snaps0=%d snaps2=%d leaf_health=%s\n%!"
      (Hub.upstream_connected leaf)
      (doc_of ep0) (doc_of ep2) (settled ep0) (settled ep2) (hub_doc home2)
      (hub_doc leaf) (fingerprint home2) (fingerprint leaf) ep0.joins
      ep2.joins
      (match Hub.upstream_health leaf with
       | Some Upstream.Healthy -> "healthy"
       | Some (Upstream.Degraded { reason; _ }) -> "degraded: " ^ reason
       | None -> "none");
  require "leaf relinks and the partition edits reach the new home" ok;
  Alcotest.(check string) "healthz healthy after the heal" "ok"
    (json_status (Hub.healthz leaf ()));
  let report =
    Dce_sim.Convergence.check (List.map (fun ep -> Option.get (ctrl ep)) eps)
  in
  if not (Dce_sim.Convergence.ok report) then
    Alcotest.failf "convergence violated after heal: %s"
      (Format.asprintf "%a" Dce_sim.Convergence.pp report);
  List.iter close eps

(* ----- upstream: a frame the leaf cannot apply ----- *)

(* A bare-socket stand-in for the home hub answers the leaf's attach
   with a snapshot that does not decode.  The leaf must drop the link as
   corrupt, report itself degraded, back off and attach again — and a
   good snapshot on the second session heals it. *)
let bad_upstream_frame_test () =
  let lfd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.set_nonblock lfd;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 4;
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Fun.protect ~finally:(fun () -> try Unix.close lfd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let leaf = mk_hub ~hub_id:2 ~upstream:("127.0.0.1", port) () in
  Fun.protect ~finally:(fun () -> Hub.shutdown leaf) @@ fun () ->
  let accept_session () =
    let rec go n =
      if n > 5_000 then Alcotest.fail "the leaf never connected";
      Hub.step ~timeout_ms:1 leaf;
      match Unix.accept ~cloexec:true lfd with
      | fd, _ -> fd
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> go (n + 1)
    in
    go 0
  in
  let attached fd =
    let is_attach = function
      | Netd.Relay_proto.Attach { doc = "main"; _ } -> true
      | _ -> false
    in
    List.exists is_attach (fst (drain_frames leaf fd ~rounds:2000 (List.exists is_attach)))
  in
  let snapshot fd state =
    send_payload fd
      (Netd.Relay_proto.encode (Netd.Relay_proto.Doc_snapshot { doc = "main"; state }))
  in
  let fd1 = accept_session () in
  Fun.protect ~finally:(fun () -> Unix.close fd1) @@ fun () ->
  Alcotest.(check bool) "the leaf attaches" true (attached fd1);
  snapshot fd1 "not a snapshot";
  let _, eof = drain_frames leaf fd1 ~rounds:2000 (fun _ -> false) in
  Alcotest.(check bool) "the leaf drops the corrupt link" true eof;
  Alcotest.(check bool) "and reports it degraded" true
    (match Hub.upstream_health leaf with
     | Some (Upstream.Degraded _) -> not (Hub.upstream_connected leaf)
     | _ -> false);
  Alcotest.(check string) "healthz degraded between the sessions" "degraded"
    (json_status (Hub.healthz leaf ()));
  let fd2 = accept_session () in
  Fun.protect ~finally:(fun () -> Unix.close fd2) @@ fun () ->
  Alcotest.(check bool) "the leaf attaches again" true (attached fd2);
  (* the home's replica holds an edit the leaf never saw *)
  let home = mk_controller ~site:2 "abc" in
  let home =
    match Controller.generate home (Tdoc.ins_visible (Controller.document home) 0 'h') with
    | c, Controller.Accepted _ -> c
    | _, Controller.Denied r -> Alcotest.failf "home edit denied: %s" r
  in
  snapshot fd2 (Proto.encode_state Proto.char_codec (Controller.dump home));
  require "the good snapshot heals the leaf"
    (pump_until [ leaf ] [] (fun () -> hub_doc leaf = "habc"));
  Alcotest.(check string) "healthz ok once healed" "ok" (json_status (Hub.healthz leaf ()))

(* ----- delta catch-up: resume inside the hosted window ----- *)

let delta_resume_test () =
  let metrics = Obs.Metrics.create () in
  let hub = mk_hub ~metrics () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let ep0 = mk_endpoint ~doc:"main" ~port ~site:0 () in
  let ep1 = mk_endpoint ~doc:"main" ~port ~site:1 () in
  let eps = [ ep0; ep1 ] in
  require "both joined"
    (pump_until [ hub ] eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
  edit ep0 0 'x';
  edit ep1 3 'y';
  require "both converged"
    (pump_until [ hub ] eps (fun () ->
         doc_of ep0 = doc_of ep1 && List.for_all settled eps));
  (* ep1 goes away holding its state — a laptop lid closing *)
  let parked = Option.get (ctrl ep1) in
  close ep1;
  (* the session moves on without it *)
  edit ep0 0 'z';
  require "the survivor settles alone"
    (pump_until [ hub ] [ ep0 ] (fun () -> settled ep0));
  (* a site started from the parked state presents its clock: the hub
     has never compacted, so the state transfer must be the missed
     suffix, not a snapshot *)
  let counter name =
    try List.assoc name (Obs.Metrics.counters metrics) with Not_found -> 0
  in
  let snapshots_before = counter "netd.snapshots" in
  let ep1b = mk_endpoint ~doc:"main" ~state:parked ~port ~site:1 () in
  let eps = [ ep0; ep1b ] in
  require "resumed client catches up via the delta"
    (pump_until [ hub ] eps (fun () ->
         doc_of ep1b = doc_of ep0 && List.for_all settled eps));
  Alcotest.(check int) "the hub answered with a delta" 1 (counter "hub.deltas");
  Alcotest.(check int) "and counted no snapshot for it" snapshots_before
    (counter "netd.snapshots");
  Alcotest.(check string) "hub copy agrees" (doc_of ep0) (hub_doc hub);
  List.iter close eps

(* ----- delta catch-up: resume behind the compaction cut ----- *)

let snapshot_fallback_test () =
  let metrics = Obs.Metrics.create () in
  (* aggressive stability cadence so the hub compacts within the test *)
  let hub = mk_hub ~metrics ~beacon_ms:5 ~compact_ms:5 () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  (* every policy user participates and beacons fast, so the hub's
     stable frontier can cover the whole group's edits *)
  let ep0 = mk_endpoint ~doc:"main" ~heartbeat_ms:5 ~port ~site:0 () in
  let ep1 = mk_endpoint ~doc:"main" ~heartbeat_ms:5 ~port ~site:1 () in
  let ep2 = mk_endpoint ~doc:"main" ~heartbeat_ms:5 ~port ~site:2 () in
  let eps = [ ep0; ep1; ep2 ] in
  require "all joined"
    (pump_until [ hub ] eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
  edit ep1 0 'a';
  require "first edit converges"
    (pump_until [ hub ] eps (fun () ->
         List.for_all (fun e -> doc_of e = "aabc") eps && List.for_all settled eps));
  (* the resurrection point: ep1's state before the next round of edits *)
  let stale = Option.get (ctrl ep1) in
  edit ep0 0 'b';
  edit ep2 0 'c';
  (* keep everyone — ep1 included — live and beaconing until the hub's
     compaction cut moves past the stale clock *)
  let cut_past_stale () =
    not
      (Dce_ot.Vclock.leq
         (Controller.compacted_upto (Hub.controller hub))
         (Controller.clock stale))
    && Dce_ot.Vclock.leq (Controller.clock stale)
         (Controller.compacted_upto (Hub.controller hub))
  in
  require "hub compacts past the stale clock" (pump_until [ hub ] eps cut_past_stale);
  (* the validations of ep1's and ep2's edits are settled everywhere, so
     compaction also cuts the hub's administrative log, and the
     per-document gauge reports what L keeps *)
  let admin_log () = Controller.admin_log (Hub.controller hub) in
  let gauge name =
    try
      List.assoc
        (Obs.Metrics.with_label name ~key:"doc" ~value:"main")
        (Obs.Metrics.gauges metrics)
    with Not_found -> -1
  in
  require "hub cuts L and reports its length"
    (pump_until [ hub ] eps (fun () ->
         Dce_core.Admin_log.cut (admin_log ()) > 0
         && gauge "hub.admin_log_len" = Dce_core.Admin_log.live (admin_log ())));
  let converged = doc_of ep0 in
  close ep1;
  (* resurrect site 1 from the stale state: the hosted log no longer
     covers its clock, so the hub must fall back to a full snapshot *)
  let ep1b = mk_endpoint ~doc:"main" ~heartbeat_ms:5 ~state:stale ~port ~site:1 () in
  let eps = [ ep0; ep1b; ep2 ] in
  require "stale resume falls back to a snapshot and converges"
    (pump_until [ hub ] eps (fun () ->
         doc_of ep1b = converged && doc_of ep0 = converged
         && List.for_all settled eps));
  Alcotest.(check int) "no delta was served" 0
    (try List.assoc "hub.deltas" (Obs.Metrics.counters metrics) with Not_found -> 0);
  Alcotest.(check int) "the resurrected site resynced from one snapshot" 1
    ep1b.joins;
  List.iter close eps

(* ----- Site: journaled editors ----- *)

let mem_journal ?config world =
  match
    Persist.opendir ?config ~io:(Io.Mem.io world) ~eq:Char.equal ~codec:Proto.char_codec
      "site"
  with
  | Ok jr -> jr
  | Error e -> Alcotest.failf "journal: %s" e

(* A journaled site edits while its link is down, then dies without a
   final checkpoint.  Reopened from the journal alone, it must hold the
   recovered re-emissions until its join, then send every one. *)
let journaled_reopen_test () =
  let hub = mk_hub () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let world = Io.Mem.create () in
  let j, _ = mem_journal world in
  let ep0 = mk_endpoint ~port ~site:0 () in
  let ep1 = mk_endpoint ~journal:j ~port ~site:1 () in
  require "both joined"
    (pump_until [ hub ] [ ep0; ep1 ] (fun () -> ctrl ep0 <> None && ctrl ep1 <> None));
  Netd.Client.close (Site.client ep1.s);
  edit ep1 0 'p';
  edit ep1 1 'q';
  (* kill -9: only the journal survives *)
  Io.Mem.crash world;
  let j, recovered = mem_journal world in
  let owed = recovered.Persist.emitted in
  Alcotest.(check int) "recovery re-emits both unsent edits" 2 (List.length owed);
  let ep1b =
    mk_endpoint ~journal:j ?state:recovered.Persist.controller ~owed ~port ~site:1 ()
  in
  let eps = [ ep0; ep1b ] in
  let early = ref false in
  require "the reopened site rejoins"
    (pump_until [ hub ] eps (fun () ->
         if ep1b.joins = 0 && hub_doc hub <> "abc" then early := true;
         ep1b.joins > 0));
  Alcotest.(check bool) "nothing owed left before the join" false !early;
  (* the transfer re-sends both unacknowledged edits, and the owed
     copies follow them: peers deduplicate *)
  Alcotest.(check int) "everything owed went out behind the join"
    (2 * List.length owed) ep1b.resent;
  require "no recovered edit is lost"
    (pump_until [ hub ] eps (fun () ->
         hub_doc hub = "pqabc" && doc_of ep0 = "pqabc" && doc_of ep1b = "pqabc"
         && List.for_all settled eps));
  List.iter close eps

(* Checkpoint-then-clamp: compaction checkpoints first when the stable
   frontier has passed the durable cut, and when that checkpoint fails
   the cut stays where the journal can rebuild it. *)
let journaled_compaction_test () =
  let hub = mk_hub ~beacon_ms:5 () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let world = Io.Mem.create () in
  let j, _ = mem_journal world in
  let ep0 = mk_endpoint ~heartbeat_ms:5 ~port ~site:0 () in
  let ep1 = mk_endpoint ~heartbeat_ms:5 ~journal:j ~port ~site:1 () in
  let ep2 = mk_endpoint ~heartbeat_ms:5 ~port ~site:2 () in
  let eps = [ ep0; ep1; ep2 ] in
  require "all joined"
    (pump_until [ hub ] eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
  let c1 () = Option.get (ctrl ep1) in
  let durable () = Option.get (Persist.checkpoint_clock j) in
  let all_stable () =
    List.for_all settled eps
    && doc_of ep0 = doc_of ep1 && doc_of ep1 = doc_of ep2
    && Vclock.leq (Controller.clock (c1 ())) (Controller.stable_frontier (c1 ()))
  in
  edit ep0 0 'x';
  edit ep2 0 'y';
  require "first round stable at the journaled site" (pump_until [ hub ] eps all_stable);
  let joined_cut = durable () in
  Site.compact ep1.s;
  Alcotest.(check bool) "a checkpoint was cut first" false (Vclock.leq (durable ()) joined_cut);
  Alcotest.(check bool) "the log compacted" true
    (Vclock.sum (Controller.compacted_upto (c1 ())) > 0);
  Alcotest.(check bool) "within the durable cut" true
    (Vclock.leq (Controller.compacted_upto (c1 ())) (durable ()));
  let cut = durable () in
  edit ep0 0 'z';
  require "second round stable" (pump_until [ hub ] eps all_stable);
  (Io.Mem.faults world).Io.Mem.fail_atomic_write_after <- 1;
  Site.compact ep1.s;
  Alcotest.(check int) "the pre-compaction checkpoint failed" 1 (Site.journal_errors ep1.s);
  Alcotest.(check bool) "the frontier had moved past the durable cut" false
    (Vclock.leq (Controller.stable_frontier (c1 ())) cut);
  Alcotest.(check bool) "compaction stayed within it" true
    (Vclock.leq (Controller.compacted_upto (c1 ())) cut);
  List.iter close eps

(* ----- journal faults: durability degrades, availability does not ----- *)

(* A one-document hub journaling to [world] with fsync [always], from a
   base snapshot of the controller its factory builds. *)
let journaled_hub ?hub_id ?upstream world =
  let config =
    { Dce_store.Store.default_config with Dce_store.Store.fsync = Dce_store.Wal.Always }
  in
  let j, _ = mem_journal ~config world in
  let site = relay_site + Option.value ~default:0 hub_id in
  (match Persist.checkpoint j (mk_controller ~site "abc") with
   | Ok () -> ()
   | Error e -> Alcotest.failf "base snapshot: %s" e);
  mk_hub ?hub_id ?upstream ~journal:j ()

let hub_append_failure_test () =
  let world = Io.Mem.create () in
  let hub = journaled_hub world in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let ep0 = mk_endpoint ~port ~site:0 () in
  let ep1 = mk_endpoint ~port ~site:1 () in
  let eps = [ ep0; ep1 ] in
  require "both joined"
    (pump_until [ hub ] eps (fun () -> ctrl ep0 <> None && ctrl ep1 <> None));
  (Io.Mem.faults world).Io.Mem.fail_fsync_after <- 1;
  edit ep1 0 'x';
  require "the edit still reaches the peer"
    (pump_until [ hub ] eps (fun () -> doc_of ep0 = "xabc" && List.for_all settled eps));
  Alcotest.(check int) "one journal error" 1 (Hub.journal_errors hub);
  Alcotest.(check string) "healthz degraded" "degraded" (json_status (Hub.healthz hub ()));
  List.iter close eps

(* A short append leaves a torn frame at the log's tail: the replica
   checkpoints at once, so a later edit lands in a fresh generation's
   log and survives a crash. *)
let site_append_failure_test () =
  let hub = mk_hub () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let world = Io.Mem.create () in
  let j, _ = mem_journal world in
  let ep0 = mk_endpoint ~port ~site:0 () in
  let ep1 = mk_endpoint ~journal:j ~port ~site:1 () in
  let eps = [ ep0; ep1 ] in
  require "both joined"
    (pump_until [ hub ] eps (fun () -> ctrl ep0 <> None && ctrl ep1 <> None));
  (Io.Mem.faults world).Io.Mem.short_append_after <- 1;
  edit ep1 0 'x';
  require "the edit still reaches the peer"
    (pump_until [ hub ] eps (fun () -> doc_of ep0 = "xabc" && List.for_all settled eps));
  Alcotest.(check int) "one journal error" 1 (Site.journal_errors ep1.s);
  edit ep1 0 'y';
  require "a later edit too"
    (pump_until [ hub ] eps (fun () -> doc_of ep0 = "yxabc" && List.for_all settled eps));
  (* kill -9: only the journal survives *)
  Io.Mem.crash world;
  let _, recovered = mem_journal world in
  Alcotest.(check string) "reopening recovers the later edit" "yxabc"
    (Tdoc.visible_string (Controller.document (Option.get recovered.Persist.controller)));
  List.iter close eps

(* The join's checkpoint is a fresh journal's first: when it fails, the
   next record lays down the base snapshot instead. *)
let site_base_snapshot_test () =
  let hub = mk_hub () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let world = Io.Mem.create () in
  let j, _ = mem_journal world in
  (Io.Mem.faults world).Io.Mem.fail_atomic_write_after <- 1;
  let ep0 = mk_endpoint ~port ~site:0 () in
  let ep1 = mk_endpoint ~journal:j ~port ~site:1 () in
  let eps = [ ep0; ep1 ] in
  require "both joined"
    (pump_until [ hub ] eps (fun () -> ctrl ep0 <> None && ctrl ep1 <> None));
  Alcotest.(check int) "the join's checkpoint failed" 1 (Site.journal_errors ep1.s);
  Alcotest.(check bool) "no base snapshot yet" true (Persist.checkpoint_clock j = None);
  edit ep1 0 'x';
  Alcotest.(check bool) "the edit's record laid down the base snapshot" true
    (Persist.checkpoint_clock j <> None);
  require "the edit reaches the peer"
    (pump_until [ hub ] eps (fun () -> doc_of ep0 = "xabc" && List.for_all settled eps));
  Io.Mem.crash world;
  let _, recovered = mem_journal world in
  Alcotest.(check string) "and survives a crash" "xabc"
    (Tdoc.visible_string (Controller.document (Option.get recovered.Persist.controller)));
  List.iter close eps

(* The leaf merges the home's greeting snapshot into its replica; a
   failed checkpoint of that merge must show in the leaf's health. *)
let leaf_merge_checkpoint_test () =
  let home = mk_hub ~hub_id:1 () in
  Fun.protect ~finally:(fun () -> Hub.shutdown home) @@ fun () ->
  let world = Io.Mem.create () in
  let leaf = journaled_hub ~hub_id:2 ~upstream:("127.0.0.1", Hub.port home) world in
  Fun.protect ~finally:(fun () -> Hub.shutdown leaf) @@ fun () ->
  (Io.Mem.faults world).Io.Mem.fail_atomic_write_after <- 1;
  require "the leaf linked up and merged the home's snapshot"
    (pump_until [ home; leaf ] [] (fun () ->
         Hub.upstream_connected leaf && Hub.journal_errors leaf > 0));
  Alcotest.(check int) "one journal error" 1 (Hub.journal_errors leaf);
  Alcotest.(check string) "healthz degraded" "degraded" (json_status (Hub.healthz leaf ()))

(* ----- the retired single-document greeting ----- *)

let retired_hello_test () =
  let hub = mk_hub () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  let ep0 = mk_endpoint ~port ~site:0 () in
  let ep1 = mk_endpoint ~port ~site:1 () in
  let eps = [ ep0; ep1 ] in
  require "members joined"
    (pump_until [ hub ] eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* tag 'H' and a site varint: the old single-document Hello *)
  send_payload fd "H\001";
  let _, eof = drain_frames hub fd ~rounds:2000 (fun _ -> false) in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Alcotest.(check bool) "the retired greeting drops its sender" true eof;
  Alcotest.(check (list int)) "the members stay attached" [ 0; 1 ]
    (Hub.connected_sites hub);
  edit ep1 0 'h';
  require "and the hub keeps serving them"
    (pump_until [ hub ] eps (fun () ->
         doc_of ep0 = "habc" && doc_of ep1 = "habc" && List.for_all settled eps));
  List.iter close eps

let () =
  (* the hub writes to sockets the tests slam shut: EPIPE, not SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "dce_hub"
    [
      ("doc_name", doc_name_tests);
      ("evloop", evloop_tests);
      ( "loopback",
        [
          Alcotest.test_case "two docs on one hub never leak frames" `Quick
            isolation_test;
          Alcotest.test_case "one socket multiplexes attach/detach over two docs"
            `Quick multiplex_test;
          Alcotest.test_case "hostile attach frames drop the peer, not the hub"
            `Quick hostile_attach_test;
          Alcotest.test_case "a retired Hello frame drops only its sender" `Quick
            retired_hello_test;
        ] );
      ( "federation",
        [
          Alcotest.test_case
            "home + leaf converge; late joiner snapshots from the leaf" `Quick
            federation_test;
          Alcotest.test_case
            "upstream survives a reconnect storm: one attach, no leaked bytes"
            `Quick upstream_storm_test;
          Alcotest.test_case
            "partition degrades the leaf; heal reconverges via snapshots" `Quick
            degraded_heal_test;
          Alcotest.test_case
            "a bad frame from the home degrades the link and reconnects" `Quick
            bad_upstream_frame_test;
        ] );
      ( "stability",
        [
          Alcotest.test_case "resume inside the window is served a delta" `Quick
            delta_resume_test;
          Alcotest.test_case
            "resume behind the compaction cut falls back to a snapshot" `Quick
            snapshot_fallback_test;
        ] );
      ( "site",
        [
          Alcotest.test_case "a reopened journal re-sends what it owes once live"
            `Quick journaled_reopen_test;
          Alcotest.test_case "a journaled site never compacts past its durable cut"
            `Quick journaled_compaction_test;
        ] );
      ( "journal",
        [
          Alcotest.test_case "a failed append degrades the hub, the edit still relays"
            `Quick hub_append_failure_test;
          Alcotest.test_case "a torn append degrades the site; a later edit survives"
            `Quick site_append_failure_test;
          Alcotest.test_case "a site whose first checkpoint failed keeps editing" `Quick
            site_base_snapshot_test;
          Alcotest.test_case "a leaf's failed merge checkpoint degrades its health" `Quick
            leaf_merge_checkpoint_test;
        ] );
    ]
