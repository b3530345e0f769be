(* Tests for the TCP transport: incremental frame splitting (fed one
   byte at a time, against hostile corruption), backoff scheduling, the
   hub envelope, connection backpressure over a real socketpair, and
   a full loopback session — hub plus three [Site]s over real TCP,
   with a late joiner and a kicked-and-reconnecting client — checked
   against the same convergence oracle the simulator uses, and against
   an in-process replay of the same scenario. *)

open Dce_ot
open Dce_core
open Dce_netd
module Hub = Dce_hub.Hub
module Codec = Dce_wire.Codec
module Proto = Dce_wire.Proto
module Obs = Dce_obs
open Helpers

(* ----- Codec.unframe_prefix: truncated vs corrupt ----- *)

let prefix_tests =
  [
    qtest "every strict prefix of a frame is Truncated, never Corrupt" ~count:200
      QCheck2.Gen.(string_size (int_range 0 200))
      (Printf.sprintf "%S")
      (fun payload ->
        let framed = Codec.frame payload in
        let whole =
          Codec.unframe_prefix framed ~pos:0 = Ok (payload, String.length framed)
        in
        whole
        && List.for_all
             (fun i ->
               Codec.unframe_prefix (String.sub framed 0 i) ~pos:0
               = Error Codec.Truncated)
             (List.init (String.length framed) Fun.id));
    Alcotest.test_case "bad magic is Corrupt immediately" `Quick (fun () ->
        (match Codec.unframe_prefix "XCE1whatever" ~pos:0 with
         | Error (Codec.Corrupt _) -> ()
         | _ -> Alcotest.fail "expected Corrupt");
        (* even a 1-byte prefix that can never become the magic *)
        match Codec.unframe_prefix "Q" ~pos:0 with
        | Error (Codec.Corrupt _) -> ()
        | _ -> Alcotest.fail "expected Corrupt on wrong first byte");
    Alcotest.test_case "oversized declared payload is Corrupt before buffering" `Quick
      (fun () ->
        let framed = Codec.frame (String.make 100 'a') in
        match Codec.unframe_prefix ~max_payload:10 framed ~pos:0 with
        | Error (Codec.Corrupt _) -> ()
        | _ -> Alcotest.fail "expected Corrupt");
    Alcotest.test_case "frames decode mid-string at pos" `Quick (fun () ->
        let framed = Codec.frame "hello" in
        let s = "xy" ^ framed ^ "rest" in
        match Codec.unframe_prefix s ~pos:2 with
        | Ok ("hello", n) ->
          Alcotest.(check int) "consumed" (2 + String.length framed) n
        | _ -> Alcotest.fail "expected payload at offset");
  ]

(* ----- splitter ----- *)

let random_payloads rng n =
  List.init n (fun _ ->
      let len = QCheck2.Gen.generate1 ~rand:rng QCheck2.Gen.(int_range 0 300) in
      QCheck2.Gen.generate1 ~rand:rng QCheck2.Gen.(string_size (return len)))

let feed_byte_at_a_time sp stream =
  let got = ref [] in
  let error = ref None in
  String.iter
    (fun c ->
      Splitter.feed_string sp (String.make 1 c);
      let rec drain () =
        if !error = None then
          match Splitter.next sp with
          | Ok None -> ()
          | Ok (Some p) ->
            got := p :: !got;
            drain ()
          | Error e -> error := Some e
      in
      drain ())
    stream;
  (List.rev !got, !error)

let splitter_tests =
  [
    qtest "byte-at-a-time splitting yields exactly unframe's payloads" ~count:60
      QCheck2.Gen.(int_range 1 12)
      string_of_int
      (fun n ->
        let rng = Random.State.make [| n; 77 |] in
        let payloads = random_payloads rng n in
        let stream = String.concat "" (List.map Codec.frame payloads) in
        (* the oracle: each whole frame through the one-shot decoder *)
        List.iter
          (fun p -> assert (Codec.unframe (Codec.frame p) = Ok p))
          payloads;
        let got, error = feed_byte_at_a_time (Splitter.create ()) stream in
        error = None && got = payloads);
    qtest "single corrupted byte: no wrong payload ever comes out" ~count:120
      QCheck2.Gen.(pair (int_range 1 8) (int_range 0 10_000))
      (fun (n, k) -> Printf.sprintf "n=%d k=%d" n k)
      (fun (n, k) ->
        let rng = Random.State.make [| n; k; 13 |] in
        let payloads = random_payloads rng n in
        let stream = String.concat "" (List.map Codec.frame payloads) in
        let pos = k mod String.length stream in
        let b = Bytes.of_string stream in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
        let got, error = feed_byte_at_a_time (Splitter.create ()) (Bytes.to_string b) in
        (* connection-drop semantics: everything delivered must be an
           honest prefix, and the stream must not have yielded all N
           payloads as if nothing happened (either the splitter flagged
           corruption, or it is stalled waiting for bytes that a real
           connection would never complete) *)
        let rec is_prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | x :: xs, y :: ys -> x = y && is_prefix xs ys
          | _ :: _, [] -> false
        in
        is_prefix got payloads
        && (error <> None || List.length got < List.length payloads));
    Alcotest.test_case "corruption is sticky: honest frames after it are refused" `Quick
      (fun () ->
        let sp = Splitter.create () in
        Splitter.feed_string sp "NOT A FRAME";
        (match Splitter.next sp with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected corrupt");
        Splitter.feed_string sp (Codec.frame "honest");
        match Splitter.next sp with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "splitter must stay dead after corruption");
    Alcotest.test_case "zero-length payloads split correctly" `Quick (fun () ->
        let sp = Splitter.create () in
        Splitter.feed_string sp (Codec.frame "" ^ Codec.frame "" ^ Codec.frame "x");
        let rec drain acc =
          match Splitter.next sp with
          | Ok (Some p) -> drain (p :: acc)
          | Ok None -> List.rev acc
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check (list string)) "payloads" [ ""; ""; "x" ] (drain []));
    Alcotest.test_case "oversized frame is refused before its payload arrives" `Quick
      (fun () ->
        let sp = Splitter.create ~max_payload:16 () in
        let framed = Codec.frame (String.make 1000 'z') in
        (* header only — the declared length alone must kill it *)
        Splitter.feed_string sp (String.sub framed 0 12);
        match Splitter.next sp with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected refusal from the declared length");
  ]

(* ----- backoff ----- *)

let backoff_tests =
  [
    Alcotest.test_case "delays grow geometrically, jittered, capped" `Quick (fun () ->
        let b = Backoff.create ~base_ms:100 ~max_ms:2000 ~seed:42 () in
        let delays = List.init 10 (fun _ -> Backoff.next b) in
        List.iteri
          (fun i d ->
            let cap = min 2000 (100 * (1 lsl i)) in
            Alcotest.(check bool)
              (Printf.sprintf "attempt %d in [cap/2,cap]" i)
              true
              (d >= cap / 2 && d <= cap))
          delays;
        Backoff.reset b;
        let d = Backoff.next b in
        Alcotest.(check bool) "reset back to base" true (d >= 50 && d <= 100));
    Alcotest.test_case "seeded backoff is deterministic" `Quick (fun () ->
        let mk () =
          let b = Backoff.create ~base_ms:100 ~max_ms:2000 ~seed:7 () in
          List.init 6 (fun _ -> Backoff.next b)
        in
        Alcotest.(check (list int)) "same draws" (mk ()) (mk ()));
  ]

(* ----- relay envelope ----- *)

let envelope_tests =
  [
    Alcotest.test_case "envelope roundtrips" `Quick (fun () ->
        List.iter
          (fun m ->
            match Relay_proto.decode (Relay_proto.encode m) with
            | Ok m' -> Alcotest.(check bool) (Relay_proto.label m) true (m = m')
            | Error e -> Alcotest.fail e)
          [
            Relay_proto.Ping;
            Relay_proto.Pong;
            Relay_proto.Bye "reason";
            Relay_proto.Attach { doc = "main"; site = 3 };
            Relay_proto.Attached { doc = "main"; relay_site = 1_000_000; heartbeat_ms = 5000 };
            Relay_proto.Detach { doc = "main" };
            Relay_proto.Doc_snapshot { doc = "main"; state = "blob\x00\xff" };
            Relay_proto.Doc_msg { doc = "main"; origin = 0; msg = "" };
            Relay_proto.Attach_at { doc = "main"; site = 3; resume = "F" };
            Relay_proto.Doc_delta { doc = "main"; delta = "d" };
            Relay_proto.Beacon { doc = "main"; frontier = "" };
          ];
        (* the surviving frames are byte-for-byte what they always were *)
        Alcotest.(check string) "Doc_msg golden bytes" "m\004main\002\003\001op"
          (Relay_proto.encode (Relay_proto.Doc_msg { doc = "main"; origin = 2; msg = "\001op" }));
        Alcotest.(check string) "Beacon golden bytes" "F\004main\002F\000"
          (Relay_proto.encode (Relay_proto.Beacon { doc = "main"; frontier = "F\000" }));
        (* the retired single-document tags no longer decode *)
        List.iter
          (fun tag ->
            Alcotest.(check bool) (Printf.sprintf "retired tag %C" tag) true
              (Result.is_error (Relay_proto.decode (String.make 1 tag ^ "\001"))))
          [ 'H'; 'W'; 'S'; 'M' ]);
    qtest "hostile envelope bytes never raise" ~count:500
      QCheck2.Gen.(string_size (int_range 0 40))
      (Printf.sprintf "%S")
      (fun s ->
        match Relay_proto.decode s with Ok _ -> true | Error _ -> true);
  ]

(* ----- connection backpressure over a socketpair ----- *)

let conn_tests =
  [
    Alcotest.test_case "outbox overflow disconnects instead of buffering forever"
      `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let tele = Tele.make () in
        let conn = Conn.create ~max_outbox:4096 ~tele ~peer:"test" a in
        (* nobody reads [b]; the kernel buffer plus our outbox bound
           must eventually trip the overflow policy *)
        let payload = String.make 1024 'q' in
        let rec spam i =
          if i > 10_000 then ()
          else if Conn.alive conn then begin
            Conn.send conn payload;
            Conn.handle_writable conn;
            spam (i + 1)
          end
        in
        spam 0;
        (match Conn.closed_reason conn with
         | Some Conn.Overflow -> ()
         | r ->
           Alcotest.failf "expected Overflow, got %s"
             (match r with None -> "alive" | Some r -> Conn.reason_string r));
        Conn.shutdown conn;
        Unix.close b);
    Alcotest.test_case "partial writes resume cleanly" `Quick (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let tele = Tele.make () in
        let sender = Conn.create ~max_outbox:(32 * 1024 * 1024) ~tele ~peer:"tx" a in
        let receiver = Conn.create ~tele ~peer:"rx" b in
        let payload = String.make 300_000 'p' in
        Conn.send sender payload;
        let got = ref [] in
        let rounds = ref 0 in
        while !got = [] && !rounds < 10_000 do
          incr rounds;
          Conn.handle_writable sender;
          got := Conn.handle_readable receiver
        done;
        Alcotest.(check bool) "payload intact" true (!got = [ payload ]);
        Conn.shutdown sender;
        Conn.shutdown receiver);
    Alcotest.test_case "peer slamming the connection shut mid-flush is Eof" `Quick
      (fun () ->
        (* without this the kernel delivers SIGPIPE and kills the
           process before EPIPE can ever surface — the daemons install
           the same handler at startup *)
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let tele = Tele.make () in
        let conn = Conn.create ~max_outbox:(32 * 1024 * 1024) ~tele ~peer:"slam" a in
        Unix.close b;
        let payload = String.make 65_536 'x' in
        let rounds = ref 0 in
        while Conn.alive conn && !rounds < 1_000 do
          incr rounds;
          Conn.send conn payload;
          Conn.handle_writable conn
        done;
        (match Conn.closed_reason conn with
         | Some Conn.Eof -> ()
         | Some r -> Alcotest.failf "expected Eof, got %s" (Conn.reason_string r)
         | None -> Alcotest.fail "connection survived writing into a closed peer");
        Conn.shutdown conn);
    Alcotest.test_case "idle timers run on the injected clock" `Quick (fun () ->
        (* the fake source starts slightly ahead of the real clock (the
           monotone clamp would otherwise freeze it) and is advanced by
           hand — no sleeping *)
        let base = Unix.gettimeofday () +. 0.05 in
        let now = ref base in
        Obs.Clock.set_source (Some (fun () -> !now));
        Fun.protect ~finally:(fun () -> Obs.Clock.set_source None) @@ fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let tele = Tele.make () in
        let sender = Conn.create ~tele ~peer:"tx" a in
        let receiver = Conn.create ~tele ~peer:"rx" b in
        let t0_send = Conn.last_send_ms sender in
        let t0_recv = Conn.last_recv_ms receiver in
        now := base +. 0.007;
        Conn.send sender "ping";
        Conn.handle_writable sender;
        ignore (Conn.handle_readable receiver);
        Alcotest.(check (float 0.01))
          "send stamped 7 fake milliseconds later" 7.0
          (Conn.last_send_ms sender -. t0_send);
        Alcotest.(check (float 0.01))
          "receive stamped 7 fake milliseconds later" 7.0
          (Conn.last_recv_ms receiver -. t0_recv);
        Conn.shutdown sender;
        Conn.shutdown receiver);
  ]

(* ----- loopback integration: 3 sites over real TCP ----- *)

let relay_site = 1_000_000

let mk_controller ~site ~trace text =
  let policy =
    Policy.make ~users:[ 0; 1; 2 ]
      [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  Controller.create ~eq:Char.equal ~site ~admin:0 ~policy ~trace
    (Tdoc.of_string text)

(* a single-document hub, every doc a fresh "abc" session *)
let mk_hub ?config ?metrics ?(docs = [ "main" ]) ?upstream ?hub_id () =
  let config =
    match (config, hub_id) with
    | Some c, _ -> c
    | None, Some id -> { Hub.default_config with Hub.hub_id = id }
    | None, None -> Hub.default_config
  in
  Hub.create ~config ?metrics ?upstream ~codec:Proto.char_codec
    ~factory:(fun _doc ->
      Ok (mk_controller ~site:relay_site ~trace:Obs.Trace.null "abc", None))
    ~docs ~port:0 ()

(* every endpoint is a [Site], the one editor runtime; the test keeps
   only counts *)
type endpoint = {
  s : char Site.t;
  site : int;
  mutable joins : int; (* state transfers integrated *)
  mutable reconnect_events : int;
}

let ctrl ep = Site.controller ep.s

let on_notice ep = function
  | Site.Joined _ -> ep.joins <- ep.joins + 1
  | Site.Integrated _ -> ()
  | Site.Dropped reason -> Alcotest.failf "site %d dropped input: %s" ep.site reason
  | Site.Link (Client.Reconnecting _) -> ep.reconnect_events <- ep.reconnect_events + 1
  | Site.Link (Client.Gave_up reason) -> Alcotest.failf "site %d gave up: %s" ep.site reason
  | Site.Link _ -> ()

let mk_endpoint ~port ~site =
  let config =
    {
      Client.default_config with
      Client.backoff_base_ms = 5;
      backoff_max_ms = 50;
      max_attempts = Some 100;
    }
  in
  {
    s =
      Site.create ~codec:Proto.char_codec ~eq:Char.equal
        (Client.create ~config ~seed:site ~host:"127.0.0.1" ~port ~site ());
    site;
    joins = 0;
    reconnect_events = 0;
  }

let ep_step ep = List.iter (on_notice ep) (Site.step ep.s)

let pump_until ?(max_rounds = 4000) hub eps cond =
  let rec go i =
    cond ()
    ||
    if i >= max_rounds then false
    else begin
      Hub.step ~timeout_ms:1 hub;
      List.iter ep_step eps;
      go (i + 1)
    end
  in
  go 0

let require name ok = if not ok then Alcotest.failf "timeout waiting for %s" name

let doc ep =
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

let try_update ep pos ch =
  let c = Option.get (ctrl ep) in
  Result.is_ok (Site.generate ep.s (Tdoc.up_visible (Controller.document c) pos ch))

let admin_op ep op =
  match Site.admin ep.s op with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "admin error: %s" e

(* The same scenario, replayed through in-process controllers with
   immediate delivery — the oracle for the networked final state. *)
let inprocess_replay () =
  let c0 = ref (mk_controller ~site:0 ~trace:Obs.Trace.null "abc") in
  let c1 = ref (mk_controller ~site:1 ~trace:Obs.Trace.null "abc") in
  let c2 = ref (mk_controller ~site:2 ~trace:Obs.Trace.null "abc") in
  let cells = [ (0, c0); (1, c1); (2, c2) ] in
  let rec deliver src msgs =
    List.iter
      (fun m ->
        List.iter
          (fun (s, cell) ->
            if s <> src then begin
              let c, emitted = Controller.receive !cell m in
              cell := c;
              deliver s emitted
            end)
          cells)
      msgs
  in
  let gen cell site op =
    match Controller.generate !cell op with
    | c, Controller.Accepted m ->
      cell := c;
      deliver site [ m ]
    | _, Controller.Denied r -> failwith r
  in
  gen c1 1 (Tdoc.ins_visible (Controller.document !c1) 0 'x');
  (match
     Controller.admin_update !c0
       (Admin_op.Add_auth
          (0, Auth.deny [ Subject.User 2 ] [ Docobj.Whole ] [ Right.Update ]))
   with
   | Ok (c, m) ->
     c0 := c;
     deliver 0 [ m ]
   | Error e -> failwith e);
  gen c2 2 (Tdoc.ins_visible (Controller.document !c2) 3 'z');
  gen c1 1 (Tdoc.ins_visible (Controller.document !c1) 1 'y');
  Tdoc.visible_string (Controller.document !c0)

let integration_test () =
  let metrics = Obs.Metrics.create () in
  let config = { Hub.default_config with Hub.heartbeat_ms = 200 } in
  let hub = mk_hub ~config ~metrics () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let port = Hub.port hub in
  (* admin and site 1 join a fresh session *)
  let ep0 = mk_endpoint ~port ~site:0 in
  let ep1 = mk_endpoint ~port ~site:1 in
  let eps = [ ep0; ep1 ] in
  require "initial join"
    (pump_until hub eps (fun () -> ctrl ep0 <> None && ctrl ep1 <> None));
  Alcotest.(check (list int)) "both connected" [ 0; 1 ] (Hub.connected_sites hub);

  (* a user edit propagates and gets validated by the admin *)
  edit ep1 0 'x';
  require "edit propagated and validated"
    (pump_until hub eps (fun () ->
         doc ep0 = "xabc" && doc ep1 = "xabc" && settled ep0 && settled ep1));

  (* the admin restricts site 2's update right; the policy change
     reaches every connected site.  (Versions are compared relatively:
     validations are administrative events too, so the count is higher
     than the number of explicit policy edits.) *)
  admin_op ep0
    (Admin_op.Add_auth
       (0, Auth.deny [ Subject.User 2 ] [ Docobj.Whole ] [ Right.Update ]));
  let target_version = Controller.version (Option.get (ctrl ep0)) in
  require "restriction everywhere"
    (pump_until hub eps (fun () ->
         (match ctrl ep1 with
          | Some b -> Controller.version b >= target_version
          | None -> false)));

  (* site 2 joins late, purely from the relay snapshot *)
  let ep2 = mk_endpoint ~port ~site:2 in
  let eps = [ ep0; ep1; ep2 ] in
  require "late join" (pump_until hub eps (fun () -> ctrl ep2 <> None));
  Alcotest.(check string) "late joiner caught up from snapshot" "xabc" (doc ep2);
  Alcotest.(check bool) "late joiner sees the restriction" true
    (Controller.version (Option.get (ctrl ep2)) >= target_version);
  (* ...and the restriction binds its local checks *)
  Alcotest.(check bool) "denied update locally" false (try_update ep2 0 'Q');

  (* the late joiner can still insert *)
  edit ep2 3 'z';
  require "late joiner's edit propagated"
    (pump_until hub eps (fun () ->
         doc ep0 = "xabzc" && doc ep1 = "xabzc" && doc ep2 = "xabzc"));

  (* kick site 1: its client must reconnect with backoff and resync *)
  require "settled before kick"
    (pump_until hub eps (fun () -> List.for_all settled eps));
  let joins_before = ep1.joins in
  Alcotest.(check bool) "kick found the connection" true (Hub.kick hub ~site:1);
  require "reconnected and resynced"
    (pump_until hub eps (fun () ->
         ep1.joins > joins_before && Client.connected (Site.client ep1.s)));
  Alcotest.(check bool) "reconnect went through backoff" true
    (ep1.reconnect_events > 0);

  (* the reconnected site keeps editing: serial numbering must have
     carried over, or every peer would drop this as a duplicate *)
  edit ep1 1 'y';
  require "post-reconnect edit propagated"
    (pump_until hub eps (fun () ->
         doc ep0 = "xyabzc" && doc ep1 = "xyabzc" && doc ep2 = "xyabzc"
         && List.for_all settled eps));

  (* the paper's convergence oracle over the three real controllers *)
  let ctrls = List.map (fun ep -> Option.get (ctrl ep)) [ ep0; ep1; ep2 ] in
  let report = Dce_sim.Convergence.check ctrls in
  if not (Dce_sim.Convergence.ok report) then
    Alcotest.failf "convergence violated: %s"
      (Format.asprintf "%a" Dce_sim.Convergence.pp report);

  (* the hub's own hosted copy agrees *)
  Alcotest.(check string) "hub copy agrees" "xyabzc"
    (Tdoc.visible_string (Controller.document (Hub.controller hub)));

  (* and the networked outcome equals the in-process replay *)
  Alcotest.(check string) "identical to the in-process replay"
    (inprocess_replay ()) (doc ep0);

  (* transport counters saw the lifecycle *)
  let counter name = List.assoc ("netd." ^ name) (Obs.Metrics.counters metrics) in
  Alcotest.(check bool) "bytes flowed" true
    (counter "bytes_in" > 0 && counter "bytes_out" > 0);
  Alcotest.(check bool) "frames flowed" true
    (counter "frames_in" > 0 && counter "frames_out" > 0);
  Alcotest.(check bool) "reconnect counted" true (counter "reconnects" >= 1);
  Alcotest.(check int) "snapshots served: 0,1 join; 2 late" 3 (counter "snapshots");
  Alcotest.(check int) "the kicked site resumed by delta" 1
    (List.assoc "hub.deltas" (Obs.Metrics.counters metrics));
  List.iter (fun ep -> Site.close ep.s) [ ep0; ep1; ep2 ]

(* a hostile peer: raw bytes at the relay must never crash it *)
let hostile_peer_test () =
  let metrics = Obs.Metrics.create () in
  let hub = mk_hub ~metrics () in
  Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
  let connect_raw () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Hub.port hub));
    fd
  in
  let wait_eof fd =
    (* the hub must close a corrupt connection; EOF is the proof *)
    let rec go i =
      if i > 2000 then false
      else begin
        Hub.step ~timeout_ms:1 hub;
        match Evloop.wait ~timeout_ms:1 ~read:[ fd ] ~write:[] () with
        | [ _ ], _ ->
          let n = Unix.read fd (Bytes.create 256) 0 256 in
          if n = 0 then true else go (i + 1)
        | _ -> go (i + 1)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
      end
    in
    go 0
  in
  (* garbage that is not even a frame *)
  let fd = connect_raw () in
  ignore (Unix.write_substring fd "total garbage \x00\xff\x13" 0 17);
  Alcotest.(check bool) "garbage stream dropped" true (wait_eof fd);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* a valid frame whose payload is not a valid envelope *)
  let fd = connect_raw () in
  let framed = Codec.frame "\xffnot an envelope" in
  ignore (Unix.write_substring fd framed 0 (String.length framed));
  Alcotest.(check bool) "bad envelope dropped" true (wait_eof fd);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* a truncated frame is NOT an error: the relay waits patiently *)
  let fd = connect_raw () in
  let framed = Codec.frame (String.make 500 'x') in
  ignore (Unix.write_substring fd framed 0 40);
  for _ = 1 to 50 do
    Hub.step ~timeout_ms:1 hub
  done;
  let still_open =
    match Evloop.wait ~timeout_ms:10 ~read:[ fd ] ~write:[] () with
    | [ _ ], _ -> Unix.read fd (Bytes.create 16) 0 16 > 0 (* ping, perhaps *)
    | _ -> true (* nothing to read: still connected *)
  in
  Alcotest.(check bool) "truncated frame waits, not drops" true still_open;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* a well-framed Attach then a well-encoded Doc_msg that is
     semantically invalid for the hosted session (edit far beyond the
     document): applying it must drop the peer, never the daemon *)
  let fd = connect_raw () in
  let send_payload s =
    let framed = Codec.frame s in
    ignore (Unix.write_substring fd framed 0 (String.length framed))
  in
  send_payload (Relay_proto.encode (Relay_proto.Attach { doc = "main"; site = 2 }));
  let donor = mk_controller ~site:2 ~trace:Obs.Trace.null "abcdefghij" in
  let bad_msg =
    match
      Controller.generate donor (Tdoc.ins_visible (Controller.document donor) 9 'Z')
    with
    | _, Controller.Accepted m -> Proto.Char_proto.encode_message m
    | _, Controller.Denied r -> Alcotest.failf "donor edit denied: %s" r
  in
  send_payload
    (Relay_proto.encode (Relay_proto.Doc_msg { doc = "main"; origin = 0; msg = bad_msg }));
  Alcotest.(check bool) "semantically invalid message dropped" true (wait_eof fd);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* after all that abuse, an honest client still gets served *)
  let ep = mk_endpoint ~port:(Hub.port hub) ~site:1 in
  require "honest client joins after abuse"
    (pump_until hub [ ep ] (fun () -> ctrl ep <> None));
  Alcotest.(check string) "and sees the document" "abc" (doc ep);
  Alcotest.(check bool) "framing errors counted" true
    (List.assoc "netd.framing_errors" (Obs.Metrics.counters metrics) >= 1);
  Site.close ep.s

(* max_attempts bounds the number of failed connection attempts exactly *)
let gives_up_after_max_attempts () =
  (* find a loopback port with no listener: bind, read it back, close *)
  let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname probe with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close probe;
  let config =
    {
      Client.default_config with
      Client.backoff_base_ms = 1;
      backoff_max_ms = 2;
      max_attempts = Some 3;
    }
  in
  let c = Client.create ~config ~seed:42 ~host:"127.0.0.1" ~port ~site:1 () in
  let disconnects = ref 0 and gave_up = ref 0 in
  let rec go i =
    if i < 10_000 && not (Client.stopped c) then begin
      List.iter
        (function
          | Client.Disconnected _ -> incr disconnects
          | Client.Gave_up _ -> incr gave_up
          | _ -> ())
        (Client.step ~timeout_ms:1 c);
      go (i + 1)
    end
  in
  go 0;
  Alcotest.(check bool) "stopped" true (Client.stopped c);
  Alcotest.(check int) "exactly max_attempts failed attempts" 3 !disconnects;
  Alcotest.(check int) "gave up once" 1 !gave_up

(* ----- admin socket: scraping a live session ----- *)

let find_sub hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i =
    if i + m > n then None
    else if String.sub hay i m = needle then Some i
    else go (i + 1)
  in
  go 0

(* The admin server is single-threaded and shares the caller's loop, so
   the scrape drives [Admin.step] itself between non-blocking reads. *)
let http_scrape admin path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Admin.port admin));
  let req = "GET " ^ path ^ " HTTP/1.1\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  Unix.set_nonblock fd;
  let b = Buffer.create 1024 in
  let buf = Bytes.create 4096 in
  let rec go rounds =
    if rounds > 2000 then Alcotest.failf "scraping %s timed out" path;
    Admin.step admin;
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b buf 0 n;
      go (rounds + 1)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Unix.sleepf 0.001;
      go (rounds + 1)
  in
  go 0;
  Buffer.contents b

let admin_scrape_test () =
  let metrics = Obs.Metrics.create () in
  let hub = mk_hub ~metrics () in
  let admin =
    Admin.create ~metrics
      ~healthz:(fun () -> Obs.Json.Obj [ ("status", Obs.Json.String "ok") ])
      ~sessions:(fun () ->
        Obs.Json.Obj
          [
            ( "sites",
              Obs.Json.List
                (List.map (fun s -> Obs.Json.Int s) (Hub.connected_sites hub)) );
          ])
      ~port:0 ()
  in
  Fun.protect ~finally:(fun () ->
      Admin.close admin;
      Hub.shutdown hub)
  @@ fun () ->
  let port = Hub.port hub in
  let ep0 = mk_endpoint ~port ~site:0 in
  let ep1 = mk_endpoint ~port ~site:1 in
  let ep2 = mk_endpoint ~port ~site:2 in
  let eps = [ ep0; ep1; ep2 ] in
  require "all three joined"
    (pump_until hub eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
  edit ep1 0 'x';
  edit ep2 0 'y';
  require "edits settled"
    (pump_until hub eps (fun () ->
         List.for_all settled eps && doc ep0 = doc ep1 && doc ep1 = doc ep2));
  (* /metrics: a parseable exposition with live transport counters *)
  let raw = http_scrape admin "/metrics" in
  Alcotest.(check bool) "200" true (find_sub raw "HTTP/1.1 200" = Some 0);
  let body =
    match find_sub raw "\r\n\r\n" with
    | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
    | None -> Alcotest.fail "no body"
  in
  let p = Obs.Export.parse_exposition body in
  let counter name =
    try List.assoc name p.Obs.Export.p_counters with Not_found -> 0
  in
  Alcotest.(check bool) "netd_frames_in is live" true (counter "netd_frames_in" > 0);
  Alcotest.(check bool) "netd_bytes_out is live" true (counter "netd_bytes_out" > 0);
  (* /healthz and /sessions serve the callbacks' JSON *)
  let hz = http_scrape admin "/healthz" in
  Alcotest.(check bool) "healthz ok" true (find_sub hz "\"status\":\"ok\"" <> None);
  let ss = http_scrape admin "/sessions" in
  Alcotest.(check bool) "sessions lists the sites" true
    (find_sub ss "\"sites\":[0,1,2]" <> None);
  (* unknown routes 404 without killing the server *)
  let nf = http_scrape admin "/nope" in
  Alcotest.(check bool) "404" true (find_sub nf "404" <> None);
  let again = http_scrape admin "/healthz" in
  Alcotest.(check bool) "server survives" true (find_sub again "200" <> None)

(* The stability beacon keeps a fixed phase: one reached late does not
   push the next one back.  A bare listening socket plays the hub
   (attach in, snapshot out) and counts the client's beacons while a
   fake clock is advanced by hand.  The fake clock starts just ahead of
   the real one and moves tens of milliseconds, so the monotone clamp
   it leaves behind does not freeze the clock for later tests; each
   check sits a millisecond off the grid, clear of float rounding. *)
let beacon_keeps_phase () =
  let base = Unix.gettimeofday () +. 0.1 in
  let now = ref base in
  Obs.Clock.set_source (Some (fun () -> !now));
  Fun.protect ~finally:(fun () -> Obs.Clock.set_source None) @@ fun () ->
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 1;
  let port =
    match Unix.getsockname lsock with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let config = { Client.default_config with Client.heartbeat_ms = 10 } in
  let client = Client.create ~config ~host:"127.0.0.1" ~port ~site:1 () in
  let server = ref None in
  let beacons = ref 0 in
  Fun.protect ~finally:(fun () ->
      Client.close client;
      Option.iter Conn.shutdown !server;
      Unix.close lsock)
  @@ fun () ->
  (* step both ends for a few rounds of real time; the fake clock
     stands still meanwhile *)
  let settle () =
    for _ = 1 to 20 do
      ignore (Client.step ~timeout_ms:1 client);
      match !server with
      | None -> (
        match Evloop.wait ~timeout_ms:1 ~read:[ lsock ] ~write:[] () with
        | [ _ ], _ ->
          let fd, _ = Unix.accept ~cloexec:true lsock in
          server := Some (Conn.create ~tele:(Tele.make ()) ~peer:"client" fd)
        | _ -> ())
      | Some c ->
        List.iter
          (fun payload ->
            match Relay_proto.decode payload with
            | Ok (Relay_proto.Attach { doc; _ }) ->
              Conn.send c (Relay_proto.encode (Relay_proto.Doc_snapshot { doc; state = "" }));
              Conn.handle_writable c
            | Ok (Relay_proto.Beacon _) -> incr beacons
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          (Conn.handle_readable c)
    done
  in
  let beacons_at ms expected what =
    now := base +. (ms /. 1000.);
    settle ();
    Alcotest.(check int) what expected !beacons
  in
  beacons_at 0. 1 "one beacon on going live";
  Alcotest.(check bool) "live" true (Client.connected client);
  beacons_at 13. 2 "the second, reached 3 ms late";
  beacons_at 19. 2 "none before the grid point";
  beacons_at 21. 3 "the third on the grid, not a period after the late one";
  beacons_at 55. 4 "a stall over several periods sends one";
  beacons_at 59. 4 "still on the grid after the stall";
  beacons_at 61. 5 "and the next on it"

(* OCaml's select(2) binding refuses any descriptor numbered 1024 or more, so
   an editor that waited with it died on its first step once its process
   held that many files.  Hold about 1100 open, then join and edit. *)
let high_fd_test () =
  let pipes = ref [] in
  let failed = ref None in
  (try
     for _ = 1 to 550 do
       pipes := Unix.pipe ~cloexec:true () :: !pipes
     done
   with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> failed := Some "fd ulimit");
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun (r, w) ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
        !pipes)
  @@ fun () ->
  match !failed with
  | Some why -> Printf.printf "SKIP: cannot allocate >1024 fds here (%s)\n%!" why
  | None ->
    let hub = mk_hub () in
    Fun.protect ~finally:(fun () -> Hub.shutdown hub) @@ fun () ->
    let port = Hub.port hub in
    let ep0 = mk_endpoint ~port ~site:0 in
    let ep1 = mk_endpoint ~port ~site:1 in
    let eps = [ ep0; ep1 ] in
    require "both joined"
      (pump_until hub eps (fun () -> List.for_all (fun e -> ctrl e <> None) eps));
    let fd = Option.get (Client.fd (Site.client ep1.s)) in
    Alcotest.(check bool) "the editor's socket is past FD_SETSIZE" true
      ((Obj.magic fd : int) >= 1024);
    edit ep1 0 'x';
    require "the edit is integrated"
      (pump_until hub eps (fun () -> doc ep0 = "xabc" && List.for_all settled eps));
    List.iter (fun ep -> Site.close ep.s) eps

let client_tests =
  [
    Alcotest.test_case "max_attempts failed connects, then Gave_up" `Quick
      gives_up_after_max_attempts;
    Alcotest.test_case "a beacon reached late keeps the cadence's phase" `Quick
      beacon_keeps_phase;
    Alcotest.test_case "an editor whose socket is fd 1024 or higher joins and edits"
      `Quick high_fd_test;
  ]

let () =
  Alcotest.run "dce_netd"
    [
      ("unframe_prefix", prefix_tests);
      ("splitter", splitter_tests);
      ("backoff", backoff_tests);
      ("envelope", envelope_tests);
      ("conn", conn_tests);
      ("client", client_tests);
      ( "loopback",
        [
          Alcotest.test_case "3 sites over TCP: edit/deny/late-join/reconnect" `Quick
            integration_test;
          Alcotest.test_case "hostile and truncated streams never crash the hub"
            `Quick hostile_peer_test;
          Alcotest.test_case "admin socket scrapes a live 3-site session" `Quick
            admin_scrape_test;
        ] );
    ]
