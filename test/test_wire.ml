(* Tests for the wire format: primitive and domain roundtrips, framing
   integrity, hostile-input fuzzing, and full session save/restore. *)

open Dce_ot
open Dce_core
open Dce_wire
open Helpers

let adm = 0
let s1 = 1
let s2 = 2

(* ----- primitives ----- *)

let roundtrip put get v = Codec.of_string get (Codec.to_string put v)

let codec_tests =
  [
    qtest "varint roundtrip" ~count:1000
      QCheck2.Gen.(oneof [ int_range 0 1000; map abs int ])
      string_of_int
      (fun n -> roundtrip Codec.put_varint Codec.get_varint n = Ok n);
    qtest "zig-zag int roundtrip" ~count:1000 QCheck2.Gen.int string_of_int
      (fun n -> roundtrip Codec.put_int Codec.get_int n = Ok n);
    qtest "string roundtrip" ~count:500 QCheck2.Gen.(string_size (int_range 0 64))
      (Printf.sprintf "%S")
      (fun s -> roundtrip Codec.put_string Codec.get_string s = Ok s);
    qtest "list roundtrip" ~count:500
      QCheck2.Gen.(list_size (int_range 0 20) int)
      (fun l -> Printf.sprintf "%d elems" (List.length l))
      (fun l ->
        roundtrip (Codec.put_list Codec.put_int) (Codec.get_list Codec.get_int) l = Ok l);
    Alcotest.test_case "option roundtrip" `Quick (fun () ->
        Alcotest.(check bool) "some" true
          (roundtrip (Codec.put_option Codec.put_int) (Codec.get_option Codec.get_int)
             (Some 42)
           = Ok (Some 42));
        Alcotest.(check bool) "none" true
          (roundtrip (Codec.put_option Codec.put_int) (Codec.get_option Codec.get_int)
             None
           = Ok None));
    Alcotest.test_case "negative varint rejected at encode" `Quick (fun () ->
        (try
           ignore (Codec.to_string Codec.put_varint (-1));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "crc32 known vector" `Quick (fun () ->
        Alcotest.(check int32) "123456789" 0xCBF43926l (Codec.crc32 "123456789"));
    Alcotest.test_case "truncated input is an error, not an exception" `Quick (fun () ->
        let s = Codec.to_string Codec.put_string "hello world" in
        let t = String.sub s 0 (String.length s - 3) in
        Alcotest.(check bool) "error" true
          (Result.is_error (Codec.of_string Codec.get_string t)));
    Alcotest.test_case "trailing garbage is an error" `Quick (fun () ->
        let s = Codec.to_string Codec.put_varint 7 ^ "junk" in
        Alcotest.(check bool) "error" true
          (Result.is_error (Codec.of_string Codec.get_varint s)));
  ]

let framing_tests =
  [
    Alcotest.test_case "frame / unframe roundtrip" `Quick (fun () ->
        let payload = "the payload \x00\xff bytes" in
        Alcotest.(check bool) "ok" true (Codec.unframe (Codec.frame payload) = Ok payload));
    Alcotest.test_case "bit flip is detected" `Quick (fun () ->
        let framed = Bytes.of_string (Codec.frame "some payload") in
        let i = Bytes.length framed - 3 in
        Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 0x20));
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Codec.unframe (Bytes.to_string framed))));
    Alcotest.test_case "bad magic rejected" `Quick (fun () ->
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Codec.unframe "NOPE rest")));
    Alcotest.test_case "length mismatch rejected" `Quick (fun () ->
        let framed = Codec.frame "payload" in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Codec.unframe (framed ^ "x"))));
  ]

(* ----- domain roundtrips ----- *)

let gen_request =
  let open QCheck2.Gen in
  gen_tdoc >>= fun doc ->
  gen_valid_op ~pr:2 doc >>= fun op ->
  pair (int_range 1 5) (int_range 1 20) >>= fun (site, serial) ->
  list_size (int_range 0 4) (pair (int_range 1 5) (int_range 1 9)) >>= fun ctx ->
  pair (int_range 0 9) (oneofl [ Request.Tentative; Request.Valid; Request.Invalid ])
  >|= fun (v, flag) ->
  Request.make ~site ~serial ~op ~ctx:(Vclock.of_list ctx) ~policy_version:v ~flag ()

let request_equal (a : char Request.t) (b : char Request.t) =
  Request.id_equal a.Request.id b.Request.id
  && a.Request.dep = b.Request.dep
  && Op.equal Char.equal a.Request.op b.Request.op
  && Op.equal Char.equal a.Request.gen_op b.Request.gen_op
  && Vclock.equal a.Request.ctx b.Request.ctx
  && a.Request.policy_version = b.Request.policy_version
  && a.Request.flag = b.Request.flag

let domain_tests =
  [
    qtest "operation roundtrip" ~count:1000
      QCheck2.Gen.(gen_tdoc >>= fun d -> gen_valid_op ~pr:3 d)
      (Format.asprintf "%a" pp_char_op)
      (fun op ->
        match
          roundtrip (Proto.put_op Proto.char_codec) (Proto.get_op Proto.char_codec) op
        with
        | Ok op' -> Op.equal Char.equal op op'
        | Error _ -> false);
    qtest "request roundtrip (framed message)" ~count:500 gen_request
      (fun q -> Format.asprintf "%a" (Request.pp Fmt.char) q)
      (fun q ->
        match Proto.Char_proto.decode_message (Proto.Char_proto.encode_message (Controller.Coop q)) with
        | Ok (Controller.Coop q') -> request_equal q q'
        | _ -> false);
    Alcotest.test_case "policy roundtrip preserves decisions" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 0; 1; 2 ]
            ~groups:[ ("editors", [ 1 ]) ]
            ~objects:[ ("intro", Docobj.zone 0 4) ]
            [
              Auth.deny [ Subject.Group "editors" ] [ Docobj.Named "intro" ] [ Right.Update ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        match roundtrip Proto.put_policy Proto.get_policy p with
        | Error e -> Alcotest.fail e
        | Ok p' ->
          List.iter
            (fun u ->
              List.iter
                (fun r ->
                  List.iter
                    (fun pos ->
                      Alcotest.(check bool) "same decision"
                        (Policy.check p ~user:u ~right:r ~pos)
                        (Policy.check p' ~user:u ~right:r ~pos))
                    [ None; Some 0; Some 2; Some 7 ])
                Right.all)
            [ 0; 1; 2; 9 ]);
    Alcotest.test_case "admin request roundtrip (all constructors)" `Quick (fun () ->
        List.iteri
          (fun i op ->
            let r =
              { Admin_op.admin = 0; version = i + 1; op; ctx = Vclock.of_list [ (1, i) ] }
            in
            match
              roundtrip Proto.put_admin_request Proto.get_admin_request r
            with
            | Ok r' ->
              Alcotest.(check string) "same printed form"
                (Format.asprintf "%a" Admin_op.pp_request r)
                (Format.asprintf "%a" Admin_op.pp_request r')
            | Error e -> Alcotest.fail e)
          [
            Admin_op.Add_user 4;
            Admin_op.Del_user 4;
            Admin_op.Add_to_group ("g", 2);
            Admin_op.Del_from_group ("g", 2);
            Admin_op.Add_obj ("o", Docobj.zone 1 3);
            Admin_op.Del_obj "o";
            Admin_op.Add_auth (0, Auth.grant [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ]);
            Admin_op.Del_auth 0;
            Admin_op.Validate { Request.site = 1; serial = 7 };
            Admin_op.Transfer_admin 2;
          ]);
  ]

(* ----- one decoded operation when gen_op equals op ----- *)

(* A decoded request holds [op] and [gen_op] as one value exactly when
   their encodings match; [shared] counts the requests that do. *)
let one_op_when_equal ~shared (q : char Request.t) =
  let same_bytes =
    let enc = Codec.to_string (Proto.put_op Proto.char_codec) in
    String.equal (enc q.Request.op) (enc q.Request.gen_op)
  in
  if same_bytes then incr shared;
  Alcotest.(check bool)
    (Format.asprintf "%a: one operation iff equal" (Request.pp Fmt.char) q)
    same_bytes (q.Request.op == q.Request.gen_op)

(* the administrator inserts at 0 while the user deletes at 2: in the
   administrator's log the user's deletion is transformed to 3, and
   keeps its generation form at 2 *)
let diverged_session () =
  let module C = Controller in
  let policy =
    Policy.make ~users:[ adm; s1 ] [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  let doc0 = Tdoc.of_string "abcdef" in
  let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let accepted = function c, C.Accepted m -> (c, m) | _, C.Denied r -> Alcotest.fail r in
  let a, _ = accepted (C.generate a (Op.ins 0 'z')) in
  let u, m = accepted (C.generate u (Op.del 2 'c')) in
  let a, _ = C.receive a m in
  (a, u, m)

let shared_op_tests =
  let ok = function Ok x -> x | Error e -> Alcotest.fail e in
  [
    Alcotest.test_case "message and journal record: one operation when equal" `Quick
      (fun () ->
        let _, _, m = diverged_session () in
        let q = match m with Controller.Coop q -> q | _ -> Alcotest.fail "not coop" in
        let q2 = { q with Request.op = Op.del 5 'f' } in
        let shared = ref 0 in
        List.iter
          (fun q ->
            (match ok (Proto.Char_proto.decode_message (Proto.Char_proto.encode_message (Coop q))) with
             | Controller.Coop q' ->
               one_op_when_equal ~shared q';
               Alcotest.(check bool) "message round-trips" true (request_equal q q')
             | _ -> Alcotest.fail "message changed kind");
            let record = Dce_store.Persist.Received (Controller.Coop q) in
            match
              ok (Dce_store.Persist.decode_record Proto.char_codec
                    (Dce_store.Persist.encode_record Proto.char_codec record))
            with
            | Dce_store.Persist.Received (Controller.Coop q') ->
              one_op_when_equal ~shared q';
              Alcotest.(check bool) "record round-trips" true (request_equal q q')
            | _ -> Alcotest.fail "record changed kind")
          [ q; q2 ];
        Alcotest.(check int) "the generated request shared, the rewritten one not" 2 !shared);
    Alcotest.test_case "state and delta: one operation when equal, both kept otherwise"
      `Quick (fun () ->
        let a, u, _ = diverged_session () in
        let shared = ref 0 in
        let st = Controller.dump a in
        let st' = ok (Proto.Char_proto.decode_state (Proto.Char_proto.encode_state st)) in
        List.iter2
          (fun (e : char Oplog.entry) (e' : char Oplog.entry) ->
            one_op_when_equal ~shared e'.Oplog.req;
            Alcotest.(check bool) "entry round-trips" true
              (request_equal e.Oplog.req e'.Oplog.req))
          st.Controller.st_oplog st'.Controller.st_oplog;
        Alcotest.(check int) "one of the two entries shared" 1 !shared;
        Alcotest.(check bool) "the user's entry keeps two operations" true
          (List.exists
             (fun (e : char Oplog.entry) ->
               not (Op.equal Char.equal e.Oplog.req.Request.op e.Oplog.req.Request.gen_op))
             st'.Controller.st_oplog);
        let d =
          match Controller.delta_since a ~clock:(Controller.clock u) ~version:0 with
          | Some d -> d
          | None -> Alcotest.fail "no delta"
        in
        let d' = ok (Proto.Char_proto.decode_delta (Proto.Char_proto.encode_delta d)) in
        shared := 0;
        List.iter (one_op_when_equal ~shared) (d'.Controller.dl_coop @ d'.Controller.dl_coop_queue);
        Alcotest.(check int) "the delta's request shared" 1 !shared);
  ]

(* ----- fuzzing: hostile bytes never raise ----- *)

let fuzz_tests =
  [
    qtest "decode_message never raises on random bytes" ~count:2000
      QCheck2.Gen.(string_size (int_range 0 200))
      (fun s -> Printf.sprintf "%d bytes" (String.length s))
      (fun s ->
        match Proto.Char_proto.decode_message s with Ok _ | Error _ -> true);
    qtest "decode_state never raises on random bytes" ~count:2000
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun s -> Printf.sprintf "%d bytes" (String.length s))
      (fun s -> match Proto.Char_proto.decode_state s with Ok _ | Error _ -> true);
    qtest "decode_message never raises on corrupted valid frames" ~count:1000
      QCheck2.Gen.(
        gen_request >>= fun q ->
        pair (int_range 0 10_000) (int_range 0 255) >|= fun (at, with_) ->
        let s = Bytes.of_string (Proto.Char_proto.encode_message (Controller.Coop q)) in
        let at = at mod Bytes.length s in
        Bytes.set s at (Char.chr with_);
        Bytes.to_string s)
      (fun s -> Printf.sprintf "%d bytes" (String.length s))
      (fun s ->
        match Proto.Char_proto.decode_message s with Ok _ | Error _ -> true);
  ]

(* ----- session save / restore ----- *)

let all_rights users =
  Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

let persistence_tests =
  [
    Alcotest.test_case "a state whose log skips a serial is refused" `Quick (fun () ->
        let policy = all_rights [ adm; s1 ] in
        let doc0 = Tdoc.of_string "abc" in
        let a = Controller.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u = Controller.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let gen u op =
          match Controller.generate u op with
          | u, Controller.Accepted m -> (u, m)
          | _ -> Alcotest.fail "denied"
        in
        let u, m1 = gen u (Op.ins 0 'x') in
        let _, m2 = gen u (Op.ins 1 'y') in
        let a = List.fold_left (fun a m -> fst (Controller.receive a m)) a [ m1; m2 ] in
        let load st =
          match Proto.Char_proto.decode_state (Proto.Char_proto.encode_state st) with
          | Error e -> Alcotest.fail e
          | Ok st -> Controller.load ~eq:Char.equal st
        in
        let st = Controller.dump a in
        Alcotest.(check bool) "the whole log loads" true (Result.is_ok (load st));
        (* without 1.1, the log's clock would count it as held *)
        let gapped =
          List.filter
            (fun (e : char Oplog.entry) -> e.Oplog.req.Request.id.Request.serial <> 1)
            st.Controller.st_oplog
        in
        Alcotest.(check int) "1.2 kept" 1 (List.length gapped);
        let refused what oplog =
          match load { st with Controller.st_oplog = oplog } with
          | Ok _ -> Alcotest.failf "a log %s loaded" what
          | Error e ->
            Alcotest.(check bool) "names the log" true
              (String.starts_with ~prefix:"corrupt cooperative log" e)
        in
        refused "missing 1.1" gapped;
        refused "holding 1.2 twice" (st.Controller.st_oplog @ gapped);
        refused "naming serial 2^40"
          (List.map
             (fun (e : char Oplog.entry) ->
               let id = { e.Oplog.req.Request.id with Request.serial = 1 lsl 40 } in
               { e with Oplog.req = { e.Oplog.req with Request.id } })
             gapped));
    Alcotest.test_case "a mid-session controller survives the wire" `Quick (fun () ->
        (* run a small session with tentative requests, queues, policy
           changes; then dump/encode/decode/load and compare *)
        let policy = all_rights [ adm; s1; s2 ] in
        let a = Controller.create ~eq:Char.equal ~site:adm ~admin:adm ~policy (Tdoc.of_string "abc") in
        let u1 = Controller.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy (Tdoc.of_string "abc") in
        let u1, m1 =
          match Controller.generate u1 (Op.ins 0 'x') with
          | c, Controller.Accepted m -> (c, m)
          | _ -> Alcotest.fail "denied"
        in
        let a, _ = Controller.receive a m1 in
        let a, m2 =
          match Controller.admin_update a (Admin_op.Add_user 9) with
          | Ok (a, m) -> (a, m)
          | Error e -> Alcotest.fail e
        in
        let u1, _ = Controller.receive u1 m2 in
        (* round-trip u1 *)
        let encoded = Proto.Char_proto.encode_state (Controller.dump u1) in
        (match Proto.Char_proto.decode_state encoded with
         | Error e -> Alcotest.fail e
         | Ok state -> (
             match Controller.load ~eq:Char.equal state with
             | Error e -> Alcotest.fail e
             | Ok u1' ->
               Alcotest.(check string) "document"
                 (Tdoc.visible_string (Controller.document u1))
                 (Tdoc.visible_string (Controller.document u1'));
               Alcotest.(check bool) "model equal" true
                 (Tdoc.equal_model Char.equal (Controller.document u1)
                    (Controller.document u1'));
               Alcotest.(check int) "version" (Controller.version u1)
                 (Controller.version u1');
               Alcotest.(check int) "tentative preserved"
                 (List.length (Controller.tentative u1))
                 (List.length (Controller.tentative u1'));
               (* the restored site keeps working: next edit converges *)
               let u1', m3 =
                 match
                   Controller.generate u1'
                     (Tdoc.ins_visible (Controller.document u1') 0 'y')
                 with
                 | c, Controller.Accepted m -> (c, m)
                 | _ -> Alcotest.fail "denied after restore"
               in
               let a, _ = Controller.receive a m3 in
               Alcotest.(check string) "peers still converge"
                 (Tdoc.visible_string (Controller.document a))
                 (Tdoc.visible_string (Controller.document u1')))));
    Alcotest.test_case "tampered administrative history is rejected on load" `Quick
      (fun () ->
        let policy = all_rights [ adm; s1 ] in
        let a = Controller.create ~eq:Char.equal ~site:adm ~admin:adm ~policy (Tdoc.of_string "abc") in
        let a, _ =
          match Controller.admin_update a (Admin_op.Add_user 9) with
          | Ok x -> x
          | Error e -> Alcotest.fail e
        in
        let state = Controller.dump a in
        (* forge: replay the same version twice *)
        let forged =
          {
            state with
            Controller.st_admin_requests =
              state.Controller.st_admin_requests @ state.Controller.st_admin_requests;
          }
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Controller.load ~eq:Char.equal forged)));
    Alcotest.test_case "save / restore through a file" `Quick (fun () ->
        let policy = all_rights [ adm; s1 ] in
        let c = Controller.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy (Tdoc.of_string "hello") in
        let c =
          match Controller.generate c (Op.ins 5 '!') with
          | c, Controller.Accepted _ -> c
          | _ -> Alcotest.fail "denied"
        in
        let path = Filename.temp_file "dce_state" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Proto.Char_proto.save path c;
            match Proto.Char_proto.restore path with
            | Error e -> Alcotest.fail e
            | Ok c' ->
              Alcotest.(check string) "restored" "hello!"
                (Tdoc.visible_string (Controller.document c'))));
  ]

(* ----- a whole session through the wire ----- *)

let channel_tests =
  [
    Alcotest.test_case "every message of a session survives encode/decode" `Quick
      (fun () ->
        (* run the Fig.5-style exchange, but every broadcast literally
           crosses the byte channel *)
        let policy = all_rights [ adm; s1; s2 ] in
        let mk site =
          Controller.create ~eq:Char.equal ~site ~admin:adm ~policy
            (Tdoc.of_string "abc")
        in
        let sites = ref [ (adm, mk adm); (s1, mk s1); (s2, mk s2) ] in
        let set u c = sites := List.map (fun (v, c') -> if v = u then (v, c) else (v, c')) !sites in
        let rec broadcast src m =
          let bytes = Proto.Char_proto.encode_message m in
          List.iter
            (fun (u, _) ->
              if u <> src then begin
                match Proto.Char_proto.decode_message bytes with
                | Error e -> Alcotest.fail e
                | Ok m' ->
                  let c, out = Controller.receive (List.assoc u !sites) m' in
                  set u c;
                  List.iter (broadcast u) out
              end)
            !sites
        in
        let gen u op =
          match Controller.generate (List.assoc u !sites) op with
          | c, Controller.Accepted m ->
            set u c;
            broadcast u m
          | _, Controller.Denied r -> Alcotest.fail r
        in
        gen s1 (Op.ins 0 'x');
        gen s2 (Op.ins 4 'z');
        (match
           Controller.admin_update (List.assoc adm !sites)
             (Admin_op.Add_auth
                (0, Auth.deny [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Insert ]))
         with
         | Ok (c, m) ->
           set adm c;
           broadcast adm m
         | Error e -> Alcotest.fail e);
        let docs = List.map (fun (_, c) -> Controller.document c) !sites in
        Alcotest.(check string) "content" "xabcz"
          (Tdoc.visible_string (List.hd docs));
        Alcotest.(check bool) "all equal" true
          (List.for_all (Tdoc.equal_model Char.equal (List.hd docs)) docs));
  ]

(* ----- the document section -----

   A state's document travels as its model length, every cell's element
   in model order, and the touched cells as (gap from the previous
   touched position, writes, hide count).  These cases carry generated
   documents in the state of a small session and check that the section
   is canonical across chunk splits, that the decoder refuses every
   malformed overlay, and that hostile bytes behind a valid frame never
   make it raise. *)

(* a state whose log, administrative log and clocks are not empty, to
   carry the documents under test *)
let carrier_state =
  let policy = all_rights [ adm; s1 ] in
  let a = Controller.create ~eq:Char.equal ~site:adm ~admin:adm ~policy (Tdoc.of_string "abc") in
  let a =
    match Controller.generate a (Op.ins 0 'x') with
    | a, Controller.Accepted _ -> a
    | _, Controller.Denied e -> failwith e
  in
  match Controller.admin_update a (Admin_op.Add_user 9) with
  | Ok (a, _) -> Controller.dump a
  | Error e -> failwith e

let carrying d = { carrier_state with Controller.st_doc = d }

let chunked_doc (cells, ops) = Tdoc.apply_all (Tdoc.of_cells cells) ops

let state_payload st =
  match Codec.unframe ~version:2 (Proto.Char_proto.encode_state st) with
  | Ok p -> p
  | Error e -> failwith e

(* where the document section starts in a state payload: after the
   site and the three feature flags *)
let doc_offset = String.length (Codec.to_string Codec.put_varint adm) + 3

(* a state framed around a hand-written document section: [n] cells
   whose elements are [elts], then [overlay] as (gap, hide count) pairs
   with no writes *)
let with_section ~n elts overlay =
  let section =
    Codec.to_string
      (fun b () ->
        Codec.put_varint b n;
        Buffer.add_string b elts;
        Codec.put_list
          (fun b (gap, hidden) ->
            Codec.put_varint b gap;
            Codec.put_varint b 0;
            Codec.put_varint b hidden)
          b overlay)
      ()
  in
  let p = state_payload (carrying Tdoc.empty) in
  assert (String.sub p doc_offset 2 = "\000\000");
  Codec.frame ~version:2
    (String.sub p 0 doc_offset ^ section
    ^ String.sub p (doc_offset + 2) (String.length p - doc_offset - 2))

let refused what ~expect blob =
  match Proto.Char_proto.decode_state blob with
  | Ok _ -> Alcotest.failf "%s: decoded" what
  | Error e ->
    if not (contains e expect) then
      Alcotest.failf "%s: refused with %S, expected %S" what e expect

(* a mutation of a state payload: a byte flipped, the payload cut, or a
   huge count spliced over a byte *)
type mutation = Flip of int * int | Cut of int | Splice of int * int

let pp_mutation ppf = function
  | Flip (at, x) -> Format.fprintf ppf "flip byte %d by %#x" at x
  | Cut at -> Format.fprintf ppf "cut at %d" at
  | Splice (at, n) -> Format.fprintf ppf "splice count %d at %d" n at

let mutate p m =
  let n = String.length p in
  if n = 0 then p
  else
    match m with
    | Flip (at, x) ->
      let b = Bytes.of_string p in
      let at = at mod n in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor x));
      Bytes.to_string b
    | Cut at -> String.sub p 0 (at mod n)
    | Splice (at, count) ->
      let at = at mod n in
      String.sub p 0 at ^ Codec.to_string Codec.put_varint count ^ String.sub p (at + 1) (n - at - 1)

let gen_hostile =
  let open QCheck2.Gen in
  gen_chunked_op_seq >>= fun seq ->
  let d = chunked_doc seq in
  let p = state_payload (carrying d) in
  (* the counts of the document section head the element run and the
     overlay; splices aim at them as often as anywhere else *)
  let run_count = doc_offset in
  let overlay_count =
    doc_offset + String.length (Codec.to_string Codec.put_varint (Tdoc.model_length d))
    + Tdoc.model_length d
  in
  let at =
    frequency [ (1, oneofl [ run_count; overlay_count ]); (1, int_range 0 (String.length p - 1)) ]
  in
  (* counts no bound-free allocation could survive: past what memory
     can hold, so a decoder that trusted one would raise *)
  let huge = int_range (1 lsl 50) max_int in
  list_size (int_range 1 3)
    (frequency
       [
         (3, map2 (fun at x -> Flip (at, x)) at (int_range 1 255));
         (1, map (fun at -> Cut at) at);
         (2, map2 (fun at n -> Splice (at, n)) at huge);
       ])
  >|= fun ms -> (p, ms)

let document_tests =
  [
    Alcotest.test_case "only the state frame changed version" `Quick (fun () ->
        let version_byte s = Char.code s.[4] in
        Alcotest.(check int) "state" 2
          (version_byte (Proto.Char_proto.encode_state carrier_state));
        let admin_request = List.hd carrier_state.Controller.st_admin_requests in
        Alcotest.(check int) "message" 1
          (version_byte (Proto.Char_proto.encode_message (Controller.Admin admin_request)));
        Alcotest.(check int) "delta" 1
          (version_byte
             (Proto.Char_proto.encode_delta
                {
                  Controller.dl_clock = Vclock.empty;
                  dl_version = 0;
                  dl_compacted = Vclock.empty;
                  dl_admin = [];
                  dl_coop = [];
                  dl_coop_queue = [];
                  dl_admin_queue = [];
                })));
    Alcotest.test_case "a state in the cell-triple layout is refused, not misread" `Quick
      (fun () ->
        refused "cell-triple state" ~expect:"unsupported format version 1"
          (State_v1.encode_state Proto.char_codec
             (carrying (Tdoc.of_string (String.make 200 'q')))));
    Alcotest.test_case "a hand-written section decodes" `Quick (fun () ->
        match Proto.Char_proto.decode_state (with_section ~n:3 "abc" [ (1, 1) ]) with
        | Error e -> Alcotest.fail e
        | Ok st ->
          Alcotest.(check string) "visible" "ac" (Tdoc.visible_string st.Controller.st_doc);
          Alcotest.(check int) "model" 3 (Tdoc.model_length st.Controller.st_doc));
    Alcotest.test_case "an overlay position out of order is refused" `Quick (fun () ->
        refused "repeated position" ~expect:"out of order"
          (with_section ~n:3 "abc" [ (1, 1); (0, 1) ]));
    Alcotest.test_case "an overlay position past the end is refused" `Quick (fun () ->
        refused "one past the end" ~expect:"out of range" (with_section ~n:3 "abc" [ (3, 1) ]);
        refused "far past the end" ~expect:"out of range"
          (with_section ~n:3 "abc" [ (1, 1); (max_int, 1) ]));
    Alcotest.test_case "an overlay entry naming an untouched cell is refused" `Quick (fun () ->
        refused "no write, hide count 0" ~expect:"untouched" (with_section ~n:3 "abc" [ (1, 0) ]));
    Alcotest.test_case "an element count larger than the input is refused" `Quick (fun () ->
        refused "a million elements in three bytes" ~expect:"exceeds input"
          (with_section ~n:1_000_000 "abc" []));
    (* the same edits on array and packed runs, and the cells repacked
       into full packed chunks, encode alike; the decoded document is
       the packed twin, chunk for chunk *)
    qtest "the section is canonical across chunk splits" ~count:150 gen_chunked_op_seq
      print_chunked_op_seq (fun ((cells, ops) as seq) ->
        let d = chunked_doc seq in
        let edited_packed = Tdoc.apply_all (packed_of_cells cells) ops in
        let repacked = packed_of_cells (Tdoc.model_list d) in
        let blob = Proto.Char_proto.encode_state (carrying d) in
        blob = Proto.Char_proto.encode_state (carrying edited_packed)
        && blob = Proto.Char_proto.encode_state (carrying repacked)
        &&
        match Proto.Char_proto.decode_state blob with
        | Error _ -> false
        | Ok st ->
          let d' = st.Controller.st_doc in
          Tdoc.equal_model Char.equal d' d
          && Obj.reachable_words (Obj.repr d') = Obj.reachable_words (Obj.repr repacked));
    qtest "decode_state never raises on hostile payloads behind a valid frame" ~count:1000
      gen_hostile
      (fun (p, ms) ->
        Format.asprintf "%d-byte payload, %a" (String.length p)
          Fmt.(list ~sep:comma pp_mutation) ms)
      (fun (p, ms) ->
        let blob = Codec.frame ~version:2 (List.fold_left mutate p ms) in
        match Proto.Char_proto.decode_state blob with Ok _ | Error _ -> true);
  ]

(* ----- golden state fingerprint -----

   A seeded administrator-plus-user session whose final states are
   pinned by digest: any change to the log's representation must leave
   every entry where it was and every operation as it was.  The session
   integrates remote requests both ways with seeded delivery lag, issues
   two revocations of the user's insert right while user requests are
   in flight (so the user retroactively undoes some of its own), and
   ends with the administrator's traffic held back from the user, so
   hundreds of the user's requests stay tentative there. *)

let golden_session () =
  let module C = Controller in
  let policy =
    Policy.make ~users:[ adm; s1 ]
      [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  let doc0 = Tdoc.of_string (String.init 60 (fun i -> Char.chr (97 + (i mod 26)))) in
  let a = ref (C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0) in
  let u = ref (C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0) in
  let to_a = Queue.create () and to_u = Queue.create () in
  let rng = ref (Dce_sim.Rng.of_int 1309) in
  let rand n =
    let x, r = Dce_sim.Rng.int !rng n in
    rng := r;
    x
  in
  let random_op doc =
    let n = Tdoc.visible_length doc in
    let letter = Char.chr (97 + rand 26) in
    if n = 0 || rand 2 = 0 then Tdoc.ins_visible doc (rand (n + 1)) letter
    else if rand 2 = 0 then Tdoc.del_visible doc (rand n)
    else Tdoc.up_visible doc (rand n) (Char.uppercase_ascii letter)
  in
  let generated = ref 0 in
  let gen c out =
    match C.generate !c (random_op (C.document !c)) with
    | c', C.Accepted m ->
      c := c';
      incr generated;
      Queue.push m out
    | _, C.Denied _ -> ()
  in
  let deliver c inbox out k =
    for _ = 1 to k do
      if not (Queue.is_empty inbox) then begin
        let c', msgs = C.receive !c (Queue.pop inbox) in
        c := c';
        List.iter (fun m -> Queue.push m out) msgs
      end
    done
  in
  let admin op =
    match C.admin_update !a op with
    | Ok (a', m) ->
      a := a';
      Queue.push m to_u
    | Error e -> Alcotest.fail e
  in
  let deny_ins = Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Insert ] in
  for step = 1 to 2000 do
    if step = 400 || step = 900 then admin (Admin_op.Add_auth (0, deny_ins));
    if step = 480 || step = 980 then admin (Admin_op.Del_auth 0);
    match rand 10 with
    | 0 | 1 | 2 -> gen a to_u
    | 3 | 4 | 5 | 6 -> gen u to_a
    | 7 | 8 -> deliver a to_a to_u (rand 6)
    | _ -> deliver u to_u to_a (rand 6)
  done;
  (* the administrator validates everything it receives; none of it
     (nor anything else it sends) reaches the user any more *)
  for _ = 1 to 400 do
    gen u to_a;
    deliver a to_a to_u 1
  done;
  (!generated, !a, !u)

let golden_tests =
  [
    Alcotest.test_case "session state matches the pinned digests" `Quick (fun () ->
        let generated, a, u = golden_session () in
        let fp c = Digest.to_hex (Digest.string (Proto.fingerprint Proto.char_codec c)) in
        let undone_own =
          List.exists
            (fun (e : char Oplog.entry) ->
              match e.Oplog.role with
              | Oplog.Canceller id -> id.Request.site = s1
              | Oplog.Normal -> false)
            (Oplog.entries (Controller.oplog u))
        in
        Alcotest.(check bool) "at least 1500 requests" true (generated >= 1500);
        Alcotest.(check bool) "hundreds left tentative at the user" true
          (List.length (Controller.tentative u) >= 200);
        Alcotest.(check bool) "the user retroactively undid its own request" true
          undone_own;
        (* the same states as every earlier commit dumped: the reference
           encoder of the cell-triple layout still writes the bytes those
           commits pinned *)
        let fp_v1 c = Digest.to_hex (Digest.string (State_v1.fingerprint Proto.char_codec c)) in
        Alcotest.(check string) "administrator, cell-triple layout"
          "2685b774b704d5d7189588f0c799aed9" (fp_v1 a);
        Alcotest.(check string) "user, cell-triple layout" "a1f691b56ea5b389f398c8eaa4ff0b9a"
          (fp_v1 u);
        (* the same states in the element-run layout *)
        Alcotest.(check string) "administrator" "2d486d671b2f892c99c8d62e35bade80" (fp a);
        Alcotest.(check string) "user" "57a813d8431cefc0ea1fabeba6408bc9" (fp u);
        (* the content digest (visible document, policy, version) does
           not depend on the state codec *)
        let content = Proto.content_fingerprint Proto.char_codec in
        Alcotest.(check string) "administrator content" "379da627ce59f74226cc7f751b56f6c8"
          (content a);
        Alcotest.(check string) "user content" "f23ead09ae5848103cb87f4c27ab7af1" (content u);
        (* the pinned bytes load, uncut, and re-encode to themselves *)
        List.iter
          (fun c ->
            let blob = Proto.Char_proto.encode_state (Controller.dump c) in
            match Proto.Char_proto.decode_state blob with
            | Error e -> Alcotest.fail e
            | Ok st -> (
              match Controller.load ~eq:Char.equal st with
              | Error e -> Alcotest.fail e
              | Ok c' ->
                Alcotest.(check int) "loads uncut" 0
                  (Admin_log.cut (Controller.admin_log c'));
                Alcotest.(check string) "round-trips" (fp c) (fp c')))
          [ a; u ]);
  ]

let () =
  Alcotest.run "dce_wire"
    [
      ("codec", codec_tests);
      ("framing", framing_tests);
      ("domain", domain_tests);
      ("shared_op", shared_op_tests);
      ("fuzz", fuzz_tests);
      ("persistence", persistence_tests);
      ("channel", channel_tests);
      ("document", document_tests);
      ("golden", golden_tests);
    ]
