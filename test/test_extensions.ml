(* Tests for the extensions beyond the paper's core algorithm: log
   garbage collection (its §7 future work), administrative delegation
   (Transfer_admin), late join (Controller.fork), and the defence-in-depth
   drop of illegitimate administrative traffic. *)

open Dce_ot
open Dce_core

let adm = 0
let s1 = 1
let s2 = 2

let all_rights users =
  Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

module C = Controller

let doc0 = Tdoc.of_string "abc"

let mk ?(policy = all_rights [ adm; s1; s2 ]) site =
  C.create ~eq:Char.equal ~site ~admin:adm ~policy doc0

let ok_gen c op =
  match C.generate c op with
  | c, C.Accepted m -> (c, m)
  | _, C.Denied r -> Alcotest.failf "denied: %s" r

let ok_admin c op =
  match C.admin_update c op with
  | Ok (c, m) -> (c, m)
  | Error e -> Alcotest.failf "admin_update: %s" e

let recv c m = fst (C.receive c m)

let vis c = Tdoc.visible_string (C.document c)

let models_agree cs =
  match cs with
  | [] -> true
  | c0 :: rest ->
    List.for_all (fun c -> Tdoc.equal_model Char.equal (C.document c0) (C.document c)) rest

(* ----- Oplog compaction ----- *)

let mk_req ?(site = 1) ~serial ~ctx ?(flag = Request.Valid) op =
  Request.make ~site ~serial ~op ~ctx ~policy_version:0 ~flag ()

let oplog_compaction_tests =
  [
    Alcotest.test_case "stable prefix is dropped, identity is remembered" `Quick
      (fun () ->
        let h = Oplog.empty in
        let h = Oplog.append_local (mk_req ~serial:1 ~ctx:Vclock.empty (Op.ins 0 'a')) h in
        let h =
          Oplog.append_local
            (mk_req ~serial:2 ~ctx:(Vclock.of_list [ (1, 1) ]) (Op.ins 1 'b'))
            h
        in
        let stable = Vclock.of_list [ (1, 2) ] in
        let h' = Oplog.compact ~stable ~stable_version:0 h in
        Alcotest.(check int) "emptied" 0 (Oplog.live_length h');
        Alcotest.(check bool) "mem survives compaction" true
          (Oplog.mem { Request.site = 1; serial = 2 } h');
        (* a request depending on the dropped ones is still causally ready *)
        let q = mk_req ~site:2 ~serial:1 ~ctx:(Vclock.of_list [ (1, 2) ]) (Op.ins 0 'z') in
        Alcotest.(check bool) "ready over the gap" true (Oplog.causally_ready q h'));
    Alcotest.test_case "only a prefix is dropped" `Quick (fun () ->
        let h = Oplog.empty in
        let h = Oplog.append_local (mk_req ~serial:1 ~ctx:Vclock.empty (Op.ins 0 'a')) h in
        (* a concurrent remote request, not yet stable *)
        let remote = mk_req ~site:2 ~serial:1 ~ctx:Vclock.empty (Op.ins 0 'z') in
        let _, h = Oplog.integrate remote h in
        let h =
          Oplog.append_local
            (mk_req ~serial:2 ~ctx:(Vclock.of_list [ (1, 1); (2, 1) ]) (Op.ins 1 'b'))
            h
        in
        (* site 1's requests are stable, site 2's are not *)
        let stable = Vclock.of_list [ (1, 2) ] in
        let h' = Oplog.compact ~stable ~stable_version:0 h in
        (* q1.1 leads the log and drops; the remote entry blocks the rest *)
        Alcotest.(check int) "two entries left" 2 (Oplog.live_length h');
        Alcotest.(check bool) "later stable entry kept" true
          (Oplog.find { Request.site = 1; serial = 2 } h' <> None));
    Alcotest.test_case "tentative entries are never dropped" `Quick (fun () ->
        let h =
          Oplog.append_local
            (mk_req ~serial:1 ~ctx:Vclock.empty ~flag:Request.Tentative (Op.ins 0 'a'))
            Oplog.empty
        in
        let stable = Vclock.of_list [ (1, 5) ] in
        let h' = Oplog.compact ~stable ~stable_version:99 h in
        Alcotest.(check int) "kept" 1 (Oplog.live_length h'));
    Alcotest.test_case "a dropped id behind a live one of its site is gone" `Quick
      (fun () ->
        (* Canonize puts 1.2's insertion before 1.1's deletion; 1.1 stays
           tentative, so the cut takes 1.2 alone *)
        let h =
          Oplog.append_local
            (mk_req ~serial:1 ~ctx:Vclock.empty ~flag:Request.Tentative (Op.del 0 'a'))
            Oplog.empty
        in
        let h =
          Oplog.append_local (mk_req ~serial:2 ~ctx:(Vclock.of_list [ (1, 1) ]) (Op.ins 0 'b')) h
        in
        let h = Oplog.compact ~stable:(Vclock.of_list [ (1, 2) ]) ~stable_version:0 h in
        let dropped = { Request.site = 1; serial = 2 } in
        Alcotest.(check int) "1.1 left" 1 (Oplog.live_length h);
        Alcotest.(check bool) "the cut passed 1.1" true
          (Vclock.get (Oplog.compacted_upto h) 1 = 2);
        Alcotest.(check bool) "1.1 found" true (Oplog.find { dropped with serial = 1 } h <> None);
        Alcotest.(check bool) "1.2 held" true (Oplog.mem dropped h);
        Alcotest.(check bool) "1.2 not found" true (Oplog.find dropped h = None);
        Alcotest.(check bool) "flagging 1.2 changes nothing" true
          (Oplog.entries (Oplog.set_flag dropped Request.Invalid h) = Oplog.entries h);
        Alcotest.(check bool) "1.2 cannot be undone" true
          (Oplog.undo ~cancel_version:1 dropped h = None);
        Alcotest.(check bool) "well formed" true (Oplog.well_formed h));
  ]

(* ----- Controller-level compaction ----- *)

let controller_compaction_tests =
  [
    Alcotest.test_case "frontier rises only with evidence from every peer" `Quick
      (fun () ->
        let a = mk adm and u1 = mk s1 in
        let u1, m = ok_gen u1 (Op.ins 0 'x') in
        let a, _ = C.receive a m in
        (* the administrator has seen nothing from s2 yet: frontier empty *)
        Alcotest.(check int) "frontier floor" 0
          (Vclock.get (C.stable_frontier a) s1);
        ignore u1;
        (* a message from s2 whose context includes s1's request raises it *)
        let u2 = mk s2 in
        let u2 = recv u2 m in
        let u2, m2 = ok_gen u2 (Tdoc.ins_visible (C.document u2) 0 'y') in
        let a, _ = C.receive a m2 in
        ignore u2;
        Alcotest.(check int) "frontier sees s1 via s2" 1
          (Vclock.get (C.stable_frontier a) s1));
    Alcotest.test_case "compacted session still converges with late traffic" `Quick
      (fun () ->
        (* s1 and s2 edit in rounds with full exchange; the administrator
           compacts aggressively; a final burst still integrates *)
        let a = ref (mk adm) and u1 = ref (mk s1) and u2 = ref (mk s2) in
        let exchange msgs =
          List.iter
            (fun (src, m) ->
              List.iter
                (fun (site, c) ->
                  if site <> src then begin
                    let c', out = C.receive !c m in
                    c := c';
                    (* validations from the admin flow everywhere *)
                    List.iter
                      (fun m' ->
                        List.iter
                          (fun (site', c'') ->
                            if site' <> adm then c'' := fst (C.receive !c'' m'))
                          [ (adm, a); (s1, u1); (s2, u2) ])
                      out
                  end)
                [ (adm, a); (s1, u1); (s2, u2) ])
            msgs
        in
        for round = 0 to 9 do
          let c1, m1 = ok_gen !u1 (Tdoc.ins_visible (C.document !u1) 0 'k') in
          u1 := c1;
          let c2, m2 =
            ok_gen !u2 (Tdoc.ins_visible (C.document !u2) (round mod 3) 'w')
          in
          u2 := c2;
          exchange [ (s1, m1); (s2, m2) ];
          a := C.compact !a;
          u1 := C.compact !u1;
          u2 := C.compact !u2
        done;
        let uncompacted_length = 20 (* 2 requests per round *) in
        Alcotest.(check bool) "admin log actually shrank" true
          (Oplog.live_length (C.oplog !a) < uncompacted_length);
        Alcotest.(check bool) "converged" true (models_agree [ !a; !u1; !u2 ]);
        (* a fresh remote request still lands after compaction *)
        let c1, m = ok_gen !u1 (Tdoc.ins_visible (C.document !u1) 2 'z') in
        u1 := c1;
        exchange [ (s1, m) ];
        Alcotest.(check bool) "late traffic ok" true (models_agree [ !a; !u1; !u2 ]));
  ]

(* ----- administrative delegation ----- *)

let handoff_tests =
  [
    Alcotest.test_case "role moves; old administrator loses it" `Quick (fun () ->
        let a = mk adm and u1 = mk s1 in
        let a, m = ok_admin a (Admin_op.Transfer_admin s1) in
        Alcotest.(check bool) "a no longer admin" false (C.is_admin a);
        Alcotest.(check int) "role holder" s1 (C.admin a);
        let u1 = recv u1 m in
        Alcotest.(check bool) "u1 now admin" true (C.is_admin u1);
        (* the new administrator can change the policy; the old cannot *)
        let u1, _ =
          ok_admin u1
            (Admin_op.Add_auth
               (0, Auth.deny [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Insert ]))
        in
        Alcotest.(check int) "version advanced" 2 (C.version u1);
        Alcotest.(check bool) "old admin rejected" true
          (Result.is_error (C.admin_update a (Admin_op.Add_user 9))));
    Alcotest.test_case "transfer to an unregistered user is refused" `Quick (fun () ->
        let a = mk adm in
        Alcotest.(check bool) "refused" true
          (Result.is_error (C.admin_update a (Admin_op.Transfer_admin 42))));
    Alcotest.test_case "new administrator validates the backlog" `Quick (fun () ->
        (* s2's request reaches s1 BEFORE the transfer: when the role
           lands on s1, the request must still end up validated *)
        let a = mk adm and u1 = mk s1 and u2 = mk s2 in
        let u2, q = ok_gen u2 (Op.ins 0 'x') in
        let u1 = recv u1 q in
        Alcotest.(check int) "tentative at future admin" 1 (List.length (C.tentative u1));
        let _, transfer = ok_admin a (Admin_op.Transfer_admin s1) in
        let u1, emitted = C.receive u1 transfer in
        Alcotest.(check int) "backlog validation emitted" 1 (List.length emitted);
        Alcotest.(check int) "validated locally" 0 (List.length (C.tentative u1));
        (* the validation reaches the issuer too *)
        let u2 = recv u2 transfer in
        let u2 = List.fold_left recv u2 emitted in
        Alcotest.(check int) "validated at issuer" 0 (List.length (C.tentative u2)));
    Alcotest.test_case "requests are attributed to the administrator of their version"
      `Quick (fun () ->
        (* the old administrator's edit, generated before the transfer,
           still bypasses checks at sites that apply the transfer first *)
        let a = mk adm and u1 = mk s1 and u2 = mk s2 in
        let a, edit = ok_gen a (Op.ins 0 'x') in
        let a, transfer = ok_admin a (Admin_op.Transfer_admin s1) in
        ignore a;
        let u2 = recv (recv u2 transfer) edit in
        Alcotest.(check string) "applied" "xabc" (vis u2);
        ignore u1);
    Alcotest.test_case "impostor administrative requests are dropped" `Quick (fun () ->
        let u1 = mk s1 in
        let impostor =
          { Admin_op.admin = s2; version = 1; op = Admin_op.Add_user 9; ctx = Vclock.empty }
        in
        let u1 = recv u1 (C.Admin impostor) in
        Alcotest.(check int) "version unchanged" 0 (C.version u1);
        Alcotest.(check int) "not queued" 0 (C.pending_admin u1);
        (* the real administrator's v1 still applies afterwards *)
        let a = mk adm in
        let _, m = ok_admin a (Admin_op.Add_user 9) in
        let u1 = recv u1 m in
        Alcotest.(check int) "real one applied" 1 (C.version u1));
  ]

(* ----- late join ----- *)

let fork_tests =
  [
    Alcotest.test_case "a forked site joins mid-session and converges" `Quick (fun () ->
        let s3 = 3 in
        let a = mk adm and u1 = mk s1 in
        (* some history *)
        let u1, m1 = ok_gen u1 (Op.ins 0 'x') in
        let a, out = C.receive a m1 in
        let v1 = match out with [ m ] -> m | _ -> Alcotest.fail "validation" in
        let u1 = recv u1 v1 in
        (* register the newcomer, then bootstrap it from s1's state *)
        let a, reg = ok_admin a (Admin_op.Add_user s3) in
        let u1 = recv u1 reg in
        let u3 = C.fork ~site:s3 u1 in
        Alcotest.(check string) "inherited document" "xabc" (vis u3);
        Alcotest.(check int) "inherited version" (C.version u1) (C.version u3);
        (* the newcomer edits; everyone integrates *)
        let u3, m3 = ok_gen u3 (Tdoc.ins_visible (C.document u3) 4 '!') in
        let a, out3 = C.receive a m3 in
        let v3 = match out3 with [ m ] -> m | _ -> Alcotest.fail "validation" in
        let u1 = recv (recv u1 m3) v3 in
        let u3 = recv u3 v3 in
        Alcotest.(check string) "newcomer's edit everywhere" "xabc!" (vis a);
        Alcotest.(check bool) "models agree" true (models_agree [ a; u1; u3 ]));
    Alcotest.test_case "a forked site starts its own serial numbering" `Quick (fun () ->
        let u1 = mk ~policy:(all_rights [ adm; s1; s2; 3 ]) s1 in
        let u1, _ = ok_gen u1 (Op.ins 0 'x') in
        let u3 = C.fork ~site:3 u1 in
        (* its first request must carry serial 1 for site 3 *)
        match C.generate u3 (Op.ins 0 'y') with
        | _, C.Accepted (C.Coop q) ->
          Alcotest.(check int) "site" 3 q.Request.id.Request.site;
          Alcotest.(check int) "serial" 1 q.Request.id.Request.serial
        | _ -> Alcotest.fail "expected acceptance");
  ]

(* ----- composite edits (cut/copy/paste) ----- *)

let edit_tests =
  [
    Alcotest.test_case "replace_range = cut + paste" `Quick (fun () ->
        let d = Tdoc.of_string "hello cruel world" in
        match Edit.preview d (Edit.replace_string ~at:6 ~len:5 "kind") with
        | Error e -> Alcotest.fail e
        | Ok d' ->
          Alcotest.(check string) "replaced" "hello kind world" (Tdoc.visible_string d'));
    Alcotest.test_case "copy yields the clipboard" `Quick (fun () ->
        let d = Tdoc.of_string "abcdef" in
        Alcotest.(check (list char)) "clipboard" [ 'c'; 'd'; 'e' ]
          (Edit.copy d ~at:2 ~len:3));
    Alcotest.test_case "copy/paste across tombstones" `Quick (fun () ->
        let d = Tdoc.apply (Tdoc.of_string "abcdef") (Op.del 2 'c') in
        (* visible "abdef": copy "bde", paste at the end *)
        let clip = Edit.copy d ~at:1 ~len:3 in
        Alcotest.(check (list char)) "clip" [ 'b'; 'd'; 'e' ] clip;
        match Edit.preview d (Edit.Insert_text { at = 5; elts = clip }) with
        | Error e -> Alcotest.fail e
        | Ok d' -> Alcotest.(check string) "pasted" "abdefbde" (Tdoc.visible_string d'));
    Alcotest.test_case "out-of-range edits are refused" `Quick (fun () ->
        let d = Tdoc.of_string "abc" in
        Alcotest.(check bool) "delete" true
          (Result.is_error (Edit.compile d (Edit.Delete_range { at = 1; len = 5 })));
        Alcotest.(check bool) "insert" true
          (Result.is_error (Edit.compile d (Edit.insert_string 7 "x"))));
    Alcotest.test_case "a composite edit travels as a causal run of requests" `Quick
      (fun () ->
        let a = mk adm and u1 = mk s1 in
        let doc = C.document u1 in
        let ops =
          Result.get_ok (Edit.compile doc (Edit.replace_string ~at:0 ~len:2 "XY"))
        in
        match C.generate_edit u1 ops with
        | Error e -> Alcotest.fail e
        | Ok (u1, msgs) ->
          Alcotest.(check string) "locally applied" "XYc" (vis u1);
          (* deliver the run in order; the admin converges *)
          let a = List.fold_left (fun a m -> fst (C.receive a m)) a msgs in
          Alcotest.(check string) "remote" "XYc" (vis a);
          Alcotest.(check bool) "models" true (models_agree [ a; u1 ]));
    Alcotest.test_case "a composite edit is denied atomically" `Quick (fun () ->
        (* s1 may insert but not delete: a replace (delete+insert) must be
           refused entirely, leaving no partial effect *)
        let policy =
          Policy.make ~users:[ adm; s1 ]
            [
              Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Delete ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        let u1 = mk ~policy s1 in
        let ops =
          Result.get_ok
            (Edit.compile (C.document u1) (Edit.replace_string ~at:0 ~len:1 "Z"))
        in
        (match C.generate_edit u1 ops with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "expected denial");
        Alcotest.(check string) "untouched" "abc" (vis u1);
        (* a pure insertion composite still goes through *)
        let ops =
          Result.get_ok (Edit.compile (C.document u1) (Edit.insert_string 3 "!!"))
        in
        match C.generate_edit u1 ops with
        | Ok (u1, _) -> Alcotest.(check string) "inserted" "abc!!" (vis u1)
        | Error e -> Alcotest.fail e);
  ]

(* ----- read-right rendering filter ----- *)

let read_tests =
  [
    Alcotest.test_case "unreadable zones are redacted, not removed" `Quick (fun () ->
        let policy =
          Policy.make ~users:[ adm; s1 ]
            [
              Auth.deny [ Subject.User s1 ] [ Docobj.zone 0 2 ] [ Right.Read ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        let u1 = mk ~policy s1 in
        let rendered = C.readable u1 in
        Alcotest.(check int) "same length" 3 (List.length rendered);
        Alcotest.(check (list (option char))) "head redacted"
          [ None; None; None ]
          (List.filteri (fun i _ -> i < 3) rendered);
        (* the administrator reads everything *)
        let a = mk ~policy adm in
        Alcotest.(check bool) "admin sees all" true
          (List.for_all Option.is_some (C.readable a)));
    Alcotest.test_case "a user without the read right sees only redactions" `Quick
      (fun () ->
        let policy =
          Policy.make ~users:[ adm; s1 ]
            [
              Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Read ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        let u1 = mk ~policy s1 in
        Alcotest.(check bool) "all redacted" true
          (List.for_all Option.is_none (C.readable u1));
        (* ...but can still edit (write without read, as in classified
           append-only logs) *)
        match C.generate u1 (Op.ins 0 'x') with
        | _, C.Accepted _ -> ()
        | _, C.Denied r -> Alcotest.failf "write should still pass: %s" r);
  ]

(* ----- element genericity: paragraph documents ----- *)

let paragraph_tests =
  [
    Alcotest.test_case "the whole stack runs on paragraph elements" `Quick (fun () ->
        (* the paper: "an element may be regarded as a character, a
           paragraph, a page, an XML node" — same controller, string
           elements *)
        let policy = all_rights [ adm; s1 ] in
        let doc0 = Tdoc.of_list [ "# Title"; "Intro paragraph."; "The end." ] in
        let a =
          C.create ~eq:String.equal ~site:adm ~admin:adm ~policy doc0
        in
        let u1 = C.create ~eq:String.equal ~site:s1 ~admin:adm ~policy doc0 in
        let u1, m =
          match C.generate u1 (Tdoc.ins_visible (C.document u1) 2 "New section!") with
          | c, C.Accepted m -> (c, m)
          | _, C.Denied r -> Alcotest.failf "denied: %s" r
        in
        let a, out = C.receive a m in
        let u1 = List.fold_left (fun c m -> fst (C.receive c m)) u1 out in
        Alcotest.(check (list string)) "paragraphs"
          [ "# Title"; "Intro paragraph."; "New section!"; "The end." ]
          (Tdoc.visible_list (C.document a));
        Alcotest.(check bool) "converged" true
          (Tdoc.equal_model String.equal (C.document a) (C.document u1));
        (* the wire handles them too, via the string element codec *)
        let encoded =
          Dce_wire.Proto.encode_message Dce_wire.Proto.string_codec m
        in
        match Dce_wire.Proto.decode_message Dce_wire.Proto.string_codec encoded with
        | Ok (C.Coop q) ->
          Alcotest.(check bool) "wire roundtrip" true
            (Request.id_equal q.Request.id
               (match m with C.Coop q' -> q'.Request.id | _ -> assert false))
        | _ -> Alcotest.fail "wire roundtrip failed");
  ]

let () =
  Alcotest.run "dce_extensions"
    [
      ("oplog compaction", oplog_compaction_tests);
      ("controller compaction", controller_compaction_tests);
      ("delegation", handoff_tests);
      ("late join", fork_tests);
      ("composite edits", edit_tests);
      ("read filter", read_tests);
      ("paragraph elements", paragraph_tests);
    ]
