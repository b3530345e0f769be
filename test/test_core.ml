(* Tests for the access-control core: policy machinery unit tests plus
   the paper's four coordination scenarios (Figs. 2-5) as integration
   tests over the controller. *)

open Dce_ot
open Dce_core

let adm = 0
let s1 = 1
let s2 = 2

let all_rights_policy users =
  Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

(* ----- Right ----- *)

let right_tests =
  [
    Alcotest.test_case "of_op" `Quick (fun () ->
        Alcotest.(check bool) "ins" true (Right.of_op (Op.ins 0 'a') = Some Right.Insert);
        Alcotest.(check bool) "del" true (Right.of_op (Op.del 0 'a') = Some Right.Delete);
        Alcotest.(check bool) "up" true
          (Right.of_op (Op.up 0 'a' 'b') = Some Right.Update);
        Alcotest.(check bool) "undel exempt" true (Right.of_op (Op.undel 0 'a') = None);
        Alcotest.(check bool) "nop exempt" true (Right.of_op Op.Nop = None));
    Alcotest.test_case "paper notation roundtrip" `Quick (fun () ->
        List.iter
          (fun r ->
            Alcotest.(check bool) "roundtrip" true
              (Right.of_string (Right.to_string r) = Some r))
          Right.all;
        Alcotest.(check bool) "unknown" true (Right.of_string "xR" = None));
  ]

(* ----- Subject / Docobj / Auth ----- *)

let no_groups _ _ = false
let no_named _ = None

let subject_tests =
  [
    Alcotest.test_case "matching" `Quick (fun () ->
        Alcotest.(check bool) "any" true (Subject.matches ~member:no_groups Subject.Any 7);
        Alcotest.(check bool) "user" true
          (Subject.matches ~member:no_groups (Subject.User 7) 7);
        Alcotest.(check bool) "other user" false
          (Subject.matches ~member:no_groups (Subject.User 7) 8);
        let member g u = g = "editors" && u = 7 in
        Alcotest.(check bool) "group member" true
          (Subject.matches ~member (Subject.Group "editors") 7);
        Alcotest.(check bool) "group non-member" false
          (Subject.matches ~member (Subject.Group "editors") 8));
  ]

let docobj_tests =
  [
    Alcotest.test_case "whole covers everything" `Quick (fun () ->
        Alcotest.(check bool) "pos" true
          (Docobj.matches ~resolve:no_named Docobj.Whole ~pos:(Some 5));
        Alcotest.(check bool) "no pos" true
          (Docobj.matches ~resolve:no_named Docobj.Whole ~pos:None));
    Alcotest.test_case "element and zone" `Quick (fun () ->
        Alcotest.(check bool) "element hit" true
          (Docobj.matches ~resolve:no_named (Docobj.Element 3) ~pos:(Some 3));
        Alcotest.(check bool) "element miss" false
          (Docobj.matches ~resolve:no_named (Docobj.Element 3) ~pos:(Some 4));
        let z = Docobj.zone 2 5 in
        Alcotest.(check bool) "zone lo" true (Docobj.matches ~resolve:no_named z ~pos:(Some 2));
        Alcotest.(check bool) "zone hi" true (Docobj.matches ~resolve:no_named z ~pos:(Some 5));
        Alcotest.(check bool) "zone out" false
          (Docobj.matches ~resolve:no_named z ~pos:(Some 6));
        Alcotest.(check bool) "zone no pos" false
          (Docobj.matches ~resolve:no_named z ~pos:None));
    Alcotest.test_case "invalid zone rejected" `Quick (fun () ->
        (try
           ignore (Docobj.zone 5 2);
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "named objects resolve through the registry" `Quick (fun () ->
        let resolve = function "intro" -> Some (Docobj.zone 0 9) | _ -> None in
        Alcotest.(check bool) "resolved" true
          (Docobj.matches ~resolve (Docobj.Named "intro") ~pos:(Some 4));
        Alcotest.(check bool) "dangling covers nothing" false
          (Docobj.matches ~resolve (Docobj.Named "gone") ~pos:(Some 4)));
  ]

let auth_tests =
  [
    Alcotest.test_case "empty components rejected" `Quick (fun () ->
        (try
           ignore
             (Auth.make ~subjects:[] ~objects:[ Docobj.Whole ] ~rights:Right.all
                Auth.Positive);
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "matches is conjunction over components" `Quick (fun () ->
        let a =
          Auth.grant
            [ Subject.User 1; Subject.User 2 ]
            [ Docobj.zone 0 3 ]
            [ Right.Insert; Right.Delete ]
        in
        let m = Auth.matches ~member:no_groups ~resolve:no_named a in
        Alcotest.(check bool) "hit" true (m ~user:2 ~right:Right.Insert ~pos:(Some 1));
        Alcotest.(check bool) "wrong user" false (m ~user:3 ~right:Right.Insert ~pos:(Some 1));
        Alcotest.(check bool) "wrong right" false (m ~user:2 ~right:Right.Update ~pos:(Some 1));
        Alcotest.(check bool) "wrong pos" false (m ~user:2 ~right:Right.Insert ~pos:(Some 9)));
  ]

(* ----- Policy ----- *)

let policy_tests =
  [
    Alcotest.test_case "default deny" `Quick (fun () ->
        let p = Policy.make ~users:[ 1 ] [] in
        Alcotest.(check bool) "denied" false
          (Policy.check p ~user:1 ~right:Right.Insert ~pos:None));
    Alcotest.test_case "unregistered user denied even with Any grant" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 1 ] [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
        in
        Alcotest.(check bool) "registered" true
          (Policy.check p ~user:1 ~right:Right.Insert ~pos:None);
        Alcotest.(check bool) "unregistered" false
          (Policy.check p ~user:9 ~right:Right.Insert ~pos:None));
    Alcotest.test_case "first match wins: negative shadows positive" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 1 ]
            [
              Auth.deny [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Delete ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        Alcotest.(check bool) "delete denied" false
          (Policy.check p ~user:1 ~right:Right.Delete ~pos:(Some 0));
        Alcotest.(check bool) "insert granted" true
          (Policy.check p ~user:1 ~right:Right.Insert ~pos:(Some 0)));
    Alcotest.test_case "positive shadows later negative (re-grant)" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 1 ]
            [
              Auth.grant [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Delete ];
              Auth.deny [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        Alcotest.(check bool) "granted" true
          (Policy.check p ~user:1 ~right:Right.Delete ~pos:(Some 0)));
    Alcotest.test_case "group rights follow membership changes" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 1; 2 ]
            ~groups:[ ("editors", [ 1 ]) ]
            [ Auth.grant [ Subject.Group "editors" ] [ Docobj.Whole ] [ Right.Insert ] ]
        in
        Alcotest.(check bool) "member" true
          (Policy.check p ~user:1 ~right:Right.Insert ~pos:None);
        Alcotest.(check bool) "non-member" false
          (Policy.check p ~user:2 ~right:Right.Insert ~pos:None);
        let p = Result.get_ok (Policy.add_to_group p "editors" 2) in
        Alcotest.(check bool) "added" true
          (Policy.check p ~user:2 ~right:Right.Insert ~pos:None);
        let p = Result.get_ok (Policy.del_from_group p "editors" 1) in
        Alcotest.(check bool) "removed" false
          (Policy.check p ~user:1 ~right:Right.Insert ~pos:None));
    Alcotest.test_case "del_user also leaves groups" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 1 ] ~groups:[ ("g", [ 1 ]) ]
            [ Auth.grant [ Subject.Group "g" ] [ Docobj.Whole ] Right.all ]
        in
        let p = Result.get_ok (Policy.del_user p 1) in
        Alcotest.(check bool) "gone" false (Policy.member p "g" 1));
    Alcotest.test_case "auth index management" `Quick (fun () ->
        let a1 = Auth.grant [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ] in
        let a2 = Auth.deny [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ] in
        let p = Policy.make ~users:[ 1 ] [ a1 ] in
        (* inserting the negative at index 0 shadows the grant *)
        let p' = Result.get_ok (Policy.add_auth p 0 a2) in
        Alcotest.(check bool) "shadowed" false
          (Policy.check p' ~user:1 ~right:Right.Insert ~pos:None);
        (* appending it instead leaves the grant effective *)
        let p'' = Result.get_ok (Policy.add_auth p 1 a2) in
        Alcotest.(check bool) "still granted" true
          (Policy.check p'' ~user:1 ~right:Right.Insert ~pos:None);
        Alcotest.(check bool) "bad index" true (Result.is_error (Policy.add_auth p 5 a2));
        let p3 = Result.get_ok (Policy.del_auth p' 0) in
        Alcotest.(check bool) "unshadowed" true
          (Policy.check p3 ~user:1 ~right:Right.Insert ~pos:None);
        Alcotest.(check bool) "del bad index" true (Result.is_error (Policy.del_auth p3 7)));
    Alcotest.test_case "check_op exempts undel and nop" `Quick (fun () ->
        let p = Policy.make ~users:[ 1 ] [] in
        Alcotest.(check bool) "undel" true (Policy.check_op p ~user:1 (Op.undel 0 'a'));
        Alcotest.(check bool) "nop" true (Policy.check_op p ~user:1 Op.Nop);
        Alcotest.(check bool) "ins" false (Policy.check_op p ~user:1 (Op.ins 0 'a')));
    Alcotest.test_case "named object scoping" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 1 ]
            ~objects:[ ("intro", Docobj.zone 0 4) ]
            [ Auth.grant [ Subject.User 1 ] [ Docobj.Named "intro" ] [ Right.Update ] ]
        in
        Alcotest.(check bool) "inside" true
          (Policy.check p ~user:1 ~right:Right.Update ~pos:(Some 2));
        Alcotest.(check bool) "outside" false
          (Policy.check p ~user:1 ~right:Right.Update ~pos:(Some 7));
        let p = Result.get_ok (Policy.del_obj p "intro") in
        Alcotest.(check bool) "dangling" false
          (Policy.check p ~user:1 ~right:Right.Update ~pos:(Some 2)));
  ]

(* ----- Admin_op / Admin_log ----- *)

let mk_reqs ops =
  List.mapi (fun i op -> { Admin_op.admin = adm; version = i + 1; op; ctx = Vclock.empty }) ops

let admin_log_tests =
  [
    Alcotest.test_case "restrictive classification" `Quick (fun () ->
        let neg = Auth.deny [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ] in
        let pos = Auth.grant [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ] in
        Alcotest.(check bool) "neg auth" true
          (Admin_op.is_restrictive (Admin_op.Add_auth (0, neg)));
        Alcotest.(check bool) "pos auth" false
          (Admin_op.is_restrictive (Admin_op.Add_auth (0, pos)));
        Alcotest.(check bool) "del auth" true (Admin_op.is_restrictive (Admin_op.Del_auth 0));
        Alcotest.(check bool) "del user" true (Admin_op.is_restrictive (Admin_op.Del_user 1));
        Alcotest.(check bool) "add user" false (Admin_op.is_restrictive (Admin_op.Add_user 1));
        Alcotest.(check bool) "validate" false
          (Admin_op.is_restrictive (Admin_op.Validate { Request.site = 1; serial = 1 })));
    Alcotest.test_case "versions are totally ordered" `Quick (fun () ->
        let l = Admin_log.create ~admin:adm (all_rights_policy [ adm; s1 ]) in
        let r1 = { Admin_op.admin = adm; version = 1; op = Admin_op.Add_user 5; ctx = Vclock.empty } in
        let r3 = { Admin_op.admin = adm; version = 3; op = Admin_op.Add_user 6; ctx = Vclock.empty } in
        Alcotest.(check bool) "skip rejected" true (Result.is_error (Admin_log.append l r3));
        let l = Result.get_ok (Admin_log.append l r1) in
        Alcotest.(check int) "version" 1 (Admin_log.version l);
        Alcotest.(check bool) "replay rejected" true
          (Result.is_error (Admin_log.append l r1)));
    Alcotest.test_case "policy_at reconstructs every version" `Quick (fun () ->
        let p0 = all_rights_policy [ adm; s1 ] in
        let l = Admin_log.create ~admin:adm p0 in
        let l =
          List.fold_left
            (fun l r -> Result.get_ok (Admin_log.append l r))
            l
            (mk_reqs
               [
                 Admin_op.Add_auth
                   (0, Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Delete ]);
                 Admin_op.Del_auth 0;
               ])
        in
        let granted v =
          Policy.check
            (Option.get (Admin_log.policy_at l v))
            ~user:s1 ~right:Right.Delete ~pos:(Some 0)
        in
        Alcotest.(check bool) "v0" true (granted 0);
        Alcotest.(check bool) "v1" false (granted 1);
        Alcotest.(check bool) "v2" true (granted 2);
        Alcotest.(check bool) "beyond" true (Admin_log.policy_at l 3 = None));
    Alcotest.test_case "first_denial finds the revocation inside the interval" `Quick
      (fun () ->
        (* Fig. 3's core: revoke then re-grant; a request from version 0
           must be denied even though the current policy grants it. *)
        let p0 =
          Policy.make ~users:[ adm; s1; s2 ]
            [ Auth.grant [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Delete ] ]
        in
        let l = Admin_log.create ~admin:adm p0 in
        let l =
          List.fold_left
            (fun l r -> Result.get_ok (Admin_log.append l r))
            l
            (mk_reqs
               [
                 Admin_op.Del_auth 0;
                 Admin_op.Add_auth
                   (0, Auth.grant [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Delete ]);
               ])
        in
        Alcotest.(check (option int))
          "denied at v1" (Some 1)
          (Admin_log.first_denial l ~from_version:0 ~user:s2 ~right:Right.Delete
             ~pos:(Some 0));
        Alcotest.(check (option int))
          "clean from v2" None
          (Admin_log.first_denial l ~from_version:2 ~user:s2 ~right:Right.Delete
             ~pos:(Some 0)));
    Alcotest.test_case "restrictive_since filters" `Quick (fun () ->
        let l = Admin_log.create ~admin:adm (all_rights_policy [ adm; s1 ]) in
        let l =
          List.fold_left
            (fun l r -> Result.get_ok (Admin_log.append l r))
            l
            (mk_reqs [ Admin_op.Add_user 9; Admin_op.Del_user 9; Admin_op.Add_user 10 ])
        in
        Alcotest.(check (list int)) "one restrictive after v0: the Del_user" [ 2 ]
          (Admin_log.restrictive_since l 0);
        Alcotest.(check (list int)) "still there after v1" [ 2 ]
          (Admin_log.restrictive_since l 1);
        Alcotest.(check (list int)) "none after v2" [] (Admin_log.restrictive_since l 2));
    Alcotest.test_case "the cut drops settled Validates only" `Quick (fun () ->
        let p0 = all_rights_policy [ adm; s1 ] in
        let validate k = Admin_op.Validate { Request.site = s1; serial = k } in
        let deny = Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Delete ] in
        let l =
          List.fold_left
            (fun l r -> Result.get_ok (Admin_log.append l r))
            (Admin_log.create ~admin:adm p0)
            (mk_reqs
               [
                 Admin_op.Add_auth (0, deny);
                 validate 1;
                 validate 2;
                 Admin_op.Del_auth 0;
                 validate 3;
                 validate 4;
               ])
        in
        let c = Admin_log.compact l ~upto:5 in
        let versions l = List.map (fun r -> r.Admin_op.version) (Admin_log.requests l) in
        Alcotest.(check (list int)) "kept" [ 1; 4; 6 ] (versions c);
        Alcotest.(check int) "cut" 5 (Admin_log.cut c);
        Alcotest.(check int) "live" 3 (Admin_log.live c);
        Alcotest.(check int) "version" 6 (Admin_log.version c);
        Alcotest.(check (list int)) "restrictive" [ 1; 4 ] (Admin_log.restrictive_since c 0);
        for v = 0 to 6 do
          let granted l =
            Policy.check (Option.get (Admin_log.policy_at l v)) ~user:s1
              ~right:Right.Delete ~pos:(Some 0)
          in
          Alcotest.(check bool) (Printf.sprintf "policy at v%d" v) (granted l) (granted c);
          Alcotest.(check (option int))
            (Printf.sprintf "admin at v%d" v) (Admin_log.admin_at l v)
            (Admin_log.admin_at c v);
          Alcotest.(check (option int))
            (Printf.sprintf "first denial from v%d" v)
            (Admin_log.first_denial l ~from_version:v ~user:s1 ~right:Right.Delete
               ~pos:(Some 0))
            (Admin_log.first_denial c ~from_version:v ~user:s1 ~right:Right.Delete
               ~pos:(Some 0))
        done;
        Alcotest.(check bool) "no suffix below the cut" true (Admin_log.suffix c 4 = None);
        Alcotest.(check (option (list int))) "suffix at the cut" (Some [ 6 ])
          (Option.map (List.map (fun r -> r.Admin_op.version)) (Admin_log.suffix c 5));
        Alcotest.(check (list int)) "the newest request always stays" [ 1; 4; 6 ]
          (versions (Admin_log.compact c ~upto:99));
        (* a dump with gaps reloads with the same cut; one that does not
           ascend is corrupt *)
        let back = Result.get_ok (Admin_log.of_requests ~admin:adm p0 (Admin_log.requests c)) in
        Alcotest.(check int) "reloaded cut" 5 (Admin_log.cut back);
        Alcotest.(check int) "reloaded version" 6 (Admin_log.version back);
        Alcotest.(check bool) "reloaded policy"
          (Policy.check (Admin_log.current l) ~user:s1 ~right:Right.Delete ~pos:None)
          (Policy.check (Admin_log.current back) ~user:s1 ~right:Right.Delete ~pos:None);
        let rs = Admin_log.requests c in
        Alcotest.(check bool) "repeated version rejected" true
          (Result.is_error (Admin_log.of_requests ~admin:adm p0 (rs @ rs))));
  ]

(* ----- Controller scenarios (paper Figs. 2-5) ----- *)

module C = Controller

let doc0 = Tdoc.of_string "abc"

(* generate and return (controller, broadcast message, request id) *)
let ok_gen c op =
  match C.generate c op with
  | c, C.Accepted (C.Coop q as m) -> (c, m, q.Request.id)
  | c, C.Accepted m -> ignore c; ignore m; Alcotest.fail "expected a cooperative message"
  | _, C.Denied r -> Alcotest.failf "generation unexpectedly denied: %s" r

let ok_admin c op =
  match C.admin_update c op with
  | Ok (c, m) -> (c, m)
  | Error e -> Alcotest.failf "admin_update failed: %s" e

(* deliver a message expecting no emitted follow-ups *)
let recv c m =
  let c, out = C.receive c m in
  Alcotest.(check int) "no emitted messages" 0 (List.length out);
  c

(* deliver to the administrator, returning emitted validations *)
let recv_admin c m = C.receive c m

let vis c = Tdoc.visible_string (C.document c)

let check_converged name cs =
  match cs with
  | [] -> ()
  | c0 :: rest ->
    List.iteri
      (fun i c ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: site %d model agrees" name i)
          true
          (Tdoc.equal_model Char.equal (C.document c0) (C.document c));
        Alcotest.(check int) (name ^ ": coop queue empty") 0 (C.pending_coop c);
        Alcotest.(check int) (name ^ ": admin queue empty") 0 (C.pending_admin c);
        Alcotest.(check int) (name ^ ": versions agree") (C.version c0) (C.version c))
      rest

let flag_of c id =
  match Dce_ot.Oplog.find id (C.oplog c) with
  | Some q -> q.Request.flag
  | None -> Alcotest.failf "request not found in log"

(* Fig. 2: a revocation concurrent with an insertion.  Without
   retroactive enforcement sites diverge; with it, everyone converges to
   the revoked state "abc". *)
let fig2 () =
  let policy = all_rights_policy [ adm; s1; s2 ] in
  let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let u2 = C.create ~eq:Char.equal ~site:s2 ~admin:adm ~policy doc0 in
  let u1, q, qid = ok_gen u1 (Op.ins 0 'x') in
  Alcotest.(check string) "s1 optimistic" "xabc" (vis u1);
  let a, r =
    ok_admin a
      (Admin_op.Add_auth
         (0, Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Insert ]))
  in
  let a, out = recv_admin a q in
  Alcotest.(check int) "no validation for an illegal request" 0 (List.length out);
  Alcotest.(check string) "adm ignored it" "abc" (vis a);
  let u2 = recv u2 q in
  Alcotest.(check string) "s2 optimistic" "xabc" (vis u2);
  let u2 = recv u2 r in
  Alcotest.(check string) "s2 after revocation" "abc" (vis u2);
  let u1 = recv u1 r in
  Alcotest.(check string) "s1 after revocation" "abc" (vis u1);
  check_converged "fig2" [ a; u1; u2 ];
  List.iter
    (fun c ->
      Alcotest.(check bool) "insertion invalid everywhere" true
        (flag_of c qid = Request.Invalid))
    [ a; u1; u2 ];
  match C.generate u1 (Op.ins 0 'y') with
  | _, C.Denied _ -> ()
  | _, C.Accepted _ -> Alcotest.fail "s1 should be denied locally"

(* Fig. 3: revocation followed by re-grant; a deletion generated under
   version 0 must be rejected by every site because of the intervening
   revocation, even where the current policy grants it again. *)
let fig3 () =
  let policy =
    Policy.make ~users:[ adm; s1; s2 ]
      [ Auth.grant [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Delete ] ]
  in
  let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let u2 = C.create ~eq:Char.equal ~site:s2 ~admin:adm ~policy doc0 in
  let u2, q, qid = ok_gen u2 (Op.del 0 'a') in
  Alcotest.(check string) "s2 optimistic" "bc" (vis u2);
  let a, r1 = ok_admin a (Admin_op.Del_auth 0) in
  let a, r2 =
    ok_admin a
      (Admin_op.Add_auth
         (0, Auth.grant [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Delete ]))
  in
  let a, out = recv_admin a q in
  Alcotest.(check int) "not validated" 0 (List.length out);
  Alcotest.(check string) "adm rejected" "abc" (vis a);
  let u1 = recv (recv u1 r1) r2 in
  let u1 = recv u1 q in
  Alcotest.(check string) "s1 rejected" "abc" (vis u1);
  let u2 = recv u2 r1 in
  Alcotest.(check string) "s2 restored" "abc" (vis u2);
  let u2 = recv u2 r2 in
  check_converged "fig3" [ a; u1; u2 ];
  List.iter
    (fun c ->
      Alcotest.(check bool) "deletion invalid everywhere" true
        (flag_of c qid = Request.Invalid))
    [ a; u1; u2 ]

(* Fig. 4: a revocation that causally follows a legal insertion must not
   overtake it.  The validation mechanism defers the revocation at sites
   that have not yet integrated the insertion. *)
let fig4 () =
  let policy = all_rights_policy [ adm; s1; s2 ] in
  let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let u2 = C.create ~eq:Char.equal ~site:s2 ~admin:adm ~policy doc0 in
  let u1, q, qid = ok_gen u1 (Op.ins 0 'x') in
  let a, out = recv_admin a q in
  let valid_msg = match out with [ m ] -> m | _ -> Alcotest.fail "expected validation" in
  Alcotest.(check string) "adm accepted" "xabc" (vis a);
  let a, r =
    ok_admin a
      (Admin_op.Add_auth
         (0, Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Insert ]))
  in
  (* s2 receives the revocation FIRST: it must wait (it needs version 1,
     the validation), so the legal insertion is not blocked *)
  let u2 = recv u2 r in
  Alcotest.(check int) "revocation deferred" 1 (C.pending_admin u2);
  let u2 = recv u2 valid_msg in
  Alcotest.(check int) "validation deferred too" 2 (C.pending_admin u2);
  Alcotest.(check string) "nothing applied yet" "abc" (vis u2);
  let u2 = recv u2 q in
  Alcotest.(check string) "insertion survives at s2" "xabc" (vis u2);
  Alcotest.(check int) "queues drained" 0 (C.pending_admin u2);
  Alcotest.(check bool) "valid at s2" true (flag_of u2 qid = Request.Valid);
  let u1 = recv (recv u1 valid_msg) r in
  Alcotest.(check string) "insertion survives at s1" "xabc" (vis u1);
  check_converged "fig4" [ a; u1; u2 ]

(* Fig. 5: the paper's full worked example; all three sites converge to
   "ayc", the illegal deletion of s1 is invalidated everywhere, and all
   other requests are validated. *)
let fig5 () =
  let policy = all_rights_policy [ adm; s1; s2 ] in
  let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let u2 = C.create ~eq:Char.equal ~site:s2 ~admin:adm ~policy doc0 in
  (* three concurrent requests (paper positions are 1-based) *)
  let a, q0, id0 = ok_gen a (Op.ins 1 'y') in
  let u1, q1, id1 = ok_gen u1 (Op.del 1 'b') in
  let u2, q2, id2 = ok_gen u2 (Op.ins 2 'x') in
  (* administrator integrates and validates q2 then q1 *)
  let a, out2 = recv_admin a q2 in
  let v_q2 = match out2 with [ m ] -> m | _ -> Alcotest.fail "expected validation" in
  let a, out1 = recv_admin a q1 in
  let v_q1 = match out1 with [ m ] -> m | _ -> Alcotest.fail "expected validation" in
  Alcotest.(check string) "adm ayxc" "ayxc" (vis a);
  (* s1 integrates q2 then q0 and deletes 'a' *)
  let u1 = recv (recv u1 q2) q0 in
  Alcotest.(check string) "s1 ayxc" "ayxc" (vis u1);
  let u1, q3, id3 = ok_gen u1 (Tdoc.del_visible (C.document u1) 0) in
  Alcotest.(check string) "s1 yxc" "yxc" (vis u1);
  (* s2 integrates q1 and deletes 'x' *)
  let u2 = recv u2 q1 in
  Alcotest.(check string) "s2 axc after q1" "axc" (vis u2);
  let u2, q4, id4 = ok_gen u2 (Tdoc.del_visible (C.document u2) 1) in
  Alcotest.(check string) "s2 ac" "ac" (vis u2);
  (* the administrator revokes s1's deletion right *)
  let a, r =
    ok_admin a
      (Admin_op.Add_auth
         (0, Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Delete ]))
  in
  (* q3 reaches the administrator after the revocation: ignored *)
  let a, out3 = recv_admin a q3 in
  Alcotest.(check int) "q3 not validated" 0 (List.length out3);
  Alcotest.(check string) "adm still ayxc" "ayxc" (vis a);
  (* q4 is legal: validated *)
  let a, out4 = recv_admin a q4 in
  let v_q4 = match out4 with [ m ] -> m | _ -> Alcotest.fail "expected validation" in
  Alcotest.(check string) "adm ayc" "ayc" (vis a);
  (* s1 catches up: validations, revocation (undoes q3), then q4 *)
  let u1 = recv (recv u1 v_q2) v_q1 in
  let u1 = recv u1 r in
  Alcotest.(check string) "s1 restored to ayxc" "ayxc" (vis u1);
  let u1 = recv u1 q4 in
  let u1 = recv u1 v_q4 in
  Alcotest.(check string) "s1 ayc" "ayc" (vis u1);
  (* s2 catches up: q0, validations, revocation, then the dead q3 *)
  let u2 = recv u2 q0 in
  Alcotest.(check string) "s2 ayc" "ayc" (vis u2);
  let u2 = recv (recv u2 v_q2) v_q1 in
  let u2 = recv u2 r in
  let u2 = recv u2 q3 in
  Alcotest.(check string) "s2 still ayc" "ayc" (vis u2);
  let u2 = recv u2 v_q4 in
  check_converged "fig5" [ a; u1; u2 ];
  List.iter
    (fun (c, name) ->
      Alcotest.(check bool) (name ^ ": q3 invalid") true
        (flag_of c id3 = Request.Invalid);
      List.iter
        (fun id ->
          Alcotest.(check bool) (name ^ ": valid") true
            (flag_of c id = Request.Valid))
        [ id0; id1; id2; id4 ])
    [ (a, "adm"); (u1, "s1"); (u2, "s2") ]

(* ----- Controller unit behaviours ----- *)

let controller_unit_tests =
  [
    Alcotest.test_case "local check denies before execution" `Quick (fun () ->
        let policy = Policy.make ~users:[ adm; s1 ] [] in
        let c = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        (match C.generate c (Op.ins 0 'x') with
         | _, C.Denied _ -> ()
         | _ -> Alcotest.fail "expected denial");
        Alcotest.(check string) "unchanged" "abc" (vis c));
    Alcotest.test_case "users cannot issue administrative requests" `Quick (fun () ->
        let c =
          C.create ~eq:Char.equal ~site:s1 ~admin:adm
            ~policy:(all_rights_policy [ adm; s1 ])
            doc0
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (C.admin_update c (Admin_op.Add_user 9))));
    Alcotest.test_case "duplicate messages ignored" `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1 ] in
        let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let _, q, _qid = ok_gen u (Op.ins 0 'x') in
        let a, _ = recv_admin a q in
        let a, out = recv_admin a q in
        Alcotest.(check int) "no second validation" 0 (List.length out);
        Alcotest.(check string) "applied once" "xabc" (vis a));
    Alcotest.test_case "admin requests apply in version order" `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1 ] in
        let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let a, m1 = ok_admin a (Admin_op.Add_user 7) in
        let _, m2 = ok_admin a (Admin_op.Add_user 8) in
        let u = recv u m2 in
        Alcotest.(check int) "v2 deferred" 1 (C.pending_admin u);
        Alcotest.(check int) "version still 0" 0 (C.version u);
        let u = recv u m1 in
        Alcotest.(check int) "both applied" 2 (C.version u);
        Alcotest.(check int) "queue empty" 0 (C.pending_admin u));
    Alcotest.test_case "a duplicate admin request never moves stable_version back"
      `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1 ] in
        let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let _, ms =
          List.fold_left
            (fun (a, ms) k ->
              let a, m = ok_admin a (Admin_op.Add_obj (Printf.sprintf "o%d" k, Docobj.Whole)) in
              (a, ms @ [ m ]))
            (a, []) [ 1; 2; 3; 4; 5 ]
        in
        let u = List.fold_left recv u ms in
        Alcotest.(check int) "v5 stable" 5 (C.stable_version u);
        let u, _ = C.receive u (List.nth ms 2) in
        Alcotest.(check int) "still v5 after a duplicate of v3" 5 (C.stable_version u));
    Alcotest.test_case "tentative then validated" `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1; s2 ] in
        let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let u2 = C.create ~eq:Char.equal ~site:s2 ~admin:adm ~policy doc0 in
        let u1, q, _qid = ok_gen u1 (Op.ins 0 'x') in
        Alcotest.(check int) "tentative at issuer" 1 (List.length (C.tentative u1));
        let u2 = recv u2 q in
        Alcotest.(check int) "tentative at peer" 1 (List.length (C.tentative u2));
        let _, out = recv_admin a q in
        let v = match out with [ m ] -> m | _ -> Alcotest.fail "expected validation" in
        let u1 = recv u1 v and u2 = recv u2 v in
        Alcotest.(check int) "validated at issuer" 0 (List.length (C.tentative u1));
        Alcotest.(check int) "validated at peer" 0 (List.length (C.tentative u2)));
    Alcotest.test_case "restrictive op leaves unconcerned tentatives alone" `Quick
      (fun () ->
        let policy = all_rights_policy [ adm; s1; s2 ] in
        let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let u1, _, _ = ok_gen u1 (Op.ins 0 'x') in
        let r =
          {
            Admin_op.admin = adm;
            version = 1;
            op =
              Admin_op.Add_auth
                (0, Auth.deny [ Subject.User s2 ] [ Docobj.Whole ] Right.all);
            ctx = Vclock.empty;
          }
        in
        let u1 = recv u1 (C.Admin r) in
        Alcotest.(check string) "untouched" "xabc" (vis u1);
        Alcotest.(check int) "still tentative" 1 (List.length (C.tentative u1)));
    Alcotest.test_case "del_user revokes everything retroactively" `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1; s2 ] in
        let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        let u1, q, _qid = ok_gen u1 (Op.ins 0 'x') in
        let a, r = ok_admin a (Admin_op.Del_user s1) in
        let a, out = recv_admin a q in
        Alcotest.(check int) "not validated" 0 (List.length out);
        Alcotest.(check string) "ignored at adm" "abc" (vis a);
        let u1 = recv u1 r in
        Alcotest.(check string) "undone at s1" "abc" (vis u1);
        check_converged "del_user" [ a; u1 ]);
    Alcotest.test_case "zone-scoped revocation only undoes ops inside the zone" `Quick
      (fun () ->
        let policy = all_rights_policy [ adm; s1; s2 ] in
        let a = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
        let u1 = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
        (* two tentative inserts at positions 0 and 3 *)
        let u1, _qa, ida = ok_gen u1 (Op.ins 0 'x') in
        let u1, _qb, _idb = ok_gen u1 (Tdoc.ins_visible (C.document u1) 4 'z') in
        Alcotest.(check string) "both applied" "xabcz" (vis u1);
        (* revoke insertion in the head zone only *)
        let _, r =
          ok_admin a
            (Admin_op.Add_auth
               (0, Auth.deny [ Subject.User s1 ] [ Docobj.zone 0 1 ] [ Right.Insert ]))
        in
        let u1 = recv u1 r in
        Alcotest.(check string) "only head insert undone" "abcz" (vis u1);
        Alcotest.(check bool) "qa invalid" true
          (flag_of u1 ida = Request.Invalid));
  ]

(* ----- Session (synchronous wrapper) ----- *)

let session_tests =
  [
    Alcotest.test_case "synchronous session end to end" `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1; s2 ] in
        let s = Session.create ~eq:Char.equal ~admin:adm ~users:[ s1; s2 ] ~policy doc0 in
        let s = Result.get_ok (Session.generate s s1 (Op.ins 0 'x')) in
        let s = Result.get_ok (Session.generate s s2 (Op.ins 4 'z')) in
        Alcotest.(check bool) "converged" true (Session.converged s);
        Alcotest.(check string) "content" "xabcz" (Session.visible_string s adm);
        List.iter
          (fun u ->
            Alcotest.(check int) "no tentative" 0
              (List.length (Controller.tentative (Session.controller s u))))
          (Session.sites s));
    Alcotest.test_case "revocation mid-session" `Quick (fun () ->
        let policy = all_rights_policy [ adm; s1; s2 ] in
        let s = Session.create ~eq:Char.equal ~admin:adm ~users:[ s1; s2 ] ~policy doc0 in
        let s =
          Result.get_ok
            (Session.admin_update s
               (Admin_op.Add_auth
                  (0, Auth.deny [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Delete ])))
        in
        (match Session.generate s s2 (Op.del 0 'a') with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "s2 should be denied locally");
        let s = Result.get_ok (Session.generate s s2 (Op.ins 3 '!')) in
        Alcotest.(check string) "insert still fine" "abc!" (Session.visible_string s adm));
  ]

(* ----- the cut of L through the controller ----- *)

(* An administrator and a user: the user's three edits are validated at
   v1..v3, the user applies the validations and beacons back, and the
   administrator compacts.  Also returns the user as it was before the
   validations reached it: a member restarted from an old snapshot. *)
let cut_session ?metrics ?trace () =
  let policy = all_rights_policy [ adm; s1 ] in
  let a = C.create ?metrics ?trace ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let u, qs =
    List.fold_left
      (fun (u, qs) c ->
        let u, q, _ = ok_gen u (Op.ins 0 c) in
        (u, qs @ [ q ]))
      (u, []) [ 'x'; 'y'; 'z' ]
  in
  let a, vs =
    List.fold_left
      (fun (a, vs) q ->
        let a, out = recv_admin a q in
        (a, vs @ out))
      (a, []) qs
  in
  let stale = u in
  let u = List.fold_left recv u vs in
  let clock, version = C.beacon u in
  let a = C.compact (C.receive_beacon a ~peer:s1 ~clock ~version) in
  (a, u, stale)

(* The administrator goes down holding [a_old] while [k] edits of site
   1's stay tentative there; it comes back as [a_old].  With [behind],
   site 1 first compacts past [a_old] on one of the administrator's
   edits, so only the rejoin fallback can serve it. *)
let backlog_session ~behind k =
  let policy = all_rights_policy [ adm; s1 ] in
  let a_old = C.create ~eq:Char.equal ~site:adm ~admin:adm ~policy doc0 in
  let u = C.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy doc0 in
  let u =
    if behind then
      let _, m, _ = ok_gen a_old (Op.ins 0 'a') in
      C.compact (recv u m)
    else u
  in
  let u =
    List.fold_left
      (fun u i ->
        let u, _, _ = ok_gen u (Op.ins 0 (Char.chr (Char.code 'p' + i))) in
        u)
      u (List.init k Fun.id)
  in
  (a_old, u)

let validated_versions out =
  List.map
    (function
      | C.Admin { Admin_op.op = Admin_op.Validate _; version; _ } -> version
      | _ -> Alcotest.fail "a catch-up emitted something besides a Validate")
    out

let backlog_validated_once ~behind () =
  let k = 4 in
  let a_old, u = backlog_session ~behind k in
  Alcotest.(check bool) "the donor's cut is above the stale administrator" behind
    (C.delta_since u ~clock:(C.clock a_old) ~version:(C.version a_old) = None);
  let a, out = C.catch_up a_old u in
  let v0 = C.version u in
  Alcotest.(check (list int)) "k Validates at consecutive versions"
    (List.init k (fun i -> v0 + 1 + i))
    (validated_versions out);
  (* the donor has not heard of them yet: they are re-sent, not minted
     again *)
  let a', again = C.catch_up a u in
  Alcotest.(check (list int)) "the same versions re-sent" (validated_versions out)
    (validated_versions again);
  Alcotest.(check int) "no version minted" (C.version a) (C.version a');
  let u = List.fold_left recv u out in
  Alcotest.(check int) "nothing tentative at the administrator" 0
    (List.length (C.tentative a));
  Alcotest.(check int) "nothing tentative at the user" 0 (List.length (C.tentative u));
  check_converged "after delivery" [ a; u ]

let cut_tests =
  [
    Alcotest.test_case "compaction cuts L at the stable version; gauges show it" `Quick
      (fun () ->
        let metrics = Dce_obs.Metrics.create () in
        let a, u, _ = cut_session ~metrics () in
        let gauge name =
          Dce_obs.Metrics.gauge_value (Dce_obs.Metrics.gauge metrics name)
        in
        Alcotest.(check int) "version" 3 (C.version a);
        (* v3 is the newest request and stays *)
        Alcotest.(check int) "cut" 2 (Admin_log.cut (C.admin_log a));
        Alcotest.(check int) "controller.admin_cut" 2 (gauge "controller.admin_cut");
        Alcotest.(check int) "controller.admin_log_live" 1
          (gauge "controller.admin_log_live");
        Alcotest.(check string) "content unchanged" (vis u) (vis a));
    Alcotest.test_case "a deletion lowers doc_visible and leaves doc_cells" `Quick
      (fun () ->
        let metrics = Dce_obs.Metrics.create () in
        let gauge name =
          Dce_obs.Metrics.gauge_value (Dce_obs.Metrics.gauge metrics name)
        in
        let policy = all_rights_policy [ adm; s1 ] in
        let u = C.create ~eq:Char.equal ~metrics ~site:s1 ~admin:adm ~policy doc0 in
        let u, _, _ = ok_gen u (Op.ins 0 'x') in
        Alcotest.(check int) "visible before" 4 (gauge "controller.doc_visible");
        Alcotest.(check int) "cells before" 4 (gauge "controller.doc_cells");
        let u, _, _ = ok_gen u (Tdoc.del_visible (C.document u) 1) in
        Alcotest.(check int) "visible after" 3 (gauge "controller.doc_visible");
        Alcotest.(check int) "cells after: the tombstone stays" 4
          (gauge "controller.doc_cells");
        Alcotest.(check string) "document" "xbc" (vis u));
    Alcotest.test_case "a member behind the cut gets no delta and catches up whole"
      `Quick (fun () ->
        let a, _, stale = cut_session () in
        Alcotest.(check bool) "the oplog alone would allow a delta" true
          (Vclock.leq (C.compacted_upto a) (C.clock stale));
        Alcotest.(check bool) "no delta below the L cut" true
          (C.delta_since a ~clock:(C.clock stale) ~version:(C.version stale) = None);
        let caught, _ = C.catch_up stale a in
        Alcotest.(check int) "caught up to v3" 3 (C.version caught);
        Alcotest.(check int) "nothing parked" 0 (C.pending_admin caught);
        Alcotest.(check string) "same document" (vis a) (vis caught);
        (* a delta cut for a member at the cut does not apply below it *)
        let d = Option.get (C.delta_since a ~clock:(C.clock stale) ~version:2) in
        Alcotest.(check bool) "gapped delta rejected" true
          (Result.is_error (C.apply_delta stale d)));
    Alcotest.test_case "no gapped suffix is re-sent to a donor behind our cut" `Quick
      (fun () ->
        let events = ref [] in
        let trace = Dce_obs.Trace.callback (fun e -> events := e :: !events) in
        let a, _, stale = cut_session ~trace () in
        let _, out = C.catch_up a stale in
        Alcotest.(check bool) "no administrative request re-sent" true
          (List.for_all (function C.Admin _ -> false | C.Coop _ -> true) out);
        Alcotest.(check bool) "reported as heal_impossible" true
          (List.exists
             (fun (e : Dce_obs.Trace.event) ->
               match e.Dce_obs.Trace.kind with
               | Dce_obs.Trace.Net { action = "heal_impossible"; _ } -> true
               | _ -> false)
             !events));
    Alcotest.test_case "a cut state round-trips through dump and load" `Quick (fun () ->
        let a, _, _ = cut_session () in
        let b = Result.get_ok (C.load ~eq:Char.equal (C.dump a)) in
        Alcotest.(check int) "cut" (Admin_log.cut (C.admin_log a))
          (Admin_log.cut (C.admin_log b));
        Alcotest.(check int) "version" (C.version a) (C.version b);
        Alcotest.(check bool) "same dump" true (C.dump a = C.dump b));
    Alcotest.test_case "a recovered administrator validates its backlog once, by delta"
      `Quick (backlog_validated_once ~behind:false);
    Alcotest.test_case
      "a recovered administrator validates its backlog once, by the rejoin fallback" `Quick
      (backlog_validated_once ~behind:true);
  ]

(* ----- authorization edits against a plain-list reference -----

   Every authorization is a distinct grant to its own user, so list
   equality shows order.  Indexes run one past each end, so both edits
   see out-of-range indexes, whose errors must leave nothing changed. *)
let ref_insert l p a =
  if p < 0 || p > List.length l then None
  else Some (List.filteri (fun i _ -> i < p) l @ (a :: List.filteri (fun i _ -> i >= p) l))

let ref_remove l p =
  if p < 0 || p >= List.length l then None else Some (List.filteri (fun i _ -> i <> p) l)

let auth_edit_tests =
  let auth u = Auth.grant [ Subject.User u ] [ Docobj.Whole ] [ Right.Insert ] in
  let gen =
    QCheck2.Gen.(
      pair (int_range 0 12) (list_size (int_range 0 30) (pair bool (int_range (-2) 14))))
  in
  let print (n, edits) =
    Printf.sprintf "%d auths, edits %s" n
      (String.concat ";"
         (List.map (fun (add, p) -> Printf.sprintf "%s %d" (if add then "add" else "del") p) edits))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"add_auth and del_auth agree with a plain list"
         ~print gen (fun (n, edits) ->
           let start = List.init n auth in
           let _, _, ok =
             List.fold_left
               (fun (p, l, ok) (add, i) ->
                 let got =
                   if add then Policy.add_auth p i (auth (100 + i)) else Policy.del_auth p i
                 in
                 let want = if add then ref_insert l i (auth (100 + i)) else ref_remove l i in
                 match (got, want) with
                 | Ok p', Some l' -> (p', l', ok && Policy.auths p' = l')
                 | Error _, None -> (p, l, ok && Policy.auths p = l)
                 | Ok _, None | Error _, Some _ -> (p, l, false))
               (Policy.make ~users:[] start, start, true)
               edits
           in
           ok));
    Alcotest.test_case "out-of-range edits name the list's bounds" `Quick (fun () ->
        let p = Policy.make ~users:[] [ auth 1; auth 2 ] in
        let err = function Error e -> e | Ok _ -> "ok" in
        Alcotest.(check string) "add" "authorization index 3 out of [0,2]"
          (err (Policy.add_auth p 3 (auth 3)));
        Alcotest.(check string) "add negative" "authorization index -1 out of [0,2]"
          (err (Policy.add_auth p (-1) (auth 3)));
        Alcotest.(check string) "del" "authorization index 2 out of [0,2)"
          (err (Policy.del_auth p 2)));
  ]

let () =
  Alcotest.run "dce_core"
    [
      ("right", right_tests);
      ("subject", subject_tests);
      ("docobj", docobj_tests);
      ("auth", auth_tests);
      ("policy", policy_tests @ auth_edit_tests);
      ("admin_log", admin_log_tests);
      ( "scenarios",
        [
          Alcotest.test_case "Fig.2: concurrent revocation is enforced retroactively"
            `Quick fig2;
          Alcotest.test_case "Fig.3: the administrative log catches stale requests"
            `Quick fig3;
          Alcotest.test_case "Fig.4: validation stops overtaking revocations" `Quick fig4;
          Alcotest.test_case "Fig.5: full worked example converges to ayc" `Quick fig5;
        ] );
      ("controller", controller_unit_tests);
      ("cut", cut_tests);
      ("session", session_tests);
    ]
