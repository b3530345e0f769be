open Dce_ot
open Dce_core

type report = {
  documents_agree : bool;
  versions_agree : bool;
  policies_agree : bool;
  queues_empty : bool;
  no_tentative_left : bool;
  flags_agree : bool;
}

let trivial =
  {
    documents_agree = true;
    versions_agree = true;
    policies_agree = true;
    queues_empty = true;
    no_tentative_left = true;
    flags_agree = true;
  }

(* Positions a policy decision can depend on in practice: the probe set
   used to compare policies by observable behaviour. *)
let probe_positions = [ None; Some 0; Some 1; Some 5; Some 50 ]

(* Policies are compared by their observable behaviour on the finite
   relevant domain: registered users × rights × positions-of-interest
   (authorization lists can differ syntactically after permissive
   deletions while still deciding identically). *)
let policies_equal a b =
  let users = List.sort_uniq compare (Policy.users a @ Policy.users b) in
  List.for_all
    (fun u ->
      List.for_all
        (fun r ->
          List.for_all
            (fun pos -> Policy.check a ~user:u ~right:r ~pos = Policy.check b ~user:u ~right:r ~pos)
            probe_positions)
        Right.all)
    users
  && Policy.auth_count a = Policy.auth_count b

(* logs may have been garbage-collected at different points, so compare
   the fates of the requests two sites both still store *)
let flags c =
  List.map
    (fun (q : char Request.t) -> (q.Request.id, q.Request.flag))
    (Oplog.requests (Controller.oplog c))

let check controllers =
  match controllers with
  (* Degenerate sessions are trivially convergent: nothing to compare an
     empty group against, and a single site always agrees with itself.
     Explicit so callers need not rely on fold behaviour over [rest]. *)
  | [] | [ _ ] -> trivial
  | c0 :: rest ->
    let documents_agree =
      List.for_all
        (fun c ->
          Tdoc.equal_modulo_collapse Char.equal (Controller.document c0)
            (Controller.document c))
        rest
    in
    let versions_agree =
      List.for_all (fun c -> Controller.version c = Controller.version c0) rest
    in
    let policies_agree =
      List.for_all (fun c -> policies_equal (Controller.policy c0) (Controller.policy c)) rest
    in
    let queues_empty =
      List.for_all
        (fun c -> Controller.pending_coop c = 0 && Controller.pending_admin c = 0)
        controllers
    in
    let no_tentative_left =
      List.for_all (fun c -> Controller.tentative c = []) controllers
    in
    let flags_agree =
      let f0 = flags c0 in
      List.for_all
        (fun c ->
          List.for_all
            (fun (id, flag) ->
              match List.assoc_opt id f0 with
              | Some flag0 -> flag = flag0
              | None -> true)
            (flags c))
        rest
    in
    {
      documents_agree;
      versions_agree;
      policies_agree;
      queues_empty;
      no_tentative_left;
      flags_agree;
    }

let ok r =
  r.documents_agree && r.versions_agree && r.policies_agree && r.queues_empty
  && r.no_tentative_left && r.flags_agree

let pp ppf r =
  let b ppf v = Format.pp_print_string ppf (if v then "yes" else "NO") in
  Format.fprintf ppf
    "@[<v>documents agree: %a@ versions agree: %a@ policies agree: %a@ queues empty: \
     %a@ no tentative left: %a@ flags agree: %a@]"
    b r.documents_agree b r.versions_agree b r.policies_agree b r.queues_empty b
    r.no_tentative_left b r.flags_agree

(* ----- diagnosis: name the first divergent site pair and what differs ----- *)

(* The first element of [rest] that disagrees with [c0] under [differs],
   paired with what makes them disagree. *)
let first_divergent c0 rest differs =
  List.find_map (fun c -> Option.map (fun w -> (c, w)) (differs c0 c)) rest

let doc_diff c0 c =
  let m0 = Tdoc.model_list (Controller.document c0) in
  let m = Tdoc.model_list (Controller.document c) in
  let cell_pp ppf (cell : char Tdoc.cell) =
    Format.fprintf ppf "%c%s" cell.Tdoc.elt
      (if cell.Tdoc.hidden > 0 then Printf.sprintf "(hidden x%d)" cell.Tdoc.hidden
       else "")
  in
  let rec first_cell i = function
    | [], [] -> None
    | a :: _, [] ->
      Some (Format.asprintf "model cell %d: %a vs <absent>" i cell_pp a)
    | [], b :: _ ->
      Some (Format.asprintf "model cell %d: <absent> vs %a" i cell_pp b)
    | a :: ra, b :: rb ->
      (* the same equality [check] uses: write lists are in arrival
         order, and sites collapse at different points *)
      if Tdoc.equal_cell_modulo_collapse Char.equal a b then first_cell (i + 1) (ra, rb)
      else Some (Format.asprintf "model cell %d: %a vs %a" i cell_pp a cell_pp b)
  in
  match first_cell 0 (m0, m) with
  | None -> None
  | Some frag ->
    Some
      (Format.asprintf "documents differ at %s; visible %S vs %S" frag
         (Tdoc.visible_string (Controller.document c0))
         (Tdoc.visible_string (Controller.document c)))

let policy_diff c0 c =
  let a = Controller.policy c0 and b = Controller.policy c in
  if policies_equal a b then None
  else
    let users = List.sort_uniq compare (Policy.users a @ Policy.users b) in
    let probe =
      List.find_map
        (fun u ->
          List.find_map
            (fun r ->
              List.find_map
                (fun pos ->
                  let da = Policy.check a ~user:u ~right:r ~pos
                  and db = Policy.check b ~user:u ~right:r ~pos in
                  if da = db then None
                  else
                    Some
                      (Format.asprintf
                         "decision for user %d, right %a, pos %s: %b vs %b" u
                         Right.pp r
                         (match pos with None -> "-" | Some p -> string_of_int p)
                         da db))
                probe_positions)
            Right.all)
        users
    in
    (match probe with
     | Some d -> Some ("policies differ: " ^ d)
     | None ->
       Some
         (Printf.sprintf "policies differ: %d vs %d authorizations (same decisions)"
            (Policy.auth_count a) (Policy.auth_count b)))

let version_diff c0 c =
  if Controller.version c0 = Controller.version c then None
  else
    Some
      (Printf.sprintf "policy versions differ: %d vs %d" (Controller.version c0)
         (Controller.version c))

let flag_diff c0 c =
  let f0 = flags c0 in
  List.find_map
    (fun (id, flag) ->
      match List.assoc_opt id f0 with
      | Some flag0 when flag <> flag0 ->
        Some
          (Format.asprintf "request q%a is %a vs %a" Request.pp_id id Request.pp_flag
             flag0 Request.pp_flag flag)
      | _ -> None)
    (flags c)

let explain controllers =
  match controllers with
  | [] | [ _ ] -> None
  | c0 :: rest ->
    let pair_diag differs prefix =
      Option.map
        (fun (c, what) ->
          Format.asprintf "%ssites %d and %d: %s" prefix (Controller.site c0)
            (Controller.site c) what)
        (first_divergent c0 rest differs)
    in
    let site_diag pred describe prefix =
      Option.map
        (fun c -> Format.asprintf "%ssite %d: %s" prefix (Controller.site c) (describe c))
        (List.find_opt pred controllers)
    in
    let checks =
      [
        (fun () -> pair_diag doc_diff "");
        (fun () -> pair_diag version_diff "");
        (fun () -> pair_diag policy_diff "");
        (fun () ->
          site_diag
            (fun c -> Controller.pending_coop c > 0 || Controller.pending_admin c > 0)
            (fun c ->
              Printf.sprintf "%d cooperative and %d administrative requests still queued"
                (Controller.pending_coop c) (Controller.pending_admin c))
            "");
        (fun () ->
          site_diag
            (fun c -> Controller.tentative c <> [])
            (fun c ->
              Format.asprintf "tentative requests left: %a"
                (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
                   (fun ppf (q : char Request.t) -> Request.pp_id ppf q.Request.id))
                (Controller.tentative c))
            "");
        (fun () -> pair_diag flag_diff "");
      ]
    in
    List.find_map (fun f -> f ()) checks

let pp_diff ppf controllers =
  match explain controllers with
  | None -> Format.pp_print_string ppf "all oracles hold"
  | Some msg -> Format.pp_print_string ppf msg
