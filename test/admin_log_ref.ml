(* List-based reference administrative log: the pre-index
   representation (newest-first list of (request, policy, administrator)
   triples, O(|L|) [policy_at]/[admin_at] via [List.nth], and a
   [first_denial] that rebuilds the request list on every call), kept in
   the test tree as a differential-testing oracle for
   [Dce_core.Admin_log].  It never drops an entry, so it answers every
   version the indexed log may have cut. *)

open Dce_core

type t = {
  initial : Policy.t;
  initial_admin : Subject.user;
  (* newest first; entry i has version (length - i) and carries the
     snapshot and administrator the request produced *)
  entries : (Admin_op.request * Policy.t * Subject.user) list;
  version : int;
}

let create ~admin p =
  { initial = p; initial_admin = admin; entries = []; version = 0 }

let version t = t.version

let current t = match t.entries with [] -> t.initial | (_, p, _) :: _ -> p

let current_admin t =
  match t.entries with [] -> t.initial_admin | (_, _, a) :: _ -> a

let append t (r : Admin_op.request) =
  if r.Admin_op.version <> t.version + 1 then
    Error
      (Printf.sprintf "administrative request out of order: got v%d, expected v%d"
         r.Admin_op.version (t.version + 1))
  else if r.Admin_op.admin <> current_admin t then
    Error
      (Printf.sprintf "administrative request from %d, but %d holds the role"
         r.Admin_op.admin (current_admin t))
  else
    match Admin_op.apply (current t) r.Admin_op.op with
    | Error e -> Error e
    | Ok p ->
      let admin =
        match r.Admin_op.op with Admin_op.Transfer_admin u -> u | _ -> current_admin t
      in
      Ok { t with entries = (r, p, admin) :: t.entries; version = t.version + 1 }

let policy_at t v =
  if v < 0 || v > t.version then None
  else if v = 0 then Some t.initial
  else
    (* entries are newest first: version v is at index (version - v) *)
    match List.nth_opt t.entries (t.version - v) with
    | Some (_, p, _) -> Some p
    | None -> None

let admin_at t v =
  if v < 0 || v > t.version then None
  else if v = 0 then Some t.initial_admin
  else
    match List.nth_opt t.entries (t.version - v) with
    | Some (_, _, a) -> Some a
    | None -> None

let requests t = List.rev_map (fun (r, _, _) -> r) t.entries

let restrictive_since t v =
  List.filter
    (fun (r : Admin_op.request) ->
      r.Admin_op.version > v && Admin_op.is_restrictive r.Admin_op.op)
    (requests t)

let first_denial t ~from_version ~user ~right ~pos =
  (* Grants can only be withdrawn by restrictive requests, so it is
     enough to check the starting version and the version produced by
     each restrictive request in the interval. *)
  let granted v =
    match policy_at t v with
    | Some p -> Policy.check p ~user ~right ~pos
    | None -> false
  in
  if from_version > t.version then None
  else if not (granted from_version) then Some from_version
  else
    List.find_map
      (fun (r : Admin_op.request) ->
        if granted r.Admin_op.version then None else Some r.Admin_op.version)
      (restrictive_since t from_version)
