module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type t = {
  initial : Policy.t;
  initial_admin : Subject.user;
  version : int;
  cut : int;  (* highest version dropped, 0 if none *)
  live : int;  (* kept requests *)
  current : Policy.t;
  current_admin : Subject.user;
  (* the kept [Validate]s by version: all of them above [cut], none at
     or below it *)
  validates : Admin_op.request Imap.t;
  (* every other request, with the policy and administrator it produced:
     the only versions at which either changes, so never cut *)
  changes : (Admin_op.request * Policy.t * Subject.user) Imap.t;
  restrictive : Iset.t;  (* versions of the restrictive requests *)
}

let create ~admin p =
  {
    initial = p;
    initial_admin = admin;
    version = 0;
    cut = 0;
    live = 0;
    current = p;
    current_admin = admin;
    validates = Imap.empty;
    changes = Imap.empty;
    restrictive = Iset.empty;
  }

let version t = t.version
let current t = t.current
let initial t = t.initial
let current_admin t = t.current_admin
let initial_admin t = t.initial_admin
let cut t = t.cut
let live t = t.live

let append t (r : Admin_op.request) =
  if r.Admin_op.version <> t.version + 1 then
    Error
      (Printf.sprintf "administrative request out of order: got v%d, expected v%d"
         r.Admin_op.version (t.version + 1))
  else if r.Admin_op.admin <> t.current_admin then
    Error
      (Printf.sprintf "administrative request from %d, but %d holds the role"
         r.Admin_op.admin t.current_admin)
  else
    let v = r.Admin_op.version in
    match r.Admin_op.op with
    | Admin_op.Validate _ ->
      Ok { t with version = v; live = t.live + 1; validates = Imap.add v r t.validates }
    | op -> (
      match Admin_op.apply t.current op with
      | Error e -> Error e
      | Ok p ->
        let admin = match op with Admin_op.Transfer_admin u -> u | _ -> t.current_admin in
        Ok
          {
            t with
            version = v;
            live = t.live + 1;
            current = p;
            current_admin = admin;
            changes = Imap.add v (r, p, admin) t.changes;
            restrictive =
              (if Admin_op.is_restrictive op then Iset.add v t.restrictive
               else t.restrictive);
          })

(* the policy and administrator in force at [v]: those of the last
   change at or below it *)
let state_at t v =
  if v < 0 || v > t.version then None
  else
    match Imap.find_last_opt (fun k -> k <= v) t.changes with
    | Some (_, (_, p, a)) -> Some (p, a)
    | None -> Some (t.initial, t.initial_admin)

let policy_at t v = Option.map fst (state_at t v)
let admin_at t v = Option.map snd (state_at t v)

(* the kept requests above [v], ascending *)
let requests_above t v =
  Seq.sorted_merge
    (fun (a, _) (b, _) -> Int.compare a b)
    (Imap.to_seq_from (v + 1) t.validates)
    (Seq.map (fun (k, (r, _, _)) -> (k, r)) (Imap.to_seq_from (v + 1) t.changes))
  |> Seq.map snd |> List.of_seq

let requests t = requests_above t 0
let suffix t v = if v < t.cut then None else Some (requests_above t v)
let restrictive_since t v = List.of_seq (Iset.to_seq_from (v + 1) t.restrictive)

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
    Seq.find
      (fun v -> not (granted v))
      (Iset.to_seq_from (from_version + 1) t.restrictive)

let compact t ~upto =
  (* the newest request always stays, so a dump still names the current
     version *)
  let upto = min upto (t.version - 1) in
  let below, at, kept = Imap.split upto t.validates in
  let drop cut n = { t with validates = kept; cut; live = t.live - n } in
  match (at, Imap.max_binding_opt below) with
  | Some _, _ -> drop upto (Imap.cardinal below + 1)
  | None, Some (top, _) -> drop top (Imap.cardinal below)
  | None, None -> t

let of_requests ~admin p requests =
  List.fold_left
    (fun acc (r : Admin_op.request) ->
      match acc with
      | Error _ -> acc
      | Ok t ->
        if r.Admin_op.version <= t.version then
          Error
            (Printf.sprintf "administrative request v%d does not ascend past v%d"
               r.Admin_op.version t.version)
        else if r.Admin_op.version = t.version + 1 then append t r
        else
          (* a gap is a run of dropped Validates, which change neither the
             policy nor the administrator *)
          let gap = r.Admin_op.version - 1 in
          append { t with version = gap; cut = gap } r)
    (Ok (create ~admin p))
    requests

let pp ppf t =
  Format.fprintf ppf "@[<v>L (version %d, cut %d):@ %a@]" t.version t.cut
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Admin_op.pp_request)
    (requests t)
