module ISet = Set.Make (Int)
module SMap = Map.Make (String)

type t = {
  users : ISet.t;
  groups : ISet.t SMap.t;
  objects : Docobj.t SMap.t;
  auths : Auth.t list;
}

let empty = { users = ISet.empty; groups = SMap.empty; objects = SMap.empty; auths = [] }

let make ?(users = []) ?(groups = []) ?(objects = []) auths =
  {
    users = ISet.of_list users;
    groups =
      List.fold_left (fun m (g, us) -> SMap.add g (ISet.of_list us) m) SMap.empty groups;
    objects = List.fold_left (fun m (n, o) -> SMap.add n o m) SMap.empty objects;
    auths;
  }

let users t = ISet.elements t.users

let groups t = List.map (fun (g, s) -> (g, ISet.elements s)) (SMap.bindings t.groups)

let objects t = SMap.bindings t.objects

let is_user t u = ISet.mem u t.users

let member t g u =
  match SMap.find_opt g t.groups with Some s -> ISet.mem u s | None -> false

let resolve t n = SMap.find_opt n t.objects
let auths t = t.auths
let auth_count t = List.length t.auths

let check t ~user ~right ~pos =
  is_user t user
  &&
  let member g u = member t g u and resolve n = resolve t n in
  let rec first_match = function
    | [] -> false (* default deny *)
    | a :: rest ->
      if Auth.matches ~member ~resolve a ~user ~right ~pos then not (Auth.is_restrictive a)
      else first_match rest
  in
  first_match t.auths

let check_op t ~user op =
  match Right.of_op op with
  | None -> true
  | Some right -> check t ~user ~right ~pos:(Dce_ot.Op.pos op)

type verdict = Unregistered | Default_deny | Matched of int

let explain t ~user ~right ~pos =
  if not (is_user t user) then Unregistered
  else
    let member g u = member t g u and resolve n = resolve t n in
    let rec go i = function
      | [] -> Default_deny
      | a :: rest ->
        if Auth.matches ~member ~resolve a ~user ~right ~pos then Matched i
        else go (i + 1) rest
    in
    go 0 t.auths

let auth_at t i = List.nth_opt t.auths i

let verdict_allows t = function
  | Unregistered | Default_deny -> false
  | Matched i ->
    (match auth_at t i with Some a -> not (Auth.is_restrictive a) | None -> false)

let add_user t u =
  if ISet.mem u t.users then Error (Printf.sprintf "user %d already registered" u)
  else Ok { t with users = ISet.add u t.users }

(* Deletion deliberately does NOT rewrite the authorization list, even
   though auths may still name the deleted user/object (see the .mli):
   [Add_auth]/[Del_auth] address authorizations by index, so a silent
   rewrite here would shift indices under concurrently issued
   administrative requests.  The dangling references are inert —
   unregistered users fail [check] before any auth is consulted, and an
   unresolvable [Named] object matches nothing — and are surfaced by the
   static analyzer (dcepolicy dangling-reference lints). *)
let del_user t u =
  if not (ISet.mem u t.users) then Error (Printf.sprintf "user %d not registered" u)
  else
    Ok
      {
        t with
        users = ISet.remove u t.users;
        groups = SMap.map (ISet.remove u) t.groups;
      }

let add_to_group t g u =
  if not (ISet.mem u t.users) then Error (Printf.sprintf "user %d not registered" u)
  else
    let s = Option.value ~default:ISet.empty (SMap.find_opt g t.groups) in
    if ISet.mem u s then Error (Printf.sprintf "user %d already in group %s" u g)
    else Ok { t with groups = SMap.add g (ISet.add u s) t.groups }

let del_from_group t g u =
  match SMap.find_opt g t.groups with
  | None -> Error (Printf.sprintf "no group %s" g)
  | Some s ->
    if not (ISet.mem u s) then Error (Printf.sprintf "user %d not in group %s" u g)
    else Ok { t with groups = SMap.add g (ISet.remove u s) t.groups }

let add_obj t n o =
  if SMap.mem n t.objects then Error (Printf.sprintf "object %s already registered" n)
  else Ok { t with objects = SMap.add n o t.objects }

let del_obj t n =
  if not (SMap.mem n t.objects) then Error (Printf.sprintf "no object %s" n)
  else Ok { t with objects = SMap.remove n t.objects }

(* Both edits walk the list once, to the index: the length is computed
   only to word an out-of-range error. *)
let add_auth t p a =
  let rec insert i prefix = function
    | rest when i = 0 -> Ok { t with auths = List.rev_append prefix (a :: rest) }
    | x :: rest -> insert (i - 1) (x :: prefix) rest
    | [] -> Error ()
  in
  match if p < 0 then Error () else insert p [] t.auths with
  | Ok t -> Ok t
  | Error () ->
    Error (Printf.sprintf "authorization index %d out of [0,%d]" p (List.length t.auths))

let del_auth t p =
  let rec remove i prefix = function
    | _ :: rest when i = 0 -> Ok { t with auths = List.rev_append prefix rest }
    | x :: rest -> remove (i - 1) (x :: prefix) rest
    | [] -> Error ()
  in
  match if p < 0 then Error () else remove p [] t.auths with
  | Ok t -> Ok t
  | Error () ->
    Error (Printf.sprintf "authorization index %d out of [0,%d)" p (List.length t.auths))

let pp ppf t =
  Format.fprintf ppf "@[<v>users: {%a}@ "
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (ISet.elements t.users);
  SMap.iter
    (fun g s ->
      Format.fprintf ppf "group %s: {%a}@ " g
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        (ISet.elements s))
    t.groups;
  SMap.iter (fun n o -> Format.fprintf ppf "object %s = %a@ " n Docobj.pp o) t.objects;
  List.iteri (fun i a -> Format.fprintf ppf "P%d: %a@ " i Auth.pp a) t.auths;
  Format.fprintf ppf "@]"
