open Dce_ot

type 'e t = {
  eq : 'e -> 'e -> bool;
  admin : Subject.user;
  controllers : (Subject.user * 'e Controller.t) list;
}

let create ?(eq = ( = )) ~admin ~users ~policy doc =
  if List.mem admin users then invalid_arg "Session.create: admin listed in users";
  let all = admin :: users in
  if List.length (List.sort_uniq compare all) <> List.length all then
    invalid_arg "Session.create: duplicate site identifiers";
  {
    eq;
    admin;
    controllers =
      List.map (fun u -> (u, Controller.create ~eq ~site:u ~admin ~policy doc)) all;
  }

let sites t = List.map fst t.controllers

let controller t u =
  match List.assoc_opt u t.controllers with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Session: no site %d" u)

let set t u c = { t with controllers = List.map (fun (v, c') -> if v = u then (v, c) else (v, c')) t.controllers }

(* Deliver [msg] from [src] to every other site, then recursively deliver
   whatever those deliveries emitted (validations). *)
let rec deliver t src msg =
  List.fold_left
    (fun t (u, _) ->
      if u = src then t
      else
        let c, emitted = Controller.receive (controller t u) msg in
        let t = set t u c in
        List.fold_left (fun t m -> deliver t u m) t emitted)
    t t.controllers

let generate t u op =
  match Controller.generate (controller t u) op with
  | c, Controller.Accepted msg -> Ok (deliver (set t u c) u msg)
  | _, Controller.Denied reason -> Error reason

let admin_update t op =
  match Controller.admin_update (controller t t.admin) op with
  | Error e -> Error e
  | Ok (c, msg) -> Ok (deliver (set t t.admin c) t.admin msg)

let converged t =
  match t.controllers with
  | [] -> true
  | (_, c0) :: rest ->
    let d0 = Controller.document c0 in
    List.for_all
      (fun (_, c) ->
        Tdoc.equal_modulo_collapse t.eq d0 (Controller.document c)
        && Controller.pending_coop c = 0
        && Controller.pending_admin c = 0)
      rest
    && Controller.pending_coop c0 = 0
    && Controller.pending_admin c0 = 0

let document t u = Controller.document (controller t u)

let visible_string t u = Tdoc.visible_string (document t u)
