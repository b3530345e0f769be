open Dce_ot
open Dce_core

type edit = Ins of int * char | Del of int | Up of int * char

type action = Edit of edit | Policy of Admin_op.t | Beacon | Compact | Crash | Recover

type t = {
  sites : Subject.user list;
  policy : Policy.t;
  initial : string;
  scripts : (Subject.user * action list) list;
  features : Controller.features;
  persist : Dce_store.Store.config option;
}

(* Clamp a visible position into [0, n] (for insertions) or [0, n-1]
   (for in-place edits); an in-place edit on an empty document degrades
   to an insertion so every action stays executable. *)
let op_of_edit doc e =
  let n = Tdoc.visible_length doc in
  match e with
  | Ins (p, c) -> Tdoc.ins_visible doc (min p n) c
  | Del p -> if n = 0 then Tdoc.ins_visible doc 0 'z' else Tdoc.del_visible doc (min p (n - 1))
  | Up (p, c) -> if n = 0 then Tdoc.ins_visible doc 0 c else Tdoc.up_visible doc (min p (n - 1)) c

let revoke_insert user =
  Admin_op.Add_auth (0, Auth.deny [ Subject.User user ] [ Docobj.Whole ] [ Right.Insert ])

let regrant_insert user =
  Admin_op.Add_auth (0, Auth.grant [ Subject.User user ] [ Docobj.Whole ] [ Right.Insert ])

let make ?(features = Controller.secure) ?initial ?(mixed = false) ?stability
    ?crash ~sites ~coop ~admin_ops () =
  if sites < 2 then invalid_arg "Scenario.make: need at least two sites";
  let site_ids = List.init sites Fun.id in
  let users = List.init (sites - 1) (fun i -> i + 1) in
  let initial =
    match initial with
    | Some s -> s
    | None -> String.init (max 4 (coop + 2)) (fun i -> Char.chr (97 + (i mod 26)))
  in
  let edit k =
    let c = Char.chr (97 + (k mod 26)) in
    if not mixed then Ins (k, c)
    else
      match k mod 3 with
      | 0 -> Ins (k, c)
      | 1 -> Del k
      | _ -> Up (k, Char.uppercase_ascii c)
  in
  (* With [stability = k], every site broadcasts a stability beacon and
     compacts its window after each k-th action (and once at the end of
     its script), so the explorer interleaves beacon deliveries and
     compaction freely with ordinary delivery transitions. *)
  let weave actions =
    match stability with
    | None -> actions
    | Some k when k < 1 -> invalid_arg "Scenario.make: stability must be >= 1"
    | Some k ->
      List.concat
        (List.mapi
           (fun i a -> if (i + 1) mod k = 0 then [ a; Beacon; Compact ] else [ a ])
           actions)
      @ if List.length actions mod k = 0 then [] else [ Beacon; Compact ]
  in
  (* With [crash = k], every site, the administrator included, dies
     (kill -9 over its journal) and recovers through the real replay
     path after its k-th woven action; the explorer then interleaves
     that crash window with every delivery, beacon, and compaction
     order. *)
  let weave_crash actions =
    match crash with
    | None -> actions
    | Some k when k < 0 -> invalid_arg "Scenario.make: crash must be >= 0"
    | Some k ->
      let k = min k (List.length actions) in
      let rec ins i rest =
        if i = k then Crash :: Recover :: rest
        else match rest with [] -> [ Crash; Recover ] | a :: tl -> a :: ins (i + 1) tl
      in
      ins 0 actions
  in
  let coop_script u =
    List.filteri (fun k _ -> k mod (sites - 1) = u - 1) (List.init coop edit)
    |> List.map (fun e -> Edit e)
    |> weave |> weave_crash
  in
  let admin_script =
    List.init admin_ops (fun k ->
        Policy (if k mod 2 = 0 then revoke_insert 1 else regrant_insert 1))
    |> weave |> weave_crash
  in
  {
    sites = site_ids;
    policy =
      Policy.make ~users:site_ids [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ];
    initial;
    scripts = (0, admin_script) :: List.map (fun u -> (u, coop_script u)) users;
    features;
    persist = (match crash with None -> None | Some _ -> Some Journal.default_config);
  }

let controllers t =
  let admin = List.hd t.sites in
  let doc = Tdoc.of_string t.initial in
  List.map
    (fun site ->
      ( site,
        Controller.create ~eq:Char.equal ~features:t.features ~site ~admin
          ~policy:t.policy doc ))
    t.sites

let total_actions t =
  List.fold_left (fun acc (_, s) -> acc + List.length s) 0 t.scripts

let pp_edit ppf = function
  | Ins (p, c) -> Format.fprintf ppf "ins %d %c" p c
  | Del p -> Format.fprintf ppf "del %d" p
  | Up (p, c) -> Format.fprintf ppf "up %d %c" p c

let pp_action ppf = function
  | Edit e -> pp_edit ppf e
  | Policy op -> Admin_op.pp ppf op
  | Beacon -> Format.pp_print_string ppf "beacon"
  | Compact -> Format.pp_print_string ppf "compact"
  | Crash -> Format.pp_print_string ppf "crash"
  | Recover -> Format.pp_print_string ppf "recover"

let pp ppf t =
  Format.fprintf ppf "@[<v>%d sites (admin %d), initial %S%a@]" (List.length t.sites)
    (List.hd t.sites) t.initial
    (fun ppf scripts ->
      List.iter
        (fun (u, actions) ->
          if actions <> [] then
            Format.fprintf ppf "@ site %d: %a" u
              (Format.pp_print_list
                 ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
                 pp_action)
              actions)
        scripts)
    t.scripts
