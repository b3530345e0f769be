(* The four workloads and the inputs a seed generates for them.

   Every workload runs the same deployment (a hub, an administrator at
   site 0 and a user at site 1, each editor issuing [rate] ops/s) with
   default hub and client configurations.  They differ only in inputs and
   deployment, each chosen so that a different layer dominates; see
   README.md for the layer each one is meant to expose. *)

open Dce_core
module Tdoc = Dce_ot.Tdoc

type t = {
  name : string;
  doc_len : int;  (** initial document, characters *)
  absent_member : bool;
      (** register site 2, which never connects and so pins the
          stability frontier *)
  noise_rules : int;  (** authorizations ahead of the final grant: |P| - 1 *)
  preload_coop : int;  (** administrator requests integrated before the run *)
  preload_admin : int;  (** administrative log entries before the run: |L| *)
  admin_rate : float;  (** administrative ops/s issued by site 0 during the run *)
  journal : bool;  (** hub and editors journal with fsync [always] *)
  drop_every_ms : float;  (** the user drops its link this often; 0: never *)
}

let steady =
  {
    name = "steady";
    doc_len = 1_000;
    absent_member = false;
    noise_rules = 0;
    preload_coop = 0;
    preload_admin = 0;
    admin_rate = 0.;
    journal = false;
    drop_every_ms = 0.;
  }

let offline_peer =
  {
    steady with
    name = "offline_peer";
    doc_len = 10_000;
    absent_member = true;
    preload_coop = 4_000;
  }

let admin_churn =
  {
    steady with
    name = "admin_churn";
    doc_len = 10_000;
    noise_rules = 9_999;
    preload_admin = 1_000;
    admin_rate = 20.;
  }

let durable_rejoin =
  {
    steady with
    name = "durable_rejoin";
    doc_len = 100_000;
    journal = true;
    drop_every_ms = 500.;
  }

let all = [ steady; offline_peer; admin_churn; durable_rejoin ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Reduced sizes for the smoke run: every mechanism still runs. *)
let smoke w =
  {
    w with
    doc_len = min w.doc_len 2_000;
    noise_rules = min w.noise_rules 200;
    preload_coop = min w.preload_coop 200;
    preload_admin = min w.preload_admin 50;
  }

(* ----- seeded inputs ----- *)

type kind = Ins | Del | Up

(* One editing intention: a kind, a position as a fraction of the visible
   length at issue time, and a character.  The program receives the
   operation built from it against the editor's current document. *)
type intent = { kind : kind; frac : float; ch : char }

type inputs = {
  text : string;
  policy : Policy.t;
  zone : Docobj.t;  (** 10% of the initial document, restricted by churn *)
  streams : intent array array;  (** per editor site *)
  preload : intent array;
}

let rng seed tag = Random.State.make [| seed; tag |]

(* Half insertions, a quarter deletions, a quarter updates. *)
let intent r =
  let kind = match Random.State.int r 4 with 0 | 1 -> Ins | 2 -> Del | _ -> Up in
  { kind; frac = Random.State.float r 1.; ch = Char.chr (97 + Random.State.int r 26) }

let noise_rule r n =
  let lo = Random.State.int r (max 1 n) in
  let obj =
    if Random.State.bool r then Docobj.Element lo
    else Docobj.zone lo (lo + Random.State.int r 64)
  in
  let rights = List.filter (fun _ -> Random.State.bool r) Right.all in
  let rights = if rights = [] then [ Right.Insert ] else rights in
  (* subjects are users 2..129, never the two editors: a check scans
     every noise rule before the final grant decides *)
  Auth.make
    ~subjects:[ Subject.User (2 + Random.State.int r 128) ]
    ~objects:[ obj ] ~rights
    (if Random.State.bool r then Auth.Positive else Auth.Negative)

let inputs w ~seed ~ops_per_editor =
  let r = rng seed 1 in
  let text = String.init w.doc_len (fun _ -> Char.chr (97 + Random.State.int r 26)) in
  let users = if w.absent_member then [ 0; 1; 2 ] else [ 0; 1 ] in
  let r = rng seed 2 in
  let noise = List.init w.noise_rules (fun _ -> noise_rule r w.doc_len) in
  let policy =
    Policy.make ~users (noise @ [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ])
  in
  let r = rng seed 3 in
  let width = max 1 (w.doc_len / 10) in
  let lo = Random.State.int r (max 1 (w.doc_len - width)) in
  let zone = Docobj.zone lo (lo + width - 1) in
  let streams =
    Array.init 2 (fun site ->
        let r = rng seed (10 + site) in
        Array.init ops_per_editor (fun _ -> intent r))
  in
  let r = rng seed 4 in
  let preload = Array.init w.preload_coop (fun _ -> intent r) in
  { text; policy; zone; streams; preload }

(* The model-coordinate operation an intention denotes on [doc]. *)
let op_of doc i =
  let len = Tdoc.visible_length doc in
  let at n = min (n - 1) (truncate (i.frac *. float_of_int n)) in
  match i.kind with
  | Del when len > 0 -> Tdoc.del_visible doc (at len)
  | Up when len > 0 -> Tdoc.up_visible doc (at len) i.ch
  | Ins | Del | Up -> Tdoc.ins_visible doc (at (len + 1)) i.ch

(* Administrative churn: deny the user inserts in the zone (restrictive,
   undoes tentative inserts there), then lift the denial again. *)
let churn_op inp j =
  if j mod 2 = 0 then
    Admin_op.Add_auth (0, Auth.deny [ Subject.User 1 ] [ inp.zone ] [ Right.Insert ])
  else Admin_op.Del_auth 0

(* The administrator's controller with the workload's history applied:
   |L| administrative entries (noise rules added on top and removed
   again, so the policy ends where it started) and the preloaded
   requests, all born valid at the administrator. *)
let preloaded w inp =
  let c =
    Controller.create ~eq:Char.equal ~site:0 ~admin:0 ~policy:inp.policy
      (Tdoc.of_string inp.text)
  in
  let r = rng 0 5 in
  let c = ref c in
  for j = 0 to w.preload_admin - 1 do
    let op =
      if j mod 2 = 0 then Admin_op.Add_auth (0, noise_rule r w.doc_len)
      else Admin_op.Del_auth 0
    in
    match Controller.admin_update !c op with
    | Ok (c', _) -> c := c'
    | Error e -> failwith ("preload: " ^ e)
  done;
  Array.iter
    (fun i ->
      match Controller.generate !c (op_of (Controller.document !c) i) with
      | c', Controller.Accepted _ -> c := c'
      | _, Controller.Denied e -> failwith ("preload: " ^ e))
    inp.preload;
  !c
