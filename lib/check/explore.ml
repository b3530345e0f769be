open Dce_ot
open Dce_core
module Metrics = Dce_obs.Metrics
module Convergence = Dce_sim.Convergence
module Replica = Dce_store.Replica
module Proto = Dce_wire.Proto
module Codec = Dce_wire.Codec

type mid = Mcoop of Request.id | Madmin of int | Mbeacon of int * int

type event = Act of Subject.user | Dlv of Subject.user * mid

type stats = {
  states : int;
  distinct : int;
  dedup_hits : int;
  sleep_skips : int;
  frontiers : int;
  peak_inflight : int;
  max_depth : int;
  elapsed_s : float;
}

type violation = {
  schedule : event list;
  report : Convergence.report;
  detail : string;
}

type outcome = Exhausted | Found of violation | Capped

type mutant = No_clamp | Cut_unstable | Collapse_live

(* ----- the transition system ----- *)

type msg = {
  mid : mid;
  frame : string;  (* the bytes the wire carries, decoded at delivery *)
  pending : Subject.user list;  (* destinations not yet delivered to *)
}

(* What the site looked like the instant it died — captured so recovery
   can be compared against it.  [d_clean] records whether any
   *unjournaled* state change (a received beacon, a compaction) happened
   since the last checkpoint: when it did not, recovery must be
   fingerprint-exact; content fingerprint and clock equality are owed in
   either case (beacon tables and the compacted window are soft state,
   the document/policy/version are not). *)
type down = {
  d_fp : string;
  d_cfp : string;
  d_clock : Vclock.t;
  d_clean : bool;
}

type jsite = {
  jn : Journal.t;  (* the site's durable image (value semantics) *)
  jdown : down option;  (* [Some _]: crashed, awaiting [Recover] *)
  jclean : bool;  (* no unjournaled mutation since last checkpoint *)
}

type node = {
  ctrls : (Subject.user * char Controller.t) list;  (* scenario site order *)
  msgs : msg list;  (* in flight, creation order; fully delivered dropped *)
  scripts : (Subject.user * Scenario.action list) list;
  (* per-site beacon sequence numbers — per-site (not global) so that
     beacon actions at distinct sites still commute, which the sleep-set
     independence relation below relies on *)
  bseq : (Subject.user * int) list;
  (* per-site durable journals; empty unless the scenario sets
     [persist], in which case every site's replica journals through the
     real store stack and Crash/Recover become executable *)
  journals : (Subject.user * jsite) list;
  (* every administrative request as first issued: the security oracles'
     ground truth, which no site's cut may shorten *)
  ghost : Admin_log.t;
}

let mid_of_message = function
  | Controller.Coop q -> Mcoop q.Request.id
  | Controller.Admin r -> Madmin r.Admin_op.version

let mid_to_string = function
  | Mcoop id -> Printf.sprintf "c%d.%d" id.Request.site id.Request.serial
  | Madmin v -> Printf.sprintf "a%d" v
  | Mbeacon (s, k) -> Printf.sprintf "b%d.%d" s k

let event_to_string = function
  | Act u -> Printf.sprintf "g%d" u
  | Dlv (u, m) -> Printf.sprintf "d%d:%s" u (mid_to_string m)

let event_of_string s =
  let fail () = Error (Printf.sprintf "cannot parse event %S" s) in
  try
    if String.length s = 0 then fail ()
    else if s.[0] = 'g' then Ok (Act (int_of_string (String.sub s 1 (String.length s - 1))))
    else
      match String.index_opt s ':' with
      | None -> fail ()
      | Some i when s.[0] = 'd' && i + 1 < String.length s ->
        let u = int_of_string (String.sub s 1 (i - 1)) in
        let m = String.sub s (i + 1) (String.length s - i - 1) in
        (match m.[0] with
         | 'a' -> Ok (Dlv (u, Madmin (int_of_string (String.sub m 1 (String.length m - 1)))))
         | 'c' ->
           (match String.split_on_char '.' (String.sub m 1 (String.length m - 1)) with
            | [ site; serial ] ->
              Ok
                (Dlv
                   ( u,
                     Mcoop
                       { Request.site = int_of_string site; serial = int_of_string serial }
                   ))
            | _ -> fail ())
         | 'b' ->
           (match String.split_on_char '.' (String.sub m 1 (String.length m - 1)) with
            | [ site; k ] ->
              Ok (Dlv (u, Mbeacon (int_of_string site, int_of_string k)))
            | _ -> fail ())
         | _ -> fail ())
      | Some _ -> fail ()
  with Failure _ -> fail ()

let schedule_to_string events = String.concat " " (List.map event_to_string events)

let schedule_of_string s =
  String.split_on_char ' ' (String.map (function ',' | '\n' | '\t' -> ' ' | c -> c) s)
  |> List.filter (fun w -> w <> "")
  |> List.fold_left
       (fun acc w ->
         match (acc, event_of_string w) with
         | Error _, _ -> acc
         | _, (Error _ as e) -> e
         | Ok evs, Ok ev -> Ok (ev :: evs))
       (Ok [])
  |> Result.map List.rev

let initial scenario =
  let ctrls = Scenario.controllers scenario in
  {
    ghost =
      Admin_log.create ~admin:(List.hd scenario.Scenario.sites) scenario.Scenario.policy;
    ctrls;
    msgs = [];
    scripts = List.filter (fun (_, s) -> s <> []) scenario.Scenario.scripts;
    bseq = [];
    journals =
      (match scenario.Scenario.persist with
       | None -> []
       | Some config ->
         List.map
           (fun (u, c) ->
             (u, { jn = Journal.create ~config c; jdown = None; jclean = true }))
           ctrls);
  }

let set_ctrl u c node =
  {
    node with
    ctrls = List.map (fun (v, c') -> if v = u then (v, c) else (v, c')) node.ctrls;
  }

let set_jsite u j node =
  {
    node with
    journals = List.map (fun (v, j') -> if v = u then (v, j) else (v, j')) node.journals;
  }

let is_down node u =
  match List.assoc_opt u node.journals with
  | Some { jdown = Some _; _ } -> true
  | _ -> false

let all_alive node = List.for_all (fun (_, j) -> j.jdown = None) node.journals

(* Run [f] on site [u] as the shipped replica: over its journal image
   when the site journals (a checkpoint makes the durable image exact
   again), bare otherwise.  Returns the successor node and [f]'s result. *)
let on_replica node u f =
  let c = List.assoc u node.ctrls in
  match List.assoc_opt u node.journals with
  | None ->
    let r = Replica.create c in
    let x = f r in
    (set_ctrl u (Replica.controller r) node, x)
  | Some j ->
    let jn, c, x, checkpointed = Journal.with_replica j.jn c f in
    (set_ctrl u c (set_jsite u { j with jn; jclean = checkpointed || j.jclean } node), x)

let dirty_journal node u =
  match List.assoc_opt u node.journals with
  | None -> node
  | Some j -> set_jsite u { j with jclean = false } node

let put_in_flight node src payloads =
  let dests = List.filter (fun v -> v <> src) (List.map fst node.ctrls) in
  let fresh =
    List.map
      (fun m ->
        { mid = mid_of_message m; frame = Proto.Char_proto.encode_message m; pending = dests })
      payloads
  in
  let issue ghost = function
    | Controller.Admin r when r.Admin_op.version > Admin_log.version ghost -> (
      match Admin_log.append ghost r with
      | Ok ghost -> ghost
      | Error e -> failwith ("administrative request issued out of order: " ^ e))
    | _ -> ghost
  in
  {
    node with
    msgs = node.msgs @ fresh;
    ghost = List.fold_left issue node.ghost payloads;
  }

(* The [Cut_unstable] mutant: the shipped cut of L, bounded by the
   site's own version instead of its stable version. *)
let cut_unstable c =
  let st = Controller.dump c in
  match
    Admin_log.of_requests ~admin:st.Controller.st_initial_admin
      st.Controller.st_initial_policy st.Controller.st_admin_requests
  with
  | Error e -> failwith e
  | Ok log -> (
    let log = Admin_log.compact log ~upto:(Controller.version c) in
    match
      Controller.load ~eq:Char.equal
        { st with Controller.st_admin_requests = Admin_log.requests log }
    with
    | Ok c -> c
    | Error e -> failwith e)

(* The [Collapse_live] mutant: the shipped collapse, told to keep no
   cell, so the cells live log entries touch collapse too. *)
let collapse_live c =
  let st = Controller.dump c in
  match
    Controller.load ~eq:Char.equal
      { st with Controller.st_doc = Tdoc.collapse ~keep:[||] st.Controller.st_doc }
  with
  | Ok c -> c
  | Error e -> failwith e

(* Execute one event.  Every step is a deterministic function of the
   node, so a schedule identifies a unique run.  Returns the successor
   and a human-readable line describing what happened.  Every input
   runs through the site's shipped replica ({!on_replica}), which
   decides what is recorded, checkpointed and clamped.  [mutant]
   deliberately miscompiles one discipline (for checker-sanity runs):
   [No_clamp] compacts with [Controller.compact] instead of the
   replica, skipping the durability clamp and the pre-compaction
   checkpoint; [Cut_unstable] re-cuts L at the site's own version after
   the replica compacts; [Collapse_live] re-collapses the document with
   nothing kept after the replica compacts. *)
let exec ?mutant node = function
  | Act u ->
    let action, rest =
      match List.assoc u node.scripts with
      | a :: rest -> (a, rest)
      | [] | (exception Not_found) -> invalid_arg "Explore.exec: no script step"
    in
    let node =
      {
        node with
        scripts =
          List.filter_map
            (fun (v, s) ->
              if v <> u then Some (v, s) else if rest = [] then None else Some (v, rest))
            node.scripts;
      }
    in
    let c = List.assoc u node.ctrls in
    (match action with
     | Scenario.Edit e ->
       let op = Scenario.op_of_edit (Controller.document c) e in
       (match on_replica node u (fun r -> Replica.generate r op) with
        | node, Ok m ->
          ( put_in_flight node u [ m ],
            Format.asprintf "site %d: generate %a -> %s" u (Op.pp Fmt.char) op
              (mid_to_string (mid_of_message m)) )
        | node, Error reason ->
          ( node,
            Format.asprintf "site %d: generate %a denied locally (%s)" u (Op.pp Fmt.char)
              op reason ))
     | Scenario.Policy op ->
       (match on_replica node u (fun r -> Replica.admin r op) with
        | node, Ok m ->
          ( put_in_flight node u [ m ],
            Format.asprintf "site %d: admin %a -> %s" u Admin_op.pp op
              (mid_to_string (mid_of_message m)) )
        | _, Error e ->
          failwith
            (Format.asprintf "administrative script action %a failed: %s" Admin_op.pp op e))
     | Scenario.Beacon ->
       let clock, version = Controller.beacon c in
       let k = (match List.assoc_opt u node.bseq with Some k -> k | None -> 0) + 1 in
       let mid = Mbeacon (u, k) in
       let dests = List.filter (fun v -> v <> u) (List.map fst node.ctrls) in
       let frame =
         Proto.encode_frontier [ { Proto.b_site = u; b_clock = clock; b_version = version } ]
       in
       ( {
           node with
           bseq = (u, k) :: List.remove_assoc u node.bseq;
           msgs = node.msgs @ [ { mid; frame; pending = dests } ];
         },
         Printf.sprintf "site %d: beacon -> %s" u (mid_to_string mid) )
     | Scenario.Compact ->
       (* compaction is unjournaled: the durable image goes stale *)
       let node, how =
         match mutant with
         | Some No_clamp -> (set_ctrl u (Controller.compact c) node, "UNCLAMPED ")
         | Some Cut_unstable ->
           let node, () = on_replica node u Replica.compact in
           (set_ctrl u (cut_unstable (List.assoc u node.ctrls)) node, "")
         | Some Collapse_live ->
           let node, () = on_replica node u Replica.compact in
           (set_ctrl u (collapse_live (List.assoc u node.ctrls)) node, "")
         | None -> (fst (on_replica node u Replica.compact), "")
       in
       ( dirty_journal node u,
         Printf.sprintf "site %d: compact %s(window %d)" u how
           (Controller.window_len (List.assoc u node.ctrls)) )
     | Scenario.Crash ->
       (match List.assoc_opt u node.journals with
        | None ->
          failwith
            (Printf.sprintf "site %d: crash action but the scenario has no persist config"
               u)
        | Some j ->
          let d =
            {
              d_fp = Proto.fingerprint Proto.char_codec c;
              d_cfp = Proto.content_fingerprint Proto.char_codec c;
              d_clock = Controller.clock c;
              d_clean = j.jclean;
            }
          in
          let jn = Journal.crash j.jn in
          (* fallback oracle: with the newest snapshot corrupted,
             recovery must rebuild from the previous generation and its
             log — reaching *exactly* the durable cut, because wal-(N-1)
             holds precisely the inputs between checkpoints N-1 and N.
             An unclamped compaction before checkpoint N would have made
             that pair unreplayable. *)
          (match Journal.corrupt_newest_snapshot jn with
           | None -> ()  (* fewer than two generations: no fallback pair yet *)
           | Some corrupted ->
             (match Journal.recover corrupted with
              | Error e ->
                failwith
                  (Printf.sprintf
                     "site %d: fallback recovery (corrupt newest snapshot) failed: %s" u e)
              | Ok (_, r) ->
                let cut = Option.value ~default:Vclock.empty (Journal.cut jn) in
                let rclock = Controller.clock r.Journal.controller in
                if not (Vclock.equal rclock cut) then
                  failwith
                    (Format.asprintf
                       "site %d: fallback recovery reached clock (%a), durable cut is \
                        (%a) — the previous snapshot + its log do not reproduce the \
                        newest checkpoint"
                       u Vclock.pp rclock Vclock.pp cut)));
          ( set_jsite u { j with jn; jdown = Some d } node,
            Printf.sprintf "site %d: crash (kill -9; %d snapshot generations durable)" u
              (List.length (Journal.generations jn)) ))
     | Scenario.Recover ->
       (match List.assoc_opt u node.journals with
        | Some { jn; jdown = Some d; jclean = _ } ->
          (match Journal.recover jn with
           | Error e -> failwith (Printf.sprintf "site %d: recovery failed: %s" u e)
           | Ok (jn, r) ->
             let c = r.Journal.controller in
             let rclock = Controller.clock c in
             if not (Vclock.equal rclock d.d_clock) then
               failwith
                 (Format.asprintf
                    "site %d: recovered clock (%a) differs from pre-crash clock (%a)" u
                    Vclock.pp rclock Vclock.pp d.d_clock);
             if Proto.content_fingerprint Proto.char_codec c <> d.d_cfp then
               failwith
                 (Printf.sprintf
                    "site %d: recovered document/policy/version differ from the \
                     pre-crash state (replay through the store diverged)"
                    u);
             if d.d_clean && Proto.fingerprint Proto.char_codec c <> d.d_fp then
               failwith
                 (Printf.sprintf
                    "site %d: recovery not fingerprint-exact although nothing \
                     unjournaled (beacon/compaction) happened since the last checkpoint"
                    u);
             (* the recovered state is, by construction, exactly what a
                future replay reproduces — the site is clean again *)
             ( set_ctrl u c (set_jsite u { jn; jdown = None; jclean = true } node),
               Printf.sprintf "site %d: recover (replayed %d, %s)" u r.Journal.replayed
                 (if d.d_clean then "fingerprint-exact" else "content-exact") ))
        | _ -> failwith (Printf.sprintf "site %d: recover without a preceding crash" u)))
  | Dlv (u, mid) ->
    let msg =
      match List.find_opt (fun m -> m.mid = mid) node.msgs with
      | Some m when List.mem u m.pending -> m
      | _ -> invalid_arg "Explore.exec: delivery not enabled"
    in
    let msgs =
      List.filter_map
        (fun m ->
          if m.mid <> mid then Some m
          else
            match List.filter (fun v -> v <> u) m.pending with
            | [] -> None
            | pending -> Some { m with pending })
        node.msgs
    in
    let node = { node with msgs } in
    (* the frame is decoded as a peer decodes a hub's relay *)
    let undecodable e =
      failwith (Printf.sprintf "frame %s does not decode: %s" (mid_to_string mid) e)
    in
    let node, emitted =
      match mid with
      | Mcoop _ | Madmin _ -> (
        match Proto.Char_proto.decode_message msg.frame with
        | Error e -> undecodable e
        | Ok m -> (
          match on_replica node u (fun r -> Replica.receive r m) with
          | node, Ok emitted -> (node, emitted)
          | _, Error e -> failwith ("receive failed: " ^ e)))
      | Mbeacon _ -> (
        match Proto.decode_frontier msg.frame with
        | Error e -> undecodable e
        | Ok beacons ->
          (* beacons are soft state and never journaled: a bare replica
             absorbs them, and the durable image goes stale *)
          let r = Replica.create (List.assoc u node.ctrls) in
          Replica.absorb r beacons;
          (dirty_journal (set_ctrl u (Replica.controller r) node) u, []))
    in
    let node = put_in_flight node u emitted in
    ( node,
      Format.asprintf "deliver %s -> site %d%s" (mid_to_string mid) u
        (match emitted with
         | [] -> ""
         | ms ->
           Printf.sprintf " (emits %s)"
             (String.concat ", " (List.map (fun m -> mid_to_string (mid_of_message m)) ms)))
    )

(* Enabled events, in a fixed deterministic order: script steps in site
   order, then deliveries in message creation order and destination
   order.  A down site takes no deliveries (its process is gone — the
   message waits in flight); its script stays enabled, the next step
   being its [Recover]. *)
let enabled node =
  List.map (fun (u, _) -> Act u) node.scripts
  @ List.concat_map
      (fun m ->
        List.filter_map
          (fun u -> if is_down node u then None else Some (Dlv (u, m.mid)))
          m.pending)
      node.msgs

let in_flight node =
  List.fold_left (fun acc m -> acc + List.length m.pending) 0 node.msgs

(* ----- canonical state fingerprint -----

   [Controller.t] holds closures (the element equality, the trace sink),
   so structural hashing is out.  Each site is hashed as its shipped
   state encoding ({!Proto.fingerprint}: [encode_state] of
   [Controller.dump]), which is complete — [Controller.load] restores a
   site from it — and canonical, whatever the document's chunking.
   In-flight messages are hashed as their frames, a multiset sorted by
   message identity (two event orders that produce the same messages in
   a different creation order reach the same fingerprint); the ghost log
   as encoded administrative requests. *)

let fingerprint node =
  let b = Buffer.create 1024 in
  List.iter
    (fun (_, c) -> Buffer.add_string b (Proto.fingerprint Proto.char_codec c))
    node.ctrls;
  List.map (fun m -> (mid_to_string m.mid, m.frame, List.sort compare m.pending)) node.msgs
  |> List.sort compare
  |> Codec.put_list
       (fun b (mid, frame, pending) ->
         Codec.put_string b mid;
         Codec.put_string b frame;
         Codec.put_list Codec.put_varint b pending)
       b;
  Codec.put_list (Codec.put_pair Codec.put_varint Codec.put_varint) b
    (List.map (fun (u, s) -> (u, List.length s)) node.scripts);
  Codec.put_list Proto.put_admin_request b (Admin_log.requests node.ghost);
  Codec.put_list (Codec.put_pair Codec.put_varint Codec.put_varint) b
    (List.sort compare node.bseq);
  (* the durable image is part of the state: two schedules that leave
     different bytes on "disk" must not be deduplicated, or crash
     branches would be pruned unsoundly *)
  List.iter
    (fun (_, j) ->
      Codec.put_string b (Journal.fingerprint j.jn);
      Codec.put_option Codec.put_bool b (Option.map (fun d -> d.d_clean) j.jdown);
      Codec.put_bool b j.jclean)
    node.journals;
  Digest.string (Buffer.contents b)

(* ----- the frontier oracle -----

   Checked at every quiescent frontier (no message in flight).
   {!Convergence.check} covers the replicated-state oracles; on top of
   it, the *security* oracle decides each request's legality from the
   administrative log's ground truth and compares it with the fate the
   sites agreed on — this is what catches the Fig. 3 hole, where every
   site consistently accepts a request the policy history forbids.

   Legality of a cooperative request generated at policy version [v]:
   no version in [[v, hi]] denies the right its generation form
   exercises, where [hi] is the version *preceding its validation* when
   the administrator validated it (validation totally orders the
   request before any later revocation — the Fig. 4 mechanism), and the
   current version otherwise.  Requests issued by the administrator of
   their generation version are legal by authority.  Every answer comes
   from the node's ghost log, never from a site's (cuttable) L. *)

let denial_between log ~lo ~hi ~user ~right ~pos =
  let rec go v =
    if v > hi then None
    else
      match Admin_log.policy_at log v with
      | None -> None
      | Some p -> if Policy.check p ~user ~right ~pos then go (v + 1) else Some v
  in
  go (max 0 lo)

let validate_version log id =
  List.find_map
    (fun (r : Admin_op.request) ->
      match r.Admin_op.op with
      | Admin_op.Validate id' when Request.id_equal id id' -> Some r.Admin_op.version
      | _ -> None)
    (Admin_log.requests log)

let legal log (q : char Request.t) =
  let user = q.Request.id.Request.site in
  match Right.of_op q.Request.gen_op with
  | None -> true
  | Some right ->
    if Admin_log.admin_at log q.Request.policy_version = Some user then true
    else
      let hi =
        match validate_version log q.Request.id with
        | Some v -> v - 1
        | None -> Admin_log.version log
      in
      let pos = Op.pos q.Request.gen_op in
      denial_between log ~lo:q.Request.policy_version ~hi ~user ~right ~pos = None

let security_violation log ctrls =
  match ctrls with
  | [] -> None
  | (_, c0) :: _ ->
    List.find_map
      (fun (q : char Request.t) ->
        match (q.Request.flag, legal log q) with
        | Request.Valid, false ->
          Some
            (Format.asprintf
               "accepted-illegal: request %a (%a by user %d at version %d) is valid at \
                every site but a version in its missed interval denies it"
               Request.pp_id q.Request.id (Op.pp Fmt.char) q.Request.gen_op
               q.Request.id.Request.site
               q.Request.policy_version)
        | Request.Invalid, true ->
          Some
            (Format.asprintf
               "rejected-legal: request %a (%a by user %d at version %d) was invalidated \
                although every policy version it crossed grants it"
               Request.pp_id q.Request.id (Op.pp Fmt.char) q.Request.gen_op
               q.Request.id.Request.site
               q.Request.policy_version)
        | _ -> None)
      (Oplog.requests (Controller.oplog c0))

(* Every site's L against the ghost: the same version, the same policy
   and administrator at every version (so no cut dropped an entry that
   changes either), and the same requests above the site's own cut. *)
let admin_log_violation ghost ctrls =
  let policy_key p = (Policy.users p, Policy.groups p, Policy.objects p, Policy.auths p) in
  let encoded = Option.map (Codec.to_string (Codec.put_list Proto.put_admin_request)) in
  List.find_map
    (fun (u, c) ->
      let log = Controller.admin_log c in
      let v = Admin_log.version log in
      let differs_at w =
        Option.map policy_key (Admin_log.policy_at log w)
        <> Option.map policy_key (Admin_log.policy_at ghost w)
        || Admin_log.admin_at log w <> Admin_log.admin_at ghost w
      in
      let cut = Admin_log.cut log in
      if v <> Admin_log.version ghost then
        Some
          (Printf.sprintf "site %d is at version %d, but %d administrative requests \
                           were issued" u v (Admin_log.version ghost))
      else
        match List.find_opt differs_at (List.init (v + 1) Fun.id) with
        | Some w ->
          Some
            (Printf.sprintf
               "site %d: policy or administrator at version %d differs from the \
                administrative history as issued" u w)
        | None ->
          if
            encoded (Admin_log.suffix log cut) <> encoded (Admin_log.suffix ghost cut)
          then
            Some
              (Printf.sprintf
                 "site %d: administrative requests above its cut v%d differ from \
                  those issued" u cut)
          else None)
    ctrls

(* The PR 9 cross-layer invariant, checked at *every* explored state
   (not only frontiers): a journaled site must never garbage-collect
   past its durable cut, or a crash in that state would recover a
   snapshot whose window cannot replay the log ("durability leads, GC
   follows").  This is the oracle that catches the [No_clamp] mutant
   directly, whatever the interleaving. *)
let durability_violation node =
  List.find_map
    (fun (u, j) ->
      match j.jdown with
      | Some _ -> None  (* the live controller is gone; nothing to GC *)
      | None ->
        let c = List.assoc u node.ctrls in
        let cut = Option.value ~default:Vclock.empty (Journal.cut j.jn) in
        let gc = Controller.compacted_upto c in
        if Vclock.leq gc cut then None
        else
          Some
            (Format.asprintf
               "site %d: durability invariant broken — window compacted to (%a), past \
                the durable cut (%a); a crash here leaves the fallback snapshot unable \
                to replay its log"
               u Vclock.pp gc Vclock.pp cut))
    node.journals

(* Checked at every explored state: a site may cut L only at versions
   every group member has applied, or a member could never be sent what
   it lacks (catch-up and delta would have to ship a gapped suffix).
   Members are the cutting site's registered users. *)
let admin_cut_violation node =
  List.find_map
    (fun (u, c) ->
      let cut = Admin_log.cut (Controller.admin_log c) in
      let members = Policy.users (Controller.policy c) in
      List.find_map
        (fun (w, cw) ->
          if w <> u && List.mem w members && Controller.version cw < cut then
            Some
              (Printf.sprintf
                 "site %d cut its administrative log at v%d, but member %d is at v%d \
                  and can no longer be sent what it lacks"
                 u cut w (Controller.version cw))
          else None)
        node.ctrls)
    node.ctrls

let state_violation node =
  match durability_violation node with
  | Some _ as v -> v
  | None -> admin_cut_violation node

let frontier_violation node =
  let ctrls = node.ctrls in
  let cs = List.map snd ctrls in
  let report = Convergence.check cs in
  if not (Convergence.ok report) then
    let detail =
      match Convergence.explain cs with
      | Some d -> d
      | None -> Format.asprintf "%a" Convergence.pp report
    in
    Some (report, detail)
  else
    match admin_log_violation node.ghost ctrls with
    | Some d -> Some (report, d)
    | None -> (
      match security_violation node.ghost ctrls with
      | Some d -> Some (report, d)
      | None -> None)

(* ----- sleep-set DFS with state caching ----- *)

let site_of_event = function Act u -> u | Dlv (u, _) -> u

(* Events at distinct sites commute: they touch different controllers,
   and the in-flight set is order-canonical.  Events at one site never
   commute (local execution order is semantically significant). *)
let independent a b = site_of_event a <> site_of_event b

let subset a b = List.for_all (fun x -> List.mem x b) a

exception Stop of outcome

let run ?metrics ?(max_states = 1_000_000) ?mutant scenario =
  let t0 = Sys.time () in
  let states = ref 0
  and distinct = ref 0
  and dedup_hits = ref 0
  and sleep_skips = ref 0
  and frontiers = ref 0
  and peak_inflight = ref 0
  and max_depth = ref 0 in
  let tick name =
    match metrics with
    | None -> fun () -> ()
    | Some m ->
      let c = Metrics.counter m ("check." ^ name) in
      fun () -> Metrics.incr c
  in
  let m_states = tick "states"
  and m_distinct = tick "distinct"
  and m_dedup = tick "dedup_hits"
  and m_sleep = tick "sleep_skips"
  and m_frontiers = tick "frontiers" in
  let visited : (string, event list) Hashtbl.t = Hashtbl.create 4096 in
  let rec explore node sleep path depth =
    incr states;
    m_states ();
    if !states > max_states then raise (Stop Capped);
    if depth > !max_depth then max_depth := depth;
    let inflight = in_flight node in
    if inflight > !peak_inflight then peak_inflight := inflight;
    let proceed sleep =
      (match state_violation node with
       | Some detail ->
         let report = Convergence.check (List.map snd node.ctrls) in
         raise (Stop (Found { schedule = List.rev path; report; detail }))
       | None -> ());
      if node.msgs = [] && all_alive node then begin
        incr frontiers;
        m_frontiers ();
        match frontier_violation node with
        | Some (report, detail) ->
          raise (Stop (Found { schedule = List.rev path; report; detail }))
        | None -> ()
      end;
      let current_sleep = ref sleep in
      List.iter
        (fun e ->
          if List.mem e !current_sleep then begin
            incr sleep_skips;
            m_sleep ()
          end
          else begin
            let child, _ =
              try exec ?mutant node e
              with Failure msg | Document.Edit_conflict msg ->
                let report = Convergence.check (List.map snd node.ctrls) in
                raise
                  (Stop
                     (Found
                        {
                          schedule = List.rev (e :: path);
                          report;
                          detail =
                            Printf.sprintf "crash: %s while executing %s" msg
                              (event_to_string e);
                        }))
            in
            explore child
              (List.filter (fun t -> independent t e) !current_sleep)
              (e :: path) (depth + 1);
            current_sleep := e :: !current_sleep
          end)
        (enabled node)
    in
    let fp = fingerprint node in
    match Hashtbl.find_opt visited fp with
    | Some stored when subset stored sleep ->
      incr dedup_hits;
      m_dedup ()
    | Some stored ->
      (* Reached again with a sleep set that allows events the earlier
         visit slept through: re-explore with the intersection (the only
         events *both* visits may soundly skip), which keeps the
         combination of sleep sets and state caching exhaustive. *)
      let inter = List.filter (fun e -> List.mem e sleep) stored in
      Hashtbl.replace visited fp inter;
      proceed inter
    | None ->
      incr distinct;
      m_distinct ();
      Hashtbl.add visited fp sleep;
      proceed sleep
  in
  let outcome =
    try
      explore (initial scenario) [] [] 0;
      Exhausted
    with Stop o -> o
  in
  ( outcome,
    {
      states = !states;
      distinct = !distinct;
      dedup_hits = !dedup_hits;
      sleep_skips = !sleep_skips;
      frontiers = !frontiers;
      peak_inflight = !peak_inflight;
      max_depth = !max_depth;
      elapsed_s = Sys.time () -. t0;
    } )

(* ----- replay ----- *)

type replay = {
  controllers : (Subject.user * char Controller.t) list;
  executed : event list;
  skipped : int;
  messages : int;
  log : string list;
  violation : string option;
}

let replay ?(drain = true) ?mutant scenario schedule =
  let seen = Hashtbl.create 16 in
  let messages = ref 0 in
  let node = ref (initial scenario) in
  let executed = ref [] and skipped = ref 0 and log = ref [] in
  let crashed = ref None in
  let count_msgs n =
    List.iter
      (fun m ->
        if not (Hashtbl.mem seen m.mid) then begin
          Hashtbl.add seen m.mid ();
          incr messages
        end)
      n.msgs
  in
  let step e =
    executed := e :: !executed;
    match exec ?mutant !node e with
    | n, line ->
      node := n;
      count_msgs n;
      log := line :: !log;
      (* latch the invariant like the explorer does: a later checkpoint
         could advance the cut and mask the violation *)
      if !crashed = None then
        crashed := state_violation n
    | exception (Failure msg | Document.Edit_conflict msg) ->
      crashed :=
        Some (Printf.sprintf "crash: %s while executing %s" msg (event_to_string e))
  in
  List.iter
    (fun e ->
      if !crashed <> None then ()
      else if List.mem e (enabled !node) then step e
      else incr skipped)
    schedule;
  let rec drain_loop () =
    if !crashed = None && drain then
      match
        List.find_opt (function Dlv _ -> true | Act _ -> false) (enabled !node)
      with
      | Some e ->
        step e;
        drain_loop ()
      | None -> ()
  in
  drain_loop ();
  let violation =
    match !crashed with
    | Some _ as c -> c
    | None ->
      if !node.msgs <> [] || not (all_alive !node) then None
      else Option.map snd (frontier_violation !node)
  in
  {
    controllers = !node.ctrls;
    executed = List.rev !executed;
    skipped = !skipped;
    messages = !messages;
    log = List.rev !log;
    violation;
  }
