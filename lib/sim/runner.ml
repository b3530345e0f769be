open Dce_ot
open Dce_core

type stats = {
  edits_generated : int;
  edits_denied_locally : int;
  admin_requests : int;
  restrictive_requests : int;
  messages_delivered : int;
  invalidated : int;
  validated : int;
}

type result = {
  controllers : char Controller.t list;
  stats : stats;
  final_time : int;
}

type state = {
  controllers : char Controller.t array; (* index = site id *)
  net : char Controller.message Net.t;
  rng : Rng.t;
  time : int;
  next_edit : int array; (* per site; sites 1..n are users, 0 is admin *)
  next_admin : int option;
  stats : stats;
}

let zero_stats =
  {
    edits_generated = 0;
    edits_denied_locally = 0;
    admin_requests = 0;
    restrictive_requests = 0;
    messages_delivered = 0;
    invalidated = 0;
    validated = 0;
  }

(* Sample an operation in visible coordinates from the profile's mix.
   Deletions and updates need a non-empty visible document. *)
let sample_op rng (m : Workload.op_mix) doc =
  let n = Tdoc.visible_length doc in
  let letter rng =
    let i, rng = Rng.int rng 26 in
    (Char.chr (97 + i), rng)
  in
  let choice, rng =
    if n = 0 then (`Ins, rng)
    else
      Rng.weighted rng [ (m.Workload.ins, `Ins); (m.Workload.del, `Del); (m.Workload.up, `Up) ]
  in
  match choice with
  | `Ins ->
    let p, rng = Rng.int rng (n + 1) in
    let c, rng = letter rng in
    (Tdoc.ins_visible doc p c, rng)
  | `Del ->
    let p, rng = Rng.int rng n in
    (Tdoc.del_visible doc p, rng)
  | `Up ->
    let p, rng = Rng.int rng n in
    let c, rng = letter rng in
    (Tdoc.up_visible doc p (Char.uppercase_ascii c), rng)

(* The simulated administrator toggles per-user denials: a restrictive
   action inserts a negative authorization for one user and one right at
   the top of the policy; a permissive action removes one of the negative
   authorizations currently present. *)
let sample_admin_op rng ~revoke_bias ~handoff_prob ~users policy =
  let handoff, rng = Rng.bool rng handoff_prob in
  if handoff then
    let u, rng = Rng.pick rng users in
    (Admin_op.Transfer_admin u, rng)
  else
  let negatives =
    List.filteri (fun _ a -> Auth.is_restrictive a) (Policy.auths policy)
  in
  let indices_of_negatives =
    List.filteri (fun _ _ -> true) (Policy.auths policy)
    |> List.mapi (fun i a -> (i, a))
    |> List.filter (fun (_, a) -> Auth.is_restrictive a)
    |> List.map fst
  in
  let restrictive, rng = Rng.bool rng revoke_bias in
  if restrictive || negatives = [] then begin
    let u, rng = Rng.pick rng users in
    let right, rng = Rng.pick rng [ Right.Insert; Right.Delete; Right.Update ] in
    (Admin_op.Add_auth (0, Auth.deny [ Subject.User u ] [ Docobj.Whole ] [ right ]), rng)
  end
  else
    let i, rng = Rng.pick rng indices_of_negatives in
    (Admin_op.Del_auth i, rng)

let pp_msg ppf = function
  | Controller.Coop q -> Request.pp Fmt.char ppf q
  | Controller.Admin r -> Admin_op.pp_request ppf r

module M = Dce_obs.Metrics
module T = Dce_obs.Trace

let run ?trace ?(features = Controller.secure) ?policy ?sink ?metrics
    (p : Workload.profile) ~seed =
  let tr fmt =
    match trace with
    | None -> Format.ifprintf Format.std_formatter fmt
    | Some ppf -> Format.fprintf ppf fmt
  in
  let nsites = p.Workload.users + 1 in
  let sites = List.init nsites Fun.id in
  let users = List.tl sites in
  let policy =
    match policy with
    | Some pol -> pol
    | None ->
      Policy.make ~users:sites [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
  in
  (* Telemetry.  The registry mirrors the returned [stats]; the
     [invalidated]/[validated] fields are derived from the controller's
     own trace events at site 0 (not hand-kept counts), so the stats and
     the telemetry stream cannot disagree. *)
  let metrics = match metrics with Some m -> m | None -> M.create () in
  let m_invalidated = M.counter metrics "controller.invalidated"
  and m_validated = M.counter metrics "controller.validated"
  and m_denied_local = M.counter metrics "controller.denied_local"
  and m_edits = M.counter metrics "sim.edits_generated"
  and m_delivered = M.counter metrics "net.delivered"
  and m_latency = M.histogram metrics "net.latency_vms"
  and m_queue = M.histogram metrics "net.queue_depth"
  and m_deliver_ns = M.histogram metrics "sim.deliver_ns"
  and m_generate_ns = M.histogram metrics "sim.generate_ns" in
  let invalidated = ref 0 and validated = ref 0 in
  let counting =
    T.callback (fun e ->
        if e.T.site = 0 then
          match e.T.kind with
          | T.Invalidate _ | T.Retroactive_undo _ ->
            incr invalidated;
            M.incr m_invalidated
          | T.Validate _ | T.Deliver { valid = true; _ } | T.Generate { valid = true; _ }
            ->
            incr validated;
            M.incr m_validated
          | _ -> ())
  in
  let sink = match sink with None -> counting | Some s -> T.tee counting s in
  let doc0 = Tdoc.of_string p.Workload.initial_text in
  let controllers =
    Array.init nsites (fun i ->
        Controller.create ~eq:Char.equal ~features ~trace:sink ~site:i ~admin:0 ~policy
          doc0)
  in
  let broadcast_from st src msgs =
    List.fold_left
      (fun st m ->
        (let c = st.controllers.(src) in
         T.emit sink ~site:src ~clock:(Controller.clock c)
           ~version:(Controller.version c)
           (T.Broadcast
              {
                targets = nsites - 1;
                coop = (match m with Controller.Coop _ -> true | Controller.Admin _ -> false);
              }));
        let net, rng = Net.broadcast st.net st.rng ~now:st.time ~src m in
        { st with net; rng })
      st msgs
  in
  let rng = Rng.of_int seed in
  let schedule rng (lo, hi) now =
    let d, rng = Rng.in_range rng lo hi in
    (now + d, rng)
  in
  let rng, next_edit =
    let r = ref rng in
    let arr =
      Array.init nsites (fun i ->
          if i = 0 then max_int (* the administrator does not edit in profiles *)
          else begin
            let t, r' = schedule !r p.Workload.edit_interval 0 in
            r := r';
            t
          end)
    in
    (!r, arr)
  in
  let next_admin, rng =
    match p.Workload.admin_interval with
    | None -> (None, rng)
    | Some iv ->
      let t, rng = schedule rng iv 0 in
      (Some t, rng)
  in
  let st =
    ref
      {
        controllers;
        net = Net.create ~fifo:p.Workload.fifo ~latency:p.Workload.latency ~sites ();
        rng;
        time = 0;
        next_edit;
        next_admin;
        stats = zero_stats;
      }
  in
  let deliver_one (d : _ Net.delivery) =
    let s = !st in
    let time = d.Net.at and dst = d.Net.dst and msg = d.Net.msg in
    tr "t=%d DELIVER to %d: %a@." time dst pp_msg msg;
    M.observe m_latency (d.Net.at - d.Net.sent_at);
    M.observe m_queue (Net.in_flight s.net);
    let t0 = if M.enabled metrics then Dce_obs.Clock.now_ns () else 0 in
    let c, emitted = Controller.receive s.controllers.(dst) msg in
    if M.enabled metrics then M.observe m_deliver_ns (Dce_obs.Clock.now_ns () - t0);
    M.incr m_delivered;
    let c =
      match p.Workload.compact_every with
      | Some every when (s.stats.messages_delivered + 1) mod every = 0 ->
        (* a compaction round models the live protocol's cadence: first
           absorb a stability beacon from every other site (their current
           clock and policy version — what the wire's Beacon frame
           carries), then cut at the causally-stable frontier.  Without
           the beacons, sites that delivered everything but generated
           nothing recently would pin the frontier at their last edit. *)
        let c = ref c in
        Array.iteri
          (fun peer_site peer ->
            if peer_site <> dst then
              let clock, version = Controller.beacon peer in
              c :=
                Controller.receive_beacon !c ~peer:(Controller.site peer) ~clock
                  ~version)
          s.controllers;
        Controller.compact !c
      | _ -> c
    in
    tr "  -> site %d doc=%S version=%d@." dst
      (Tdoc.visible_string (Controller.document c))
      (Controller.version c);
    s.controllers.(dst) <- c;
    let s = { s with time; stats = { s.stats with messages_delivered = s.stats.messages_delivered + 1 } } in
    st := broadcast_from s dst emitted
  in
  let do_edit i =
    let s = !st in
    let c = s.controllers.(i) in
    let op, rng = sample_op s.rng p.Workload.op_mix (Controller.document c) in
    let s = { s with rng } in
    tr "t=%d EDIT site %d: %a@." s.time i (Op.pp Fmt.char) op;
    let t0 = if M.enabled metrics then Dce_obs.Clock.now_ns () else 0 in
    let outcome = Controller.generate c op in
    if M.enabled metrics then M.observe m_generate_ns (Dce_obs.Clock.now_ns () - t0);
    let s =
      match outcome with
      | c, Controller.Accepted m ->
        tr "  -> accepted, doc=%S@." (Tdoc.visible_string (Controller.document c));
        s.controllers.(i) <- c;
        M.incr m_edits;
        let s =
          { s with stats = { s.stats with edits_generated = s.stats.edits_generated + 1 } }
        in
        broadcast_from s i [ m ]
      | _, Controller.Denied _ ->
        M.incr m_denied_local;
        {
          s with
          stats =
            { s.stats with edits_denied_locally = s.stats.edits_denied_locally + 1 };
        }
    in
    (* reschedule *)
    let t, rng = schedule s.rng p.Workload.edit_interval s.time in
    s.next_edit.(i) <- (if t <= p.Workload.duration then t else max_int);
    st := { s with rng }
  in
  let do_admin () =
    let s = !st in
    (* the administrator role may have been delegated: act from the site
       that currently believes it holds it (possibly none, mid-handoff) *)
    let holder = ref None in
    Array.iteri
      (fun i c -> if !holder = None && Controller.is_admin c then holder := Some i)
      s.controllers;
    match !holder with
    | None ->
      (* role in flight: try again shortly, or give up past the horizon *)
      let t, rng = schedule s.rng (10, 30) s.time in
      st :=
        { s with rng; next_admin = (if t <= p.Workload.duration then Some t else None) }
    | Some i ->
    let c = s.controllers.(i) in
    let op, rng =
      sample_admin_op s.rng ~revoke_bias:p.Workload.revoke_bias
        ~handoff_prob:p.Workload.handoff_prob ~users (Controller.policy c)
    in
    let s = { s with rng } in
    tr "t=%d ADMIN(site %d): %a@." s.time i Admin_op.pp op;
    let s =
      match Controller.admin_update c op with
      | Ok (c, m) ->
        tr "  -> version %d, doc=%S@." (Controller.version c)
          (Tdoc.visible_string (Controller.document c));
        s.controllers.(i) <- c;
        let restrictive = if Admin_op.is_restrictive op then 1 else 0 in
        let s =
          {
            s with
            stats =
              {
                s.stats with
                admin_requests = s.stats.admin_requests + 1;
                restrictive_requests = s.stats.restrictive_requests + restrictive;
              };
          }
        in
        broadcast_from s i [ m ]
      | Error _ -> s
    in
    let next_admin, rng =
      match p.Workload.admin_interval with
      | None -> (None, s.rng)
      | Some iv ->
        let t, rng = schedule s.rng iv s.time in
        ((if t <= p.Workload.duration then Some t else None), rng)
    in
    st := { s with next_admin; rng }
  in
  (* main loop: next event among edits, admin actions and deliveries *)
  let rec loop () =
    let s = !st in
    let next_edit_time = Array.fold_left min max_int s.next_edit in
    let next_admin_time = Option.value ~default:max_int s.next_admin in
    let next_delivery = Option.value ~default:max_int (Net.peek_time s.net) in
    let t = min (min next_edit_time next_admin_time) next_delivery in
    if t = max_int then ()
    else if t = next_delivery then begin
      match Net.pop_delivery s.net with
      | None -> ()
      | Some (d, net) ->
        st := { s with net; time = t };
        deliver_one d;
        loop ()
    end
    else if t = next_admin_time then begin
      st := { s with time = t };
      do_admin ();
      loop ()
    end
    else begin
      let i = ref 0 in
      Array.iteri (fun j tj -> if tj = t then i := j) s.next_edit;
      st := { s with time = t };
      do_edit !i;
      loop ()
    end
  in
  loop ();
  let s = !st in
  {
    controllers = Array.to_list s.controllers;
    stats = { s.stats with invalidated = !invalidated; validated = !validated };
    final_time = s.time;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>edits generated: %d@ denied locally: %d@ admin requests: %d (restrictive %d)@ \
     messages delivered: %d@ invalidated: %d@ validated: %d@]"
    s.edits_generated s.edits_denied_locally s.admin_requests s.restrictive_requests
    s.messages_delivered s.invalidated s.validated
