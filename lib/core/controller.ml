open Dce_ot

type 'e message =
  | Coop of 'e Request.t
  | Admin of Admin_op.request

type features = {
  retroactive_undo : bool;
  interval_check : bool;
  validation : bool;
}

let secure = { retroactive_undo = true; interval_check = true; validation = true }

let naive = { retroactive_undo = false; interval_check = false; validation = false }

module User_map = Map.Make (Int)

(* Optional live meters: counters at every security decision point and
   level gauges refreshed after each state transition.  When no registry
   is supplied, handles point into a shared disabled registry and every
   update is a single dead branch — same always-compiled-in contract as
   the trace sink. *)
module M = Dce_obs.Metrics

type meters = {
  reg : M.t;
  m_generated : M.counter;
  m_denied_local : M.counter;
  m_delivered : M.counter;
  m_invalidated : M.counter;
  m_validated : M.counter;
  m_admin_applied : M.counter;
  m_undone : M.counter;
  m_dups : M.counter;
  g_pending_coop : M.gauge;
  g_pending_admin : M.gauge;
  g_oplog : M.gauge;
  g_doc : M.gauge;
  g_cells : M.gauge;
  g_version : M.gauge;
  g_window : M.gauge;
  g_compacted : M.gauge;
  g_admin_live : M.gauge;
  g_admin_cut : M.gauge;
  g_stable_lag : M.gauge;
}

let disabled_registry = lazy (M.create ~enabled:false ())

let meters_of metrics =
  let reg =
    match metrics with Some m -> m | None -> Lazy.force disabled_registry
  in
  {
    reg;
    m_generated = M.counter reg "controller.generated";
    m_denied_local = M.counter reg "controller.denied_local";
    m_delivered = M.counter reg "controller.delivered";
    m_invalidated = M.counter reg "controller.invalidated";
    m_validated = M.counter reg "controller.validated";
    m_admin_applied = M.counter reg "controller.admin_applied";
    m_undone = M.counter reg "controller.undone";
    m_dups = M.counter reg "controller.dups";
    g_pending_coop = M.gauge reg "controller.pending_coop";
    g_pending_admin = M.gauge reg "controller.pending_admin";
    g_oplog = M.gauge reg "controller.oplog_live";
    g_doc = M.gauge reg "controller.doc_visible";
    g_cells = M.gauge reg "controller.doc_cells";
    g_version = M.gauge reg "controller.policy_version";
    g_window = M.gauge reg "controller.window_len";
    g_compacted = M.gauge reg "controller.compacted_upto";
    g_admin_live = M.gauge reg "controller.admin_log_live";
    g_admin_cut = M.gauge reg "controller.admin_cut";
    g_stable_lag = M.gauge reg "controller.stable_lag";
  }

type 'e t = {
  site : Subject.user;
  features : features;
  eq : 'e -> 'e -> bool;
  trace : Dce_obs.Trace.sink;
  doc : 'e Tdoc.t;
  oplog : 'e Oplog.t;
  clock : Vclock.t;
  serial : int;
  admin_log : Admin_log.t; (* carries the policy, its version and L *)
  coop_queue : 'e Request.t list; (* F *)
  admin_queue : Admin_op.request list; (* Q *)
  n_coop_queue : int; (* cached List.length coop_queue *)
  n_admin_queue : int; (* cached List.length admin_queue *)
  (* stability bookkeeping for log compaction: per peer, the clock and
     policy version of its last request integrated HERE (sound: per-site
     serials integrate in order, so nothing older can arrive fresh), and
     the issue clock/version of its latest administrative request (a
     stronger bound, usable once the issuer's own edits are caught up) *)
  peer_integrated : (Vclock.t * int) User_map.t;
  peer_admin_hint : (Vclock.t * int) User_map.t;
  (* explicit stability beacons: per peer, the latest (delivery clock,
     policy version) it advertised over the wire.  Beacons let silent
     peers advance the frontier; they merge monotonically so stale or
     reordered beacons are no-ops. *)
  peer_beacon : (Vclock.t * int) User_map.t;
  (* true while a state transfer replays history through [receive] (a
     donor's delta, or our own unacknowledged requests after a rejoin):
     the administrator must not mint fresh validations for requests
     whose settled fate that history may already record;
     [validate_backlog] settles what is still tentative afterwards *)
  replay : bool;
  m : meters;
}

let create ?(eq = ( = )) ?(features = secure) ?(trace = Dce_obs.Trace.null)
    ?metrics ~site ~admin ~policy doc =
  {
    site;
    features;
    eq;
    trace;
    doc;
    oplog = Oplog.empty;
    clock = Vclock.empty;
    serial = 0;
    admin_log = Admin_log.create ~admin policy;
    coop_queue = [];
    admin_queue = [];
    n_coop_queue = 0;
    n_admin_queue = 0;
    peer_integrated = User_map.empty;
    peer_admin_hint = User_map.empty;
    peer_beacon = User_map.empty;
    replay = false;
    m = meters_of metrics;
  }

let fork ~site t =
  {
    t with
    site;
    serial = 0;
    peer_integrated = User_map.empty;
    peer_admin_hint = User_map.empty;
    peer_beacon = User_map.empty;
  }

let rejoin ~site t = { (fork ~site t) with serial = Vclock.get t.clock site }

let site t = t.site
let admin t = Admin_log.current_admin t.admin_log
let is_admin t = t.site = admin t
let document t = t.doc
let visible t = Tdoc.visible_list t.doc
let policy t = Admin_log.current t.admin_log
let version t = Admin_log.version t.admin_log
let oplog t = t.oplog
let admin_log t = t.admin_log
let clock t = t.clock
let pending_coop t = t.n_coop_queue
let pending_admin t = t.n_admin_queue
let tentative t = Oplog.tentative_requests t.oplog

(* refresh the level gauges; returns [t] so call sites can tail it *)
let note_levels t =
  M.set t.m.g_pending_coop t.n_coop_queue;
  M.set t.m.g_pending_admin t.n_admin_queue;
  M.set t.m.g_oplog (Oplog.live_length t.oplog);
  M.set t.m.g_doc (Tdoc.visible_length t.doc);
  M.set t.m.g_cells (Tdoc.model_length t.doc);
  M.set t.m.g_version (version t);
  if M.enabled t.m.reg then begin
    M.set t.m.g_window (Oplog.live_length t.oplog);
    M.set t.m.g_compacted (Vclock.sum (Oplog.compacted_upto t.oplog));
    M.set t.m.g_admin_live (Admin_log.live t.admin_log);
    M.set t.m.g_admin_cut (Admin_log.cut t.admin_log)
  end;
  t

(* Meters, like trace sinks, are process-local and not part of persisted
   state: re-attach them after a [load]/restore. *)
let with_metrics metrics t = note_levels { t with m = meters_of (Some metrics) }

(* Telemetry: every security decision point emits a structured event
   stamped with this site's id, vector clock and policy version.  [ev]
   costs one load and branch when the sink is null; call sites whose
   payload is expensive to build (formatted strings) must guard on
   [Trace.enabled] themselves. *)
let ev t kind =
  if Dce_obs.Trace.enabled t.trace then
    Dce_obs.Trace.emit t.trace ~site:t.site ~clock:t.clock ~version:(version t) kind

type 'e outcome = Accepted of 'e message | Denied of string

(* ----- stability tracking (for log compaction, paper §7) -----

   A dropped entry must be in the causal past of every request this site
   may still integrate for the first time.  For a peer [w], first-time
   arrivals have serial greater than the last [w]-request integrated
   here (causal readiness forces per-site order; older copies are
   duplicates), so their context dominates that request's clock — the
   always-sound bound.  An administrative request from [w] carries [w]'s
   issue clock, a stronger bound; it applies to [w]'s future cooperative
   requests only once every [w]-edit counted in it has been integrated
   here (otherwise one of those very edits may still be in flight). *)

let note_integrated t (q : 'e Request.t) =
  let peer = q.Request.id.Request.site in
  let bound = (Request.clock_after q, q.Request.policy_version) in
  { t with peer_integrated = User_map.add peer bound t.peer_integrated }

(* Advertised bounds merge monotonically (clocks merge, versions max), so
   a stale, duplicated or reordered advertisement is a no-op: a
   duplicate of an old administrative request must not move the
   frontier back. *)
let merge_bound peer (clock, version) table =
  User_map.update peer
    (function
      | Some (old_clock, old_version) ->
        Some (Vclock.merge old_clock clock, max old_version version)
      | None -> Some (clock, version))
    table

let note_admin_hint t (r : Admin_op.request) =
  {
    t with
    peer_admin_hint =
      merge_bound r.Admin_op.admin (r.Admin_op.ctx, r.Admin_op.version) t.peer_admin_hint;
  }

(* A wire beacon from [w] advertises [w]'s own delivery clock, so like an
   admin hint it bounds [w]'s future requests only once every [w]-edit it
   counts has been integrated here; until then one of those edits may
   still be in flight with an older context.  A silent peer's beacon has
   [get clock w = 0], so the gate always passes and the frontier advances
   past peers that never edit — the whole point of the protocol. *)
let apply_hint u (base_clock, base_version) = function
  | Some (hint_clock, hint_version)
    when Vclock.get hint_clock u <= Vclock.get base_clock u ->
    (Vclock.merge base_clock hint_clock, max base_version hint_version)
  | _ -> (base_clock, base_version)

let peer_bound t u =
  let base =
    Option.value ~default:(Vclock.empty, 0) (User_map.find_opt u t.peer_integrated)
  in
  let base = apply_hint u base (User_map.find_opt u t.peer_admin_hint) in
  apply_hint u base (User_map.find_opt u t.peer_beacon)

let group_peers t =
  List.filter (fun u -> u <> t.site) (Policy.users (Admin_log.current t.admin_log))

let stable_frontier t =
  List.fold_left (fun acc u -> Vclock.meet acc (fst (peer_bound t u))) t.clock
    (group_peers t)

let stable_version t =
  List.fold_left
    (fun acc u -> min acc (snd (peer_bound t u)))
    (Admin_log.version t.admin_log)
    (group_peers t)

let receive_beacon t ~peer ~clock ~version =
  if peer = t.site then t
  else { t with peer_beacon = merge_bound peer (clock, version) t.peer_beacon }

(* What this site advertises to peers: its own delivery clock and policy
   version.  Everything counted here has been integrated locally. *)
let beacon t = (t.clock, version t)

let window_len t = Oplog.live_length t.oplog
let compacted_upto t = Oplog.compacted_upto t.oplog

let stable_lag t =
  Vclock.sum t.clock - Vclock.sum (stable_frontier t)

(* [limit] clamps the cut (used by journaled sessions so compaction never
   outruns the durable snapshot: replay after a crash starts from the
   snapshot and must find every entry it needs either in the snapshot or
   the WAL — an entry dropped below the snapshot cut satisfies that, one
   dropped above it would not).  The cut of L needs no clamp: replay
   only appends to L and never reads a dropped Validate, and the
   snapshot's own L is complete above that snapshot's cut.

   A cell that only dropped entries touched can never change again:
   those requests are settled, so nothing undoes them, and stable, so
   every request still to arrive saw their effect.  When the cut drops
   anything, every such cell collapses in place; a cut that drops
   nothing collapses nothing. *)
let compact ?limit t =
  let stable = stable_frontier t in
  let stable =
    match limit with None -> stable | Some l -> Vclock.meet stable l
  in
  let stable_version = stable_version t in
  M.set t.m.g_stable_lag (Vclock.sum t.clock - Vclock.sum stable);
  let oplog = Oplog.compact ~stable ~stable_version t.oplog in
  let doc =
    if Oplog.length oplog = Oplog.length t.oplog then t.doc
    else Tdoc.collapse ~keep:(Oplog.touched_positions oplog) t.doc
  in
  note_levels
    { t with oplog; doc; admin_log = Admin_log.compact t.admin_log ~upto:stable_version }

(* ----- Algorithm 2: local generation ----- *)

let generate t op =
  let op = Op.with_stamp ~site:t.site ~stamp:(Vclock.sum t.clock + 1) op in
  if not (Policy.check_op (policy t) ~user:t.site op) then begin
    ev t (Dce_obs.Trace.Check_local { granted = false });
    M.incr t.m.m_denied_local;
    (t, Denied "denied by the local policy copy")
  end
  else begin
    ev t (Dce_obs.Trace.Check_local { granted = true });
    let serial = t.serial + 1 in
    let flag = if is_admin t then Request.Valid else Request.Tentative in
    let q =
      Request.make ~site:t.site ~serial ~op ~ctx:t.clock ~policy_version:(version t)
        ~flag ()
    in
    let q = Oplog.broadcast_form q t.oplog in
    let doc = Tdoc.apply ~eq:t.eq t.doc op in
    let oplog = Oplog.append_local q t.oplog in
    let clock = Vclock.tick t.clock t.site in
    let t = { t with doc; oplog; clock; serial } in
    ev t
      (Dce_obs.Trace.Generate
         { request = q.Request.id; valid = flag = Request.Valid });
    M.incr t.m.m_generated;
    (note_levels t, Accepted (Coop q))
  end

(* A composite edit: pre-check every operation, then execute the run.
   Positions in later operations assume the earlier ones applied, which
   is exactly what sequential generation produces. *)
let generate_edit t ops =
  if
    List.for_all (fun op -> Policy.check_op (policy t) ~user:t.site op) ops
  then
    let t, msgs =
      List.fold_left
        (fun (t, msgs) op ->
          match generate t op with
          | t, Accepted m -> (t, m :: msgs)
          | _, Denied reason ->
            invalid_arg ("Controller.generate_edit: mid-run denial: " ^ reason))
        (t, []) ops
    in
    Ok (t, List.rev msgs)
  else Error "composite edit denied by the local policy copy"

let readable t =
  let p = policy t in
  (* walk the model to keep per-cell positions, but emit visible cells only *)
  List.concat
    (List.mapi
       (fun m c ->
         if c.Tdoc.hidden <> 0 then []
         else if Policy.check p ~user:t.site ~right:Right.Read ~pos:(Some m) then
           [ Some (Tdoc.content c) ]
         else [ None ])
       (Tdoc.model_list t.doc))

(* ----- Algorithm 4: administrative requests ----- *)

(* Retroactive enforcement: undo every tentative request the new policy
   no longer grants.  Decisions look at [gen_op] (identical everywhere),
   so every site undoes the same requests at the same version. *)
let enforce t r =
  if (not t.features.retroactive_undo) || not (Admin_op.is_restrictive r.Admin_op.op)
  then t
  else
    let p = policy t in
    List.fold_left
      (fun t (qt : 'e Request.t) ->
        if Policy.check_op p ~user:qt.Request.id.Request.site qt.Request.gen_op then t
        else
          match
            Oplog.undo ~cancel_version:r.Admin_op.version qt.Request.id t.oplog
          with
          | None -> t
          | Some (op, oplog) ->
            let t = { t with oplog; doc = Tdoc.apply ~eq:t.eq t.doc op } in
            ev t
              (Dce_obs.Trace.Retroactive_undo
                 { request = qt.Request.id; cancel_version = r.Admin_op.version });
            M.incr t.m.m_undone;
            t)
      t (tentative t)

(* Apply the next administrative request.  Returns the follow-up
   administrative operations this site must itself issue: when the
   administrator role lands on us, every request validated-by-integration
   is still flagged tentative here, and a request that arrived before the
   transfer would otherwise never be validated by anyone — so the new
   administrator validates its whole tentative backlog. *)
let apply_admin t (r : Admin_op.request) =
  match Admin_log.append t.admin_log r with
  | Error e -> Error e
  | Ok admin_log ->
    let t = { t with admin_log } in
    M.incr t.m.m_admin_applied;
    if Dce_obs.Trace.enabled t.trace then
      ev t
        (Dce_obs.Trace.Admin_apply
           {
             op = Format.asprintf "%a" Admin_op.pp r.Admin_op.op;
             restrictive = Admin_op.is_restrictive r.Admin_op.op;
           });
    (match r.Admin_op.op with
     | Admin_op.Validate id ->
       (* only upgrade tentative requests: an Invalid entry stays
          invalid (the situation cannot arise for honest traffic) *)
       let t =
         match Oplog.validate id t.oplog with
         | Some oplog ->
           let t = { t with oplog } in
           ev t (Dce_obs.Trace.Validate id);
           M.incr t.m.m_validated;
           t
         | None -> t
       in
       Ok (t, [])
     | Admin_op.Transfer_admin u when u = t.site && t.features.validation && not t.replay ->
       let backlog =
         List.map (fun (q : 'e Request.t) -> Admin_op.Validate q.Request.id) (tentative t)
       in
       Ok (t, backlog)
     | _ -> Ok (enforce t r, []))

(* issue one administrative request from this site, folding in any
   follow-up validations it triggers *)
let rec issue_admin t op =
  let r = { Admin_op.admin = t.site; version = version t + 1; op; ctx = t.clock } in
  match apply_admin t r with
  | Error e -> Error e
  | Ok (t, follow_ups) ->
    List.fold_left
      (fun acc op ->
        match acc with
        | Error _ as e -> e
        | Ok (t, msgs) ->
          (match issue_admin t op with
           | Error e -> Error e
           | Ok (t, more) -> Ok (t, msgs @ more)))
      (Ok (t, [ Admin r ]))
      follow_ups

let admin_update t op =
  if not (is_admin t) then Error "only the administrator can modify the policy"
  else
    match issue_admin t op with
    | Error e -> Error e
    | Ok (t, [ m ]) -> Ok (note_levels t, m)
    | Ok (_, _) -> assert false (* user-issued operations trigger no follow-ups *)

(* ----- Algorithm 3: remote cooperative requests ----- *)

let integrate_coop t (q : 'e Request.t) =
  let from_admin =
    Admin_log.admin_at t.admin_log q.Request.policy_version
    = Some q.Request.id.Request.site
  in
  let denial =
    if from_admin then None
    else if not t.features.interval_check then
      (* naive variant: check against the current policy copy only
         (the Fig. 3 hole) *)
      if Policy.check_op (policy t) ~user:q.Request.id.Request.site q.Request.gen_op
      then None
      else Some (version t)
    else
      match Right.of_op q.Request.gen_op with
      | None -> None
      | Some right ->
        Admin_log.first_denial t.admin_log ~from_version:q.Request.policy_version
          ~user:q.Request.id.Request.site ~right ~pos:(Op.pos q.Request.gen_op)
  in
  (if t.features.interval_check && not from_admin then
     match Right.of_op q.Request.gen_op with
     | None -> ()
     | Some _ ->
       ev t
         (Dce_obs.Trace.Interval_recheck
            {
              request = q.Request.id;
              from_version = q.Request.policy_version;
              to_version = version t;
              denied_at = denial;
            }));
  let t = note_integrated t q in
  match denial with
  | Some cancel_version ->
    let (op1, op2), oplog = Oplog.append_rejected ~cancel_version q t.oplog in
    let doc = Tdoc.apply ~eq:t.eq (Tdoc.apply ~eq:t.eq t.doc op1) op2 in
    let clock = Vclock.tick t.clock q.Request.id.Request.site in
    let t = { t with doc; oplog; clock } in
    ev t (Dce_obs.Trace.Invalidate { request = q.Request.id; cancel_version });
    M.incr t.m.m_invalidated;
    (t, [])
  | None ->
    let q, emitted =
      if is_admin t && not from_admin && t.features.validation && not t.replay then
        ({ q with Request.flag = Request.Valid }, [ Admin_op.Validate q.Request.id ])
      else (q, [])
    in
    let op, oplog = Oplog.integrate q t.oplog in
    let doc = Tdoc.apply ~eq:t.eq t.doc op in
    let clock = Vclock.tick t.clock q.Request.id.Request.site in
    let t = { t with doc; oplog; clock } in
    ev t
      (Dce_obs.Trace.Deliver
         {
           request = q.Request.id;
           gen_version = q.Request.policy_version;
           valid = q.Request.flag = Request.Valid;
         });
    M.incr t.m.m_delivered;
    (* the administrator's validation consumes the next version number
       and is broadcast *)
    List.fold_left
      (fun (t, msgs) op ->
        match issue_admin t op with
        | Ok (t, ms) -> (t, msgs @ ms)
        | Error e ->
          (* Validate always applies *)
          invalid_arg ("Controller: validation failed: " ^ e))
      (t, []) emitted

let coop_ready t (q : 'e Request.t) =
  q.Request.policy_version <= version t && Oplog.causally_ready q t.oplog

let admin_ready t (r : Admin_op.request) =
  r.Admin_op.version = version t + 1
  &&
  match r.Admin_op.op with
  | Admin_op.Validate id -> Oplog.mem id t.oplog
  | _ -> true

(* Apply everything that is ready, to a fixed point.  Administrative
   requests are tried first: they unblock version-gated cooperative
   requests. *)
let rec drain (t, msgs) =
  let ready_admin, rest_admin = List.partition (admin_ready t) t.admin_queue in
  match ready_admin with
  | r :: deferred ->
    let t =
      {
        t with
        admin_queue = deferred @ rest_admin;
        n_admin_queue = t.n_admin_queue - 1;
      }
    in
    (match apply_admin t r with
     | Ok (t, follow_ups) ->
       let t, more =
         List.fold_left
           (fun (t, acc) op ->
             match issue_admin t op with
             | Ok (t, ms) -> (t, acc @ ms)
             | Error e -> invalid_arg ("Controller: validation failed: " ^ e))
           (t, []) follow_ups
       in
       drain (t, msgs @ more)
     | Error _ ->
       (* malformed or illegitimate administrative traffic (an impostor,
          or an operation that does not apply): drop it — the paper
          assumes an authenticated network, this is defence in depth *)
       drain (t, msgs))
  | [] ->
    let ready_coop, waiting = List.partition (coop_ready t) t.coop_queue in
    (match ready_coop with
     | [] -> (t, msgs)
     | _ ->
       let t =
         {
           t with
           coop_queue = waiting;
           n_coop_queue = t.n_coop_queue - List.length ready_coop;
         }
       in
       let t, more =
         List.fold_left
           (fun (t, acc) q ->
             let t, m = integrate_coop t q in
             (t, acc @ m))
           (t, []) ready_coop
       in
       drain (t, msgs @ more))

type 'e state = {
  st_site : Subject.user;
  st_features : features;
  st_doc : 'e Tdoc.t;
  st_oplog : 'e Oplog.entry list;
  st_compacted : Vclock.t;
  st_clock : Vclock.t;
  st_serial : int;
  st_initial_policy : Policy.t;
  st_initial_admin : Subject.user;
  st_admin_requests : Admin_op.request list;
  st_coop_queue : 'e Request.t list;
  st_admin_queue : Admin_op.request list;
  st_peer_integrated : (Subject.user * (Vclock.t * int)) list;
  st_peer_admin_hint : (Subject.user * (Vclock.t * int)) list;
  st_peer_beacon : (Subject.user * (Vclock.t * int)) list;
}

let dump t =
  {
    st_site = t.site;
    st_features = t.features;
    st_doc = t.doc;
    st_oplog = Oplog.entries t.oplog;
    st_compacted = Oplog.compacted_upto t.oplog;
    st_clock = t.clock;
    st_serial = t.serial;
    st_initial_policy = Admin_log.initial t.admin_log;
    st_initial_admin = Admin_log.initial_admin t.admin_log;
    st_admin_requests = Admin_log.requests t.admin_log;
    st_coop_queue = t.coop_queue;
    st_admin_queue = t.admin_queue;
    st_peer_integrated = User_map.bindings t.peer_integrated;
    st_peer_admin_hint = User_map.bindings t.peer_admin_hint;
    st_peer_beacon = User_map.bindings t.peer_beacon;
  }

let load ?(eq = ( = )) ?(trace = Dce_obs.Trace.null) ?metrics s =
  let oplog = Oplog.of_entries ~compacted:s.st_compacted s.st_oplog in
  match
    Admin_log.of_requests ~admin:s.st_initial_admin s.st_initial_policy
      s.st_admin_requests
  with
  | Error e -> Error ("corrupt administrative history: " ^ e)
  | Ok _ when not (Oplog.serials_complete oplog) ->
    (* the log's clock would read the missing serial as present *)
    Error "corrupt cooperative log: a site's serials skip or repeat one"
  | Ok admin_log ->
    Ok
      {
        site = s.st_site;
        features = s.st_features;
        eq;
        trace;
        doc = s.st_doc;
        oplog;
        clock = s.st_clock;
        serial = s.st_serial;
        admin_log;
        coop_queue = s.st_coop_queue;
        admin_queue = s.st_admin_queue;
        n_coop_queue = List.length s.st_coop_queue;
        n_admin_queue = List.length s.st_admin_queue;
        peer_integrated =
          User_map.of_seq (List.to_seq s.st_peer_integrated);
        peer_admin_hint = User_map.of_seq (List.to_seq s.st_peer_admin_hint);
        peer_beacon = User_map.of_seq (List.to_seq s.st_peer_beacon);
        replay = false;
        m = meters_of metrics;
      }

let receive t msg =
  match msg with
  | Coop q ->
    let dup =
      Oplog.mem q.Request.id t.oplog
      || List.exists (fun q' -> Request.id_equal q'.Request.id q.Request.id) t.coop_queue
    in
    ev t (Dce_obs.Trace.Receive { coop = true; dup });
    if dup then begin
      M.incr t.m.m_dups;
      (t, [])
    end
    else
      let t, msgs =
        drain
          ( { t with coop_queue = q :: t.coop_queue; n_coop_queue = t.n_coop_queue + 1 },
            [] )
      in
      (note_levels t, msgs)
  | Admin r ->
    let t = note_admin_hint t r in
    let dup =
      r.Admin_op.version <= version t
      || List.exists (fun r' -> r'.Admin_op.version = r.Admin_op.version) t.admin_queue
    in
    ev t (Dce_obs.Trace.Receive { coop = false; dup });
    if dup then begin
      M.incr t.m.m_dups;
      (t, [])
    end
    else
      let t, msgs =
        drain
          ( {
              t with
              admin_queue = r :: t.admin_queue;
              n_admin_queue = t.n_admin_queue + 1;
            },
            [] )
      in
      (note_levels t, msgs)

(* ----- state transfer: replay only the suffix a joiner lacks ----- *)

(* A stored request's broadcast form: the generation-context operation
   with the flag it was born with (the administrator's own requests are
   born valid; everything else starts tentative and is settled by the
   validations and denials the receiver derives itself). *)
let born_copy admin_log (q : 'e Request.t) =
  let born_valid =
    Admin_log.admin_at admin_log q.Request.policy_version
    = Some q.Request.id.Request.site
  in
  {
    q with
    Request.op = q.Request.gen_op;
    flag = (if born_valid then Request.Valid else Request.Tentative);
  }

let normal_requests oplog =
  List.filter_map
    (fun (e : 'e Oplog.entry) ->
      match e.Oplog.role with
      | Oplog.Canceller _ -> None (* derived: every site re-derives its own *)
      | Oplog.Normal -> Some e.Oplog.req)
    (Oplog.entries oplog)

(* Feed history messages through [receive] in replay mode: duplicates
   are dropped, the rest queues until causally ready, and every security
   decision (interval checks, rejections, undo) is taken by this site's
   own algorithm rather than trusted from the donor.  Replay mode mints
   nothing, so there is no output to collect. *)
let replay_history t history =
  let t = List.fold_left (fun t m -> fst (receive t m)) { t with replay = true } history in
  { t with replay = false }

(* Requests of ours a donor at [donor_clock]/[donor_version] never saw:
   put them back on the wire (receivers deduplicate, so over-sending is
   harmless).  A donor below our cut of L lacks versions nobody can
   resend: it needs a full snapshot, and a gapped administrative suffix
   would only park in its queue for good, so none is sent. *)
let unacked_by t ~donor_clock ~donor_version =
  let unacked_admin =
    match Admin_log.suffix t.admin_log donor_version with
    | Some rs ->
      List.filter_map
        (fun (r : Admin_op.request) ->
          if r.Admin_op.admin = t.site then Some (Admin r) else None)
        rs
    | None ->
      if Dce_obs.Trace.enabled t.trace then
        ev t
          (Dce_obs.Trace.Net
             {
               peer = t.site;
               action = "heal_impossible";
               detail =
                 Printf.sprintf "donor at v%d, behind our administrative cut v%d"
                   donor_version (Admin_log.cut t.admin_log);
             });
      []
  in
  let donor_floor = Vclock.get donor_clock t.site in
  let unacked_coop =
    normal_requests t.oplog
    |> List.filter (fun (q : 'e Request.t) ->
           q.Request.id.Request.site = t.site
           && q.Request.id.Request.serial > donor_floor)
    |> List.map (fun q -> Coop (born_copy t.admin_log q))
  in
  unacked_admin @ unacked_coop

(* If the administrator role sits here, requests that reached the group
   while this site was down are still tentative everywhere: validate the
   backlog now (same obligation as an admin transfer). *)
let validate_backlog t =
  if is_admin t && t.features.validation then
    let t, rev_msgs =
      List.fold_left
        (fun (t, acc) (q : 'e Request.t) ->
          match issue_admin t (Admin_op.Validate q.Request.id) with
          | Ok (t, ms) -> (t, List.rev_append ms acc)
          | Error _ -> (t, acc))
        (t, []) (tentative t)
    in
    (t, List.rev rev_msgs)
  else (t, [])

type 'e delta = {
  dl_clock : Vclock.t;
  dl_version : int;
  dl_compacted : Vclock.t;
  dl_admin : Admin_op.request list;
  dl_coop : 'e Request.t list;
  dl_coop_queue : 'e Request.t list;
  dl_admin_queue : Admin_op.request list;
}

(* The one state-transfer guard: at or above both of the donor's cuts,
   the joiner's clock counts exactly what it has integrated, so the
   entries it does not count are exactly what it lacks.  Below either
   cut the dropped entries cannot be resent ([Admin_log.suffix] declines
   below L's). *)
let delta_since donor ~clock ~version =
  match Admin_log.suffix donor.admin_log version with
  | Some dl_admin when Vclock.leq (Oplog.compacted_upto donor.oplog) clock ->
    let dl_coop =
      normal_requests donor.oplog
      |> List.filter (fun (q : 'e Request.t) ->
             not
               (Vclock.dominates_event clock ~site:q.Request.id.Request.site
                  ~count:q.Request.id.Request.serial))
      |> List.map (born_copy donor.admin_log)
    in
    Some
      {
        dl_clock = donor.clock;
        dl_version = Admin_log.version donor.admin_log;
        dl_compacted = Oplog.compacted_upto donor.oplog;
        dl_admin;
        dl_coop;
        dl_coop_queue = List.rev donor.coop_queue;
        dl_admin_queue = List.rev donor.admin_queue;
      }
  | _ -> None

(* Administrative requests go first, so the version sequence — and with
   it the administrator identity at every point — is settled before
   cooperative traffic integrates.  Then our serial clears everything
   the group has already seen from us (or fresh requests would be
   dropped as duplicates), and what we return re-sends our requests the
   donor lacks plus, at the administrator, the backlog's validations. *)
let replay_delta t d =
  let t =
    replay_history t
      (List.map (fun r -> Admin r) d.dl_admin
      @ List.map (fun q -> Coop q) d.dl_coop
      @ List.map (fun q -> Coop q) d.dl_coop_queue
      @ List.map (fun r -> Admin r) d.dl_admin_queue)
  in
  let t = { t with serial = max t.serial (Vclock.get t.clock t.site) } in
  let unacked = unacked_by t ~donor_clock:d.dl_clock ~donor_version:d.dl_version in
  let t, validations = validate_backlog t in
  (note_levels t, unacked @ validations)

let catch_up t donor =
  match delta_since donor ~clock:t.clock ~version:(version t) with
  | Some d -> replay_delta t d
  | None ->
    (* The donor compacted past this site's clock or version: entries
       we lack were dropped from the donor's logs for good, so a replay
       would be silently incomplete.  Adopt the donor's state wholesale
       instead (rejoin semantics), then re-feed and re-broadcast our own
       unacknowledged requests — the only part of our divergent state
       the group may not already hold.  Messages parked in our queues are
       other sites' traffic; their origins (or any donor) redeliver them. *)
    let unacked =
      unacked_by t ~donor_clock:donor.clock
        ~donor_version:(Admin_log.version donor.admin_log)
    in
    let fresh = rejoin ~site:t.site donor in
    let fresh =
      {
        fresh with
        eq = t.eq;
        trace = t.trace;
        m = t.m;
        features = t.features;
        serial = max t.serial fresh.serial;
      }
    in
    let fresh, validations = validate_backlog (replay_history fresh unacked) in
    (note_levels fresh, unacked @ validations)

let apply_delta t (d : 'e delta) =
  if not (Vclock.leq d.dl_compacted t.clock) then
    Error "delta starts past this site's clock: full snapshot required"
  else if
    match d.dl_admin with
    | r :: _ -> r.Admin_op.version > version t + 1
    | [] -> false
  then Error "delta starts past this site's version: full snapshot required"
  else Ok (replay_delta t d)
