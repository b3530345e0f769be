module Obs = Dce_obs
module M = Obs.Metrics
module Proto = Dce_wire.Proto
module Controller = Dce_core.Controller
module Persist = Dce_store.Persist
module Replica = Dce_store.Replica
module Vclock = Dce_ot.Vclock

type 'e notice =
  | Joined of { delta : bool; resent : int }
  | Integrated of 'e Controller.message
  | Dropped of string
  | Link of Client.event

(* the hub's [compact_ms] default: editors and relays cut their logs on
   the same fixed-phase cadence, every 5 s from the site's creation *)
let compact_every_ms = 5_000.

type 'e t = {
  client : Client.t;
  codec : 'e Proto.elt_codec;
  eq : 'e -> 'e -> bool;
  metrics : M.t option;
  trace : Obs.Trace.sink;
  (* the journal of a site with no state yet, adopted by the first
     join's replica *)
  journal : 'e Persist.t option;
  e2e_ns : M.histogram; (* origin stamp to integration *)
  mutable replica : 'e Replica.t option;
  (* recovered re-emissions, held until the first join: Client.send
     drops anything sent before the session is live *)
  mutable owed : 'e Controller.message list;
  mutable last_compact_ms : float;
}

let controller t = Option.map Replica.controller t.replica

let create ?metrics ?(trace = Obs.Trace.null) ?journal ?state ?(owed = []) ~codec ~eq
    client =
  let reg = match metrics with Some m -> m | None -> M.create ~enabled:false () in
  let t =
    {
      client;
      codec;
      eq;
      metrics;
      trace;
      journal;
      e2e_ns = M.histogram reg "e2e.propagation_ns";
      replica =
        Option.map
          (fun c ->
            let c = match metrics with Some m -> Controller.with_metrics m c | None -> c in
            Replica.create ~trace ?journal c)
          state;
      owed;
      last_compact_ms = Obs.Clock.now_ms ();
    }
  in
  (* both read the live controller, so every (re)connect presents the
     current resume point and traces stay causally stamped *)
  Client.set_resume client (fun () ->
      Option.map (fun c -> (Controller.clock c, Controller.version c)) (controller t));
  Client.set_stamp client (fun () ->
      match controller t with
      | Some c -> (Controller.clock c, Controller.version c)
      | None -> (Vclock.empty, 0));
  t

let client t = t.client
let journal_errors t = match t.replica with Some r -> Replica.journal_errors r | None -> 0

(* every outgoing message carries an origin stamp: receivers measure
   end-to-end propagation from it, and it costs ~15 bytes *)
let send t m =
  Client.send t.client
    (Proto.encode_message ~stamp:(Proto.stamp_now ~site:(Client.site t.client) ()) t.codec m)

let compact t = Option.iter Replica.compact t.replica

(* A state transfer completed and the replica checkpointed it: send its
   re-emissions, then the recovered ones. *)
let joined t ~delta out =
  let resend = out @ t.owed in
  t.owed <- [];
  List.iter (send t) resend;
  [ Joined { delta; resent = List.length resend } ]

let on_event t = function
  | Client.Snapshot blob -> (
    match Proto.decode_state t.codec blob with
    | Error e -> [ Dropped ("bad snapshot: " ^ e) ]
    | Ok st -> (
      match Controller.load ~eq:t.eq ~trace:t.trace ?metrics:t.metrics st with
      | Error e -> [ Dropped ("snapshot rejected: " ^ e) ]
      | Ok donor -> (
        (* local state (a recovered journal, a previous connection) is
           kept and the part of the relay's history it lacks replayed
           through it: the durable alternative to a lossy rejoin *)
        match t.replica with
        | Some r -> (
          match Replica.catch_up r donor with
          | Error e -> [ Dropped ("snapshot rejected: " ^ e) ]
          | Ok out -> joined t ~delta:false out)
        | None ->
          t.replica <-
            Some
              (Replica.rejoin ~trace:t.trace ?journal:t.journal
                 ~site:(Client.site t.client) donor);
          joined t ~delta:false [])))
  | Client.Delta blob -> (
    match (Proto.decode_delta t.codec blob, t.replica) with
    | Error e, _ -> [ Dropped ("bad delta: " ^ e) ]
    | Ok _, None -> [ Dropped "delta without local state" ]
    | Ok d, Some r -> (
      match Replica.apply_delta r d with
      | Error e -> [ Dropped ("delta rejected: " ^ e) ]
      | Ok out -> joined t ~delta:true out))
  | Client.Message blob -> (
    match (Proto.decode_message_stamped t.codec blob, t.replica) with
    | Error e, _ -> [ Dropped ("bad message: " ^ e) ]
    | Ok _, None -> [ Dropped "message before the state transfer" ]
    | Ok (stamp, m), Some r -> (
      (* the blob decoded, but applying it is what validates its
         semantics: a buggy or hostile peer must not abort this site *)
      match Replica.receive r m with
      | Error e -> [ Dropped ("rejected message: " ^ e) ]
      | Ok emitted ->
        Option.iter
          (fun (s : Proto.stamp) -> M.observe t.e2e_ns (Obs.Clock.now_ns () - s.Proto.s_ns))
          stamp;
        List.iter (send t) emitted;
        [ Integrated m ]))
  | Client.Beacon blob -> (
    match (Proto.decode_frontier blob, t.replica) with
    | Error e, _ -> [ Dropped ("bad frontier: " ^ e) ]
    | Ok _, None -> []
    | Ok entries, Some r ->
      Replica.absorb r entries;
      [])
  | (Client.Connected | Client.Disconnected _ | Client.Reconnecting _ | Client.Gave_up _) as ev
    ->
    [ Link ev ]

let step ?timeout_ms t =
  let notices = List.concat_map (on_event t) (Client.step ?timeout_ms t.client) in
  (match
     Obs.Clock.tick ~period_ms:compact_every_ms ~last:t.last_compact_ms (Obs.Clock.now_ms ())
   with
   | Some due ->
     t.last_compact_ms <- due;
     compact t
   | None -> ());
  notices

let issue t f =
  match t.replica with
  | None -> Error "not joined yet"
  | Some r ->
    let issued = f r in
    Result.iter (send t) issued;
    issued

let generate t op = issue t (fun r -> Replica.generate r op)
let admin t op = issue t (fun r -> Replica.admin r op)

let close t =
  Client.close t.client;
  match t.replica with
  | Some r -> Replica.close r
  | None -> Option.iter Persist.close t.journal
