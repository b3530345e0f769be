module Obs = Dce_obs
module M = Obs.Metrics
module Proto = Dce_wire.Proto
module Controller = Dce_core.Controller
module Persist = Dce_store.Persist
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
  journal : 'e Persist.t option;
  e2e_ns : M.histogram; (* origin stamp to integration *)
  mutable ctrl : 'e Controller.t option;
  (* recovered re-emissions, held until the first join: Client.send
     drops anything sent before the session is live *)
  mutable owed : 'e Controller.message list;
  mutable last_compact_ms : float;
  mutable journal_errors : int;
}

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
      ctrl =
        (match (state, metrics) with
         | Some c, Some m -> Some (Controller.with_metrics m c)
         | _ -> state);
      owed;
      last_compact_ms = Obs.Clock.now_ms ();
      journal_errors = 0;
    }
  in
  (* both read the live controller, so every (re)connect presents the
     current resume point and traces stay causally stamped *)
  Client.set_resume client (fun () ->
      Option.map (fun c -> (Controller.clock c, Controller.version c)) t.ctrl);
  Client.set_stamp client (fun () ->
      match t.ctrl with
      | Some c -> (Controller.clock c, Controller.version c)
      | None -> (Vclock.empty, 0));
  t

let client t = t.client
let controller t = t.ctrl
let journal_errors t = t.journal_errors

(* every outgoing message carries an origin stamp: receivers measure
   end-to-end propagation from it, and it costs ~15 bytes *)
let send t m =
  Client.send t.client
    (Proto.encode_message ~stamp:(Proto.stamp_now ~site:(Client.site t.client) ()) t.codec m)

let journal_result t = function Ok _ -> () | Error _ -> t.journal_errors <- t.journal_errors + 1

let checkpoint t =
  match (t.journal, t.ctrl) with
  | Some j, Some c -> journal_result t (Persist.checkpoint j c)
  | _ -> ()

let record t r =
  match (t.journal, t.ctrl) with
  | Some j, Some c ->
    Persist.record j r;
    journal_result t (Persist.maybe_checkpoint j c)
  | _ -> ()

(* Checkpoint-then-clamp: a journaled site never lets the compaction cut
   outrun its durable snapshot.  It checkpoints first when the stable
   frontier moved past the last cut, then clamps to whatever cut is
   durable; with no snapshot at all it does not compact. *)
let compact t =
  match t.ctrl with
  | None -> ()
  | Some c -> (
    match t.journal with
    | None -> t.ctrl <- Some (Controller.compact c)
    | Some j -> (
      (match Persist.checkpoint_clock j with
       | Some cut when Vclock.leq (Controller.stable_frontier c) cut -> ()
       | _ -> checkpoint t);
      match Persist.checkpoint_clock j with
      | Some limit -> t.ctrl <- Some (Controller.compact ~limit c)
      | None -> ()))

(* A state transfer completed.  Its inputs came from the relay, not the
   journal, so a checkpoint records the merged state before anything
   goes out; then the transfer's re-emissions and the recovered ones. *)
let joined t ~delta mine out =
  t.ctrl <- Some mine;
  checkpoint t;
  let resend = out @ t.owed in
  t.owed <- [];
  List.iter (send t) resend;
  [ Joined { delta; resent = List.length resend } ]

let exn_detail = function
  | Invalid_argument m | Failure m | Dce_ot.Document.Edit_conflict m -> m
  | e -> Printexc.to_string e

let on_event t = function
  | Client.Snapshot blob -> (
    match Proto.decode_state t.codec blob with
    | Error e -> [ Dropped ("bad snapshot: " ^ e) ]
    | Ok st -> (
      match Controller.load ~eq:t.eq ~trace:t.trace ?metrics:t.metrics st with
      | Error e -> [ Dropped ("snapshot rejected: " ^ e) ]
      | Ok donor -> (
        (* local state (a recovered journal, a previous connection) is
           kept and the relay's history replayed through it: the durable
           alternative to the lossy [rejoin] *)
        match t.ctrl with
        | Some mine ->
          let mine, out = Controller.catch_up mine donor in
          joined t ~delta:false mine out
        | None -> joined t ~delta:false (Controller.rejoin ~site:(Client.site t.client) donor) [])))
  | Client.Delta blob -> (
    match (Proto.decode_delta t.codec blob, t.ctrl) with
    | Error e, _ -> [ Dropped ("bad delta: " ^ e) ]
    | Ok _, None -> [ Dropped "delta without local state" ]
    | Ok d, Some mine -> (
      match Controller.apply_delta mine d with
      | Error e -> [ Dropped ("delta rejected: " ^ e) ]
      | Ok (mine, out) -> joined t ~delta:true mine out))
  | Client.Message blob -> (
    match (Proto.decode_message_stamped t.codec blob, t.ctrl) with
    | Error e, _ -> [ Dropped ("bad message: " ^ e) ]
    | Ok _, None -> [ Dropped "message before the state transfer" ]
    | Ok (stamp, m), Some c -> (
      (* the blob decoded, but applying it is what validates its
         semantics: a buggy or hostile peer must not abort this site *)
      match Controller.receive c m with
      | exception e -> [ Dropped ("rejected message: " ^ exn_detail e) ]
      | c, emitted ->
        t.ctrl <- Some c;
        Option.iter
          (fun (s : Proto.stamp) -> M.observe t.e2e_ns (Obs.Clock.now_ns () - s.Proto.s_ns))
          stamp;
        record t (Persist.Received m);
        List.iter (send t) emitted;
        [ Integrated m ]))
  | Client.Beacon blob -> (
    match (Proto.decode_frontier blob, t.ctrl) with
    | Error e, _ -> [ Dropped ("bad frontier: " ^ e) ]
    | Ok _, None -> []
    | Ok entries, Some c ->
      t.ctrl <-
        Some
          (List.fold_left
             (fun c (b : Proto.beacon) ->
               Controller.receive_beacon c ~peer:b.Proto.b_site ~clock:b.Proto.b_clock
                 ~version:b.Proto.b_version)
             c entries);
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

(* Journal before broadcast: the group must never hold a request its
   origin site could forget in a crash. *)
let generate t op =
  match t.ctrl with
  | None -> Error "not joined yet"
  | Some c -> (
    match Controller.generate c op with
    | _, Controller.Denied reason -> Error reason
    | c, Controller.Accepted m ->
      t.ctrl <- Some c;
      record t (Persist.Generated op);
      send t m;
      Ok m)

let admin t op =
  match t.ctrl with
  | None -> Error "not joined yet"
  | Some c -> (
    match Controller.admin_update c op with
    | Error e -> Error e
    | Ok (c, m) ->
      t.ctrl <- Some c;
      record t (Persist.Admin_cmd op);
      send t m;
      Ok m)

let close t =
  Client.close t.client;
  checkpoint t;
  Option.iter Persist.close t.journal
