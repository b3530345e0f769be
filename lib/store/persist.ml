open Dce_core
module Codec = Dce_wire.Codec
module Proto = Dce_wire.Proto

type 'e record =
  | Generated of 'e Dce_ot.Op.t
  | Admin_cmd of Admin_op.t
  | Received of 'e Controller.message

let put_record ec b = function
  | Generated op ->
    Codec.put_char b 'G';
    Proto.put_op ec b op
  | Admin_cmd op ->
    Codec.put_char b 'A';
    Proto.put_admin_op b op
  | Received m ->
    Codec.put_char b 'R';
    Proto.put_message ec b m

let get_record ec d =
  let ( let* ) = Codec.( let* ) in
  let* c = Codec.get_char d in
  match c with
  | 'G' ->
    let* op = Proto.get_op ec d in
    Ok (Generated op)
  | 'A' ->
    let* op = Proto.get_admin_op d in
    Ok (Admin_cmd op)
  | 'R' ->
    let* m = Proto.get_message ec d in
    Ok (Received m)
  | c -> Error (Printf.sprintf "unknown journal record kind %C" c)

let encode_record ec r = Codec.to_string (put_record ec) r

let decode_record ec s = Codec.of_string (get_record ec) s

type 'e t = {
  ec : 'e Proto.elt_codec;
  store : Store.t;
  (* clock of the newest durable snapshot — the durability cut; [None]
     while there is no snapshot for the log to replay onto.  Log
     compaction must never outrun it: crash replay starts from the
     snapshot and re-drives the WAL through [receive]. *)
  mutable checkpoint_clock : Dce_ot.Vclock.t option;
}

type 'e recovery = {
  controller : 'e Controller.t option;
  replayed : int;
  truncated_bytes : int;
  emitted : 'e Controller.message list;
}

(* Re-drive one journaled input through the entry point that produced
   it.  [generate] and [admin_update] are pure functions of controller
   state, so a record that was accepted live is accepted identically on
   replay; one that was denied live no-ops again — either way the record
   is harmless and the outcome deterministic. *)
let replay_record (c, emitted) = function
  | Generated op -> (
    match Controller.generate c op with
    | c, Controller.Accepted m -> (c, m :: emitted)
    | c, Controller.Denied _ -> (c, emitted))
  | Admin_cmd op -> (
    match Controller.admin_update c op with
    | Ok (c, m) -> (c, m :: emitted)
    | Error _ -> (c, emitted))
  | Received m ->
    let c, out = Controller.receive c m in
    (c, List.rev_append out emitted)

let opendir ?config ?io ?(eq = ( = )) ?(trace = Dce_obs.Trace.null) ~codec dir =
  match Store.opendir ?config ?io dir with
  | Error e -> Error e
  | Ok (store, recovered) -> (
    let t =
      {
        ec = codec;
        store;
        checkpoint_clock = None;
      }
    in
    match recovered.Store.snapshot with
    | None ->
      if recovered.Store.wal_records <> [] then begin
        Store.close store;
        Error
          (Printf.sprintf
             "store %s: %d log records but no snapshot to replay them onto"
             dir
             (List.length recovered.Store.wal_records))
      end
      else
        Ok
          ( t,
            {
              controller = None;
              replayed = 0;
              truncated_bytes = recovered.Store.wal_truncated_bytes;
              emitted = [];
            } )
    | Some blob -> (
      let loaded =
        match Proto.decode_state codec blob with
        | Error e -> Error ("snapshot: " ^ e)
        | Ok state -> Controller.load ~eq ~trace state
      in
      match loaded with
      | Error e ->
        Store.close store;
        Error (Printf.sprintf "store %s: %s" dir e)
      | Ok c -> (
        t.checkpoint_clock <- Some (Controller.clock c);
        let rec replay acc n = function
          | [] -> Ok (acc, n)
          | raw :: rest -> (
            match decode_record codec raw with
            | Error e ->
              Error (Printf.sprintf "store %s: log record %d: %s" dir n e)
            | Ok r -> replay (replay_record acc r) (n + 1) rest)
        in
        match replay (c, []) 0 recovered.Store.wal_records with
        | Error e ->
          Store.close store;
          Error e
        | Ok ((c, emitted), replayed) ->
          Ok
            ( t,
              {
                controller = Some c;
                replayed;
                truncated_bytes = recovered.Store.wal_truncated_bytes;
                emitted = List.rev emitted;
              } ))))

let record t r =
  if Option.is_none t.checkpoint_clock then
    invalid_arg "Persist.record: checkpoint an initial state first";
  Store.append t.store (encode_record t.ec r)

let checkpoint t c =
  match Store.checkpoint t.store (Proto.encode_state t.ec (Controller.dump c)) with
  | Ok () ->
    t.checkpoint_clock <- Some (Controller.clock c);
    Ok ()
  | Error _ as e -> e

let checkpoint_clock t = t.checkpoint_clock

let maybe_checkpoint t c =
  if Store.should_checkpoint t.store then
    match checkpoint t c with Ok () -> Ok true | Error e -> Error e
  else Ok false

(* Durability leads, GC follows: a crash between the checkpoint and the
   compaction only ever leaves extra log, never a hole. *)
let compact t c =
  let taken =
    match t.checkpoint_clock with
    | Some cut when Dce_ot.Vclock.leq (Controller.stable_frontier c) cut -> Ok false
    | _ -> Result.map (fun () -> true) (checkpoint t c)
  in
  match t.checkpoint_clock with
  | Some limit -> (Controller.compact ~limit c, taken)
  | None -> (c, taken)

let fingerprint t c = Proto.fingerprint t.ec c

let generation t = Store.generation t.store
let records_since_checkpoint t = Store.records_since_checkpoint t.store
let dir t = Store.dir t.store
let sync t = Store.sync t.store
let close t = Store.close t.store
