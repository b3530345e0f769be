module Obs = Dce_obs
module Proto = Dce_wire.Proto
module Controller = Dce_core.Controller

type 'e t = {
  journal : 'e Persist.t option;
  trace : Obs.Trace.sink;
  mutable ctrl : 'e Controller.t;
  mutable errors : int;
}

let controller t = t.ctrl
let journal t = t.journal
let journal_errors t = t.errors

let note ?peer t action detail =
  if Obs.Trace.enabled t.trace then begin
    let c = t.ctrl in
    let peer = Option.value peer ~default:(Controller.site c) in
    Obs.Trace.emit t.trace ~site:(Controller.site c) ~clock:(Controller.clock c)
      ~version:(Controller.version c)
      (Obs.Trace.Net { peer; action; detail })
  end

let exn_detail = function
  | Invalid_argument m | Failure m | Dce_ot.Document.Edit_conflict m | Io.Io_error m -> m
  | e -> Printexc.to_string e

let failed t detail =
  t.errors <- t.errors + 1;
  note t "journal_error" detail

let checked t why = function
  | Ok true -> note t "checkpoint" why
  | Ok false -> ()
  | Error e -> failed t e

let checkpoint t why =
  Option.iter
    (fun j -> checked t why (Result.map (fun () -> true) (Persist.checkpoint j t.ctrl)))
    t.journal

(* a log with no snapshot under it cannot be replayed *)
let unbased j = Option.is_none (Persist.checkpoint_clock j)

(* Called once the controller holds the input, so a snapshot taken here
   contains it. *)
let record t r =
  match t.journal with
  | None -> ()
  | Some j when unbased j -> checkpoint t "base"
  | Some j -> (
    match Persist.record j r with
    | () -> checked t "cadence" (Persist.maybe_checkpoint j t.ctrl)
    | exception ((Unix.Unix_error _ | Io.Io_error _) as e) ->
      failed t (exn_detail e);
      checkpoint t "after a failed append")

let make ?(trace = Obs.Trace.null) ?journal ctrl = { journal; trace; ctrl; errors = 0 }

let create ?trace ?journal ctrl =
  let t = make ?trace ?journal ctrl in
  if Option.fold ~none:false ~some:unbased journal then checkpoint t "base";
  t

let rejoin ?trace ?journal ~site donor =
  let t = make ?trace ?journal (Controller.rejoin ~site donor) in
  checkpoint t "state transfer";
  t

(* The controller took input [r]: journal it before its output goes
   back to the caller. *)
let accepted t c r out =
  t.ctrl <- c;
  record t r;
  Ok out

let generate t op =
  match Controller.generate t.ctrl op with
  | _, Controller.Denied reason -> Error reason
  | c, Controller.Accepted m -> accepted t c (Persist.Generated op) m

let admin t op =
  match Controller.admin_update t.ctrl op with
  | Error _ as e -> e
  | Ok (c, m) -> accepted t c (Persist.Admin_cmd op) m

let receive t m =
  match Controller.receive t.ctrl m with
  | exception e -> Error (exn_detail e)
  | c, emitted -> accepted t c (Persist.Received m) emitted

(* A state transfer brought in history the log never saw.  Like a
   [receive], one that raises or declines changes nothing. *)
let transfer t f =
  match f t.ctrl with
  | exception e -> Error (exn_detail e)
  | Error _ as e -> e
  | Ok (c, out) ->
    t.ctrl <- c;
    checkpoint t "state transfer";
    Ok out

let catch_up t donor = transfer t (fun c -> Ok (Controller.catch_up c donor))
let apply_delta t d = transfer t (fun c -> Controller.apply_delta c d)

let absorb t entries =
  t.ctrl <-
    List.fold_left
      (fun c (b : Proto.beacon) ->
        Controller.receive_beacon c ~peer:b.Proto.b_site ~clock:b.Proto.b_clock
          ~version:b.Proto.b_version)
      t.ctrl entries

let compact t =
  match t.journal with
  | None -> t.ctrl <- Controller.compact t.ctrl
  | Some j ->
    let c, taken = Persist.compact j t.ctrl in
    checked t "pre-compaction" taken;
    t.ctrl <- c

let close t =
  checkpoint t "close";
  Option.iter Persist.close t.journal
