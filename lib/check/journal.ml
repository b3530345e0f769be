open Dce_ot
open Dce_core
module Io = Dce_store.Io
module Store = Dce_store.Store
module Snapshot = Dce_store.Snapshot
module Persist = Dce_store.Persist
module Replica = Dce_store.Replica
module Proto = Dce_wire.Proto

type t = {
  image : Io.Mem.image;
  cfg : Store.config;
  cut : Vclock.t option;
}

(* one virtual directory per journal; images never mix *)
let dir = "/j"

let default_config =
  { Store.fsync = Dce_store.Wal.Always; snapshot_every = 2; keep_generations = 2 }

let opendir cfg w =
  Persist.opendir ~config:cfg ~io:(Io.Mem.io w) ~eq:Char.equal ~codec:Proto.char_codec dir

(* Restore a private world from the image, reopen the production journal
   over it and run [f] on a replica over that journal.  [opendir] itself
   replays the log — that cost is the point: every step crosses the same
   recovery path the daemons use, and the replica's cadence counts the
   log it would replay. *)
let with_replica t c f =
  let w = Io.Mem.restore t.image in
  match opendir t.cfg w with
  | Error e -> failwith ("checker journal: reopen failed: " ^ e)
  | Ok (p, _) ->
    let gen = Persist.generation p in
    let r = Replica.create ~journal:p c in
    let x = f r in
    if Replica.journal_errors r > 0 then failwith "checker journal: a journal write failed";
    let checkpointed = Persist.generation p <> gen in
    let cut = Persist.checkpoint_clock p in
    Persist.close p;
    ({ t with image = Io.Mem.snapshot w; cut }, Replica.controller r, x, checkpointed)

(* the replica's base-snapshot rule takes the first checkpoint *)
let create ?(config = default_config) c =
  let empty = { image = Io.Mem.snapshot (Io.Mem.create ()); cfg = config; cut = None } in
  let t, _, (), _ = with_replica empty c ignore in
  t

let cut t = t.cut

let generations t =
  let w = Io.Mem.restore t.image in
  Snapshot.generations ~io:(Io.Mem.io w) ~dir ()

let crash t =
  let w = Io.Mem.restore t.image in
  Io.Mem.crash w;
  { t with image = Io.Mem.snapshot w }

let corrupt_newest_snapshot t =
  let w = Io.Mem.restore t.image in
  match List.rev (Snapshot.generations ~io:(Io.Mem.io w) ~dir ()) with
  | [] | [ _ ] -> None
  | newest :: _ ->
    if Io.Mem.corrupt_file w (Filename.concat dir (Snapshot.filename newest)) then
      Some { t with image = Io.Mem.snapshot w }
    else None

type recovery = { controller : char Controller.t; replayed : int }

let recover t =
  let w = Io.Mem.restore t.image in
  match opendir t.cfg w with
  | Error e -> Error e
  | Ok (p, r) -> (
    let cut = Persist.checkpoint_clock p in
    Persist.close p;
    match r.Persist.controller with
    | None -> Error "recovery found no snapshot to rebuild from"
    | Some controller ->
      Ok
        ( { t with image = Io.Mem.snapshot w; cut },
          { controller; replayed = r.Persist.replayed } ))

let fingerprint t = Io.Mem.image_fingerprint t.image
