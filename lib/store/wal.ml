module Codec = Dce_wire.Codec

type fsync_policy = Always | Interval of int | Never

type recovery = {
  records : string list;
  valid_bytes : int;
  truncated_bytes : int;
}

type t = {
  fsync : fsync_policy;
  mutable log : Io.log option;
  mutable written : int; (* records in the log, recovered ones included *)
  mutable unsynced : int; (* appends since the last fsync *)
}

(* Scan the whole file and keep the longest prefix of valid frames.
   [Truncated] at the tail is the normal signature of a crash mid-write;
   [Corrupt] anywhere means bit rot or a torn overwrite — either way
   everything from the first bad byte on is dropped, because records
   after a gap cannot be trusted to align with frame boundaries. *)
let scan data =
  let stop = String.length data in
  let rec go pos acc =
    if pos >= stop then (List.rev acc, pos)
    else
      match Codec.unframe_prefix data ~pos with
      | Ok (payload, next) -> go next (payload :: acc)
      | Error (Codec.Truncated | Codec.Corrupt _) -> (List.rev acc, pos)
  in
  go 0 []

let openfile ?(fsync = Interval 64) ?(io = Io.fs) path =
  match io.Io.open_log path with
  | Error e -> Error (Printf.sprintf "wal: cannot open %s: %s" path e)
  | Ok (data, log) -> (
    try
      let records, valid_bytes = scan data in
      let truncated_bytes = String.length data - valid_bytes in
      if truncated_bytes > 0 then log.Io.log_truncate valid_bytes;
      Ok
        ( { fsync; log = Some log; written = List.length records; unsynced = 0 },
          { records; valid_bytes; truncated_bytes } )
    with
    | Unix.Unix_error (e, _, _) ->
      log.Io.log_close ();
      Error (Printf.sprintf "wal: cannot recover %s: %s" path (Unix.error_message e))
    | Io.Io_error e ->
      log.Io.log_close ();
      Error (Printf.sprintf "wal: cannot recover %s: %s" path e))

let live t =
  match t.log with
  | Some log -> log
  | None -> invalid_arg "Wal: log is closed"

let append t payload =
  let log = live t in
  log.Io.log_append (Codec.frame payload);
  t.written <- t.written + 1;
  t.unsynced <- t.unsynced + 1;
  match t.fsync with
  | Always ->
    log.Io.log_fsync ();
    t.unsynced <- 0
  | Interval n when t.unsynced >= n ->
    log.Io.log_fsync ();
    t.unsynced <- 0
  | Interval _ | Never -> ()

let sync t =
  match t.log with
  | None -> ()
  | Some log ->
    log.Io.log_fsync ();
    t.unsynced <- 0

let records_written t = t.written

let close t =
  match t.log with
  | None -> ()
  | Some log ->
    (match t.fsync with
     | Never -> ()
     | Always | Interval _ -> (
       try log.Io.log_fsync () with Unix.Unix_error _ | Io.Io_error _ -> ()));
    log.Io.log_close ();
    t.log <- None
