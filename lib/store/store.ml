type config = {
  fsync : Wal.fsync_policy;
  snapshot_every : int;
  keep_generations : int;
}

let default_config = { fsync = Wal.Interval 64; snapshot_every = 1024; keep_generations = 2 }

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Wal.Always
  | "never" -> Ok Wal.Never
  | s -> (
    match Scanf.sscanf_opt s "interval:%d" Fun.id with
    | Some n when n > 0 -> Ok (Wal.Interval n)
    | _ -> Error (Printf.sprintf "bad fsync policy %S (always, never or interval:N)" s))

let fsync_policy_to_string = function
  | Wal.Always -> "always"
  | Wal.Never -> "never"
  | Wal.Interval n -> Printf.sprintf "interval:%d" n

type recovered = {
  generation : int;
  snapshot : string option;
  wal_records : string list;
  wal_truncated_bytes : int;
}

type t = {
  cfg : config;
  io : Io.t;
  dir : string;
  mutable generation : int;
  mutable wal : Wal.t;
}

let wal_name gen = Printf.sprintf "wal-%010d.log" gen

let wal_path dir gen = Filename.concat dir (wal_name gen)

let opendir ?(config = default_config) ?(io = Io.fs) dir =
  match io.Io.mkdir_p dir with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "store: cannot create %s: %s" dir (Unix.error_message e))
  | exception Io.Io_error e ->
    Error (Printf.sprintf "store: cannot create %s: %s" dir e)
  | () ->
    let generation, snapshot =
      match Snapshot.load_latest ~io ~dir () with
      | Some (gen, blob) -> (gen, Some blob)
      | None -> (0, None)
    in
    (match Wal.openfile ~fsync:config.fsync ~io (wal_path dir generation) with
     | Error _ as e -> e
     | Ok (wal, rec_) ->
       Ok
         ( { cfg = config; io; dir; generation; wal },
           {
             generation;
             snapshot;
             wal_records = rec_.Wal.records;
             wal_truncated_bytes = rec_.Wal.truncated_bytes;
           } ))

let append t record = Wal.append t.wal record

let should_checkpoint t = Wal.records_written t.wal >= max 1 t.cfg.snapshot_every

let checkpoint t blob =
  let next = t.generation + 1 in
  match Snapshot.write ~io:t.io ~dir:t.dir ~gen:next blob with
  | Error _ as e -> e
  | Ok () -> (
    (* the new generation's log must start empty: after a fallback
       recovery an abandoned wal-<next> from a previous life may exist,
       and its records are NOT part of snapshot <next> *)
    t.io.Io.remove (wal_path t.dir next);
    match Wal.openfile ~fsync:t.cfg.fsync ~io:t.io (wal_path t.dir next) with
    | Error _ as e -> e
    | Ok (wal, _) ->
      Wal.close t.wal;
      t.wal <- wal;
      t.generation <- next;
      Snapshot.prune ~io:t.io ~dir:t.dir ~keep:t.cfg.keep_generations ();
      (* A log is removable only once TWO retained snapshots supersede
         it: if every newer snapshot were to fail its frame check,
         recovery falls back past them to [snap-g + wal-g] (or, below
         the first checkpoint, to a bare replay of wal-0) — so the
         youngest two fallback targets keep their logs. *)
      let retained = Snapshot.generations ~io:t.io ~dir:t.dir () in
      let superseded g = List.length (List.filter (fun s -> s > g) retained) >= 2 in
      List.iter
        (fun name ->
          match Scanf.sscanf_opt name "wal-%d.log" Fun.id with
          | Some g when name = wal_name g && g <> next && superseded g ->
            t.io.Io.remove (Filename.concat t.dir name)
          | _ -> ())
        (t.io.Io.list_dir t.dir);
      Ok ())

let generation t = t.generation
let records_since_checkpoint t = Wal.records_written t.wal
let dir t = t.dir
let sync t = Wal.sync t.wal
let close t = Wal.close t.wal
