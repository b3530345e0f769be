type 'e factory =
  string -> ('e Dce_core.Controller.t * 'e Dce_store.Persist.t option, string) result

type 'e t = {
  tbl : (string, 'e Session.t) Hashtbl.t;
  factory : 'e factory;
  max_docs : int;
  trace : Dce_obs.Trace.sink;
}

let create ?(max_docs = 4096) ?(trace = Dce_obs.Trace.null) ~factory () =
  { tbl = Hashtbl.create 16; factory; max_docs; trace }

let find t name = Hashtbl.find_opt t.tbl name

let count t = Hashtbl.length t.tbl

let open_doc t name =
  match Doc_name.validate name with
  | Error e -> Error e
  | Ok name -> (
    match Hashtbl.find_opt t.tbl name with
    | Some s -> Ok s
    | None ->
      if Hashtbl.length t.tbl >= t.max_docs then
        Error (Printf.sprintf "registry full (%d documents)" t.max_docs)
      else (
        match t.factory name with
        | Error e -> Error (Printf.sprintf "cannot open %S: %s" name e)
        | Ok (controller, journal) ->
          let replica = Dce_store.Replica.create ~trace:t.trace ?journal controller in
          let s = Session.create ~name ~replica in
          Hashtbl.add t.tbl name s;
          Ok s))

let docs t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl []
  |> List.sort (fun a b -> compare (Session.name a) (Session.name b))

let names t = List.map Session.name (docs t)
