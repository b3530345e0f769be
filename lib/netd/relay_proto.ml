open Dce_wire.Codec

type t =
  | Ping
  | Pong
  | Bye of string
  (* multi-document multiplexing: every frame that carries session
     traffic names its document *)
  | Attach of { doc : string; site : int }
  | Attached of { doc : string; relay_site : int; heartbeat_ms : int }
  | Detach of { doc : string }
  | Doc_snapshot of { doc : string; state : string }
  | Doc_msg of { doc : string; origin : int; msg : string }
  (* stability protocol.  [Attach_at] is [Attach] plus the joiner's
     resume point (an encoded [Proto] frontier beacon): the hub answers
     [Doc_delta] when its log still covers that point, [Doc_snapshot]
     otherwise.  [Beacon] carries an encoded frontier — one entry from a
     client, a whole membership aggregate from a hub — and flows both
     ways.  Payloads stay opaque strings here, like snapshots and
     messages, so this layer never depends on the document codec. *)
  | Attach_at of { doc : string; site : int; resume : string }
  | Doc_delta of { doc : string; delta : string }
  | Beacon of { doc : string; frontier : string }

let put b = function
  | Ping -> put_char b 'P'
  | Pong -> put_char b 'Q'
  | Bye reason ->
    put_char b 'B';
    put_string b reason
  | Attach { doc; site } ->
    put_char b 'A';
    put_string b doc;
    put_varint b site
  | Attached { doc; relay_site; heartbeat_ms } ->
    put_char b 'a';
    put_string b doc;
    put_varint b relay_site;
    put_varint b heartbeat_ms
  | Detach { doc } ->
    put_char b 'D';
    put_string b doc
  | Doc_snapshot { doc; state } ->
    put_char b 's';
    put_string b doc;
    put_string b state
  | Doc_msg { doc; origin; msg } ->
    put_char b 'm';
    put_string b doc;
    put_varint b origin;
    put_string b msg
  | Attach_at { doc; site; resume } ->
    put_char b 'J';
    put_string b doc;
    put_varint b site;
    put_string b resume
  | Doc_delta { doc; delta } ->
    put_char b 'e';
    put_string b doc;
    put_string b delta
  | Beacon { doc; frontier } ->
    put_char b 'F';
    put_string b doc;
    put_string b frontier

let get d =
  let* c = get_char d in
  match c with
  | 'P' -> Ok Ping
  | 'Q' -> Ok Pong
  | 'B' ->
    let* reason = get_string d in
    Ok (Bye reason)
  | 'A' ->
    let* doc = get_string d in
    let* site = get_varint d in
    Ok (Attach { doc; site })
  | 'a' ->
    let* doc = get_string d in
    let* relay_site = get_varint d in
    let* heartbeat_ms = get_varint d in
    Ok (Attached { doc; relay_site; heartbeat_ms })
  | 'D' ->
    let* doc = get_string d in
    Ok (Detach { doc })
  | 's' ->
    let* doc = get_string d in
    let* state = get_string d in
    Ok (Doc_snapshot { doc; state })
  | 'm' ->
    let* doc = get_string d in
    let* origin = get_varint d in
    let* msg = get_string d in
    Ok (Doc_msg { doc; origin; msg })
  | 'J' ->
    let* doc = get_string d in
    let* site = get_varint d in
    let* resume = get_string d in
    Ok (Attach_at { doc; site; resume })
  | 'e' ->
    let* doc = get_string d in
    let* delta = get_string d in
    Ok (Doc_delta { doc; delta })
  | 'F' ->
    let* doc = get_string d in
    let* frontier = get_string d in
    Ok (Beacon { doc; frontier })
  | c -> Error (Printf.sprintf "unknown relay message kind %C" c)

let encode m = to_string put m

let decode s = of_string get s

let label = function
  | Ping -> "ping"
  | Pong -> "pong"
  | Bye _ -> "bye"
  | Attach _ -> "attach"
  | Attached _ -> "attached"
  | Detach _ -> "detach"
  | Doc_snapshot _ -> "doc_snapshot"
  | Doc_msg _ -> "doc_msg"
  | Attach_at _ -> "attach_at"
  | Doc_delta _ -> "doc_delta"
  | Beacon _ -> "beacon"
