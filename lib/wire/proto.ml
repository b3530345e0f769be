open Dce_ot
open Dce_core
open Codec

type 'e elt_codec = {
  put : Codec.encoder -> 'e -> unit;
  get : Codec.decoder -> 'e Codec.result;
  put_run : Codec.encoder -> 'e Tdoc.run -> unit;
  get_run : Codec.decoder -> 'e Tdoc.run Codec.result;
}

(* a character is one byte, so a packed run goes out as it is stored and
   a whole element section comes back as one bounded read: what
   [put_string] writes and [get_string] reads *)
let char_codec =
  {
    put = put_char;
    get = get_char;
    put_run =
      (fun b -> function
        | Tdoc.Chars s -> Buffer.add_string b s
        | Tdoc.Elts a -> Array.iter (put_char b) a);
    get_run =
      (fun d ->
        let* s = get_string d in
        Ok (Tdoc.Chars s));
  }

let string_codec =
  {
    put = put_string;
    get = get_string;
    (* a string run is never packed *)
    put_run = (fun b (Tdoc.Elts a) -> Array.iter (put_string b) a);
    get_run =
      (fun d ->
        let* a = get_array get_string d in
        Ok (Tdoc.Elts a));
  }

(* ----- Vclock ----- *)

let put_vclock b c = put_list (put_pair put_varint put_varint) b (Vclock.to_list c)

let get_vclock d =
  let* l = get_list (get_pair get_varint get_varint) d in
  Ok (Vclock.of_list l)

(* ----- Op ----- *)

let put_tag b { Op.stamp; site } =
  put_varint b stamp;
  put_varint b site

let get_tag d =
  let* stamp = get_varint d in
  let* site = get_varint d in
  Ok { Op.stamp; site }

let put_op ec b = function
  | Op.Ins { pos; elt; pr } ->
    put_char b 'I';
    put_varint b pos;
    ec.put b elt;
    put_varint b pr
  | Op.Del { pos; elt } ->
    put_char b 'D';
    put_varint b pos;
    ec.put b elt
  | Op.Undel { pos; elt } ->
    put_char b 'R';
    put_varint b pos;
    ec.put b elt
  | Op.Up { pos; before; after; tag } ->
    put_char b 'U';
    put_varint b pos;
    ec.put b before;
    ec.put b after;
    put_tag b tag
  | Op.Unup { pos; value; tag } ->
    put_char b 'V';
    put_varint b pos;
    ec.put b value;
    put_tag b tag
  | Op.Nop -> put_char b 'N'

let get_op ec d =
  let* kind = get_char d in
  match kind with
  | 'I' ->
    let* pos = get_varint d in
    let* elt = ec.get d in
    let* pr = get_varint d in
    Ok (Op.ins ~pr pos elt)
  | 'D' ->
    let* pos = get_varint d in
    let* elt = ec.get d in
    Ok (Op.del pos elt)
  | 'R' ->
    let* pos = get_varint d in
    let* elt = ec.get d in
    Ok (Op.undel pos elt)
  | 'U' ->
    let* pos = get_varint d in
    let* before = ec.get d in
    let* after = ec.get d in
    let* tag = get_tag d in
    Ok (Op.up ~tag pos before after)
  | 'V' ->
    let* pos = get_varint d in
    let* value = ec.get d in
    let* tag = get_tag d in
    Ok (Op.unup ~tag pos value)
  | 'N' -> Ok Op.Nop
  | c -> Error (Printf.sprintf "unknown operation kind %C" c)

(* ----- Request ----- *)

let put_id b { Request.site; serial } =
  put_varint b site;
  put_varint b serial

let get_id d =
  let* site = get_varint d in
  let* serial = get_varint d in
  Ok { Request.site; serial }

let put_flag b f =
  put_char b
    (match f with
     | Request.Tentative -> 'T'
     | Request.Valid -> 'V'
     | Request.Invalid -> 'X')

let get_flag d =
  let* c = get_char d in
  match c with
  | 'T' -> Ok Request.Tentative
  | 'V' -> Ok Request.Valid
  | 'X' -> Ok Request.Invalid
  | c -> Error (Printf.sprintf "unknown request flag %C" c)

let put_request ec b (q : _ Request.t) =
  put_id b q.Request.id;
  put_option put_id b q.Request.dep;
  put_op ec b q.Request.op;
  put_op ec b q.Request.gen_op;
  put_vclock b q.Request.ctx;
  put_varint b q.Request.policy_version;
  put_flag b q.Request.flag

(* [gen_op] is [op] until the request is transformed, so many requests
   carry one operation twice: it is decoded, and kept, once *)
let get_request ec d =
  let* id = get_id d in
  let* dep = get_option get_id d in
  let* op, gen_op = get_pair_shared (get_op ec) d in
  let* ctx = get_vclock d in
  let* policy_version = get_varint d in
  let* flag = get_flag d in
  Ok { Request.id; dep; op; gen_op; ctx; policy_version; flag }

(* ----- Policy components ----- *)

let put_subject b = function
  | Subject.Any -> put_char b 'A'
  | Subject.User u ->
    put_char b 'U';
    put_varint b u
  | Subject.Group g ->
    put_char b 'G';
    put_string b g

let get_subject d =
  let* c = get_char d in
  match c with
  | 'A' -> Ok Subject.Any
  | 'U' ->
    let* u = get_varint d in
    Ok (Subject.User u)
  | 'G' ->
    let* g = get_string d in
    Ok (Subject.Group g)
  | c -> Error (Printf.sprintf "unknown subject kind %C" c)

let put_docobj b = function
  | Docobj.Whole -> put_char b 'W'
  | Docobj.Element p ->
    put_char b 'E';
    put_varint b p
  | Docobj.Zone { lo; hi } ->
    put_char b 'Z';
    put_varint b lo;
    put_varint b hi
  | Docobj.Named n ->
    put_char b 'N';
    put_string b n

let get_docobj d =
  let* c = get_char d in
  match c with
  | 'W' -> Ok Docobj.Whole
  | 'E' ->
    let* p = get_varint d in
    Ok (Docobj.Element p)
  | 'Z' ->
    let* lo = get_varint d in
    let* hi = get_varint d in
    if lo > hi then Error "invalid zone bounds" else Ok (Docobj.zone lo hi)
  | 'N' ->
    let* n = get_string d in
    Ok (Docobj.Named n)
  | c -> Error (Printf.sprintf "unknown object kind %C" c)

let put_right b r = put_string b (Right.to_string r)

let get_right d =
  let* s = get_string d in
  match Right.of_string s with
  | Some r -> Ok r
  | None -> Error (Printf.sprintf "unknown right %S" s)

let put_auth b (a : Auth.t) =
  put_list put_subject b a.Auth.subjects;
  put_list put_docobj b a.Auth.objects;
  put_list put_right b a.Auth.rights;
  put_bool b (a.Auth.sign = Auth.Positive)

let get_auth d =
  let* subjects = get_list get_subject d in
  let* objects = get_list get_docobj d in
  let* rights = get_list get_right d in
  let* positive = get_bool d in
  if subjects = [] || objects = [] || rights = [] then
    Error "authorization with an empty component"
  else
    Ok (Auth.make ~subjects ~objects ~rights (if positive then Auth.Positive else Auth.Negative))

let put_policy b p =
  put_list put_varint b (Policy.users p);
  put_list (put_pair put_string (put_list put_varint)) b (Policy.groups p);
  put_list (put_pair put_string put_docobj) b (Policy.objects p);
  put_list put_auth b (Policy.auths p)

let get_policy d =
  let* users = get_list get_varint d in
  let* groups = get_list (get_pair get_string (get_list get_varint)) d in
  let* objects = get_list (get_pair get_string get_docobj) d in
  let* auths = get_list get_auth d in
  Ok (Policy.make ~users ~groups ~objects auths)

(* ----- Admin ----- *)

let put_admin_op b = function
  | Admin_op.Add_user u ->
    put_char b 'u';
    put_varint b u
  | Admin_op.Del_user u ->
    put_char b 'U';
    put_varint b u
  | Admin_op.Add_to_group (g, u) ->
    put_char b 'g';
    put_string b g;
    put_varint b u
  | Admin_op.Del_from_group (g, u) ->
    put_char b 'G';
    put_string b g;
    put_varint b u
  | Admin_op.Add_obj (n, o) ->
    put_char b 'o';
    put_string b n;
    put_docobj b o
  | Admin_op.Del_obj n ->
    put_char b 'O';
    put_string b n
  | Admin_op.Add_auth (p, a) ->
    put_char b 'a';
    put_varint b p;
    put_auth b a
  | Admin_op.Del_auth p ->
    put_char b 'A';
    put_varint b p
  | Admin_op.Validate id ->
    put_char b 'v';
    put_id b id
  | Admin_op.Transfer_admin u ->
    put_char b 't';
    put_varint b u

let get_admin_op d =
  let* c = get_char d in
  match c with
  | 'u' ->
    let* u = get_varint d in
    Ok (Admin_op.Add_user u)
  | 'U' ->
    let* u = get_varint d in
    Ok (Admin_op.Del_user u)
  | 'g' ->
    let* g = get_string d in
    let* u = get_varint d in
    Ok (Admin_op.Add_to_group (g, u))
  | 'G' ->
    let* g = get_string d in
    let* u = get_varint d in
    Ok (Admin_op.Del_from_group (g, u))
  | 'o' ->
    let* n = get_string d in
    let* o = get_docobj d in
    Ok (Admin_op.Add_obj (n, o))
  | 'O' ->
    let* n = get_string d in
    Ok (Admin_op.Del_obj n)
  | 'a' ->
    let* p = get_varint d in
    let* a = get_auth d in
    Ok (Admin_op.Add_auth (p, a))
  | 'A' ->
    let* p = get_varint d in
    Ok (Admin_op.Del_auth p)
  | 'v' ->
    let* id = get_id d in
    Ok (Admin_op.Validate id)
  | 't' ->
    let* u = get_varint d in
    Ok (Admin_op.Transfer_admin u)
  | c -> Error (Printf.sprintf "unknown administrative operation %C" c)

let put_admin_request b (r : Admin_op.request) =
  put_varint b r.Admin_op.admin;
  put_varint b r.Admin_op.version;
  put_admin_op b r.Admin_op.op;
  put_vclock b r.Admin_op.ctx

let get_admin_request d =
  let* admin = get_varint d in
  let* version = get_varint d in
  let* op = get_admin_op d in
  let* ctx = get_vclock d in
  Ok { Admin_op.admin; version; op; ctx }

(* ----- Messages ----- *)

(* An optional origin stamp rides in front of the message kind byte:
   'S', then origin site, origin wall-clock (ns since the epoch, fits
   the 63-bit varint range until ~2262) and a per-process trace id.
   Decoders that don't care ({!get_message}) skip it transparently, so
   stamped and unstamped messages — including pre-stamp journal records
   — share one wire format. *)

type stamp = { s_site : int; s_ns : int; s_tid : int }

let tid_counter = ref 0

let stamp_now ~site () =
  incr tid_counter;
  { s_site = site; s_ns = Dce_obs.Clock.now_ns (); s_tid = !tid_counter }

let put_stamp b s =
  put_char b 'S';
  put_varint b s.s_site;
  put_varint b s.s_ns;
  put_varint b s.s_tid

let put_message ?stamp ec b m =
  (match stamp with Some s -> put_stamp b s | None -> ());
  match m with
  | Controller.Coop q ->
    put_char b 'C';
    put_request ec b q
  | Controller.Admin r ->
    put_char b 'M';
    put_admin_request b r

let get_message_stamped ec d =
  let* c = get_char d in
  let* stamp, c =
    if c = 'S' then
      let* s_site = get_varint d in
      let* s_ns = get_varint d in
      let* s_tid = get_varint d in
      let* c = get_char d in
      Ok (Some { s_site; s_ns; s_tid }, c)
    else Ok (None, c)
  in
  match c with
  | 'C' ->
    let* q = get_request ec d in
    Ok (stamp, Controller.Coop q)
  | 'M' ->
    let* r = get_admin_request d in
    Ok (stamp, Controller.Admin r)
  | c -> Error (Printf.sprintf "unknown message kind %C" c)

let get_message ec d =
  let* _, m = get_message_stamped ec d in
  Ok m

let encode_message ?stamp ec m = frame (to_string (put_message ?stamp ec) m)

let decode_message ec s =
  let* payload = unframe s in
  of_string (get_message ec) payload

let decode_message_stamped ec s =
  let* payload = unframe s in
  of_string (get_message_stamped ec) payload

(* ----- Controller state ----- *)

let put_write ec b (w : _ Tdoc.write) =
  put_tag b w.Tdoc.wtag;
  ec.put b w.Tdoc.value;
  put_varint b w.Tdoc.retracted

let get_write ec d =
  let* wtag = get_tag d in
  let* value = ec.get d in
  let* retracted = get_varint d in
  Ok { Tdoc.wtag; value; retracted }

(* The document section: the model length, then every cell's element
   in model order (the element codec's runs), then the touched cells (a
   write or a hide count) in model order, each as its gap from the
   previous touched position (the first from 0), its writes and its
   hide count.  A touched cell's element is the one in the run.  The
   section depends on the cells alone, never on where the chunks split,
   so {!fingerprint} stays canonical. *)
let put_doc ec b d =
  put_varint b (Tdoc.model_length d);
  Tdoc.iter_runs (ec.put_run b) d;
  let touched = Tdoc.fold_touched (fun acc pos c -> (pos, c) :: acc) [] d in
  put_varint b (List.length touched);
  ignore
    (List.fold_left
       (fun prev (pos, (c : _ Tdoc.cell)) ->
         put_varint b (pos - prev);
         put_list (put_write ec) b c.Tdoc.writes;
         put_varint b c.Tdoc.hidden;
         pos)
       0 (List.rev touched))

let get_touched ec d =
  let* gap = get_varint d in
  let* writes = get_list (get_write ec) d in
  let* hidden = get_varint d in
  Ok (gap, writes, hidden)

let get_doc ec d =
  let* elts = ec.get_run d in
  let* touched = get_list (get_touched ec) d in
  let n = Tdoc.run_length elts in
  (* gaps to positions: a gap reaching past [n] is refused here, before
     a sum of hostile gaps can overflow; [Tdoc.of_overlay] checks the
     rest *)
  let rec place prev acc = function
    | [] -> Ok (List.rev acc)
    | (gap, writes, hidden) :: rest ->
      if gap > n - prev then Error "overlay position out of range"
      else place (prev + gap) ((prev + gap, writes, hidden) :: acc) rest
  in
  let* overlay = place 0 [] touched in
  Tdoc.of_overlay elts overlay

let put_entry ec b (e : _ Oplog.entry) =
  (match e.Oplog.role with
   | Oplog.Normal -> put_char b 'n'
   | Oplog.Canceller id ->
     put_char b 'c';
     put_id b id);
  put_request ec b e.Oplog.req

let get_entry ec d =
  let* c = get_char d in
  let* role =
    match c with
    | 'n' -> Ok Oplog.Normal
    | 'c' ->
      let* id = get_id d in
      Ok (Oplog.Canceller id)
    | c -> Error (Printf.sprintf "unknown log entry role %C" c)
  in
  let* req = get_request ec d in
  Ok { Oplog.role; req }

let put_features b (f : Controller.features) =
  put_bool b f.Controller.retroactive_undo;
  put_bool b f.Controller.interval_check;
  put_bool b f.Controller.validation

let get_features d =
  let* retroactive_undo = get_bool d in
  let* interval_check = get_bool d in
  let* validation = get_bool d in
  Ok { Controller.retroactive_undo; interval_check; validation }

let put_state ec b (s : _ Controller.state) =
  put_varint b s.Controller.st_site;
  put_features b s.Controller.st_features;
  put_doc ec b s.Controller.st_doc;
  put_list (put_entry ec) b s.Controller.st_oplog;
  put_vclock b s.Controller.st_compacted;
  put_vclock b s.Controller.st_clock;
  put_varint b s.Controller.st_serial;
  put_policy b s.Controller.st_initial_policy;
  put_varint b s.Controller.st_initial_admin;
  put_list put_admin_request b s.Controller.st_admin_requests;
  put_list (put_request ec) b s.Controller.st_coop_queue;
  put_list put_admin_request b s.Controller.st_admin_queue;
  let put_bound = put_pair put_varint (put_pair put_vclock put_varint) in
  put_list put_bound b s.Controller.st_peer_integrated;
  put_list put_bound b s.Controller.st_peer_admin_hint;
  put_list put_bound b s.Controller.st_peer_beacon

let get_state ec d =
  let* st_site = get_varint d in
  let* st_features = get_features d in
  let* st_doc = get_doc ec d in
  let* st_oplog = get_list (get_entry ec) d in
  let* st_compacted = get_vclock d in
  let* st_clock = get_vclock d in
  let* st_serial = get_varint d in
  let* st_initial_policy = get_policy d in
  let* st_initial_admin = get_varint d in
  let* st_admin_requests = get_list get_admin_request d in
  let* st_coop_queue = get_list (get_request ec) d in
  let* st_admin_queue = get_list get_admin_request d in
  let get_bound = get_pair get_varint (get_pair get_vclock get_varint) in
  let* st_peer_integrated = get_list get_bound d in
  let* st_peer_admin_hint = get_list get_bound d in
  let* st_peer_beacon = get_list get_bound d in
  Ok
    {
      Controller.st_site;
      st_features;
      st_doc;
      st_oplog;
      st_compacted;
      st_clock;
      st_serial;
      st_initial_policy;
      st_initial_admin;
      st_admin_requests;
      st_coop_queue;
      st_admin_queue;
      st_peer_integrated;
      st_peer_admin_hint;
      st_peer_beacon;
    }

(* The state frame alone has version 2: its document section changed
   layout, so a state written before the change is refused rather than
   misread.  Messages, journal records and envelopes keep version 1. *)
let state_version = 2

let encode_state ec s = frame ~version:state_version (to_string (put_state ec) s)

let decode_state ec s =
  let* payload = unframe ~version:state_version s in
  of_string (get_state ec) payload

let fingerprint ec c =
  Digest.to_hex (Digest.string (encode_state ec (Controller.dump c)))

let content_fingerprint ec c =
  (* Covers what every converged replica must agree on — the visible
     document, the policy and the policy version — and nothing
     site-local (site id, serials, peer tables), so two relays hosting
     the same session under different relay sites compare equal. *)
  let b = Buffer.create 256 in
  put_list ec.put b (Controller.visible c);
  put_policy b (Controller.policy c);
  put_varint b (Controller.version c);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ----- stability beacons (frontier gossip) ----- *)

type beacon = { b_site : int; b_clock : Vclock.t; b_version : int }

let put_beacon b (x : beacon) =
  put_varint b x.b_site;
  put_vclock b x.b_clock;
  put_varint b x.b_version

let get_beacon d =
  let* b_site = get_varint d in
  let* b_clock = get_vclock d in
  let* b_version = get_varint d in
  Ok { b_site; b_clock; b_version }

let encode_frontier f = frame (to_string (put_list put_beacon) f)

let decode_frontier s =
  let* payload = unframe s in
  of_string (get_list get_beacon) payload

(* ----- delta catch-up blobs ----- *)

let put_delta ec b (d : _ Controller.delta) =
  put_vclock b d.Controller.dl_clock;
  put_varint b d.Controller.dl_version;
  put_vclock b d.Controller.dl_compacted;
  put_list put_admin_request b d.Controller.dl_admin;
  put_list (put_request ec) b d.Controller.dl_coop;
  put_list (put_request ec) b d.Controller.dl_coop_queue;
  put_list put_admin_request b d.Controller.dl_admin_queue

let get_delta ec d =
  let* dl_clock = get_vclock d in
  let* dl_version = get_varint d in
  let* dl_compacted = get_vclock d in
  let* dl_admin = get_list get_admin_request d in
  let* dl_coop = get_list (get_request ec) d in
  let* dl_coop_queue = get_list (get_request ec) d in
  let* dl_admin_queue = get_list get_admin_request d in
  Ok
    {
      Controller.dl_clock;
      dl_version;
      dl_compacted;
      dl_admin;
      dl_coop;
      dl_coop_queue;
      dl_admin_queue;
    }

let encode_delta ec d = frame (to_string (put_delta ec) d)

let decode_delta ec s =
  let* payload = unframe s in
  of_string (get_delta ec) payload

module Char_proto = struct
  let encode_message ?stamp m = encode_message ?stamp char_codec m
  let decode_message = decode_message char_codec
  let decode_message_stamped = decode_message_stamped char_codec
  let encode_state = encode_state char_codec
  let decode_state = decode_state char_codec
  let encode_delta = encode_delta char_codec
  let decode_delta = decode_delta char_codec

  let save path c =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (encode_state (Controller.dump c)))

  let restore ?trace path =
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match decode_state data with
    | Error _ as e -> e
    | Ok state -> Controller.load ~eq:Char.equal ?trace state
end
