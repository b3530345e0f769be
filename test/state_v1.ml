(* The controller state as it was encoded before the document section
   carried the chunks' element run: a version-1 frame whose document is
   one (element, writes, hide count) triple per model cell, built from
   [Tdoc.model_list].  A test-side reference encoder of that layout:
   the golden digests pin its bytes, so the same session still dumps
   the same state, and the journal tests plant one to check that a
   current reader refuses it. *)

open Dce_ot
open Dce_core
open Dce_wire

let put_tag b { Op.stamp; site } =
  Codec.put_varint b stamp;
  Codec.put_varint b site

let put_write ec b (w : _ Tdoc.write) =
  put_tag b w.Tdoc.wtag;
  ec.Proto.put b w.Tdoc.value;
  Codec.put_varint b w.Tdoc.retracted

let put_cell ec b (c : _ Tdoc.cell) =
  ec.Proto.put b c.Tdoc.elt;
  Codec.put_list (put_write ec) b c.Tdoc.writes;
  Codec.put_varint b c.Tdoc.hidden

let put_entry ec b (e : _ Oplog.entry) =
  (match e.Oplog.role with
   | Oplog.Normal -> Codec.put_char b 'n'
   | Oplog.Canceller { Request.site; serial } ->
     Codec.put_char b 'c';
     Codec.put_varint b site;
     Codec.put_varint b serial);
  Proto.put_request ec b e.Oplog.req

let put_bound = Codec.put_pair Codec.put_varint (Codec.put_pair Proto.put_vclock Codec.put_varint)

let put_state ec b (s : _ Controller.state) =
  let f = s.Controller.st_features in
  Codec.put_varint b s.Controller.st_site;
  Codec.put_bool b f.Controller.retroactive_undo;
  Codec.put_bool b f.Controller.interval_check;
  Codec.put_bool b f.Controller.validation;
  Codec.put_list (put_cell ec) b (Tdoc.model_list s.Controller.st_doc);
  Codec.put_list (put_entry ec) b s.Controller.st_oplog;
  Proto.put_vclock b s.Controller.st_compacted;
  Proto.put_vclock b s.Controller.st_clock;
  Codec.put_varint b s.Controller.st_serial;
  Proto.put_policy b s.Controller.st_initial_policy;
  Codec.put_varint b s.Controller.st_initial_admin;
  Codec.put_list Proto.put_admin_request b s.Controller.st_admin_requests;
  Codec.put_list (Proto.put_request ec) b s.Controller.st_coop_queue;
  Codec.put_list Proto.put_admin_request b s.Controller.st_admin_queue;
  Codec.put_list put_bound b s.Controller.st_peer_integrated;
  Codec.put_list put_bound b s.Controller.st_peer_admin_hint;
  Codec.put_list put_bound b s.Controller.st_peer_beacon

let encode_state ec s = Codec.frame ~version:1 (Codec.to_string (put_state ec) s)

(* what [Proto.fingerprint] returned under that layout *)
let fingerprint ec c = Digest.to_hex (Digest.string (encode_state ec (Controller.dump c)))
