(** Wire format for every message and state the system exchanges.

    Serializers are parameterized by an element codec, so any element
    type a deployment instantiates the editor with (characters,
    paragraphs, XML nodes…) can go on the wire; {!Char_proto} is the
    ready-made character instance the examples and tools use.

    Every [decode_*] goes through {!Codec.unframe} (magic, version,
    checksum) and the never-raising decoding layer, then through the
    domain constructors' own validation — so a hostile byte string can be
    fed to them directly.  [Controller.load] additionally replays the
    administrative history, rejecting tampered policies.

    {b The document section of a state} ({!encode_state}) carries the
    tombstone document in the shape [Dce_ot.Tdoc] stores it: the model
    length; every cell's element in model order, one [put] each (one
    byte a character: a packed run goes out whole); then the count of
    {e touched} cells (a write or a hide count) and, for each in model
    order, its gap from the previous touched position (the first from
    0), its writes and its hide count.  A touched cell's element is the
    one in the run, so it is not sent twice.  The layout depends on the
    cells alone, never on where the chunks split, so {!fingerprint}
    stays canonical.  The decoder refuses an element count above the
    bytes left before it allocates, and an overlay position out of order
    or out of range or naming an untouched cell
    ([Dce_ot.Tdoc.of_overlay]).  {!char_codec} decodes the elements into
    packed runs, so a decoded character document is packed.

    A state is framed with format version 2; a state of the earlier
    layout, one (element, writes, hide count) triple per cell, has
    version 1 and is refused with ["unsupported format version 1"]
    instead of being misread.  Messages, deltas, frontiers, journal
    records and relay envelopes keep version 1 and their bytes. *)

open Dce_ot
open Dce_core

type 'e elt_codec = {
  put : Codec.encoder -> 'e -> unit;
  get : Codec.decoder -> 'e Codec.result;
  put_run : Codec.encoder -> 'e Tdoc.run -> unit;
      (** A run's elements, as that many [put]s would write them. *)
  get_run : Codec.decoder -> 'e Tdoc.run Codec.result;
      (** An element count, then that many elements, read into a run:
          the element section of a state. *)
}
(** An element type's codec.  {!char_codec} writes a packed run with one
    [Buffer.add_string] and reads a state's element section with one
    bounded read into a packed run; {!string_codec} works an element at
    a time and reads array runs. *)

val char_codec : char elt_codec
val string_codec : string elt_codec

(* {2 Unframed component codecs (composable)} *)

val put_vclock : Codec.encoder -> Vclock.t -> unit
val get_vclock : Codec.decoder -> Vclock.t Codec.result

val put_op : 'e elt_codec -> Codec.encoder -> 'e Op.t -> unit
val get_op : 'e elt_codec -> Codec.decoder -> 'e Op.t Codec.result

val put_request : 'e elt_codec -> Codec.encoder -> 'e Request.t -> unit
val get_request : 'e elt_codec -> Codec.decoder -> 'e Request.t Codec.result

val put_policy : Codec.encoder -> Policy.t -> unit
val get_policy : Codec.decoder -> Policy.t Codec.result

val put_admin_op : Codec.encoder -> Admin_op.t -> unit
val get_admin_op : Codec.decoder -> Admin_op.t Codec.result

val put_admin_request : Codec.encoder -> Admin_op.request -> unit
val get_admin_request : Codec.decoder -> Admin_op.request Codec.result

(** {2 Origin stamps}

    A small tracing header a sender can prepend to any message: origin
    site, origin wall clock (nanoseconds since the epoch) and a
    per-process trace id.  Stamps survive relaying (the relay fans out
    the original bytes), so a receiver can measure end-to-end
    propagation latency as [Clock.now_ns () - s_ns] — modulo clock skew
    between hosts, which the offline [trace.exe merge] analysis
    normalizes away.  {!get_message} skips stamps transparently:
    stamped and unstamped encodings (including pre-stamp journal
    records) share one wire format. *)

type stamp = { s_site : int; s_ns : int; s_tid : int }

val stamp_now : site:int -> unit -> stamp
(** A fresh stamp for [site]: current {!Dce_obs.Clock.now_ns} and the
    next value of a process-local trace-id counter. *)

val put_message :
  ?stamp:stamp -> 'e elt_codec -> Codec.encoder -> 'e Controller.message -> unit

val get_message : 'e elt_codec -> Codec.decoder -> 'e Controller.message Codec.result
(** Decode a message, discarding any origin stamp. *)

val get_message_stamped :
  'e elt_codec ->
  Codec.decoder ->
  (stamp option * 'e Controller.message) Codec.result

(* {2 Framed top-level encodings} *)

val encode_message : ?stamp:stamp -> 'e elt_codec -> 'e Controller.message -> string
val decode_message : 'e elt_codec -> string -> 'e Controller.message Codec.result

val decode_message_stamped :
  'e elt_codec -> string -> (stamp option * 'e Controller.message) Codec.result

val encode_state : 'e elt_codec -> 'e Controller.state -> string
val decode_state : 'e elt_codec -> string -> 'e Controller.state Codec.result

val fingerprint : 'e elt_codec -> 'e Controller.t -> string
(** A stable hex digest of the controller's full serialized state
    ({!encode_state} of {!Controller.dump}).  Two controllers with equal
    fingerprints hold byte-identical persisted state — the recovery
    oracle's definition of "replayed to exactly the pre-crash state". *)

val content_fingerprint : 'e elt_codec -> 'e Controller.t -> string
(** A site-independent hex digest of the converged content: the visible
    document, the policy and the policy version.  Unlike {!fingerprint}
    it ignores the local site id, serials and peer tables, so replicas
    of the same session held by {e different} sites (e.g. two federated
    relays) compare equal exactly when they have converged. *)

(** {2 Stability beacons}

    One site's advertisement of what it has integrated
    ({!Controller.beacon}); a {e frontier} is a batch of them — what a
    hub knows about its whole membership.  Encoded framed so they travel
    as opaque payloads inside relay envelopes. *)

type beacon = { b_site : int; b_clock : Vclock.t; b_version : int }

val put_beacon : Codec.encoder -> beacon -> unit
val get_beacon : Codec.decoder -> beacon Codec.result
val encode_frontier : beacon list -> string
val decode_frontier : string -> beacon list Codec.result

(** {2 Delta catch-up blobs}

    {!Controller.delta_since} results on the wire: the log suffix and
    policy delta a resuming joiner lacks, instead of a full-state
    snapshot. *)

val put_delta : 'e elt_codec -> Codec.encoder -> 'e Controller.delta -> unit
val get_delta : 'e elt_codec -> Codec.decoder -> 'e Controller.delta Codec.result
val encode_delta : 'e elt_codec -> 'e Controller.delta -> string
val decode_delta : 'e elt_codec -> string -> 'e Controller.delta Codec.result

(** Character documents, the common instantiation. *)
module Char_proto : sig
  val encode_message : ?stamp:stamp -> char Controller.message -> string
  val decode_message : string -> char Controller.message Codec.result

  val decode_message_stamped :
    string -> (stamp option * char Controller.message) Codec.result
  val encode_state : char Controller.state -> string
  val decode_state : string -> char Controller.state Codec.result
  val encode_delta : char Controller.delta -> string
  val decode_delta : string -> char Controller.delta Codec.result

  val save : string -> char Controller.t -> unit
  (** Write a controller snapshot to a file. *)

  val restore :
    ?trace:Dce_obs.Trace.sink -> string -> (char Controller.t, string) result
  (** Read a controller back ({!Controller.load} validation included);
      [trace] re-attaches a sink, since sinks are process-local and not
      part of the persisted state. *)
end
