(** Binary encoding primitives.

    A small, dependency-free codec layer: little-endian varints (LEB128),
    length-prefixed strings, composites, and a framing header with a
    CRC-32 checksum.  Encoders write to a [Buffer]; decoders consume a
    [string] through an explicit cursor and {e never raise} — any
    malformed, truncated or corrupt input yields [Error] (fuzz-tested in
    [test/test_wire.ml]), which is what lets network input be parsed
    without trusting it. *)

type encoder = Buffer.t

type decoder

type 'a result = ('a, string) Stdlib.result

(* {2 Encoding} *)

val to_string : (encoder -> 'a -> unit) -> 'a -> string

val put_varint : encoder -> int -> unit
(** Non-negative integers only (raises [Invalid_argument] otherwise —
    an encoding-side programming error, not an input error). *)

val put_int : encoder -> int -> unit
(** Zig-zag encoded: any OCaml int. *)

val put_bool : encoder -> bool -> unit
val put_char : encoder -> char -> unit
val put_string : encoder -> string -> unit
val put_list : (encoder -> 'a -> unit) -> encoder -> 'a list -> unit
val put_option : (encoder -> 'a -> unit) -> encoder -> 'a option -> unit
val put_pair : (encoder -> 'a -> unit) -> (encoder -> 'b -> unit) -> encoder -> 'a * 'b -> unit

(* {2 Decoding} *)

val decoder_of_string : string -> decoder
val of_string : (decoder -> 'a result) -> string -> 'a result
(** Runs the decoder and additionally fails on trailing garbage. *)

val get_varint : decoder -> int result
val get_int : decoder -> int result
val get_bool : decoder -> bool result
val get_char : decoder -> char result
val get_string : decoder -> string result
val get_list : (decoder -> 'a result) -> decoder -> 'a list result

val get_array : (decoder -> 'a result) -> decoder -> 'a array result
(** What {!put_list} writes, read into an array.  Like {!get_list} it
    refuses a count above the bytes left before allocating anything. *)

val get_option : (decoder -> 'a result) -> decoder -> 'a option result
val get_pair : (decoder -> 'a result) -> (decoder -> 'b result) -> decoder -> ('a * 'b) result

val get_pair_shared : (decoder -> 'a result) -> decoder -> ('a * 'a) result
(** Two consecutive values read with [get].  When the second's bytes
    repeat the first's, the second is not decoded: the pair holds the
    first value twice, physically.  (A decoder reads the same value from
    the same bytes, so only the sharing differs from {!get_pair}.) *)

val ( let* ) : 'a result -> ('a -> 'b result) -> 'b result

(* {2 Framing} *)

val frame : ?version:int -> string -> string
(** Wrap a payload: magic, format version ([version], default 1),
    length, CRC-32, payload.  A payload whose layout changes gets its
    own version, so a reader of the new layout refuses an old blob
    instead of misreading it; every other frame keeps version 1 and its
    bytes. *)

val unframe : ?version:int -> string -> string result
(** Check magic/version/length/checksum and return the payload; a
    frame of any version but [version] (default 1) is refused as
    ["unsupported format version N"].  The input must be exactly one
    frame; for byte streams use {!unframe_prefix}. *)

type frame_error =
  | Truncated  (** The buffer ends mid-frame: wait for more bytes. *)
  | Corrupt of string
      (** The bytes can never become a valid frame (bad magic, version,
          oversized length, checksum…): drop the connection. *)

val unframe_prefix :
  ?max_payload:int -> string -> pos:int -> (string * int, frame_error) Stdlib.result
(** Decode one frame of version 1 starting at [pos] of a byte stream:
    [Ok (payload, next)] consumes bytes [pos..next-1].  This is the incremental entry
    point a stream reader needs — [Truncated] means the stream has not
    yet delivered the rest of the frame, [Corrupt] that it never will.
    [max_payload] bounds the declared payload length before any
    buffering happens, so a hostile length prefix cannot force
    unbounded memory. *)

val unframe_prefix_bytes :
  ?max_payload:int ->
  Bytes.t ->
  pos:int ->
  stop:int ->
  (string * int, frame_error) Stdlib.result
(** {!unframe_prefix} over a [Bytes.t] window [pos..stop-1], reading
    the header and payload in place.  This is what a stream reader with
    a mutable receive buffer wants: the only allocation is the returned
    payload, so probing a partially-received frame after every socket
    read costs O(header) instead of a copy of everything buffered.
    Raises [Invalid_argument] if the range is out of bounds. *)

val crc32 : string -> int32

(* {2 Telemetry} *)

val set_metrics : Dce_obs.Metrics.t option -> unit
(** Route per-frame telemetry into a registry: histograms
    [wire.encode_bytes] / [wire.decode_bytes] (framed sizes) and
    [wire.encode_ns] / [wire.decode_ns] (wall-clock framing time).
    [None] (the default) disables instrumentation — one branch per
    frame. *)
