type encoder = Buffer.t

type decoder = { src : string; mutable pos : int }

type 'a result = ('a, string) Stdlib.result

let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e

(* ----- encoding ----- *)

let to_string enc v =
  let b = Buffer.create 64 in
  enc b v;
  Buffer.contents b

(* raw LEB128 over the 63-bit pattern; [lsr] makes this safe for values
   whose top (sign) bit is set *)
let put_raw b n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_varint b n =
  if n < 0 then invalid_arg "Codec.put_varint: negative";
  put_raw b n

(* zig-zag over the full OCaml int range *)
let put_int b n = put_raw b ((n lsl 1) lxor (n asr 62))

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let put_char b c = Buffer.add_char b c

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let put_list enc b l =
  put_varint b (List.length l);
  List.iter (enc b) l

let put_option enc b = function
  | None -> put_bool b false
  | Some v ->
    put_bool b true;
    enc b v

let put_pair enc_a enc_b b (x, y) =
  enc_a b x;
  enc_b b y

(* ----- decoding ----- *)

let decoder_of_string src = { src; pos = 0 }

let remaining d = String.length d.src - d.pos

let get_byte d =
  if remaining d < 1 then Error "unexpected end of input"
  else begin
    let c = d.src.[d.pos] in
    d.pos <- d.pos + 1;
    Ok (Char.code c)
  end

let max_varint_bytes = 9 (* 63 bits *)

let get_raw d =
  let rec go acc shift bytes =
    if bytes > max_varint_bytes then Error "varint too long"
    else
      let* byte = get_byte d in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then Ok acc else go acc (shift + 7) (bytes + 1)
  in
  go 0 0 1

let get_varint d =
  let* n = get_raw d in
  if n < 0 then Error "varint overflow" else Ok n

let get_int d =
  let* zz = get_raw d in
  Ok ((zz lsr 1) lxor (-(zz land 1)))

let get_bool d =
  let* byte = get_byte d in
  match byte with
  | 0 -> Ok false
  | 1 -> Ok true
  | _ -> Error "invalid boolean"

let get_char d =
  let* byte = get_byte d in
  Ok (Char.chr byte)

let get_string d =
  let* len = get_varint d in
  if len > remaining d then Error "string length exceeds input"
  else begin
    let s = String.sub d.src d.pos len in
    d.pos <- d.pos + len;
    Ok s
  end

(* [len] bytes of [src] from [a] equal those from [b] *)
let rec same_bytes src a b len =
  len = 0 || (src.[a] = src.[b] && same_bytes src (a + 1) (b + 1) (len - 1))

let get_pair_shared get d =
  let start = d.pos in
  let* x = get d in
  let len = d.pos - start in
  if remaining d >= len && same_bytes d.src start d.pos len then begin
    d.pos <- d.pos + len;
    Ok (x, x)
  end
  else
    let* y = get d in
    Ok (x, y)

let get_list get d =
  let* len = get_varint d in
  if len > remaining d then Error "list length exceeds input"
  else
    let rec go acc n =
      if n = 0 then Ok (List.rev acc)
      else
        let* x = get d in
        go (x :: acc) (n - 1)
    in
    go [] len

let get_array get d =
  let* len = get_varint d in
  if len > remaining d then Error "array length exceeds input"
  else if len = 0 then Ok [||]
  else
    let* x = get d in
    let a = Array.make len x in
    let rec go i =
      if i = len then Ok a
      else
        let* x = get d in
        a.(i) <- x;
        go (i + 1)
    in
    go 1

let get_option get d =
  let* present = get_bool d in
  if not present then Ok None
  else
    let* v = get d in
    Ok (Some v)

let get_pair get_a get_b d =
  let* a = get_a d in
  let* b = get_b d in
  Ok (a, b)

let of_string get s =
  let d = decoder_of_string s in
  let* v = get d in
  if remaining d <> 0 then Error "trailing garbage" else Ok v

(* ----- CRC-32 (IEEE 802.3) ----- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* ----- telemetry -----

   Optional per-frame instrumentation: payload sizes and wall-clock
   encode/decode times into a metrics registry.  Off ([None]) the cost
   is one load and branch per frame. *)

type instruments = {
  enc_bytes : Dce_obs.Metrics.histogram;
  dec_bytes : Dce_obs.Metrics.histogram;
  enc_ns : Dce_obs.Metrics.histogram;
  dec_ns : Dce_obs.Metrics.histogram;
}

let instr : instruments option ref = ref None

let set_metrics = function
  | None -> instr := None
  | Some m ->
    instr :=
      Some
        {
          enc_bytes = Dce_obs.Metrics.histogram m "wire.encode_bytes";
          dec_bytes = Dce_obs.Metrics.histogram m "wire.decode_bytes";
          enc_ns = Dce_obs.Metrics.histogram m "wire.encode_ns";
          dec_ns = Dce_obs.Metrics.histogram m "wire.decode_ns";
        }

(* ----- framing ----- *)

let magic = "DCE1"
let format_version = 1

let frame_raw version payload =
  let b = Buffer.create (String.length payload + 16) in
  Buffer.add_string b magic;
  put_varint b version;
  put_varint b (String.length payload);
  let crc = crc32 payload in
  put_varint b (Int32.to_int (Int32.logand crc 0xFFFFl));
  put_varint b (Int32.to_int (Int32.shift_right_logical crc 16));
  Buffer.add_string b payload;
  Buffer.contents b

let frame ?(version = format_version) payload =
  match !instr with
  | None -> frame_raw version payload
  | Some i ->
    let t0 = Dce_obs.Clock.now_ns () in
    let s = frame_raw version payload in
    Dce_obs.Metrics.observe i.enc_ns (Dce_obs.Clock.now_ns () - t0);
    Dce_obs.Metrics.observe i.enc_bytes (String.length s);
    s

type frame_error = Truncated | Corrupt of string

(* A varint read that distinguishes running off the end of the buffer
   (the stream may simply not have delivered the rest of the frame yet)
   from a malformed encoding (the peer is broken or hostile). *)
let stream_varint buf ~pos ~stop =
  let rec go acc shift bytes pos =
    if bytes > max_varint_bytes then Error (Corrupt "varint too long")
    else if pos >= stop then Error Truncated
    else
      let byte = Char.code (Bytes.get buf pos) in
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 = 0 then
        if acc < 0 then Error (Corrupt "varint overflow") else Ok (acc, pos + 1)
      else go acc (shift + 7) (bytes + 1) (pos + 1)
  in
  go 0 0 1 pos

let ( let+ ) r f = match r with Ok x -> f x | Error _ as e -> e

(* a frame of the given format version starting at [pos] *)
let unframe_at version ?max_payload buf ~pos ~stop =
  if pos < 0 || pos > stop || stop > Bytes.length buf then
    invalid_arg "Codec.unframe_prefix_bytes: bad range";
  let avail = stop - pos in
  let magic_ok =
    let n = min avail 4 in
    let rec eq i = i >= n || (Bytes.get buf (pos + i) = magic.[i] && eq (i + 1)) in
    eq 0
  in
  if not magic_ok then Error (Corrupt "bad magic")
  else if avail < 4 then Error Truncated
  else
    let+ found, pos = stream_varint buf ~pos:(pos + 4) ~stop in
    if found <> version then
      Error (Corrupt (Printf.sprintf "unsupported format version %d" found))
    else
      let+ len, pos = stream_varint buf ~pos ~stop in
      (match max_payload with
       | Some m when len > m ->
         Error (Corrupt (Printf.sprintf "frame payload of %d bytes exceeds limit %d" len m))
       | _ ->
         let+ crc_lo, pos = stream_varint buf ~pos ~stop in
         let+ crc_hi, pos = stream_varint buf ~pos ~stop in
         if stop - pos < len then Error Truncated
         else begin
           let payload = Bytes.sub_string buf pos len in
           let crc = crc32 payload in
           if
             crc_lo = Int32.to_int (Int32.logand crc 0xFFFFl)
             && crc_hi = Int32.to_int (Int32.shift_right_logical crc 16)
           then Ok (payload, pos + len)
           else Error (Corrupt "checksum mismatch")
         end)

let unframe_prefix_bytes ?max_payload buf ~pos ~stop =
  unframe_at format_version ?max_payload buf ~pos ~stop

let unframe_prefix ?max_payload s ~pos =
  (* unsafe_of_string is sound: unframe_prefix_bytes only reads *)
  unframe_prefix_bytes ?max_payload
    (Bytes.unsafe_of_string s)
    ~pos ~stop:(String.length s)

let unframe_raw version s =
  match unframe_at version (Bytes.unsafe_of_string s) ~pos:0 ~stop:(String.length s) with
  | Ok (payload, stop) ->
    if stop = String.length s then Ok payload else Error "length mismatch"
  | Error Truncated -> Error "truncated frame"
  | Error (Corrupt e) -> Error e

let unframe ?(version = format_version) s =
  match !instr with
  | None -> unframe_raw version s
  | Some i ->
    let t0 = Dce_obs.Clock.now_ns () in
    let r = unframe_raw version s in
    Dce_obs.Metrics.observe i.dec_ns (Dce_obs.Clock.now_ns () - t0);
    (match r with
     | Ok _ -> Dce_obs.Metrics.observe i.dec_bytes (String.length s)
     | Error _ -> ());
    r
