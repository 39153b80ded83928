let magic = 0xA7
let version = 1
let max_payload = 1 lsl 24

let encode buf payload =
  if String.length payload > max_payload then
    invalid_arg "Wire.Frame.encode: payload too large";
  Buffer.add_char buf (Char.chr magic);
  Buffer.add_char buf (Char.chr version);
  Buf.Enc.uvarint buf (String.length payload);
  Buffer.add_string buf payload

let to_string payload =
  let buf = Buffer.create (String.length payload + 4) in
  encode buf payload;
  Buffer.contents buf

(* Header + payload straight out of another Buffer — the scratch-encode
   path builds the payload once and frames it with no intermediate
   string. *)
let encode_buffer buf payload =
  let len = Buffer.length payload in
  if len > max_payload then
    invalid_arg "Wire.Frame.encode_buffer: payload too large";
  Buffer.add_char buf (Char.chr magic);
  Buffer.add_char buf (Char.chr version);
  Buf.Enc.uvarint buf len;
  Buffer.add_buffer buf payload

let rec varint_length v = if v < 0x80 then 1 else 1 + varint_length (v lsr 7)

let header_length plen = 2 + varint_length plen

let rec write_varint dst off v =
  if v < 0x80 then Bytes.unsafe_set dst off (Char.unsafe_chr v)
  else begin
    Bytes.unsafe_set dst off (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    write_varint dst (off + 1) (v lsr 7)
  end

let write_header dst off plen =
  if plen < 0 || plen > max_payload then
    invalid_arg "Wire.Frame.write_header: bad payload length";
  let h = header_length plen in
  if off < 0 || off + h > Bytes.length dst then
    invalid_arg "Wire.Frame.write_header: bad bounds";
  Bytes.unsafe_set dst off (Char.unsafe_chr magic);
  Bytes.unsafe_set dst (off + 1) (Char.unsafe_chr version);
  write_varint dst (off + 2) plen;
  h

type view = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let view_to_string { buf; off; len } = Bytes.sub_string buf off len

module Decoder = struct
  type progress = Frame of string | Await | Skip of string

  type view_progress = View of view | Await_view | Skip_view of string

  type step = Payload | Wait | Skipped

  (* Unconsumed input lives in [buf.[start .. start+len-1]]; [feed]
     appends, [next] consumes from the front and compacts lazily. The
     last step's payload and skip reason are kept in the record, so
     stepping allocates nothing but a skip's reason. *)
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;
    mutable len : int;
    mutable skips : int;
    mutable payload_off : int;
    mutable payload_len : int;
    mutable varint : int;
    mutable reason : string;
  }

  let create () =
    {
      buf = Bytes.create 256;
      start = 0;
      len = 0;
      skips = 0;
      payload_off = 0;
      payload_len = 0;
      varint = 0;
      reason = "";
    }

  let skipped_events t = t.skips
  let buffered t = t.len

  let reserve t extra =
    let needed = t.len + extra in
    if t.start > 0 && (t.start + needed > Bytes.length t.buf || t.start > 4096)
    then begin
      Bytes.blit t.buf t.start t.buf 0 t.len;
      t.start <- 0
    end;
    if needed > Bytes.length t.buf then begin
      let cap = ref (2 * Bytes.length t.buf) in
      while needed > !cap do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf t.start bigger 0 t.len;
      t.buf <- bigger;
      t.start <- 0
    end

  let feed_sub t chunk ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length chunk then
      invalid_arg "Wire.Frame.Decoder.feed_sub: bad bounds";
    reserve t len;
    Bytes.blit chunk pos t.buf (t.start + t.len) len;
    t.len <- t.len + len

  let feed t chunk =
    feed_sub t (Bytes.unsafe_of_string chunk) ~pos:0 ~len:(String.length chunk)

  let peek t i = Char.code (Bytes.get t.buf (t.start + i))

  let consume t k =
    t.start <- t.start + k;
    t.len <- t.len - k;
    if t.len = 0 then t.start <- 0

  (* Read a uvarint at offset [off] into [t.varint]: the bytes it used,
     0 when the buffered input ends mid-varint, -1 on an overlong
     encoding. Mirrors [Buf.Dec.uvarint]: 63-bit ints need at most 9
     LEB128 groups (shift cap 56); a 10th byte would shift by 63, which
     is unspecified for OCaml ints, so reject before reading it. *)
  let rec read_uvarint t off acc shift used =
    if used >= 9 then -1
    else if off + used >= t.len then 0
    else
      let b = peek t (off + used) in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then begin
        t.varint <- acc;
        used + 1
      end
      else read_uvarint t off acc (shift + 7) (used + 1)

  (* Drop the bogus leading byte and scan to the next candidate magic so
     the stream re-locks at the following frame boundary. *)
  let resync t reason =
    consume t 1;
    let skipped = ref 1 in
    while t.len > 0 && peek t 0 <> magic do
      consume t 1;
      incr skipped
    done;
    t.skips <- t.skips + 1;
    t.reason <- Printf.sprintf "%s; skipped %d bytes" reason !skipped;
    Skipped

  (* The payload aliases [t.buf]: [consume] only moves indices, so the
     slice stays intact until the next [feed]/[feed_sub] (which may
     compact or reallocate the buffer). *)
  let step t =
    if t.len = 0 then Wait
    else if peek t 0 <> magic then resync t "bad magic"
    else if t.len < 2 then Wait
    else
      let v = peek t 1 in
      let used = read_uvarint t 2 0 0 0 in
      if used = 0 then Wait
      else if used < 0 then resync t "malformed length varint"
      else
        let plen = t.varint in
        (* A sign-overflowed varint decodes negative — treat it like any
           oversized declaration, never as an offset. *)
        if plen < 0 || plen > max_payload then
          resync t (Printf.sprintf "declared payload %d exceeds cap" plen)
        else begin
          let total = 2 + used + plen in
          if t.len < total then Wait
          else if v <> version then begin
            consume t total;
            t.skips <- t.skips + 1;
            t.reason <- Printf.sprintf "unsupported frame version %d" v;
            Skipped
          end
          else begin
            t.payload_off <- t.start + 2 + used;
            t.payload_len <- plen;
            consume t total;
            Payload
          end
        end

  let next_into t (v : view) =
    match step t with
    | Payload ->
        v.buf <- t.buf;
        v.off <- t.payload_off;
        v.len <- t.payload_len;
        Payload
    | (Wait | Skipped) as s -> s

  let next_view t =
    match step t with
    | Payload -> View { buf = t.buf; off = t.payload_off; len = t.payload_len }
    | Wait -> Await_view
    | Skipped -> Skip_view t.reason

  let next t =
    match step t with
    | Payload ->
        Frame (Bytes.sub_string t.buf t.payload_off t.payload_len)
    | Wait -> Await
    | Skipped -> Skip t.reason
end

(* Length varint of a whole-string frame, packed as
   [(plen lsl 4) lor bytes_used] so the hot path allocates nothing:
   negative codes are errors (-1 malformed, -2 truncated, -3 payload
   over cap). Packing is safe because plen is checked against
   [max_payload] (24 bits) before shifting. *)
let rec exact_varint buf len acc shift used =
  if used >= 9 then -1
  else if 2 + used >= len then -2
  else
    let b = Char.code (Bytes.unsafe_get buf (2 + used)) in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then
      if acc < 0 || acc > max_payload then -3 else (acc lsl 4) lor (used + 1)
    else exact_varint buf len acc (shift + 7) (used + 1)

(* Exactly one frame spanning the whole string — the loopback fast path,
   where every mailbox entry is a single encoder-produced frame. The
   view aliases [frame] without copying. *)
let decode_exact frame =
  let len = String.length frame in
  let buf = Bytes.unsafe_of_string frame in
  if len < 2 then Error "frame shorter than header"
  else if Char.code (Bytes.unsafe_get buf 0) <> magic then Error "bad magic"
  else if Char.code (Bytes.unsafe_get buf 1) <> version then
    Error "unsupported frame version"
  else
    let code = exact_varint buf len 0 0 0 in
    if code = -1 then Error "malformed length varint"
    else if code = -2 then Error "truncated length varint"
    else if code = -3 then Error "declared payload too long"
    else
      let used = code land 0xf and plen = code lsr 4 in
      if 2 + used + plen <> len then Error "frame length mismatch"
      else Ok { buf; off = 2 + used; len = plen }
