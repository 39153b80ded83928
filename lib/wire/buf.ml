type error = Truncated | Malformed of string

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated input"
  | Malformed reason -> Format.fprintf ppf "malformed input: %s" reason

(* Zigzag maps small-magnitude signed ints to small unsigned ints:
   0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ... On 63-bit OCaml ints the
   round-trip is exact for every representable value. *)
let zigzag v = (v lsl 1) lxor (v asr (Sys.int_size - 1))

let unzigzag u = (u lsr 1) lxor (-(u land 1))

module Enc = struct
  let byte buf v = Buffer.add_char buf (Char.chr (v land 0xff))

  (* LEB128 over the int's 63-bit two's-complement pattern: [lsr] makes
     the loop terminate even when the top (sign) bit is set, which
     happens for zigzagged values of large magnitude. Top-level
     recursion, not a nested [go] — a nested closure would allocate on
     every call, and this is the hottest byte-producing path. *)
  let rec unsigned_varint buf v =
    if v >= 0 && v < 0x80 then byte buf v
    else begin
      byte buf (0x80 lor (v land 0x7f));
      unsigned_varint buf (v lsr 7)
    end

  let uvarint buf v =
    if v < 0 then invalid_arg "Wire.Enc.uvarint: negative";
    unsigned_varint buf v

  let int buf v = unsigned_varint buf (zigzag v)
  let bool buf v = byte buf (if v then 1 else 0)

  let option enc buf = function
    | None -> byte buf 0
    | Some v ->
        byte buf 1;
        enc buf v

  let list enc buf xs =
    uvarint buf (List.length xs);
    List.iter (fun x -> enc buf x) xs

  let int_array buf xs =
    uvarint buf (Array.length xs);
    Array.iter (fun x -> int buf x) xs

  let string buf s =
    uvarint buf (String.length s);
    Buffer.add_string buf s
end

module Dec = struct
  (* [data] is bytes so a cursor can read straight out of a frame
     decoder's window without a per-frame [Bytes.sub_string] copy; the
     decoder never writes while a cursor is live, and [of_string] wraps
     without copying ([unsafe_of_string] is sound because no code path
     here mutates [data]). *)
  type t = { mutable data : bytes; mutable pos : int; mutable limit : int }

  let check_bounds data ~pos ~limit =
    if pos < 0 || limit > Bytes.length data || pos > limit then
      invalid_arg "Wire.Dec.of_bytes: bad bounds"

  let of_bytes ?(pos = 0) ?limit data =
    let limit = match limit with None -> Bytes.length data | Some l -> l in
    check_bounds data ~pos ~limit;
    { data; pos; limit }

  let reset t data ~pos ~limit =
    check_bounds data ~pos ~limit;
    t.data <- data;
    t.pos <- pos;
    t.limit <- limit

  let of_string ?pos ?limit data =
    of_bytes ?pos ?limit (Bytes.unsafe_of_string data)

  let pos t = t.pos
  let remaining t = t.limit - t.pos

  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

  exception Failed of error

  (* Raised as they are: a failing read allocates nothing either. *)
  let truncated = Failed Truncated
  let too_long = Failed (Malformed "varint too long")

  let byte_exn t =
    if t.pos >= t.limit then raise truncated
    else begin
      let c = Char.code (Bytes.unsafe_get t.data t.pos) in
      t.pos <- t.pos + 1;
      c
    end

  (* 63-bit ints need at most 9 LEB128 groups; a tenth continuation byte
     means the input is garbage, not merely long. *)
  let max_varint_bytes = 9

  (* The varint loop is the hot path of every decode: a top-level
     recursion with the byte read inlined, so a call allocates
     nothing. *)
  let rec uvarint_loop t acc shift count =
    if count > max_varint_bytes then raise too_long
    else if t.pos >= t.limit then raise truncated
    else begin
      let b = Char.code (Bytes.unsafe_get t.data t.pos) in
      t.pos <- t.pos + 1;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc
      else uvarint_loop t acc (shift + 7) (count + 1)
    end

  let uvarint_exn t = uvarint_loop t 0 0 1

  let byte t = match byte_exn t with c -> Ok c | exception Failed e -> Error e

  let uvarint t =
    match uvarint_exn t with v -> Ok v | exception Failed e -> Error e

  let int t =
    match uvarint_exn t with
    | u -> Ok (unzigzag u)
    | exception Failed e -> Error e

  let bool t =
    match byte t with
    | Ok 0 -> Ok false
    | Ok 1 -> Ok true
    | Ok b -> Error (Malformed (Printf.sprintf "bool byte %#x" b))
    | Error _ as e -> e

  let option dec t =
    let* b = byte t in
    match b with
    | 0 -> Ok None
    | 1 ->
        let* v = dec t in
        Ok (Some v)
    | b -> Error (Malformed (Printf.sprintf "option byte %#x" b))

  (* Every element costs at least one byte, so a length that exceeds the
     remaining input is provably bogus — reject it before allocating. *)
  let check_len t len =
    if len < 0 || len > remaining t then
      Error (Malformed (Printf.sprintf "length %d exceeds remaining input" len))
    else Ok len

  let list dec t =
    let* len = uvarint t in
    let* len = check_len t len in
    let rec go acc k =
      if k = 0 then Ok (List.rev acc)
      else
        let* v = dec t in
        go (v :: acc) (k - 1)
    in
    go [] len

  let int_array t =
    let* len = uvarint t in
    let* len = check_len t len in
    let arr = Array.make len 0 in
    let rec go k =
      if k = len then Ok arr
      else
        let* v = int t in
        arr.(k) <- v;
        go (k + 1)
    in
    go 0

  let string t =
    let* len = uvarint t in
    let* len = check_len t len in
    let s = Bytes.sub_string t.data t.pos len in
    t.pos <- t.pos + len;
    Ok s

  let expect_end t =
    if t.pos = t.limit then Ok ()
    else
      Error
        (Malformed (Printf.sprintf "%d trailing bytes in frame" (remaining t)))
end
