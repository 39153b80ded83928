module Frame = Tr_wire.Frame

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

external read : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tr_io_read"
[@@noalloc]

external write : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tr_io_write"
[@@noalloc]

(* The classes io_stubs.c returns. *)
let again = -1
let connecting = -2
let failed = -3

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let unlink_listener = function
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Unix.ADDR_INET _ -> ()

let describe_addr = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (ip, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port

let listen addr =
  let fail err call =
    failwith
      (Printf.sprintf "cannot listen on %s: %s: %s" (describe_addr addr) call
         (Unix.error_message err))
  in
  unlink_listener addr;
  let fd =
    try Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
    with Unix.Unix_error (err, call, _) -> fail err call
  in
  try
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind fd addr;
    Unix.listen fd 1024;
    Unix.set_nonblock fd;
    fd
  with Unix.Unix_error (err, call, _) ->
    close_quietly fd;
    fail err call

type out = {
  mutable bytes : Bytes.t;  (** Unwritten bytes live in [pos..len). *)
  mutable pos : int;
  mutable len : int;
}

let out capacity = { bytes = Bytes.create capacity; pos = 0; len = 0 }
let queued o = o.len - o.pos

(* Room for [len] more bytes: the live bytes first move to the
   buffer's start, then the capacity doubles until they fit. *)
let reserve o len =
  if o.len + len > Bytes.length o.bytes then begin
    if o.pos > 0 then begin
      Bytes.blit o.bytes o.pos o.bytes 0 (queued o);
      o.len <- queued o;
      o.pos <- 0
    end;
    if o.len + len > Bytes.length o.bytes then begin
      let cap = ref (2 * Bytes.length o.bytes) in
      while o.len + len > !cap do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit o.bytes 0 bigger 0 o.len;
      o.bytes <- bigger
    end
  end

let append o ~len blit =
  reserve o len;
  blit o.bytes o.len;
  o.len <- o.len + len

let frame_length payload =
  let plen = Buffer.length payload in
  Frame.header_length plen + plen

let append_frame o payload =
  let plen = Buffer.length payload in
  let len = Frame.header_length plen + plen in
  reserve o len;
  let h = Frame.write_header o.bytes o.len plen in
  Buffer.blit payload 0 o.bytes (o.len + h) plen;
  o.len <- o.len + len

let append_buffer o buf =
  append o ~len:(Buffer.length buf) (fun dst off ->
      Buffer.blit buf 0 dst off (Buffer.length buf))

let advance o k =
  o.pos <- o.pos + k;
  if o.pos = o.len then begin
    o.pos <- 0;
    o.len <- 0
  end

(* [pos..len) always lies inside [bytes], so the unchecked stub is safe. *)
let flush fd o =
  if queued o = 0 then 0
  else begin
    let wrote = write fd o.bytes o.pos (queued o) in
    if wrote > 0 then advance o wrote;
    wrote
  end

type reader = { buf : Bytes.t; mutable reads : int; view : Frame.view }

let reader () =
  {
    buf = Bytes.create 65536;
    reads = 0;
    view = { Frame.buf = Bytes.empty; off = 0; len = 0 };
  }

(* The reader lends its one view to every payload; that is safe because
   nothing feeds [dec] until the callback returns. Both loops are
   top-level so that a call allocates no closure. *)
let rec drain r dec ~skip ~view ctx =
  match Frame.Decoder.next_into dec r.view with
  | Frame.Decoder.Payload -> view ctx r.view && drain r dec ~skip ~view ctx
  | Frame.Decoder.Skipped ->
      skip ctx;
      drain r dec ~skip ~view ctx
  | Frame.Decoder.Wait -> true

(* A short read means the socket is drained for now, so only a full
   buffer reads again. *)
let rec read_frames r fd dec ~skip ~view ctx =
  let k = read fd r.buf 0 (Bytes.length r.buf) in
  r.reads <- r.reads + 1;
  if k > 0 then begin
    Frame.Decoder.feed_sub dec r.buf ~pos:0 ~len:k;
    if drain r dec ~skip ~view ctx && k = Bytes.length r.buf then
      read_frames r fd dec ~skip ~view ctx
    else true
  end
  else k = again
