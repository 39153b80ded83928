(** Non-blocking framed stream I/O: the one way [lib/] moves frames over
    a stream socket. {!Transport}'s socket backend, the service server
    and the service client each add only their own policy on top.

    Every fd must be an [O_NONBLOCK] stream socket. Readiness is
    level-triggered, so stopping at a short read or a partial write loses nothing: leftover
    input reports readable again, and queued bytes keep write interest. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE, process-wide, so a write to a peer that has gone
    fails with [EPIPE] ({!failed}) instead of killing the process. {!write}
    needs it no longer (it passes [MSG_NOSIGNAL]); a plain [Unix.write]
    to a socket still does. *)

external read : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tr_io_read"
[@@noalloc]
(** [read fd buf pos len]: one recv(2) into [buf] in place, keeping the
    domain lock (io_stubs.c says why that is safe). A byte count, 0 at
    EOF, or an error class below. The caller checks [pos] and [len]. *)

external write : Unix.file_descr -> Bytes.t -> int -> int -> int
  = "tr_io_write"
[@@noalloc]
(** As {!read}, for send(2). *)

(** The error classes: {!again} for EAGAIN, EWOULDBLOCK or EINTR (try
    after the next wait), {!connecting} for ENOTCONN, EINPROGRESS or
    EALREADY, {!failed} for any other errno (the connection is over). *)
val again : int
val connecting : int
val failed : int
val close_quietly : Unix.file_descr -> unit

val set_nodelay : Unix.file_descr -> unit
(** Batching happens in {!out}, not in Nagle's queue. *)

val listen : Unix.sockaddr -> Unix.file_descr
(** A non-blocking listener, after removing a stale Unix-domain path.
    @raise Failure naming the address, the failed call and the errno
    when it cannot be made (a missing directory, a port in use): a
    caller error, not a bare [Unix_error] that names neither. *)

val unlink_listener : Unix.sockaddr -> unit
(** Remove a Unix-domain listener's path; nothing for TCP. *)

type out
(** The bytes queued for one connection. *)

val out : int -> out
(** An empty buffer of this initial capacity. *)

val queued : out -> int

val append : out -> len:int -> (Bytes.t -> int -> unit) -> unit
(** [append o ~len blit] queues [len] bytes that [blit dst off] writes.
    The live bytes first move to the buffer's start, then the capacity
    doubles until they fit. *)

val append_buffer : out -> Buffer.t -> unit

val frame_length : Buffer.t -> int
(** Bytes {!append_frame} queues for this payload. *)

val append_frame : out -> Buffer.t -> unit
(** Queue one frame carrying the payload's contents
    ({!Tr_wire.Codec.encode_payload}), its header written in place:
    {!frame_length} bytes, with no intermediate copy and no closure. *)

val advance : out -> int -> unit
(** Retire bytes written or dropped unwritten. *)

val flush : Unix.file_descr -> out -> int
(** One write(2) of everything queued: the count written, whose bytes
    leave the buffer, or an error class with nothing changed. 0, and no
    syscall, when nothing is queued. *)

type reader = private {
  buf : Bytes.t;
  mutable reads : int;
  view : Tr_wire.Frame.view;
}
(** A read buffer shared by every connection one loop serves, the
    read(2) calls made through it, and the one view it lends to each
    payload it reads. *)

val reader : unit -> reader

val read_frames :
  reader ->
  Unix.file_descr ->
  Tr_wire.Frame.Decoder.t ->
  skip:('a -> unit) ->
  view:('a -> Tr_wire.Frame.view -> bool) ->
  'a ->
  bool
(** [read_frames r fd dec ~skip ~view ctx] reads [fd] into [dec] until a
    short read, [EAGAIN], EOF or an error, draining the decoder after
    each chunk: [view ctx v] per payload ([v] is the reader's own view,
    borrowed for the call and repointed at the next payload), [skip
    ctx] per resync. It stops when [view] returns [false]. [false] means
    the stream finished (EOF or an error) and should be closed. The
    callbacks take [ctx] so that they can be built once. *)
