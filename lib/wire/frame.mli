(** Versioned, length-prefixed framing for a byte stream.

    A frame is [magic (1 byte) | version (1 byte) | length (uvarint) |
    payload (length bytes)]. The magic byte lets a receiver that lands
    mid-stream (or behind corrupted bytes) resynchronise: on any framing
    error the decoder drops bytes up to the next candidate magic byte and
    reports a [`Skip] instead of raising, so one bad frame never poisons
    the connection.

    The decoder is incremental — [feed] it whatever chunk the socket
    produced (partial frames included) and pull complete payloads with
    [next]. *)

val magic : int
(** First byte of every frame, [0xA7]. *)

val version : int
(** Wire format version emitted by {!encode}. Frames carrying an
    unknown version are skipped whole (their length prefix is still
    trusted, which is the point of putting it outside the payload). *)

val max_payload : int
(** Upper bound on payload length accepted by the decoder; a longer
    declared length is treated as corruption, not an allocation request. *)

val encode : Buffer.t -> string -> unit
(** Append one frame carrying the given payload. *)

val encode_buffer : Buffer.t -> Buffer.t -> unit
(** [encode_buffer buf payload] appends one frame whose payload is the
    current contents of [payload], with no intermediate string — the
    allocation-free send path pairs this with a reused scratch pair. *)

val to_string : string -> string
(** [to_string payload] is a single encoded frame. *)

val header_length : int -> int
(** Bytes of the header in front of a payload of this length. *)

val write_header : Bytes.t -> int -> int -> int
(** [write_header dst off plen] writes, at [dst.[off]], the header of a
    frame whose [plen]-byte payload follows it, and returns its length
    ({!header_length}): the same bytes {!encode} writes, so an encoder
    can frame a payload in place in its own buffer.
    @raise Invalid_argument if [plen] is negative or over
    {!max_payload}, or the header does not fit. *)

type view = { mutable buf : Bytes.t; mutable off : int; mutable len : int }
(** A borrowed slice [buf.[off .. off+len-1]] holding one frame payload.
    Views alias buffers owned by a decoder (or by the string passed to
    {!decode_exact}); they are only valid until the owner's next mutation
    — for {!Decoder.next_view}, until the next [feed]. Copy out with
    {!view_to_string} to keep a payload longer. The fields are mutable
    so that a loop can lend one view for every payload it reads
    ({!Decoder.next_into}); a view made by anything else is never
    changed. *)

val view_to_string : view -> string

val decode_exact : string -> (view, string) result
(** Parse a string that contains exactly one frame (header included) and
    return a zero-copy view of its payload. Any framing defect — bad
    magic or version, bad length varint, trailing or missing bytes — is
    an [Error] with a diagnostic. This is the loopback fast path, where
    each queued entry is one encoder-produced frame by construction. *)

module Decoder : sig
  type t

  type progress =
    | Frame of string  (** One complete payload, in arrival order. *)
    | Await  (** Need more input; feed another chunk. *)
    | Skip of string
        (** Bytes were discarded (desync, oversized or unknown-version
            frame); the reason is diagnostic. Decoding continues. *)

  type view_progress =
    | View of view  (** One complete payload, borrowed from the buffer. *)
    | Await_view
    | Skip_view of string

  val create : unit -> t
  val feed : t -> string -> unit
  val feed_sub : t -> Bytes.t -> pos:int -> len:int -> unit

  val next : t -> progress
  (** {!next_view} plus a payload copy — convenient, but the hot path
      uses {!next_view} and decodes in place. *)

  val next_view : t -> view_progress
  (** Pull the next complete payload without copying it. The view is
      invalidated by the next [feed]/[feed_sub] (decoding may compact or
      grow the internal buffer); calling [next_view] again first is
      fine. *)

  type step = Payload | Wait | Skipped

  val next_into : t -> view -> step
  (** The allocation-free form of {!next_view}, which with {!next} is
      built on the same step: [Payload] points [v] at the next complete
      payload (valid as a {!next_view} view is), [Wait] needs more input,
      [Skipped] discarded bytes (counted in {!skipped_events}). Only a
      skip allocates (its reason, which {!next_view} and {!next}
      return). *)

  val skipped_events : t -> int
  (** Number of [Skip] results produced so far (decode-error counter). *)

  val buffered : t -> int
  (** Bytes held waiting for a complete frame. *)
end
