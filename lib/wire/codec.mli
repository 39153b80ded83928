(** A wire codec for one protocol's message type.

    Each protocol in [lib/proto/] gets a codec derived from its [msg]
    variant (see {!Codecs}); the live runtime pairs the codec with the
    protocol module and ships every [ctx.send] through it. Generation and
    stamp counters travel as zigzag varints, so they are preserved
    exactly — a live token carries the same integers a simulated one
    does.

    The envelope wraps a message with its routing metadata
    ([src] node id and delivery channel) and the codec's [key], a stable
    wire identifier that catches a node decoding frames from a cluster
    running a different protocol. *)

type 'msg t = {
  name : string;  (** Protocol name, matching {!Tr_sim} registry usage. *)
  key : int;  (** Stable wire id for cross-protocol mismatch detection. *)
  version : int;  (** Bumped when the message encoding changes shape. *)
  encode_msg : Buffer.t -> 'msg -> unit;
  decode_msg : Buf.Dec.t -> ('msg, Buf.error) result;
}

type 'msg envelope = {
  src : int;
  channel : Tr_sim.Network.channel;
  msg : 'msg;
}

val encode_envelope :
  'msg t -> src:int -> channel:Tr_sim.Network.channel -> 'msg -> string
(** A complete frame (header included) ready for a transport. Allocates
    per call; the hot path uses {!encode_frame} with a reused scratch. *)

type scratch
(** Reusable encode buffers (payload + frame). One per sending context;
    not safe to share across domains. *)

val scratch : unit -> scratch

val encode_payload :
  scratch ->
  'msg t ->
  src:int ->
  channel:Tr_sim.Network.channel ->
  'msg ->
  Buffer.t
(** Encode one frame {e payload} (the envelope, without the frame
    header) into the scratch and return the buffer holding it, valid
    until the next encode on the same scratch. The socket transport
    frames it straight into a connection's out buffer
    ({!Transport.send_payload}); {!encode_frame} frames it into the
    scratch. *)

val encode_frame :
  scratch ->
  'msg t ->
  src:int ->
  channel:Tr_sim.Network.channel ->
  'msg ->
  Buffer.t
(** Encode one complete frame into the scratch and return the buffer
    holding it. The contents are only valid until the next
    encode on the same scratch. It is {!encode_payload} plus the frame
    header. Steady-state calls allocate nothing beyond what the message
    encoder itself allocates. *)

val decode_envelope : 'msg t -> string -> ('msg envelope, Buf.error) result
(** Decode one frame {e payload} (as produced by {!Frame.Decoder.next}).
    Never raises; trailing bytes, wrong codec key or version, and
    truncation all come back as [Error]. *)

val decode_view : 'msg t -> Frame.view -> ('msg envelope, Buf.error) result
(** As {!decode_envelope}, reading directly from a borrowed frame view
    (no payload copy). The view must stay valid for the duration of the
    call, which never outlives it. *)

val decode_payload : 'msg t -> Buf.Dec.t -> ('msg envelope, Buf.error) result
(** As {!decode_envelope}, over an existing cursor. *)

val decode_with :
  'msg t ->
  Buf.Dec.t ->
  ok:(int -> Tr_sim.Network.channel -> 'msg -> 'r) ->
  error:(Buf.error -> 'r) ->
  'r
(** The decoder behind every function above: [ok src channel msg] for a
    well-formed envelope, else [error] with the error they return. It
    allocates nothing but the message itself, so a loop that builds [ok]
    and [error] once and reuses one cursor ({!Buf.Dec.reset}) decodes a
    frame with no envelope or result record. *)
