(** The client-facing wire protocol.

    Version-1 framing and varint conventions are exactly {!Tr_wire}'s:
    every message rides in a {!Tr_wire.Frame} whose payload is a
    {!Tr_wire.Codec} envelope, so clients reuse the fuzz-hardened
    resyncing stream decoder unchanged. The envelope [src] field carries
    the client id on requests and the serving node id on responses;
    [channel] is always [Reliable].

    Sequence numbers are client-chosen and echoed verbatim: a client
    correlates responses to in-flight requests by [(client, seq)], which
    is what lets thousands of logical clients multiplex one connection.

    The mutex service is a {e lease}: [Acquire] joins the target node's
    FIFO, [Grant] arrives when the cluster's token enters the critical
    section on the client's behalf, and [Released] arrives when the
    lease expires ([cs_duration] time units later). A client [Release]
    is advisory — it is counted, and acknowledged by the lease-expiry
    [Released], like a lock service that never trusts clients to unlock
    promptly. Total order: [Publish] is sequenced by the token and
    [Committed] reports the global sequence number once the origin node
    delivers it. *)

type request =
  | Hello of { client : int }  (** Open a session; server replies [Welcome]. *)
  | Acquire of { client : int; seq : int }
  | Release of { client : int; seq : int }  (** Advisory early release. *)
  | Publish of { client : int; seq : int; payload : string }

type response =
  | Welcome of { client : int; node : int }
      (** Session open; [node] is the cluster node hosting it. *)
  | Grant of { client : int; seq : int }
  | Released of { client : int; seq : int }
  | Committed of { client : int; seq : int; global_seq : int }
  | Rejected of { client : int; seq : int; reason : string }

val request_codec : request Tr_wire.Codec.t
(** Wire key 31, version 1. *)

val response_codec : response Tr_wire.Codec.t
(** Wire key 32, version 1. *)
