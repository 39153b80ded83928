(** Per-shard wake pipes.

    A shard sleeping in {!Transport.wait} is woken by writing a byte to
    its pipe, whose read end rides in the shard's readiness set. The
    write side is safe from any domain; the owning shard calls {!drain}
    when the set reports the pipe readable. It reads to [EAGAIN], so a
    burst of wakes cannot leave stale readability that would make every
    later wait return at once and spin the shard at 100% CPU. *)

type t

val create : unit -> t
(** A non-blocking pipe pair. *)

val read_fd : t -> Unix.file_descr
(** The fd to register for readability. *)

val wake : t -> unit
(** Write one wake byte. Never blocks and never raises: a full pipe
    already has readability pending, which is all a wake means. After
    {!close} it does nothing: a wake racing teardown from another domain
    never writes to an fd number the OS may have reused. *)

val drain : t -> int
(** Read the pipe empty (to [EAGAIN]); returns the [read(2)] calls
    made, the one that hit [EAGAIN] included. Owning shard only. *)

val close : t -> unit
(** Idempotent. *)
