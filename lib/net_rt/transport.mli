(** Byte transport between live nodes, with two backends.

    A transport moves {e framed} byte strings (see {!Tr_wire.Frame}) from
    a source node to a destination node and hands complete frame payloads
    back to the destination's owning shard as borrowed {!Tr_wire.Frame.view}
    slices — no per-frame copy. It knows nothing about protocol
    messages — codecs live a layer up.

    {b Loopback} keeps the cluster in one process: each node has a
    lock-free {!Mailbox} fed by any domain, and deliveries honour a
    per-send [delay] (in clock units) through a min-heap, so the default
    one-unit hop reproduces the simulator's network model in real time.
    Delivery decodes each queued frame in place ({!Tr_wire.Frame.decode_exact});
    the only steady-state allocation is the one string that carries the
    frame across domains.

    {b Sockets} runs over TCP or Unix-domain stream sockets, one
    listener per hosted node. All I/O is non-blocking. Outgoing frames
    coalesce into a flat per-peer buffer that {!poll} flushes with a
    single [write(2)] — many frames per syscall — bounded by a 4 MiB
    high-water mark (frames past it are dropped whole and counted).
    Partial reads accumulate in an incremental frame decoder; a failed
    or refused connection backs off exponentially (10 ms doubling to
    1 s) before reconnecting, and a connection torn down mid-frame drops
    the half-written frame whole so the next connection starts on a
    frame boundary. TCP peers are set [TCP_NODELAY] — batching happens
    in the transport, not in Nagle's queue. The wire itself is the delay
    model — the [delay] argument is ignored. Creating a sockets
    transport installs a process-wide SIGPIPE ignore so a disconnected
    peer surfaces as [EPIPE] (handled by the reconnect path) instead of
    killing the process, and raises [RLIMIT_NOFILE] as far as the
    process may so high-N clusters don't trip the soft default.

    {b Readiness.} Each shard's first {!wait} adopts its nodes into a
    per-shard {!Readiness} set (epoll on Linux, poll elsewhere — see
    {!Readiness.backend}); fds register once and every subsequent wait
    costs O(ready), not O(connections). Ready events are dispatched
    through a persistent fd index and surfaced to the caller as
    [on_ready owner] activations so the shard loop knows exactly which
    nodes to poll. A node must be adopted before its first {!poll}: a
    zero-timeout {!wait} over its owners is enough. *)

type stats = {
  frames_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  frames_received : int Atomic.t;
  decode_errors : int Atomic.t;
      (** Envelope decode failures reported via {!count_decode_error}. *)
  resync_skips : int Atomic.t;
      (** Framing-level skips: bytes discarded to resynchronise after
          garbage, plus unknown-version frames skipped whole. *)
  reconnects : int Atomic.t;
      (** Times an outgoing connection was torn down and rescheduled. *)
  frames_dropped : int Atomic.t;
      (** Sends refused because the per-peer outgoing buffer was over its
          high-water mark, plus half-written frames discarded at
          tear-down (sockets only). *)
  out_hwm_bytes : int Atomic.t;
      (** High-water mark: the largest backlog any single peer's outgoing
          buffer reached (sockets only) — how close the run came to the
          4 MiB drop threshold, visible while it happens. *)
  write_syscalls : int Atomic.t;
      (** [write(2)] calls issued (sockets only) — with batching this
          stays well below [frames_sent]. *)
  read_syscalls : int Atomic.t;  (** [read(2)] calls issued (sockets only). *)
  wait_calls : int Atomic.t;
      (** {!wait} invocations that reached the kernel (sockets only). *)
  fds_ready : int Atomic.t;
      (** Total fds reported ready across all waits; divided by
          [wait_calls] this gives the average readiness batch — the
          O(ready) dispatch cost — independent of [fds_registered]. *)
  fds_registered : int Atomic.t;
      (** Gauge: fds currently registered across all shard readiness
          sets (listeners, connections, wake pipes). *)
  spin_hits : int Atomic.t;
      (** Adaptive-spin windows that ended with work already in hand
          (in-process mailbox non-empty), so the kernel wait became a
          free zero-timeout drain. *)
  spin_misses : int Atomic.t;
      (** Spin windows that expired empty and fell through to a blocking
          wait. *)
  inproc_frames : int Atomic.t;
      (** Frames delivered through the in-process fast path — no socket,
          no syscall, never counted in [write_syscalls]/[read_syscalls]. *)
}

(** One coherent reading of every counter. Each field is a single
    [Atomic.get] of the corresponding {!stats} counter, all taken in one
    call — the way to print or export totals while shard domains are
    still running (or racing to finish), instead of re-reading live
    atomics one by one mid-report. *)
type snapshot = {
  snap_frames_sent : int;
  snap_bytes_sent : int;
  snap_frames_received : int;
  snap_decode_errors : int;
  snap_resync_skips : int;
  snap_reconnects : int;
  snap_frames_dropped : int;
  snap_out_hwm_bytes : int;
  snap_write_syscalls : int;
  snap_read_syscalls : int;
  snap_wait_calls : int;
  snap_fds_ready : int;
  snap_fds_registered : int;
  snap_spin_hits : int;
  snap_spin_misses : int;
  snap_inproc_frames : int;
}

type t

val name : t -> string
(** Backend name for report stamping: ["loopback"], ["tcp"] or ["unix"]. *)

val readiness_backend : t -> string
(** Backend driving {!wait}: ["epoll"] or ["poll"] for sockets (the
    backend actually in use after loud fallback, not the one
    requested); ["none"] for loopback. *)

val stats : t -> stats

val snapshot : t -> snapshot
(** Read every counter once, atomically enough for reporting: no
    counter is read twice, so a report printed while shards still run
    cannot show a ratio computed from two different moments of the same
    counter. *)

val snapshot_of_stats : stats -> snapshot
(** As {!snapshot}, from a bare {!stats} record — for embedders that
    hold only {!Cluster.control.transport_stats} (the service front-end
    printing periodic reports while the cluster is live, or racing its
    teardown). *)

val send : t -> src:int -> dst:int -> delay:float -> string -> unit
(** Ship one complete frame. [delay] is in clock units (loopback only).
    Never blocks; socket sends coalesce until the next {!poll} flush. *)

val send_frame : t -> src:int -> dst:int -> delay:float -> Buffer.t -> unit
(** As {!send}, straight out of an encode buffer (see
    {!Tr_wire.Codec.encode_frame}): the contents are copied out before
    returning, so the caller may reuse the buffer immediately. On the
    sockets backend this path allocates nothing. *)

val poll : t -> ?upto:float -> owner:int -> (Tr_wire.Frame.view -> unit) -> unit
(** Deliver every frame payload currently due for node [owner] to the
    callback, in arrival order, as borrowed views (valid only during the
    callback). Also flushes [owner]'s coalesced outgoing buffers — one
    write syscall per busy peer per poll. [upto] caps the delivery
    horizon in clock units (loopback only) so the caller can interleave
    timers and deliveries in due-time order; socket arrivals are
    physical and always due. On sockets this touches only the
    connections the last wait reported ready plus those with unflushed
    bytes — O(ready), not O(connections). Must only be called from the
    shard that owns the node.
    @raise Invalid_argument on sockets if no {!wait} over [owner] has
    adopted it yet. *)

val next_due : t -> owner:int -> float option
(** Clock time (units) of the earliest queued delivery for [owner], if
    the backend can know it (loopback); [None] on sockets. *)

val poll_driven : t -> bool
(** True when frames arrive over file descriptors (sockets), so the
    shard loop should block in {!wait} for readiness; false when
    [next_due] is authoritative modulo the idle cap (loopback). *)

val wait :
  t ->
  ?extra_fds:Unix.file_descr list ->
  ?on_ready:(int -> unit) ->
  owners:int list ->
  timeout_s:float ->
  unit ->
  unit
(** Block until work may be available for [owners] or [timeout_s]
    elapses (capped at 0.25 s as a lost-wakeup safety net). On sockets
    this blocks in the calling shard's readiness set — the first call
    adopts [owners] (a zero [timeout_s] adopts without sleeping), their
    fds stay registered, and the per-wait cost is O(ready). Each ready event invokes [on_ready owner] (possibly
    several times per owner) telling the caller which nodes to {!poll};
    [extra_fds] (read side) ride in the set as wake channels and are
    never reported through [on_ready] — an idle cluster burns no CPU.
    Pending reconnect deadlines bound the sleep and activate their owner
    when due. On loopback it simply sleeps. *)

val count_decode_error : t -> unit
(** Record an envelope-level decode failure (bad codec key/version or
    malformed message) against this transport's stats. *)

val close : t -> unit

val loopback : clock:Clock.t -> n:int -> t

val sockets :
  ?readiness:Readiness.backend ->
  ?spin:bool ->
  ?inproc:bool ->
  clock:Clock.t ->
  n:int ->
  owned:int list ->
  addrs:Unix.sockaddr array ->
  unit ->
  t
(** Host the nodes in [owned] (listeners are bound immediately); sends
    may target any node in [addrs]. [name] reports ["unix"] if the first
    address is a Unix-domain path, ["tcp"] otherwise.

    [readiness] forces a wait backend; the default honours
    [TR_READINESS] and otherwise picks epoll where available, else poll
    (see {!Readiness.default_backend}). A forced epoll that this
    platform lacks falls back loudly to poll.

    [spin] (default [TR_SPIN], else off) enables the adaptive
    spin-then-block window before each blocking wait. It polls the one
    user-space signal, the in-process mailbox, so it arms only with
    [inproc] and never adds syscalls. On a single-CPU host the window
    is gated off with a loud stderr notice: an idle shard's busy-poll
    would steal the working shard's only core, inverting the trade.

    [inproc] (default [TR_INPROC], else off) routes frames between
    co-hosted nodes through lock-free in-process mailboxes — identical
    framing and delivery order, zero syscalls per hop. A {!wait} that
    drained in-process work skips the kernel visit entirely when it has
    nothing to block for, at most 63 times in a row, so socket fds are
    still visited. Cross-process peers are unaffected.
    @raise Invalid_argument on bad [owned] ids or array size.
    @raise Failure on a bad [TR_READINESS] value, or when a hosted
    node's listener cannot be created (missing Unix-domain directory,
    TCP port in use, fd exhaustion). The message names the address,
    the failed call and the errno; listeners bound before the failing
    one are closed again. *)

val uds_addrs : dir:string -> n:int -> Unix.sockaddr array
(** [dir/node-<i>.sock] for each node. *)

val tcp_addrs : ?host:string -> base_port:int -> n:int -> unit -> Unix.sockaddr array
(** Consecutive ports on [host] (default 127.0.0.1). *)
