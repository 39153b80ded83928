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
    Delivery decodes each queued frame in place
    ({!Tr_wire.Frame.decode_exact}); the only steady-state allocation is
    the one string that carries the frame across domains.

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
    model — the [delay] argument is ignored. All socket I/O goes through
    {!Stream_io}, whose process-wide SIGPIPE ignore makes a disconnected
    peer surface as [EPIPE] (handled by the reconnect path) instead of
    killing the process. Creating a sockets transport also raises
    [RLIMIT_NOFILE] as far as the process may so high-N clusters don't
    trip the soft default.

    {b Readiness.} {!adopt} registers a shard's nodes once in a
    per-shard {!Readiness} set (epoll on Linux, poll elsewhere — see
    {!Readiness.backend}) around the shard's one wake pipe; every
    {!wait} then costs O(ready), not O(connections) or O(owners). Ready
    events (and, on loopback, due frames) are surfaced to the caller as
    [on_ready owner] activations so the shard loop knows exactly which
    nodes to poll. On both transports a node must be adopted before its
    first {!poll}.

    {b Socket pairs.} A node sending to a destination that the same
    shard hosts behind a Unix-domain address gets a [socketpair(2)]
    instead of a dialled connection: the receive end is registered as
    the destination's inbound connection at once, neither listener is
    involved, and each flush that writes bytes on the pair queues that
    one receive end for the next {!wait}, which activates its node
    without asking the kernel. A same-shard hop therefore costs one
    [write] and one [read]. Peers on another shard of this transport,
    in another process or behind TCP addresses keep connect/accept and
    the kernel's readiness report. *)

type counters
(** One shard's live counters. *)

(** A transport's counters. Each one is a plain int in a per-shard block
    that only the shard's own domain writes, so a hop pays no atomic
    read-modify-write for its bookkeeping; a node no shard has adopted
    yet counts in the transport's own block. {!snapshot_of_stats} sums
    the blocks and publishes the totals in the named fields: each holds
    what the latest {!stats}, {!snapshot} or {!snapshot_of_stats} call
    read into the same-named [snap_] field. *)
type stats = private {
  frames_sent : int Atomic.t;
  bytes_sent : int Atomic.t;
  frames_received : int Atomic.t;
  decode_errors : int Atomic.t;
  resync_skips : int Atomic.t;
  reconnects : int Atomic.t;
  frames_dropped : int Atomic.t;
  out_hwm_bytes : int Atomic.t;
  write_syscalls : int Atomic.t;
  read_syscalls : int Atomic.t;
  wait_calls : int Atomic.t;
  fds_ready : int Atomic.t;
  fds_registered : int Atomic.t;
  spin_hits : int Atomic.t;
  spin_misses : int Atomic.t;
  inproc_frames : int Atomic.t;
  blocks : counters list Atomic.t;
      (** The live blocks: each adopted shard's and the transport's. *)
}

(** One coherent reading of every counter: each shard's block is read
    once and the blocks summed (the high-water mark is a maximum), all in
    one call — the way to print or export totals while shard domains are
    still running (or racing to finish). After the shards have stopped
    it is exact. *)
type snapshot = {
  snap_frames_sent : int;
  snap_bytes_sent : int;
  snap_frames_received : int;
  snap_decode_errors : int;
      (** Envelope decode failures reported via {!count_decode_error}. *)
  snap_resync_skips : int;
      (** Framing-level skips: bytes discarded to resynchronise after
          garbage, plus unknown-version frames skipped whole. *)
  snap_reconnects : int;
      (** Times an outgoing connection was torn down and rescheduled. *)
  snap_frames_dropped : int;
      (** Sends refused because the per-peer outgoing buffer was over its
          high-water mark, plus half-written frames discarded at
          tear-down (sockets only). *)
  snap_out_hwm_bytes : int;
      (** High-water mark: the largest backlog any single peer's outgoing
          buffer reached (sockets only) — how close the run came to the
          4 MiB drop threshold, visible while it happens. *)
  snap_write_syscalls : int;
      (** [write(2)] calls issued (sockets only) — with batching this
          stays well below [snap_frames_sent]. *)
  snap_read_syscalls : int;  (** [read(2)] calls, wake drains included. *)
  snap_wait_calls : int;  (** {!wait} invocations that reached the kernel. *)
  snap_fds_ready : int;
      (** Total fds reported ready across all waits; divided by
          [snap_wait_calls] this gives the average readiness batch — the
          O(ready) dispatch cost — independent of [snap_fds_registered]. *)
  snap_fds_registered : int;
      (** Gauge: fds currently registered across all shard readiness
          sets (listeners, connections, wake pipes). *)
  snap_spin_hits : int;
      (** Adaptive-spin windows that ended with work already in hand
          (in-process mailbox non-empty), so the kernel wait became a
          free zero-timeout drain. *)
  snap_spin_misses : int;
      (** Spin windows that expired empty and fell through to a blocking
          wait. *)
  snap_inproc_frames : int;
      (** Frames delivered through the in-process fast path — no socket,
          no syscall, never counted in the syscall counts. *)
}

type t

val name : t -> string
(** Backend name for report stamping: ["loopback"], ["tcp"] or ["unix"]. *)

val readiness_backend : t -> string
(** Backend driving {!wait}: ["epoll"] or ["poll"] — the backend
    actually in use after loud fallback, not the one requested. *)

val stats : t -> stats
(** The transport's stats, their totals refreshed as by {!snapshot}. *)

val snapshot : t -> snapshot
(** [snapshot_of_stats (stats t)]. *)

val snapshot_of_stats : stats -> snapshot
(** Read every counter once: no counter is read twice, so a report
    printed while shards still run cannot show a ratio computed from two
    different moments of the same counter. It takes the bare {!stats} for
    embedders that hold only {!Cluster.control.transport_stats} (the
    service front-end printing periodic reports while the cluster is
    live, or racing its teardown). *)

val send : t -> src:int -> dst:int -> delay:float -> string -> unit
(** Ship one complete frame. [delay] is in clock units (loopback only).
    Never blocks; socket sends coalesce until the next {!poll} flush. *)

val send_payload : t -> src:int -> dst:int -> delay:float -> Buffer.t -> unit
(** As {!send}, for a frame whose payload is the buffer's contents (see
    {!Tr_wire.Codec.encode_payload}): the frame header is written and
    the payload copied before returning, so the caller may reuse the
    buffer immediately. On the sockets backend both go straight into the
    connection's out buffer, allocating nothing. *)

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
    @raise Invalid_argument if no {!adopt} has handed [owner] to a
    shard yet. *)

type shard
(** One shard: its adopted nodes, readiness set and wake pipe. *)

val adopt : t -> owners:int list -> shard
(** Hand [owners] to a new shard before its first {!wait} or {!poll}
    (one domain at a time): create its readiness set and wake pipe and,
    on sockets, register each owner's listener. Frames sent to an owner
    before its adoption are picked up by the shard's first {!wait}.
    @raise Invalid_argument if an owner is out of range, is not hosted
    here, or was already adopted. *)

val wait :
  t -> shard -> ?on_ready:(int -> unit) -> timeout_s:float -> unit -> unit
(** Block, from the shard's own domain, until work may be available for
    its nodes, a {!wake}, or [timeout_s] (capped at 0.25 s as a
    lost-wakeup safety net). Each activation invokes [on_ready owner]
    (possibly several times per owner), telling the caller which nodes
    to {!poll}. The wake pipe is drained only when the set reports it,
    and never reaches [on_ready].

    On sockets this blocks in the shard's readiness set at O(ready)
    cost; pending reconnect deadlines bound the sleep and activate their
    owner when due. A wait that finds work in hand (socket-pair frames
    flushed since the last wait, or in-process frames) activates it and
    skips the kernel, at most 63 times in a row: the first wait and
    every 64th still visit the kernel, with timeout 0. So listener
    accepts and frames from other shards and processes wait at most 63
    loop passes while a shard always has paired work. On loopback it reports the owners whose frames are
    due, sleeping first (at most until the earliest due frame) only if
    none is. A loopback send wakes the destination's sleeping shard. *)

val wake : shard -> unit
(** Interrupt the shard's current or next {!wait} (a wake before the
    wait is kept), from any domain. *)

val count_decode_error : t -> owner:int -> unit
(** Record an envelope-level decode failure (bad codec key/version or
    malformed message) in a frame delivered to [owner], on [owner]'s
    shard, against this transport's stats. *)

val close : t -> unit

val loopback : ?readiness:Readiness.backend -> clock:Clock.t -> n:int -> unit -> t
(** Host all [n] nodes in this process. [readiness] picks the shards'
    wait backend exactly as for {!sockets}.
    @raise Failure on a bad [TR_READINESS] value. *)

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
    framing and delivery order, zero syscalls per hop. In-process work
    in hand lets a {!wait} skip the kernel as paired work does.
    Cross-process peers are unaffected.
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
