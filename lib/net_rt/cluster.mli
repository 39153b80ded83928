(** Live cluster runner: the simulator's protocols over real transports.

    Every protocol in [lib/proto/] is a pure state machine against the
    {!Tr_sim.Node_intf.ctx} capability record, which {!Tr_sim.Node_host}
    builds for the simulator and this module alike. This module gives the
    host wall-clock time, frames encoded onto a {!Transport}, per-node
    timer heaps, closed-loop re-arming and the [Grants] stop, and, on a
    cluster of several shards, the mutex that guards the shared metrics
    — the protocol code runs unchanged, byte-for-byte. Each handler
    runs at one instant: its events, serve, due times, closed-loop
    re-request and [ctx.now] all share the one clock reading taken when
    the handler first asks for the time.

    Nodes are sharded across a configurable number of domains (the
    container may have a single core, so one-domain-per-node would
    oversubscribe; shards sleep when idle instead of spinning), each
    shard a contiguous block of the hosted ids, so neighbouring nodes
    share a domain. Every
    shard, on either transport, runs the same event loop: it is
    {!Transport.adopt}ed before any domain starts, then steps only the
    nodes that {!Transport.wait} (ready fds, due loopback frames), other
    shards and injected load ({!Transport.wake}) or its timers activate
    — fire due timers, poll the transport for frames, decode them
    through the protocol's codec, and process queued requests. The lead
    shard also sleeps no later than the next open-loop arrival and the
    stop deadline. On the sockets backend, nodes of one shard talk over
    socket pairs, so a hop between them is one [write] and one [read]
    and the shard asks the kernel for readiness only on every 64th pass
    while such work is in hand; frames from other shards or processes
    and new connections wait at most 63 passes (see {!Transport.wait}).
    Each shard domain sets a 1 us timer slack, so a timed
    wake lands on its due time rather than up to 50 us after it (a
    quarter unit at 0.2 ms units). On loopback every hop takes one time
    unit, on either channel, as in the simulator's default network.
    Metrics feed the {e same} {!Tr_sim.Metrics} accumulator the
    simulator uses — responsiveness is Definition 3 in both worlds, in
    the same units. *)

type load =
  | No_load  (** Token circulation only. *)
  | Open_loop of { mean_interarrival : float }
      (** Poisson arrivals (mean gap in units), uniform over live nodes. *)
  | Closed_loop of { depth : int }
      (** Keep each node's outstanding-request count topped up to
          [depth]; a serve immediately re-arms. *)
  | External
      (** No internal generator: requests arrive only through
          {!control.inject} — the service front-end's mode. *)

type stop =
  | Grants of int  (** Stop once this many requests have been served. *)
  | Duration of float  (** Stop after this many time units. *)

type config = {
  n : int;
  seed : int;
  unit_s : float;  (** Wall seconds per time unit. *)
  shards : int;
  load : load;
  stop : stop;
  max_wall_s : float;
      (** Hard safety limit on wall time, seconds: positive, [infinity]
          for none. *)
  readiness : Readiness.backend option;
      (** Force the shards' readiness backend, on either transport;
          [None] picks epoll where available, else poll (honouring
          [TR_READINESS] — see {!Readiness.default_backend}). *)
  spin : bool;
      (** Adaptive spin-then-block before each shard wait, polling the
          in-process mailbox (sockets with [inproc] only; see
          {!Transport.sockets}). Default off. *)
  inproc : bool;
      (** In-process delivery fast path between co-hosted nodes
          (sockets only; see {!Transport.sockets}). Default off. *)
  chaos : Tr_chaos.Injector.t option;
      (** Fault-injection shim on the frame path: every protocol send
          consults the injector before encoding (drop / duplicate /
          reorder holdback), corruption flips bytes in the encoded frame
          after encoding (exercising the decoder's resync path), timer
          delays are scaled by active clock-skew windows, and churned
          nodes have their deliveries destroyed and their timers and
          request arrivals parked until rejoin. [None] — the default —
          keeps the zero-copy send path untouched. *)
}

val default_config : n:int -> seed:int -> config
(** 1 ms units, [No_load], [Duration 1000.], 60 s wall cap, shards from
    [Domain.recommended_domain_count], default readiness, spin and
    in-process fast path off. *)

(** Handle passed to the {!run} [tap] and [attach] callbacks: lets an
    embedder kill a node mid-run, end the run early, or inject external
    request load. *)
type control = {
  kill : int -> unit;
      (** Stop delivering frames, timers and load to this node — it
          vanishes without ceremony, like a crash. *)
  request_stop : unit -> unit;
  live_now : unit -> float;
  inject : int -> unit;
      (** Queue one request arrival at this node, timestamped now.
          Callable from any domain; no-op for out-of-range or killed
          nodes. The backbone of the [External] load mode. *)
  transport_stats : Transport.stats;
      (** The run's live transport counters (atomics) — lets an embedder
          surface [frames_dropped] / [out_hwm_bytes] in a periodic
          report while the run is still going. *)
  pending_at : int -> int;
      (** Outstanding (injected but unserved) requests at a node right
          now; [0] for out-of-range ids. Callable from any domain — the
          chaos harness polls this to timestamp post-fault recovery. *)
}

type report = {
  protocol : string;
  n : int;
  seed : int;
  backend : string;
  readiness : string;
      (** Backend the shards waited in: ["epoll"] or ["poll"], on either
          transport — always the backend {e actually} used, after any
          loud fallback. *)
  unit_s : float;
  shards : int;
  wall_s : float;
  duration_units : float;
  grants : int;
  frames_sent : int;
  bytes_sent : int;
  frames_received : int;
  decode_errors : int;  (** Envelope-level failures (bad key/version/body). *)
  resync_skips : int;
      (** Framing-level skips: garbage bytes discarded to re-lock the
          stream, or unknown-version frames skipped whole. *)
  reconnects : int;
  frames_dropped : int;
  out_hwm_bytes : int;
      (** Largest backlog any single peer's outgoing buffer reached
          (bytes, sockets only) — headroom against the 4 MiB drop
          threshold. *)
  write_syscalls : int;  (** [write(2)] calls issued (sockets backends). *)
  read_syscalls : int;  (** [read(2)] calls, wake-pipe drains included. *)
  wait_calls : int;
      (** Kernel readiness waits issued across all shards, on either
          transport. *)
  fds_registered : int;
      (** Fds registered in the shards' readiness sets at run end
          (listeners + connections + wake pipes). *)
  avg_ready_per_wait : float;
      (** Mean fds reported ready per wait — the O(ready) dispatch cost,
          independent of [fds_registered]. *)
  spin_hits : int;  (** Spin windows that found work without blocking. *)
  spin_misses : int;  (** Spin windows that expired into a blocking wait. *)
  inproc_frames : int;
      (** Frames delivered through the in-process fast path. *)
  syscalls_per_grant : float;
      (** (write + read + wait syscalls) / grants — every syscall the
          shards paid per grant. A socket hop inside one shard costs ~2
          (write, read, and a kernel wait every 64th pass); one between
          shards or processes ~3 (write, wait, read); the in-process
          path collapses it toward 0. *)
  corrupt_frames_detected : int;
      (** Cluster-level corruption roll-up: [decode_errors +
          resync_skips] — every frame the wire layer had to reject or
          skip past, whatever the cause. *)
  chaos_spec : string;
      (** The chaos scenario spec in force, [""] when no injector. *)
  chaos_injected : (string * int) list;
      (** Injection counters by fault class (see
          {!Tr_chaos.Injector.counts}); [[]] when no injector. *)
  chaos_total_injected : int;
  chaos_digest : int;
      (** Order-independent digest of the injected-event schedule —
          equal digests across backends certify identical fault
          sequences for the same seed. [0] when no injector. *)
  metrics : Tr_sim.Metrics.t;
}

type backend_spec =
  | Loopback
  | Sockets of { owned : int list; addrs : Unix.sockaddr array }

val run :
  ?observe:'m Tr_sim.Node_intf.observer ->
  ?tap:(control -> self:int -> 'm -> unit) ->
  ?attach:(control -> unit) ->
  ?backend:backend_spec ->
  config ->
  (module Tr_sim.Node_intf.PROTOCOL with type msg = 'm) ->
  'm Tr_wire.Codec.t ->
  report
(** Blocks until the stop condition (or wall cap) is reached, then joins
    all shard domains and closes the transport.

    [observe] sees every {!Tr_sim.Node_intf.event}, timed by the
    cluster's clock in units, outside the metrics lock, on the domain
    that caused it: the caller's during node init, then the shard that
    hosts the node (the receiver's for [Delivered], the sender's for
    [Sent]). Shards call it concurrently, so it does its own locking.
    No [Crashed] is emitted: {!control.kill} is the embedder's own act.
    [tap] is the same stream's [Delivered] events, handed {!control},
    after [observe].

    [Delivered] is emitted just before the receiver's [on_message], and
    the handler runs whatever the observer does. So a [tap] that kills
    the receiving node models a crash just after handling the message:
    the handler still runs and its sends leave, and every later frame,
    timer and request for the node is discarded.

    [attach] receives the {!control} handle after node init but before
    any shard domain runs — an embedding service stores it to [inject]
    load and stop the run (typically from another domain, since [run]
    blocks). If a node's [init] or [attach] raises, the transport is
    closed and the exception raised again.
    @raise Invalid_argument on an invalid [config] (a NaN [max_wall_s]
    included), before any shard domain starts. The first exception a
    shard raises (a misused [ctx] included) stops the run and is raised
    again once every shard has joined. *)

val run_packed : ?backend:backend_spec -> config -> Tr_wire.Codecs.packed -> report
(** {!run} over a registry entry (protocol paired with its codec). *)
