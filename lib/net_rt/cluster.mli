(** Live cluster runner: the simulator's protocols over real transports.

    Every protocol in [lib/proto/] is a pure state machine against the
    {!Tr_sim.Node_intf.ctx} capability record; the simulator implements
    that record over a virtual event queue, and this module implements it
    over wall-clock time and a {!Transport} — the protocol code runs
    unchanged, byte-for-byte.

    Nodes are sharded across a configurable number of domains (the
    container may have a single core, so one-domain-per-node would
    oversubscribe; shards sleep when idle instead of spinning). Each
    shard runs an event loop over the nodes it owns: fire due timers,
    poll the transport for frames, decode them through the protocol's
    codec, and process injected load. Metrics feed the {e same}
    {!Tr_sim.Metrics} accumulator the simulator uses — responsiveness is
    Definition 3 in both worlds, in the same units. *)

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
  hop_delay : float;  (** Loopback reliable-hop delay, units. *)
  cheap_delay : float;  (** Loopback cheap-channel delay, units. *)
  load : load;
  stop : stop;
  max_wall_s : float;  (** Hard safety limit on wall time. *)
  pin_cores : bool;
      (** Pin each shard domain to one CPU ([sched_setaffinity],
          shard index modulo core count). Advisory: pinning failure is
          ignored. *)
  readiness : Readiness.backend option;
      (** Force the sockets readiness backend; [None] picks epoll where
          available, else poll (honouring [TR_READINESS] — see
          {!Readiness.default_backend}). Ignored on loopback. *)
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
(** 1 ms units, one-unit hops on both channels, [No_load],
    [Duration 1000.], 60 s wall cap, shards from
    [Domain.recommended_domain_count], no pinning, default readiness,
    spin and in-process fast path off. *)

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
      (** Backend the shards waited in: ["epoll"], ["poll"], or ["none"]
          for loopback — always the backend {e actually} used, after any
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
  read_syscalls : int;  (** [read(2)] calls issued (sockets backends). *)
  wait_calls : int;  (** Readiness waits issued across all shards. *)
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
      (** (write + read + wait syscalls) / grants — the per-grant
          syscall floor this run actually paid. A socket hop costs ~3
          (write, wait, read); the in-process path collapses it toward
          0. *)
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
  ?tap:(control -> self:int -> 'm -> unit) ->
  ?attach:(control -> unit) ->
  ?backend:backend_spec ->
  config ->
  (module Tr_sim.Node_intf.PROTOCOL with type msg = 'm) ->
  'm Tr_wire.Codec.t ->
  report
(** Blocks until the stop condition (or wall cap) is reached, then joins
    all shard domains and closes the transport. [tap] observes every
    processed delivery on the receiving shard's domain (after the
    protocol's [on_message]) — it must do its own locking if it
    accumulates state. A tap that kills the receiving node models a
    crash just after handling the message. [attach] receives the
    {!control} handle after node init but before any shard domain runs —
    an embedding service stores it to [inject] load and stop the run
    (typically from another domain, since [run] blocks). *)

val run_packed : ?backend:backend_spec -> config -> Tr_wire.Codecs.packed -> report
(** {!run} over a registry entry (protocol paired with its codec). *)

(** One forked fleet child's scalar summary (see {!run_fleet}). *)
type fleet_member = {
  m_grants : int;
  m_frames_sent : int;
  m_wall_s : float;
  m_resp_mean : float;  (** Mean responsiveness, time units. *)
  m_resp_p99 : float;  (** p99 responsiveness, time units. *)
  m_wait_calls : int;
  m_fds_registered : int;
  m_decode_errors : int;
}

val run_fleet :
  procs:int ->
  addrs:Unix.sockaddr array ->
  config ->
  Tr_wire.Codecs.packed ->
  fleet_member list
(** Fork [procs] children, each hosting a contiguous slice of the ids of
    a socket cluster over [addrs], all running [config] (which should use
    a {!Duration} stop — there is no cross-process grant coordination).
    Splits the per-process fd bill by [procs], so a 10k-node cluster fits
    under an un-raisable [RLIMIT_NOFILE]. Returns one summary per child
    in slice order; raises [Failure] if any child exits abnormally. May
    return fewer than [procs] members if a child died before reporting
    (callers should check). Must be called from a single-domain process
    ([fork] and OCaml domains don't mix). *)
