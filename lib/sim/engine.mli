(** Discrete-event execution of a protocol over the simulated fabric.

    [Make (P)] instantiates the event loop for protocol [P]: it creates
    [n] node states, drives the workload's request arrivals, routes
    messages through the {!Network} model, delivers timers and applies
    crash injections. Each node's context comes from {!Node_host}, which
    feeds {!Metrics} and {!Trace}; the engine gives it the virtual clock,
    a send's way onto the event queue, timer events and the
    [Continuous] re-request.

    Observation: the host emits each {!Node_intf.event} to one optional
    observer, given to {!Make.create} as [?observe]. A config with
    [trace = true] attaches {!Trace.observe} beside it; with neither,
    an event costs one test and allocates nothing.

    Time semantics follow the paper's §4 cost model: rules that only touch
    local state cost zero time; every message costs its sampled network
    delay (one unit by default). *)

type stop =
  | At_time of float  (** Run until virtual time exceeds this. *)
  | After_serves of int  (** Until this many requests have been served. *)
  | After_token_messages of int
      (** Until this many token-class messages were sent ("rounds": the
          paper's 1000-rounds runs stop after [1000 * n] token hops). *)
  | First_of of stop list  (** Whichever triggers first. *)

type config = {
  n : int;  (** Ring size; must be >= 2. *)
  seed : int;
  network : Network.t;
  workload : Workload.spec;
  trace : bool;
      (** Record a full event trace (memory-heavy): attaches the
          {!Trace} observer. *)
  crashes : (float * int) list;  (** (time, node) fail-stop injections. *)
  chaos : Tr_chaos.Injector.t option;
      (** Fault-injection shim on the delivery path: every protocol send
          consults the injector (drop / duplicate / extra delay /
          corrupt-as-detect-and-drop), timer delays are scaled by active
          clock-skew windows, and churned nodes lose deliveries and
          arrivals while down (their timers are parked until rejoin).
          [None] — the default — is a true no-op. *)
}

val default_config : n:int -> seed:int -> config
(** Unit-delay reliable network, no workload, no trace, no crashes, no
    chaos. *)

module Make (P : Node_intf.PROTOCOL) : sig
  type t

  val create : ?observe:P.msg Node_intf.observer -> config -> t
  (** Builds node states (calling [P.init] on each) but processes no
      events. [observe] sees every event of the run, in order, after
      the trace's own observer when [config.trace] is set.
      @raise Invalid_argument if [config.n < 2]. *)

  val run : t -> stop:stop -> unit
  (** Process events until the stop condition triggers or the event queue
      drains. May be called repeatedly with later stop conditions to
      continue the same execution. *)

  val now : t -> float
  val metrics : t -> Metrics.t
  val trace : t -> Trace.t
  val state : t -> int -> P.state
  (** Peek a node's protocol state (tests and debugging). *)

  val request_now : t -> node:int -> unit
  (** Inject a request at the current time, in addition to the workload.
      Takes effect when the event loop next runs. *)

  val crashed : t -> int -> bool

  val events_processed : t -> int
  (** Total events popped from the queue over this engine's lifetime
      (delivers, timer firings, arrival batches, crashes) — the
      numerator of events/sec throughput reporting. *)
end
