(** Reproductions of the paper's evaluation artefacts.

    Each function regenerates one figure, lemma or theorem as a data
    table: the same series the paper plots, produced by the simulator.
    [quick:true] shrinks sweeps and sample counts for use in the test
    suite; the defaults match the paper's setup (1000+ rounds, the
    Figure 9/10 workloads).

    The [expectation] field records what the paper predicts for the
    table's shape, so EXPERIMENTS.md can be checked against the output
    mechanically.

    Sweeps that fan over independent seeded runs (FIG9, FIG10, the
    LEM4/LEM6/THM2 placement probes, SPACE) accept an optional
    [?pool] and distribute their points across its domains. Results are
    reassembled in sweep order, so tables and plots are byte-identical
    with and without a pool — parallelism never perturbs the data. *)

type result = {
  id : string;  (** "FIG9", "LEM6", ... — DESIGN.md's experiment index. *)
  title : string;
  expectation : string;
  notes : (string * string) list;
      (** Run metadata (throughput, domains, peak RSS, ...) — printed
          after the expectation and exported as the JSON "meta" object.
          Unlike [table], notes may vary run to run (timings). *)
  series : Tr_stats.Series.t list;  (** The raw curves the table aligns. *)
  table : Tr_stats.Series.Table.t;
}

val fig9 : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** Figure 9: fixed load (one request per 10 time units on average),
    sweep the ring size. Columns: ring and binsearch average
    responsiveness, with log₂ N for reference. *)

val fig10 : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** Figure 10: fixed N = 100, sweep the mean interarrival. Ring
    approaches N/2 = 50 as the load lightens; binsearch approaches
    log₂ N ≈ 6.6 from below. *)

val large_n : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** The asymptotic gap at scale: ring vs binsearch responsiveness (mean
    and streaming-P² p99) for N up to 16384 under light load
    (interarrival N/4). Runs trace-free with O(N) memory — the sweep the
    zero-allocation core exists for. [quick:true] caps N at 512. *)

val lem4 : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** Lemma 4: worst-case single-request waiting time of the ring grows
    linearly with N. *)

val lem6 : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** Lemma 6: a binsearch request is forwarded O(log N) times. *)

val thm2 : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** Theorem 2: worst-case single-request waiting time of binsearch grows
    logarithmically with N. *)

val thm3 : ?quick:bool -> ?seed:int -> unit -> result
(** Theorem 3 (log N fairness): while a continuous competitor hammers the
    token, a second requester is served after at most ~log N possessions
    by any single node and ~N + log N possessions in total. *)

val opt_messages : ?quick:bool -> ?seed:int -> unit -> result
(** §4.4 message-cost comparison: control messages per served request for
    the search variants (delegated, throttled, directed, sequential, and
    both trap collectors). *)

val tree_balance : ?quick:bool -> ?seed:int -> unit -> result
(** §5's load-concentration contrast: possession imbalance of ring,
    binsearch and the Raymond tree under uniform load. *)

val adaptive_idle : ?quick:bool -> ?seed:int -> unit -> result
(** §4.4 adaptive speed + push-pull: token messages per served request as
    the load lightens, for ring / adaptive / push-pull. *)

val dist : ?quick:bool -> ?seed:int -> unit -> result
(** Beyond the paper: the full responsiveness distribution (percentiles)
    under the Figure 9 load — averages hide the ring's long tail. *)

val warmup : ?quick:bool -> ?seed:int -> unit -> result
(** Convergence of the running-mean waiting time — evidence for the
    paper's 1000-rounds steady-state horizon. *)

val spec_space : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** Methodology artefact: reachable-state counts of the six
    specifications — how much detail each refinement step adds. A pool
    parallelises {e inside} each exploration via the sharded engine
    (counts are deterministic, the table is byte-identical across domain
    counts); [notes] carries aggregate states/s, domains, and peak RSS. *)

type run = ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result
(** One experiment; [pool] is ignored by those that do not sweep. *)

val ids : string list
(** Every experiment id, in DESIGN.md index order. *)

val find : string -> run option
(** The experiment with this id, matched case-insensitively. *)

val all : ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result list
(** Every experiment, in DESIGN.md index order. *)

val pp_result : Format.formatter -> result -> unit
