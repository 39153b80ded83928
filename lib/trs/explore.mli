(** Bounded breadth-first exploration of a system's reachable states.

    This is the machine-checked counterpart of the paper's safety proofs:
    for small instances we enumerate {e every} reachable state and verify
    an invariant (e.g. the prefix property) on each, or collect the full
    transition relation for refinement checking.

    Two engines live behind one interface. With one domain and no spill
    directory the original sequential BFS runs. Otherwise a sharded
    layer-synchronous engine partitions the visited set across [domains]
    shards by cached structural hash and expands each BFS layer in
    parallel on [Tr_sim.Pool] domains — with a merge order chosen so the
    visited order, stats, rule counts, edge list and violation list are
    identical to the sequential engine for {e every} domain count. A
    spill mode streams frontier layers through temp files chunk by
    chunk and stores visited keys as 16-byte digests of the canonical
    form (hash compaction; collision odds ~1e-25 at 10^6 states),
    bounding resident memory for explorations of millions of states. *)

type stats = {
  states : int;  (** Distinct states visited. *)
  transitions : int;  (** Edges traversed (with duplicates). *)
  max_depth : int;  (** Deepest BFS layer reached. *)
  truncated : bool;  (** True if a bound stopped exploration early. *)
}

type violation = { state : Term.t; depth : int; message : string }

type perf = {
  wall_s : float;  (** Wall-clock seconds for the exploration. *)
  states_per_s : float;  (** [states /. wall_s] (0 for instant runs). *)
  domains_used : int;  (** Domains the exploration ran on. *)
  peak_rss_kb : int;
      (** Process peak RSS (VmHWM) sampled at the end of the run, in
          kB; 0 where /proc is unavailable. Process-wide and monotone
          unless {!reset_peak_rss} succeeded beforehand. *)
  spilled_layers : int;  (** Frontier layers written to disk. *)
  spilled_bytes : int;  (** Total bytes of spilled frontier frames. *)
}

type outcome = {
  visited_order : Term.t list;
      (** The visited set in BFS order ([] in spill mode, which does not
          retain terms). Its states share equal proper subterms. *)
  edge_list : (Term.t * string * Term.t) list;
      (** [(state, rule, successor)] in traversal order; populated only
          when [want_edges] was set. *)
  stats : stats;
  violations : violation list;
  perf : perf;
}

val explore :
  ?max_states:int ->
  ?max_depth:int ->
  ?check:(Term.t -> (unit, string) result) ->
  ?want_edges:bool ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  ?spill_dir:string ->
  ?spill_chunk:int ->
  System.t ->
  init:Term.t ->
  outcome
(** Explore from [init] (canonicalized). Defaults: [max_states =
    100_000], [max_depth] unbounded, [check] absent, [want_edges] false.

    Parallelism: [pool] lends an existing domain pool; [domains]
    overrides the shard/worker count (defaulting to the pool's size, or
    1). [domains > 1] without a pool spins up a private pool for the
    call. Results are deterministic and identical across all settings.

    Memory bounding: [spill_dir] switches to spill mode — frontier
    layers are written to temp files under that directory (removed as
    they are consumed) and read back [spill_chunk] states at a time
    (default 8192); the visited shards keep only per-state digests, and
    [visited_order] comes back empty. [want_edges] in spill mode raises
    [Invalid_argument]: retaining the edge terms would defeat the point.

    Exploration continues past violations so a run reports them all (up
    to the bounds). *)

val bfs :
  ?max_states:int ->
  ?max_depth:int ->
  ?check:(Term.t -> (unit, string) result) ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  ?spill_dir:string ->
  System.t ->
  init:Term.t ->
  stats * violation list
(** [explore] restricted to the stats and violations. *)

val reachable :
  ?max_states:int ->
  ?max_depth:int ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  System.t ->
  init:Term.t ->
  Term.t list
(** The visited set, in BFS order. *)

val edges :
  ?max_states:int ->
  ?max_depth:int ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  System.t ->
  init:Term.t ->
  (Term.t * string * Term.t) list
(** The traversed labelled transition relation [(state, rule, successor)],
    restricted to visited source states. *)

val rule_counts :
  ?max_states:int ->
  ?max_depth:int ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  System.t ->
  init:Term.t ->
  (string * int) list
(** How many explored transitions each rule contributed, sorted by rule
    name. A rule missing from the list never fired — dead rules in a
    specification are almost always encoding mistakes, so tests assert
    full coverage. *)

(** {1 Process introspection} *)

val peak_rss_kb : unit -> int
(** Current VmHWM of this process in kB (0 where /proc is unavailable). *)

val reset_peak_rss : unit -> bool
(** Reset the kernel's peak-RSS water mark (Linux [/proc/self/clear_refs])
    so successive {!peak_rss_kb} readings are independent. Returns
    [false] where unsupported — readings are then a process-lifetime
    high-water mark. *)

(** {1 Liveness} *)

type liveness_report = {
  explored : int;  (** States considered. *)
  goal_states : int;  (** States satisfying the goal directly. *)
  can_reach : int;  (** States with a path to a goal state. *)
  cannot_reach : Term.t list;
      (** Definite livelocks: states whose {e entire} forward cone lies
          inside the explored set and never meets the goal (includes
          goal-less normal forms). Empty list = the property holds on the
          explored portion. *)
  undecided : int;
      (** States whose forward cone leaves the explored set (frontier
          effects); no verdict for these. *)
}

val eventually :
  ?max_states:int ->
  ?max_depth:int ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  goal:(Term.t -> bool) ->
  System.t ->
  init:Term.t ->
  liveness_report
(** Bounded check of "from every reachable state, a goal state remains
    reachable" (the AG EF pattern — e.g. "the token can always still get
    to node 1"). Sound for the states it decides: a state in
    [cannot_reach] really cannot reach the goal; [undecided] states got
    no verdict because exploration was truncated around them. *)

val deadlocks :
  ?max_states:int ->
  ?max_depth:int ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  System.t ->
  init:Term.t ->
  Term.t list
(** Reachable normal forms (no rule applicable). The paper's systems with
    non-exhausted budgets should have none — the token can always move. *)

val to_dot :
  ?max_states:int ->
  ?max_depth:int ->
  ?node_label:(Term.t -> string) ->
  System.t ->
  init:Term.t ->
  string
(** Graphviz rendering of the explored transition system: one node per
    state (default label: the pretty-printed term), one edge per rule
    application, the initial state drawn doubled. Useful for visually
    inspecting small instances of the paper's systems. *)
