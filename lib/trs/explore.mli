(** Bounded breadth-first exploration of a system's reachable states.

    This is the machine-checked counterpart of the paper's safety proofs:
    for small instances we enumerate {e every} reachable state and verify
    an invariant (e.g. the prefix property) on each, or collect the full
    transition relation for refinement checking.

    One layer-synchronous engine serves every domain count: each BFS
    layer is expanded in contiguous slabs on [Tr_sim.Pool] domains, a
    worker drops a duplicate successor as soon as it generates it, and
    the kept states are merged in an order chosen so the visited order,
    stats, rule counts, edge list and violation list are identical for
    {e every} domain count. Every layer is one in-memory array, and the
    one visited table holds the interned states themselves. *)

type stats = {
  states : int;  (** Distinct states visited. *)
  transitions : int;  (** Edges traversed (with duplicates). *)
  max_depth : int;  (** Deepest BFS layer reached. *)
  truncated : bool;  (** True if a bound stopped exploration early. *)
}

type violation = { state : Term.t; depth : int; message : string }

val bfs :
  ?max_states:int ->
  ?max_depth:int ->
  ?check:(Term.t -> (unit, string) result) ->
  ?pool:Tr_sim.Pool.t ->
  ?domains:int ->
  System.t ->
  init:Term.t ->
  stats * violation list
(** Explore from [init] (canonicalized): the stats, and every state that
    fails [check], in BFS order. Defaults: [max_states = 100_000],
    [max_depth] unbounded, [check] absent. [max_states < 1],
    [max_depth < 0] and [domains < 1] raise [Invalid_argument], here and
    in every function below.

    Parallelism, here and below: [pool] lends an existing domain pool;
    [domains] overrides the worker count (defaulting to the pool's size,
    or 1). [domains > 1] without a pool spins up a private pool for the
    call. Results are deterministic and identical across all settings.

    Exploration continues past violations so a run reports them all (up
    to the bounds). It neither keeps the BFS layers nor builds the
    visited-order list, which at 100k states would add 2.4 MB at the
    exploration's memory peak. *)

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
