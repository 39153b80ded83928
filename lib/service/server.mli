(** The service front-end: clients on one side, the cluster on the other.

    One domain owns all client I/O — a listener plus every accepted
    connection in a single {!Tr_net_rt.Readiness} set, each connection
    carrying a resyncing {!Tr_wire.Frame.Decoder} and a flat outgoing
    buffer flushed on writability (the batched-write idiom the cluster
    transport uses). The cluster itself runs on its own domains via
    {!Tr_net_rt.Cluster.run} in [External] load mode; client requests
    become cluster load through [control.inject], and application
    progress flows back as typed events over a lock-free mailbox + wake
    pipe.

    Session mapping: client [c] lives on node [c mod n]. For the mutex
    app each node keeps a FIFO of outstanding [Acquire]s; the app's
    [`Enter] event grants the head (the protocol serves exactly one
    pending request per critical section) and [`Exit] pops it with a
    [Released] — the lease model. For total order, the j-th [Publish]
    injected at a node is the j-th broadcast that node originates, so
    origin-filtered delivery events pop the publish FIFO in order and
    carry the global sequence number back as [Committed]. *)

type app = Mutex | Total_order

val app_name : app -> string

type mode_source =
  | Pinned of Tr_apps.Movement.directive
      (** Fixed movement mode — the non-adaptive baselines. *)
  | Adaptive of Policy.t
      (** Online ring↔search switching driven by observed load. *)

type config = {
  cluster : Tr_net_rt.Cluster.config;  (** Must use [External] load. *)
  listen : Unix.sockaddr;
  app : app;
  cs_duration : float;  (** Mutex lease length, time units. *)
  mode : mode_source;
  report_every_s : float;
  verbose : bool;  (** Print the periodic SLO/queue report. *)
}

val default_config :
  n:int -> seed:int -> listen:Unix.sockaddr -> config
(** Mutex app, pinned default movement, 1 s reports, quiet. *)

type stats = {
  mutable accepted : int;
  mutable conns_open : int;
  mutable sessions : int;
  mutable requests : int;
  mutable acquires : int;
  mutable releases : int;
  mutable publishes : int;
  mutable grants_sent : int;
  mutable released_sent : int;
  mutable committed_sent : int;
  mutable rejected_sent : int;
  mutable decode_errors : int;
  mutable resync_skips : int;
  mutable overflow_drops : int;
      (** Connections cut for exceeding the 4 MiB outgoing backlog. *)
  mutable conn_out_hwm : int;
      (** Largest backlog any client connection reached, bytes. *)
  mutable fifo_hwm : int;
      (** Deepest any per-node session FIFO got — queueing headroom. *)
}

type outcome = {
  report : Tr_net_rt.Cluster.report;
  stats : stats;
  switches : Policy.switch_event list;
}

val run :
  ?on_ready:
    (addr:Unix.sockaddr -> control:Tr_net_rt.Cluster.control -> unit) ->
  config ->
  outcome
(** Serve until the cluster's stop condition fires (or
    [control.request_stop] is called). Blocks; embedders run it on a
    domain. [on_ready] fires once the listener is bound (with the actual
    address — useful for port 0) and the cluster control is attached;
    keeping [control] lets a test kill nodes or stop the run mid-flight.
    @raise Invalid_argument if [cluster.load] is not [External], and
    re-raises whatever {!Tr_net_rt.Cluster.run} raises (e.g.
    [Invalid_argument] for [n < 2]). *)

val stats_json : outcome:outcome -> app:app -> adaptive:bool -> string
(** One-line JSON for bench artifacts, via {!Tr_net_rt.Live_export}. *)
