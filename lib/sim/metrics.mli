(** Measurement of the paper's performance quantities.

    {b Responsiveness} (paper Definition 3) is "the maximum time period
    during which at least one node requires the token and until the token
    is given to a ready node" — measured from the moment {e some} request is
    outstanding, not from the requester's own arrival. Each time a ready
    node is served at time [t] we record the sample
    [t - max(previous service time, earliest outstanding request time)]:
    the length of the window during which the system had unmet demand.
    Averaging these samples reproduces the y axis of the paper's
    Figures 9 and 10.

    {b Waiting time} is the conventional per-request latency (grant time −
    that request's arrival time); the paper contrasts it with
    responsiveness in §4.

    Message accounting distinguishes token-bearing ("expensive") messages
    from control ("cheap") messages, matching the two communication modes
    of §1. *)

type msg_class = Token_msg | Control_msg

type t

val create : n:int -> t
(** @raise Invalid_argument if [n < 1]. *)

(** {1 Feeding events} *)

val on_request : t -> time:float -> node:int -> unit
(** A node became ready (one more outstanding request at [node]). *)

val on_serve : t -> time:float -> node:int -> unit
(** The oldest outstanding request at [node] was satisfied.
    @raise Invalid_argument if [node] has no outstanding request. *)

val on_message : t -> Network.channel -> msg_class -> unit
val on_token_possession : t -> node:int -> unit
val on_search_forward : t -> unit
(** One hop of a search ("gimme") message — Lemma 6 counts these. *)

(** {1 Queries} *)

val pending : t -> node:int -> int

(** [oldest_arrival t ~node] is the arrival time of the node's oldest
    outstanding request, if any. *)
val oldest_arrival : t -> node:int -> float option

(** As {!oldest_arrival}, without the option: where the caller inlines
    it, it allocates nothing.
    @raise Invalid_argument if [node] has nothing pending. *)
val oldest_arrival_exn : t -> node:int -> float

val total_pending : t -> int
val serves : t -> int
val responsiveness : t -> Tr_stats.Summary.t
val responsiveness_quantiles : t -> Tr_stats.Quantile.t

val waiting : t -> Tr_stats.Summary.t
val waiting_quantiles : t -> Tr_stats.Quantile.t

val token_messages : t -> int
val control_messages : t -> int
val cheap_messages : t -> int
(** Messages sent on the [Cheap] channel (independent of {!msg_class}). *)

val search_forwards : t -> int
val total_possessions : t -> int
val max_possessions : t -> int
(** Highest possession count over all nodes (load-concentration probe). *)

val possession_imbalance : t -> float
(** [max possessions / mean possessions]; 1.0 is perfectly balanced. [nan]
    before any possession. *)

val waiting_by_node : t -> node:int -> Tr_stats.Summary.t
(** Waiting-time summary restricted to requests served at [node]. *)

val waiting_fairness : t -> float
(** Jain's fairness index over the per-node mean waiting times of nodes
    that had at least one request served:
    [(Σ xᵢ)² / (k · Σ xᵢ²)] for [k] participating nodes. 1.0 means all
    nodes wait equally on average (the ring's deterministic fairness);
    1/k means one node absorbs all the waiting. [nan] until at least one
    node has a serve. *)

val report : Format.formatter -> t -> unit
(** Human-readable one-block summary. *)
