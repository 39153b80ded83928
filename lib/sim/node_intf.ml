(** The contract between protocol implementations and the engine.

    A protocol is a deterministic state machine per node. All effects —
    sending, timers, serving a request — go through the {!ctx} capabilities
    the engine passes to every handler, so protocols contain no global
    state and runs are reproducible from the seed. *)

(** One observed step of a run, emitted by {!Node_host} for both
    runtimes to at most one observer. {!Trace} keeps the [string]
    instance, messages rendered by [label]; the module lets it include
    the constructors. *)
module Event = struct
  type 'msg event =
    | Sent of { src : int; dst : int; channel : Network.channel; msg : 'msg }
        (** Counted, and about to leave (or be dropped). *)
    | Delivered of { src : int; dst : int; msg : 'msg }
        (** Emitted before the receiver's handler runs. *)
    | Dropped of { src : int; dst : int; msg : 'msg }
    | Timer_fired of { node : int; key : int }
        (** A live timer, emitted before the handler runs. *)
    | Request of { node : int }
    | Served of { node : int; waited : float }
    | Token_at of { node : int }  (** Token possession began at [node]. *)
    | Search_forward of { node : int }
        (** One forwarding hop of a search message (Lemma 6). *)
    | Crashed of { node : int }
    | Note of { node : int; text : string }
end

include Event

type 'msg observer = time:float -> 'msg event -> unit
(** Called with the runtime's clock, in time units, at each event. *)

type 'msg ctx = {
  self : int;  (** This node's identifier, [0 .. n-1]. *)
  n : int;  (** Number of nodes in the ring. *)
  now : unit -> float;  (** Current virtual time. *)
  rng : Rng.t;  (** Node-local random stream. *)
  send : ?channel:Network.channel -> dst:int -> 'msg -> unit;
      (** Queue a message; it arrives after the network's sampled delay
          unless dropped. Default channel is [Reliable]. *)
  set_timer : delay:float -> key:int -> unit;
      (** Fire [on_timer ~key] after [delay]. Multiple timers may share a
          key; [cancel_timers] voids all of them. *)
  cancel_timers : key:int -> unit;
  serve : unit -> unit;
      (** Consume this node's oldest outstanding request: the node holds
          the token and performs its broadcast / critical section. Raises
          if no request is outstanding — protocols must check {!pending}. *)
  pending : unit -> int;  (** Outstanding (unserved) requests at this node. *)
  possession : unit -> unit;
      (** Record that the token possession moved to this node (metrics). *)
  search_forward : unit -> unit;
      (** Record one forwarding hop of a search message (Lemma 6 metric). *)
  note : (unit -> string) -> unit;
      (** Trace annotation; the thunk only runs when an observer is
          attached. *)
}

(** Cyclic successor/predecessor arithmetic used by every ring protocol. *)
let succ_node ~n x = (x + 1) mod n

let pred_node ~n x = (x + n - 1) mod n

let forward_node ~n x k = ((x + k) mod n + n) mod n
(** [forward_node ~n x k] is [x^{+k}] (negative [k] walks backwards). *)

let ring_distance ~n ~src ~dst = ((dst - src) mod n + n) mod n
(** Hops from [src] to [dst] travelling in the rotation direction. *)

module type PROTOCOL = sig
  type state
  type msg

  val name : string
  (** Short identifier used in benches and traces, e.g. ["ring"]. *)

  val describe : string
  (** One-line description of the variant. *)

  val classify : msg -> Metrics.msg_class
  (** Whether this message carries the token (expensive) or is a control
      hint (cheap). Drives message accounting. *)

  val label : msg -> string
  (** Compact rendering for traces (see {!Trace.observe}). *)

  val init : msg ctx -> state
  (** Called once per node before time starts. By convention node 0 is
      the initial token holder; protocols bootstrap rotation here (e.g. by
      setting a zero-delay timer). *)

  val on_message : msg ctx -> state -> src:int -> msg -> state
  val on_timer : msg ctx -> state -> key:int -> state

  val on_request : msg ctx -> state -> state
  (** The node just became ready (one more outstanding request). The
      engine has already counted the request; the protocol decides how to
      chase the token. *)
end
