(** The book-keeping around a protocol's handlers, shared by the
    simulator ({!Engine}) and the live cluster ([Tr_net_rt.Cluster]).

    Every {!Node_intf.ctx} is built here, with one copy of the rules: the
    per-node RNG seed [(seed * 1_000_003) + node], the checks on a send's
    destination and on timer delays and keys, chaos clock-skew scaling of
    timer delays, timer epochs for [cancel_timers], [serve]'s
    pending-request check, every {!Metrics} update, and every
    {!Node_intf.event}: each kind is built at one site here and handed
    to the one optional observer. The epoch table has one row per node,
    written only by that node's handlers, so shards owning disjoint
    nodes never race on it. *)

type 'msg t

val create :
  (module Node_intf.PROTOCOL with type msg = 'msg) ->
  n:int ->
  seed:int ->
  metrics:Metrics.t ->
  ?observe:'msg Node_intf.observer ->
  chaos:Tr_chaos.Injector.t option ->
  ?lock:Mutex.t ->
  instants:float array ->
  stamp:(int -> unit) ->
  unit ->
  'msg t
(** [lock], when given, is held around every {!Metrics} update the host
    makes. A node's own pending count is read without it, so a runtime
    must run each node's requests, serves and handlers on one domain at
    a time. [stamp node] must leave in [instants.(node)] the instant, in
    time units, of the handler running at [node]: every event, metric
    and due time that handler makes reads it there, unboxed, and a
    runtime may read its clock once per handler for all of them. [observe]
    sees every event, outside the lock, on the domain that caused it;
    with none attached an event costs one test. *)

val tee :
  'msg Node_intf.observer option ->
  'msg Node_intf.observer option ->
  'msg Node_intf.observer option
(** Both observers, the first called first. *)

val ctx :
  'msg t ->
  int ->
  leave:(src:int -> dst:int -> Network.channel -> 'msg -> unit) ->
  arm:(node:int -> delay:float -> key:int -> epoch:int -> unit) ->
  served:(node:int -> serves:int -> unit) ->
  'msg Node_intf.ctx
(** One node's context, over what differs per runtime. [leave] carries a
    send off once it is counted and traced. [arm] queues a timer [delay]
    units (already scaled) from now, to fire only while {!timer_live}
    holds for [epoch]. [served] follows each serve, outside the lock,
    with the serve count read under it. *)

val timer_live : 'msg t -> node:int -> key:int -> epoch:int -> bool
(** No [cancel_timers ~key] at [node] since the timer was armed. *)

val request : 'msg t -> time:float -> node:int -> unit
(** Count and emit a request arriving at [node] at [time]. *)

val down : 'msg t -> node:int -> bool
val down_until : 'msg t -> node:int -> float
(** Whether [node] is inside a chaos churn window now, and when that
    window closes (now if it is not). *)

(** The events only the runtime sees. A runtime emits [delivered] and
    [timer_fired] just before it runs the handler. *)

val delivered : 'msg t -> src:int -> dst:int -> 'msg -> unit
val dropped : 'msg t -> src:int -> dst:int -> 'msg -> unit
val timer_fired : 'msg t -> node:int -> key:int -> unit
val crashed : 'msg t -> node:int -> unit
