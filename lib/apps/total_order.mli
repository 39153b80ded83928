(** Totem-style total-order broadcast on the adaptive token.

    The paper motivates token rotation with group communication services
    (§1.1 cites the Totem single-ring protocol): the token is a roving
    sequencer. This application couples the hybrid rotate/search token
    movement (see {!Movement}) with a global sequence counter carried
    {e inside} the token: when a ready node obtains the token it stamps
    each of its pending broadcasts with consecutive sequence numbers and
    sends them to every node; nodes deliver strictly in sequence order,
    buffering anything that arrives early.

    The safety property is the paper's prefix property at application
    level: every node's delivery log is a prefix of the global sequence —
    regardless of message delays, because ordering comes from the token,
    not the network. Tests check exactly that, including under randomized
    delivery delays. *)

open Tr_sim

type payload = { origin : int; origin_seq : int }

type msg =
  | Token of { stamp : int; next_seq : int; mode : Movement.mode; idle_hops : int }
  | Loan of { stamp : int; next_seq : int }
  | Return of { stamp : int; next_seq : int }
  | Gimme of { requester : int; span : int; stamp : int }
  | Bcast of { seq : int; payload : payload }

type state

val make :
  ?directive:(unit -> Movement.directive) ->
  ?on_deliver:(self:int -> now:float -> seq:int -> payload -> unit) ->
  unit ->
  (module Node_intf.PROTOCOL with type state = state and type msg = msg)
(** [directive] is read by the token holder at every dispatch (default:
    always {!Movement.default}). [on_deliver] fires once per payload this
    node appends to its delivery log, in sequence order — on the engine's
    thread, so it must be fast and thread-safe on a live cluster. *)

module Impl :
  Node_intf.PROTOCOL with type state = state and type msg = msg
(** [make ()] with all defaults, for [Engine.Make]-based introspection
    (examples and tests). *)

val protocol : (module Node_intf.PROTOCOL)
(** [Impl], type-erased for the generic runner. *)

(** {1 Introspection} *)

val delivered : state -> payload list
(** This node's delivery log, in delivery order. *)

val buffered_count : state -> int
(** Broadcasts received out of order, awaiting their predecessors. *)
