(** Directed search (§4.4).

    Unlike the delegated search of {!Binsearch}, search messages do not
    migrate through the ring: each probed node answers the requester
    directly (with its last-visit stamp, i.e. its history projected onto
    circulation events), and the requester itself decides where to probe
    next. This doubles the worst-case search messages to 2·log N, but the
    requester can stop the search the moment the token reaches it through
    its normal rotation — the saving the paper points out. Probed nodes
    still lay traps, so the rotating token is intercepted as usual. *)

open Tr_sim

type msg =
  | Token of { stamp : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Probe of { requester : int }
  | Reply of { stamp : int }
      (** The probed node's last-visit stamp, returned to the requester. *)

type state

val protocol : (module Node_intf.PROTOCOL)

val protocol_t :
  (module Node_intf.PROTOCOL with type state = state and type msg = msg)
(** Typed handle (codec-derivation hook): lets the wire layer pair the
    protocol with its message codec without losing the [msg] equality. *)
