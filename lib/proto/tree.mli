(** Raymond-style tree token algorithm — the fixed-topology comparator.

    The paper contrasts its ring+search scheme with "fixed tree-based
    topologies where fast access comes at the cost of high loads at the
    roots" (§5) and cites the tree-based mutual-exclusion family in §1.1.
    This module implements the classic Raymond algorithm on a static
    balanced binary tree (node [i]'s parent is [(i-1)/2]): each node keeps
    a pointer toward the token and a FIFO of pending directions; requests
    travel up the path toward the holder, the token travels back down.

    Messages per critical section are O(log N) — like BinarySearch — but
    possessions concentrate on the tree's interior (every token transfer
    walks through it), which {!Tr_sim.Metrics.possession_imbalance}
    exposes; the ring-based protocols spread possessions evenly. *)

open Tr_sim

type msg =
  | Token  (** The privilege, moving one tree edge. *)
  | Request  (** "Send the token toward me", moving one tree edge. *)

type state

val protocol : (module Node_intf.PROTOCOL)

val protocol_t :
  (module Node_intf.PROTOCOL with type state = state and type msg = msg)
(** Typed handle (codec-derivation hook): lets the wire layer pair the
    protocol with its message codec without losing the [msg] equality. *)


val queue : state -> int list
(** Pending directions ([-1] encodes "self"), for tests. *)
