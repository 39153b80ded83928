(** Small helpers shared by the protocol implementations. *)

open Tr_sim

val serve_all : 'msg Node_intf.ctx -> unit
(** Serve every outstanding request at this node (the holder broadcasts
    all of its queued data while it has the token). *)

(** Immutable FIFO of trapped requesters with set-semantics insertion:
    re-trapping an already-trapped requester is a no-op, matching the
    specification's duplicate-free trap sets. The queue is one byte
    string holding the requesters in FIFO order and again sorted: [mem]
    is a binary search, push and pop copy the queue once, and queues
    with equal contents are structurally equal. [to_list] is
    O(length), [size] O(1). Requester ids must be at least 0 and below
    2{^31}. *)
module Traps : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : t -> int -> bool
  val push : t -> int -> t
  (** Appends unless already present.
      @raise Invalid_argument on a new id below 0 or from 2{^31} up. *)

  val pop : t -> (int * t) option
  (** Oldest requester first (Theorem 2's FIFO discipline). *)

  val to_list : t -> int list
  val size : t -> int
end
