(** Small helpers shared by the protocol implementations. *)

open Tr_sim

val serve_all : 'msg Node_intf.ctx -> unit
(** Serve every outstanding request at this node (the holder broadcasts
    all of its queued data while it has the token). *)

(** Immutable FIFO of trapped requesters with set-semantics insertion:
    re-trapping an already-trapped requester is a no-op, matching the
    specification's duplicate-free trap sets. Push and pop are amortised
    O(1) (a two-list queue); [to_list] and [size] are O(length). *)
module Traps : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val mem : t -> int -> bool
  val push : t -> int -> t
  (** Appends unless already present. *)

  val pop : t -> (int * t) option
  (** Oldest requester first (Theorem 2's FIFO discipline). *)

  val to_list : t -> int list
  val size : t -> int
end
