(** The paper's BinarySearch rules 5–8 (§4.2, Figure 7), written once
    for every protocol that chases the token with halving-span "gimme"
    searches and lends it to trapped requesters. Each caller keeps only
    what differs: its holding states, parking, search payloads and
    timers. It passes its search-message constructor as [gimme]; a
    top-level function allocates nothing per message.

    [⊂_C], the paper's history-prefix comparison, is a stamp compare:
    the stamp a node recorded at the token's last rotation visit is its
    history projected onto circulation events (§4.4). *)

open Tr_sim

val launch :
  'msg Node_intf.ctx ->
  stamp:int ->
  (requester:int -> span:int -> stamp:int -> 'msg) ->
  bool
(** Rule 5: send [gimme ~requester:self ~span:(n/2) ~stamp] on the cheap
    channel to the node [n/2] hops ahead, [stamp] being the requester's
    last-visit stamp. [false], with nothing sent, when [n/2 < 1]. *)

val trap : 'msg Node_intf.ctx -> Proto_util.Traps.t -> int -> Proto_util.Traps.t
(** Rule 6's trap at a node other than the requester (callers drop their
    own gimme first): count one search forward (Lemma 6) and trap the
    requester, once. *)

val forward :
  'msg Node_intf.ctx ->
  last_stamp:int ->
  requester:int ->
  span:int ->
  stamp:int ->
  (requester:int -> span:int -> stamp:int -> 'msg) ->
  unit
(** Rule 6's forward at a node without the token: a search with
    [span >= 2] goes on at half the span on the cheap channel, clockwise
    if the token visited this node after the requester
    ([last_stamp >= stamp]), counter-clockwise otherwise. A smaller span
    is absorbed. *)

val next_trap :
  ?dead:Set.Make(Int).t ->
  'msg Node_intf.ctx ->
  Proto_util.Traps.t ->
  (int * Proto_util.Traps.t) option
(** Rule 7's borrower: the oldest trapped requester (Theorem 2's FIFO)
    and the rest of the queue, skipping this node and any [dead] one.
    [None] when no one is left; the caller then resets the queue to
    [Traps.empty]. *)

val use_loan : 'msg Node_intf.ctx -> lender:int -> 'msg -> unit
(** Rule 8: the borrower takes the token, serves its queue and sends
    [return] to [lender]. *)
