(** Suzuki–Kasami broadcast-based token algorithm — the third classic
    comparator (§1.1's token-based mutual-exclusion family).

    Where the paper's ring circulates the token speculatively and
    BinarySearch chases it with O(log N) hints, Suzuki–Kasami broadcasts
    every request to all N−1 nodes and moves the token {e only} on
    demand:

    - each node tracks [rn.(i)], the highest request number it has heard
      from node [i]; a request broadcasts [Request (self, rn)] (cheap);
    - the token carries [ln.(i)], the request number last {e granted} to
      node [i], plus a FIFO queue of waiting nodes;
    - after using the token, the holder appends every node with
      [rn.(j) = ln.(j) + 1] to the token queue and sends the token to the
      queue head — or parks it if nobody wants it.

    Cost profile: N−1 cheap messages per request, at most one expensive
    token transfer per grant, and zero traffic when idle — the opposite
    trade to the paper's two-tier scheme, which spends idle token hops
    (ring) or per-request O(log N) hints (binsearch) to keep requests
    cheap. The OPT-MSG/ADAPT benches show all three profiles side by
    side. *)

open Tr_sim

type msg =
  | Request of { requester : int; seq : int }  (** Broadcast (cheap). *)
  | Token of { ln : int array; queue : int list }

type state

val protocol : (module Node_intf.PROTOCOL)

val protocol_t :
  (module Node_intf.PROTOCOL with type state = state and type msg = msg)
(** Typed handle (codec-derivation hook): lets the wire layer pair the
    protocol with its message codec without losing the [msg] equality. *)
