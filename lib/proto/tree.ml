open Tr_sim

type msg = Token | Request

(* Directions are neighbour node ids; [self] is encoded as -1 so the
   queue is a plain int list. *)
let self_dir = -1

type state = {
  holder : int;  (** [self_dir] when we hold the token, else a neighbour. *)
  queue : int list;  (** FIFO of directions wanting the token. *)
  asked : bool;  (** A Request toward the holder is already in flight. *)
}

let queue state = state.queue

let classify = function Token -> Metrics.Token_msg | Request -> Metrics.Control_msg
let label = function Token -> "token" | Request -> "request"

let parent i = (i - 1) / 2

(* On the path from [self] to the root, the next hop toward the token is
   always the tree parent; Requests and the Token only ever travel along
   tree edges, so [holder] is always a tree neighbour. *)

let enqueue state dir =
  if List.mem dir state.queue then state
  else { state with queue = state.queue @ [ dir ] }

(* Named (rather than inline) so [protocol_t] below can expose the typed
   module the wire-codec layer pairs with {!Tr_wire.Codecs.tree}. *)
module P = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "tree"

    let describe =
      "Raymond's tree token algorithm on a static balanced binary tree: \
       O(log N) messages per request, token traffic concentrated on \
       interior nodes"

    let classify = classify
    let label = label

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then { holder = self_dir; queue = []; asked = false }
      else { holder = parent ctx.self; queue = []; asked = false }

    (* If we want the token (queue non-empty) and do not hold it, make
       sure one Request is on its way toward the holder. *)
    let solicit (ctx : msg Node_intf.ctx) state =
      if state.holder <> self_dir && state.queue <> [] && not state.asked then begin
        ctx.send ~channel:Network.Cheap ~dst:state.holder Request;
        { state with asked = true }
      end
      else state

    (* We hold the token: grant the queue head. Granting to ourselves
       serves local requests; granting to a neighbour sends the token one
       edge along the tree and, if more directions still wait, chases it
       with a Request immediately. *)
    let rec grant (ctx : msg Node_intf.ctx) state =
      match state.queue with
      | [] -> state
      | dir :: rest when dir = self_dir ->
          Proto_util.serve_all ctx;
          grant ctx { state with queue = rest }
      | dir :: rest ->
          ctx.send ~dst:dir Token;
          let state = { holder = dir; queue = rest; asked = false } in
          solicit ctx state

    let on_request (ctx : msg Node_intf.ctx) state =
      if state.holder = self_dir then begin
        Proto_util.serve_all ctx;
        state
      end
      else solicit ctx (enqueue state self_dir)

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Request ->
          ctx.search_forward ();
          let state = enqueue state src in
          if state.holder = self_dir then grant ctx state else solicit ctx state
      | Token ->
          ctx.possession ();
          let state = { state with holder = self_dir; asked = false } in
          grant ctx state

    let on_timer _ctx state ~key:_ = state
end

let protocol_t :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module P)

let protocol : (module Node_intf.PROTOCOL) = (module P)
