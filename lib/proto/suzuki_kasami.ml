open Tr_sim

type msg =
  | Request of { requester : int; seq : int }
  | Token of { ln : int array; queue : int list }

type token = { ln : int array; queue : int list }

type state = {
  rn : int array;  (** Highest request number heard, per node. *)
  token : token option;
}

let classify = function
  | Request _ -> Metrics.Control_msg
  | Token _ -> Metrics.Token_msg

let label = function
  | Request { requester; seq } -> Printf.sprintf "request(%d.%d)" requester seq
  | Token { queue; _ } -> Printf.sprintf "token(queue=%d)" (List.length queue)

(* Grant order: nodes whose latest request is exactly one past their last
   grant are outstanding; append them FIFO behind the queue the token
   already carries. *)
let outstanding (ctx : msg Node_intf.ctx) state token =
  List.filter
    (fun j ->
      j <> ctx.self
      && (not (List.mem j token.queue))
      && state.rn.(j) = token.ln.(j) + 1)
    (List.init ctx.n (fun j -> j))

(* Named (rather than inline) so [protocol_t] below can expose the typed
   module the wire-codec layer pairs with its codec. *)
module P = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "suzuki-kasami"

    let describe =
      "Suzuki-Kasami broadcast token: requests broadcast to all nodes \
       (N-1 cheap messages), the token moves only on demand and parks \
       when idle"

    let classify = classify
    let label = label

    (* Use the token here, then send it to the next waiter or park it. *)
    let dispatch (ctx : msg Node_intf.ctx) state token =
      Proto_util.serve_all ctx;
      let ln = Array.copy token.ln in
      ln.(ctx.self) <- state.rn.(ctx.self);
      let token = { ln; queue = token.queue @ outstanding ctx state { token with ln } } in
      match token.queue with
      | next :: rest ->
          ctx.send ~dst:next (Token { ln = Array.copy token.ln; queue = rest });
          { state with token = None }
      | [] -> { state with token = Some token } (* park: zero idle cost *)

    let init (ctx : msg Node_intf.ctx) =
      let token =
        if ctx.self = 0 then begin
          ctx.possession ();
          Some { ln = Array.make ctx.n 0; queue = [] }
        end
        else None
      in
      { rn = Array.make ctx.n 0; token }

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.token with
      | Some token -> dispatch ctx state token
      | None ->
          let rn = Array.copy state.rn in
          rn.(ctx.self) <- rn.(ctx.self) + 1;
          for dst = 0 to ctx.n - 1 do
            if dst <> ctx.self then
              ctx.send ~channel:Network.Cheap ~dst
                (Request { requester = ctx.self; seq = rn.(ctx.self) })
          done;
          { state with rn }

    let on_message (ctx : msg Node_intf.ctx) state ~src:_ msg =
      match msg with
      | Request { requester; seq } ->
          let rn = Array.copy state.rn in
          rn.(requester) <- Stdlib.max rn.(requester) seq;
          let state = { state with rn } in
          (match state.token with
          | Some token when ctx.pending () = 0 ->
              (* Idle holder: hand the token over if the request is new. *)
              if rn.(requester) = token.ln.(requester) + 1 then
                dispatch ctx state token
              else state
          | Some _ | None -> state)
      | Token { ln; queue } ->
          ctx.possession ();
          dispatch ctx state { ln; queue }

    let on_timer _ctx state ~key:_ = state
end

let protocol_t :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module P)

let protocol : (module Node_intf.PROTOCOL) = (module P)
