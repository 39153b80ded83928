open Tr_sim

type msg =
  | Token of { stamp : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; ttl : int }

type holding = Not_holding | Lent

type state = {
  holding : holding;
  traps : Proto_util.Traps.t;
}

let trap_queue state = Proto_util.Traps.to_list state.traps

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ -> Metrics.Control_msg

let label = function
  | Token { stamp } -> Printf.sprintf "token#%d" stamp
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; ttl } -> Printf.sprintf "gimme(req=%d ttl=%d)" requester ttl

let dispatch (ctx : msg Node_intf.ctx) state ~stamp =
  match Search.next_trap ctx state.traps with
  | Some (requester, traps) ->
      ctx.send ~dst:requester (Loan { stamp });
      { holding = Lent; traps }
  | None ->
      ctx.send
        ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
        (Token { stamp = stamp + 1 });
      { holding = Not_holding; traps = Proto_util.Traps.empty }

(* Named (rather than inline) so [protocol_t] below can expose the typed
   module the wire-codec layer pairs with its codec. *)
module P = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "seq-search"

    let describe =
      "System Search with cyclic search restriction (Lemma 5): searches \
       walk the ring node by node; O(N) responsiveness, Θ(N) search \
       messages per request"

    let classify = classify
    let label = label

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then begin
        ctx.possession ();
        ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Token { stamp = 1 })
      end;
      { holding = Not_holding; traps = Proto_util.Traps.empty }

    let on_request (ctx : msg Node_intf.ctx) state =
      ctx.send ~channel:Network.Cheap
        ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
        (Gimme { requester = ctx.self; ttl = ctx.n - 1 });
      state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          dispatch ctx state ~stamp
      | Loan { stamp } ->
          Search.use_loan ctx ~lender:src (Return { stamp });
          state
      | Return { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          dispatch ctx { state with holding = Not_holding } ~stamp
      | Gimme { requester; ttl } ->
          if requester = ctx.self then state
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            if ttl > 1 then
              ctx.send ~channel:Network.Cheap
                ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
                (Gimme { requester; ttl = ttl - 1 });
            state
          end

    let on_timer _ctx state ~key:_ = state
end

let protocol_t :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module P)

let protocol : (module Node_intf.PROTOCOL) = (module P)
