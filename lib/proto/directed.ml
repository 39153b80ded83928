open Tr_sim

type msg =
  | Token of { stamp : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Probe of { requester : int }
  | Reply of { stamp : int }

type holding = Not_holding | Lent

type search = { position : int; span : int }

type state = {
  last_stamp : int;
  holding : holding;
  traps : Proto_util.Traps.t;
  search : search option;
}

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Probe _ | Reply _ -> Metrics.Control_msg

let label = function
  | Token { stamp } -> Printf.sprintf "token#%d" stamp
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Probe { requester } -> Printf.sprintf "probe(req=%d)" requester
  | Reply { stamp } -> Printf.sprintf "reply(stamp=%d)" stamp

let dispatch (ctx : msg Node_intf.ctx) state ~stamp =
  match Search.next_trap ctx state.traps with
  | Some (requester, traps) ->
      ctx.send ~dst:requester (Loan { stamp });
      { state with holding = Lent; traps }
  | None ->
      ctx.send
        ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
        (Token { stamp = stamp + 1 });
      { state with holding = Not_holding; traps = Proto_util.Traps.empty }

let probe (ctx : msg Node_intf.ctx) position =
  ctx.send ~channel:Network.Cheap ~dst:position (Probe { requester = ctx.self })

(* Named (rather than inline) so [protocol_t] below can expose the typed
   module the wire-codec layer pairs with its codec. *)
module P = struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "directed"

    let describe =
      "directed search (§4.4): probes return to the requester, which \
       steers the binary search itself; 2·log N search messages, search \
       stops early when the token arrives by rotation"

    let classify = classify
    let label = label

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then begin
        ctx.possession ();
        ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Token { stamp = 1 })
      end;
      {
        last_stamp = 0;
        holding = Not_holding;
        traps = Proto_util.Traps.empty;
        search = None;
      }

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.search with
      | Some _ -> state (* one directed search at a time *)
      | None ->
          let span = ctx.n / 2 in
          if span < 1 then state
          else begin
            let position = Node_intf.forward_node ~n:ctx.n ctx.self span in
            probe ctx position;
            { state with search = Some { position; span } }
          end

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          (* The rotation reached us: any running search is now moot. *)
          let state = { state with last_stamp = stamp; search = None } in
          dispatch ctx state ~stamp
      | Loan { stamp } ->
          Search.use_loan ctx ~lender:src (Return { stamp });
          { state with search = None }
      | Return { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          dispatch ctx { state with holding = Not_holding } ~stamp
      | Probe { requester } ->
          let state =
            { state with traps = Search.trap ctx state.traps requester }
          in
          ctx.send ~channel:Network.Cheap ~dst:requester
            (Reply { stamp = state.last_stamp });
          state
      | Reply { stamp = probed_stamp } -> (
          match state.search with
          | None -> state (* search already satisfied or abandoned *)
          | Some { position; span } ->
              if ctx.pending () = 0 then { state with search = None }
              else begin
                let next_span = span / 2 in
                if next_span < 1 then { state with search = None }
                else begin
                  (* Same ⊂_C decision as the delegated search, but taken
                     at the requester from the returned stamp. *)
                  let dir =
                    if probed_stamp >= state.last_stamp then next_span
                    else -next_span
                  in
                  let next = Node_intf.forward_node ~n:ctx.n position dir in
                  probe ctx next;
                  { state with search = Some { position = next; span = next_span } }
                end
              end)

    let on_timer _ctx state ~key:_ = state
end

let protocol_t :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module P)

let protocol : (module Node_intf.PROTOCOL) = (module P)
