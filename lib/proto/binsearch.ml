open Tr_sim

type msg =
  | Token of { stamp : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }

type holding = Not_holding | Lent of { stamp : int }

type state = {
  last_stamp : int;  (** Hop count when the rotation last visited us. *)
  holding : holding;
  traps : Proto_util.Traps.t;  (** Trapped requesters, FIFO. *)
  searching : bool;  (** Own gimme in flight (used when throttling). *)
}

let trap_queue state = Proto_util.Traps.to_list state.traps
let last_stamp state = state.last_stamp
let is_searching state = state.searching

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ -> Metrics.Control_msg

let label = function
  | Token { stamp } -> Printf.sprintf "token#%d" stamp
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; span; stamp } ->
      Printf.sprintf "gimme(req=%d span=%d stamp=%d)" requester span stamp

let gimme ~requester ~span ~stamp = Gimme { requester; span; stamp }

(* The holder decides what to do with the token: lend it to the oldest
   trapped requester (FIFO, as Theorem 2 requires), or resume rotation. *)
let dispatch (ctx : msg Node_intf.ctx) state ~stamp =
  match Search.next_trap ctx state.traps with
  | Some (requester, traps) ->
      ctx.send ~dst:requester (Loan { stamp });
      { state with holding = Lent { stamp }; traps }
  | None ->
      ctx.send
        ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
        (Token { stamp = stamp + 1 });
      { state with holding = Not_holding; traps = Proto_util.Traps.empty }

let launch_search (ctx : msg Node_intf.ctx) state =
  if Search.launch ctx ~stamp:state.last_stamp gimme then
    { state with searching = true }
  else state

let make ?(throttle = false) ?name:(proto_name = if throttle then "binsearch-throttle" else "binsearch")
    () : (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = proto_name

    let describe =
      if throttle then
        "System BinarySearch with single-outstanding-request throttling \
         (§4.4): at most one gimme in flight per node"
      else
        "System BinarySearch: ring rotation + binary token search with \
         traps; O(log N) responsiveness"

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
        searching = false;
      }

    let on_request (ctx : msg Node_intf.ctx) state =
      if throttle && state.searching then state else launch_search ctx state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          let state = { state with last_stamp = stamp; searching = false } in
          dispatch ctx state ~stamp
      | Loan { stamp } ->
          (* Borrowed token: use it and return it immediately (rule 8). *)
          Search.use_loan ctx ~lender:src (Return { stamp });
          { state with searching = false }
      | Return { stamp } ->
          (* Our loan came back; serve whatever arrived meanwhile, then
             the next trap or the rotation resumes from here (rule 7's
             "continues to flow from where it was first intercepted"). *)
          ctx.possession ();
          Proto_util.serve_all ctx;
          dispatch ctx { state with holding = Not_holding } ~stamp
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state (* our own search came home *)
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            (match state.holding with
            | Lent _ -> () (* token already on loan; trap waits *)
            | Not_holding ->
                Search.forward ctx ~last_stamp:state.last_stamp ~requester
                  ~span ~stamp gimme);
            state
          end

    let on_timer _ctx state ~key:_ = state
  end)

let protocol : (module Node_intf.PROTOCOL) = (module (val make ()))

let protocol_throttled : (module Node_intf.PROTOCOL) =
  (module (val make ~throttle:true ()))
