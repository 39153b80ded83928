open Tr_sim

type msg =
  | Token of { stamp : int; idle_hops : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }

type holding =
  | Not_holding
  | Parked of { stamp : int; idle_hops : int }  (** Waiting out the delay. *)
  | Lent

type state = {
  last_stamp : int;
  holding : holding;
  traps : Proto_util.Traps.t;
}

let is_parked state =
  match state.holding with Parked _ -> true | Not_holding | Lent -> false

let timer_pass = 1

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ -> Metrics.Control_msg

let label = function
  | Token { stamp; idle_hops } -> Printf.sprintf "token#%d(idle=%d)" stamp idle_hops
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; span; stamp } ->
      Printf.sprintf "gimme(req=%d span=%d stamp=%d)" requester span stamp

let gimme ~requester ~span ~stamp = Gimme { requester; span; stamp }

let make ?(idle_delay = 8.0) () :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "adaptive"

    let describe =
      Printf.sprintf
        "BinarySearch with demand-adaptive token speed (§4.4): full speed \
         under demand, one hop per %g time units after an idle revolution"
        idle_delay

    let classify = classify
    let label = label

    (* Forward the token: lend to the oldest trap, or rotate, parking
       once [idle_hops] exceeds a revolution. *)
    let dispatch (ctx : msg Node_intf.ctx) state ~stamp ~idle_hops =
      match Search.next_trap ctx state.traps with
      | Some (requester, traps) ->
          ctx.send ~dst:requester (Loan { stamp });
          { state with holding = Lent; traps }
      | None ->
          let traps = Proto_util.Traps.empty in
          if idle_hops > ctx.n then begin
            (* A full revolution without demand: park, hop later. *)
            ctx.set_timer ~delay:idle_delay ~key:timer_pass;
            { state with holding = Parked { stamp; idle_hops }; traps }
          end
          else begin
            ctx.send
              ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
              (Token { stamp = stamp + 1; idle_hops = idle_hops + 1 });
            { state with holding = Not_holding; traps }
          end

    (* Demand appeared while parked: release the token right away. *)
    let release_if_parked (ctx : msg Node_intf.ctx) state =
      match state.holding with
      | Parked { stamp; idle_hops = _ } ->
          ctx.cancel_timers ~key:timer_pass;
          Proto_util.serve_all ctx;
          dispatch ctx { state with holding = Not_holding } ~stamp ~idle_hops:0
      | Not_holding | Lent -> state

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then begin
        ctx.possession ();
        ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Token { stamp = 1; idle_hops = 0 })
      end;
      { last_stamp = 0; holding = Not_holding; traps = Proto_util.Traps.empty }

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.holding with
      | Parked _ -> release_if_parked ctx state
      | Not_holding | Lent ->
          ignore (Search.launch ctx ~stamp:state.last_stamp gimme : bool);
          state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp; idle_hops } ->
          ctx.possession ();
          let busy =
            ctx.pending () > 0 || not (Proto_util.Traps.is_empty state.traps)
          in
          Proto_util.serve_all ctx;
          let state = { state with last_stamp = stamp } in
          dispatch ctx state ~stamp ~idle_hops:(if busy then 0 else idle_hops)
      | Loan { stamp } ->
          Search.use_loan ctx ~lender:src (Return { stamp });
          state
      | Return { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          (* A loan is proof of demand: resume at full speed. *)
          dispatch ctx { state with holding = Not_holding } ~stamp ~idle_hops:0
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            match state.holding with
            | Parked _ -> release_if_parked ctx state
            | Lent -> state
            | Not_holding ->
                Search.forward ctx ~last_stamp:state.last_stamp ~requester
                  ~span ~stamp gimme;
                state
          end

    let on_timer (ctx : msg Node_intf.ctx) state ~key =
      if key <> timer_pass then state
      else
        match state.holding with
        | Parked { stamp; idle_hops } ->
            Proto_util.serve_all ctx;
            let state = { state with holding = Not_holding } in
            if Proto_util.Traps.is_empty state.traps then begin
              ctx.send
                ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
                (Token { stamp = stamp + 1; idle_hops = idle_hops + 1 });
              state
            end
            else dispatch ctx state ~stamp ~idle_hops:0
        | Not_holding | Lent -> state
  end)

let protocol : (module Node_intf.PROTOCOL) = (module (val make ()))
