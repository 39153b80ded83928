open Tr_sim

type msg =
  | Token of { stamp : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }
  | Probe of { holder : int; ttl : int }
  | Want of { requester : int }

type holding = Not_holding | Parked of { stamp : int } | Lent of { stamp : int }

type state = {
  last_stamp : int;
  holding : holding;
  traps : Proto_util.Traps.t;
}

let is_parked state =
  match state.holding with Parked _ -> true | Not_holding | Lent _ -> false

let timer_probe = 1

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ | Probe _ | Want _ -> Metrics.Control_msg

let label = function
  | Token { stamp } -> Printf.sprintf "token#%d" stamp
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; span; stamp } ->
      Printf.sprintf "gimme(req=%d span=%d stamp=%d)" requester span stamp
  | Probe { holder; ttl } -> Printf.sprintf "probe(holder=%d ttl=%d)" holder ttl
  | Want { requester } -> Printf.sprintf "want(req=%d)" requester

let gimme ~requester ~span ~stamp = Gimme { requester; span; stamp }

let make ?(probe_interval = 4.0) () :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "pushpull"

    let describe =
      Printf.sprintf
        "push-pull dual: token parks when idle; parked holder probes for \
         requesters every %g time units (push) while requesters \
         binary-search for the token (pull)"
        probe_interval

    let classify = classify
    let label = label

    (* Lend to the oldest trap, or park here and start probing. *)
    let dispatch (ctx : msg Node_intf.ctx) state ~stamp =
      match Search.next_trap ctx state.traps with
      | Some (requester, traps) ->
          ctx.send ~dst:requester (Loan { stamp });
          { state with holding = Lent { stamp }; traps }
      | None ->
          ctx.set_timer ~delay:probe_interval ~key:timer_probe;
          {
            holding = Parked { stamp };
            last_stamp = stamp;
            traps = Proto_util.Traps.empty;
          }

    let init (ctx : msg Node_intf.ctx) =
      let state =
        { last_stamp = 0; holding = Not_holding; traps = Proto_util.Traps.empty }
      in
      if ctx.self = 0 then begin
        ctx.possession ();
        (* The initial holder parks immediately — no demand yet. *)
        dispatch ctx state ~stamp:0
      end
      else state

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.holding with
      | Parked { stamp } ->
          Proto_util.serve_all ctx;
          dispatch ctx { state with holding = Not_holding } ~stamp
      | Lent _ -> state (* token is out on loan; it comes back here *)
      | Not_holding ->
          ignore (Search.launch ctx ~stamp:state.last_stamp gimme : bool);
          state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          dispatch ctx { state with last_stamp = stamp } ~stamp
      | Loan { stamp } ->
          Search.use_loan ctx ~lender:src (Return { stamp });
          state
      | Return { stamp } ->
          ctx.possession ();
          Proto_util.serve_all ctx;
          dispatch ctx { state with holding = Not_holding } ~stamp
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            match state.holding with
            | Parked { stamp = held_stamp } ->
                (* Pull hit the parked holder: serve at once. *)
                ctx.cancel_timers ~key:timer_probe;
                dispatch ctx { state with holding = Not_holding } ~stamp:held_stamp
            | Lent _ -> state
            | Not_holding ->
                Search.forward ctx ~last_stamp:state.last_stamp ~requester
                  ~span ~stamp gimme;
                state
          end
      | Probe { holder; ttl } ->
          if ctx.pending () > 0 then begin
            (* The push wave found us: claim the token, stop the wave. *)
            ctx.send ~channel:Network.Cheap ~dst:holder
              (Want { requester = ctx.self });
            state
          end
          else begin
            if ttl > 1 then
              ctx.send ~channel:Network.Cheap
                ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
                (Probe { holder; ttl = ttl - 1 });
            state
          end
      | Want { requester } -> (
          match state.holding with
          | Parked { stamp } ->
              ctx.cancel_timers ~key:timer_probe;
              let state =
                { state with traps = Proto_util.Traps.push state.traps requester }
              in
              dispatch ctx { state with holding = Not_holding } ~stamp
          | Lent _ | Not_holding ->
              (* Token already moved on; remember the interest. *)
              { state with traps = Proto_util.Traps.push state.traps requester })

    let on_timer (ctx : msg Node_intf.ctx) state ~key =
      if key <> timer_probe then state
      else
        match state.holding with
        | Parked { stamp } ->
            if Proto_util.Traps.is_empty state.traps && ctx.pending () = 0 then begin
              (* Still idle: launch a push wave and re-arm. *)
              ctx.send ~channel:Network.Cheap
                ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
                (Probe { holder = ctx.self; ttl = ctx.n - 1 });
              ctx.set_timer ~delay:probe_interval ~key:timer_probe;
              state
            end
            else begin
              Proto_util.serve_all ctx;
              dispatch ctx { state with holding = Not_holding } ~stamp
            end
        | Not_holding | Lent _ -> state
  end)

let protocol : (module Node_intf.PROTOCOL) = (module (val make ()))
