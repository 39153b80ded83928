open Tr_sim
module ISet = Set.Make (Int)
module Traps = Proto_util.Traps

type msg =
  | Token of { gen : int; stamp : int }
  | Ack of { gen : int; stamp : int }
  | Loan of { gen : int; stamp : int }
  | Return of { gen : int; stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }
  | WhoHas of { initiator : int }
  | Status of { gen : int; stamp : int }
  | Regenerate of { gen : int }

type holding =
  | Not_holding
  | Held of { gen : int; stamp : int }
  | Lent of { gen : int; stamp : int; borrower : int }

type state = {
  gen : int;
  last_stamp : int;
  last_seen : float;
  dead : ISet.t;
  traps : Traps.t;
  holding : holding;
  awaiting_ack : (int * int * int) option;  (** (gen, stamp, dst). *)
  recovering : bool;
  best_status : (int * int * int) option;  (** (gen, stamp, node). *)
}

let generation state = state.gen

let timer_ack = 1
let timer_watch = 2
let timer_collect = 3
let timer_pass = 4
let timer_loan = 5

let ack_wait = 3.0
let collect_window = 3.0
let hold_time = 0.5
let loan_wait = 5.0

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Ack _ | Gimme _ | WhoHas _ | Status _ | Regenerate _ -> Metrics.Control_msg

let label = function
  | Token { gen; stamp } -> Printf.sprintf "token(g%d,#%d)" gen stamp
  | Ack { gen; stamp } -> Printf.sprintf "ack(g%d,#%d)" gen stamp
  | Loan { gen; stamp } -> Printf.sprintf "loan(g%d,#%d)" gen stamp
  | Return { gen; stamp } -> Printf.sprintf "return(g%d,#%d)" gen stamp
  | Gimme { requester; span; stamp } ->
      Printf.sprintf "gimme(req=%d span=%d stamp=%d)" requester span stamp
  | WhoHas { initiator } -> Printf.sprintf "whohas(from=%d)" initiator
  | Status { gen; stamp } -> Printf.sprintf "status(g%d,#%d)" gen stamp
  | Regenerate { gen } -> Printf.sprintf "regenerate(g%d)" gen

let gimme ~requester ~span ~stamp = Gimme { requester; span; stamp }

let make ?timeout () :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "binsearch-failsafe"

    let describe =
      "BinarySearch hardened against fail-stop crashes (§5): acknowledged \
       rotation skips dead successors, unreturned loans are reissued, and \
       a timed-out requester regenerates the token"

    let classify = classify
    let label = label

    let watch_timeout (ctx : msg Node_intf.ctx) =
      match timeout with Some t -> t | None -> 3.0 *. float_of_int ctx.n

    let next_alive (ctx : msg Node_intf.ctx) state =
      let rec scan candidate remaining =
        if remaining = 0 || candidate = ctx.self then ctx.self
        else if ISet.mem candidate state.dead then
          scan (Node_intf.succ_node ~n:ctx.n candidate) (remaining - 1)
        else candidate
      in
      scan (Node_intf.succ_node ~n:ctx.n ctx.self) ctx.n

    let send_token (ctx : msg Node_intf.ctx) state ~gen ~stamp =
      let dst = next_alive ctx state in
      if dst = ctx.self then
        (* No live successor: keep holding; the pass timer retries. *)
        let state = { state with holding = Held { gen; stamp } } in
        (ctx.set_timer ~delay:hold_time ~key:timer_pass;
         state)
      else begin
        ctx.send ~dst (Token { gen; stamp });
        ctx.set_timer ~delay:ack_wait ~key:timer_ack;
        { state with awaiting_ack = Some (gen, stamp, dst); holding = Not_holding }
      end

    (* Lend to the oldest live trapped requester or rotate onward. *)
    let dispatch (ctx : msg Node_intf.ctx) state ~gen ~stamp =
      match Search.next_trap ~dead:state.dead ctx state.traps with
      | Some (requester, traps) ->
          ctx.send ~dst:requester (Loan { gen; stamp });
          ctx.set_timer ~delay:loan_wait ~key:timer_loan;
          {
            state with
            holding = Lent { gen; stamp; borrower = requester };
            traps;
          }
      | None ->
          send_token ctx
            { state with traps = Traps.empty }
            ~gen ~stamp:(stamp + 1)

    let init (ctx : msg Node_intf.ctx) =
      let state =
        {
          gen = 1;
          last_stamp = 0;
          last_seen = 0.0;
          dead = ISet.empty;
          traps = Traps.empty;
          holding = Not_holding;
          awaiting_ack = None;
          recovering = false;
          best_status = None;
        }
      in
      if ctx.self = 0 then begin
        ctx.possession ();
        ctx.set_timer ~delay:hold_time ~key:timer_pass;
        { state with holding = Held { gen = 1; stamp = 0 } }
      end
      else state

    let launch_search (ctx : msg Node_intf.ctx) state =
      ignore (Search.launch ctx ~stamp:state.last_stamp gimme : bool);
      ctx.set_timer ~delay:(watch_timeout ctx) ~key:timer_watch;
      state

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.holding with
      | Held _ -> state (* served when the hold window closes *)
      | Lent _ | Not_holding -> launch_search ctx state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { gen; stamp } ->
          (* Always acknowledge, so a live node is never marked dead; a
             stale-generation token is destroyed on arrival. *)
          ctx.send ~channel:Network.Cheap ~dst:src (Ack { gen; stamp });
          if gen < state.gen then state
          else begin
            ctx.possession ();
            Proto_util.serve_all ctx;
            ctx.set_timer ~delay:hold_time ~key:timer_pass;
            {
              state with
              gen;
              last_stamp = stamp;
              last_seen = ctx.now ();
              holding = Held { gen; stamp };
              recovering = false;
            }
          end
      | Ack { gen; stamp } -> (
          match state.awaiting_ack with
          | Some (g, s, _) when g = gen && s = stamp ->
              ctx.cancel_timers ~key:timer_ack;
              { state with awaiting_ack = None }
          | Some _ | None -> state)
      | Loan { gen; stamp } ->
          if gen < state.gen then state
          else begin
            Search.use_loan ctx ~lender:src (Return { gen; stamp });
            { state with gen; last_seen = ctx.now (); recovering = false }
          end
      | Return { gen; stamp } -> (
          match state.holding with
          | Lent { gen = g; stamp = s; _ } when g = gen && s = stamp ->
              ctx.cancel_timers ~key:timer_loan;
              ctx.possession ();
              Proto_util.serve_all ctx;
              dispatch ctx { state with holding = Not_holding } ~gen ~stamp
          | Lent _ | Held _ | Not_holding -> state)
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            (match state.holding with
            | Held _ | Lent _ -> () (* served from here when free *)
            | Not_holding ->
                Search.forward ctx ~last_stamp:state.last_stamp ~requester
                  ~span ~stamp gimme);
            state
          end
      | WhoHas { initiator } ->
          ctx.send ~channel:Network.Cheap ~dst:initiator
            (Status { gen = state.gen; stamp = state.last_stamp });
          state
      | Status { gen; stamp } ->
          if not state.recovering then state
          else begin
            let better =
              match state.best_status with
              | None -> true
              | Some (bg, bs, _) -> gen > bg || (gen = bg && stamp > bs)
            in
            if better then { state with best_status = Some (gen, stamp, src) }
            else state
          end
      | Regenerate { gen } ->
          if gen <= state.gen then state
          else begin
            ctx.possession ();
            ctx.note (fun () -> Printf.sprintf "regenerating token g%d" gen);
            Proto_util.serve_all ctx;
            ctx.set_timer ~delay:hold_time ~key:timer_pass;
            {
              state with
              gen;
              recovering = false;
              holding = Held { gen; stamp = state.last_stamp };
            }
          end

    let on_timer (ctx : msg Node_intf.ctx) state ~key =
      if key = timer_pass then
        match state.holding with
        | Held { gen; stamp } ->
            Proto_util.serve_all ctx;
            dispatch ctx state ~gen ~stamp
        | Lent _ | Not_holding -> state
      else if key = timer_ack then
        match state.awaiting_ack with
        | Some (gen, stamp, dst) ->
            ctx.note (fun () -> Printf.sprintf "suspecting node %d" dst);
            send_token ctx
              { state with dead = ISet.add dst state.dead; awaiting_ack = None }
              ~gen ~stamp
        | None -> state
      else if key = timer_loan then
        match state.holding with
        | Lent { gen; stamp; borrower } ->
            (* The borrower died holding our loan: it can be nowhere else,
               so reissue it here and move on. *)
            ctx.note (fun () -> Printf.sprintf "loan to %d lost; reissuing" borrower);
            ctx.possession ();
            Proto_util.serve_all ctx;
            dispatch ctx
              { state with dead = ISet.add borrower state.dead;
                holding = Not_holding }
              ~gen ~stamp
        | Held _ | Not_holding -> state
      else if key = timer_watch then begin
        if
          ctx.pending () > 0
          && (not state.recovering)
          && (match state.holding with Not_holding -> true | _ -> false)
          && ctx.now () -. state.last_seen >= watch_timeout ctx
        then begin
          ctx.note (fun () -> "search unanswered; broadcasting WhoHas");
          for dst = 0 to ctx.n - 1 do
            if dst <> ctx.self then
              ctx.send ~channel:Network.Cheap ~dst (WhoHas { initiator = ctx.self })
          done;
          ctx.set_timer ~delay:collect_window ~key:timer_collect;
          {
            state with
            recovering = true;
            best_status = Some (state.gen, state.last_stamp, ctx.self);
          }
        end
        else state
      end
      else if key = timer_collect then begin
        if not state.recovering then state
        else if ctx.pending () = 0 then { state with recovering = false }
        else
          match state.best_status with
          | None -> { state with recovering = false }
          | Some (gen, stamp, witness) ->
              let new_gen = gen + 1 in
              ctx.set_timer ~delay:(watch_timeout ctx) ~key:timer_watch;
              if witness = ctx.self then begin
                ctx.possession ();
                ctx.note (fun () ->
                    Printf.sprintf "regenerating token g%d locally" new_gen);
                Proto_util.serve_all ctx;
                ctx.set_timer ~delay:hold_time ~key:timer_pass;
                {
                  state with
                  gen = new_gen;
                  recovering = false;
                  best_status = None;
                  holding = Held { gen = new_gen; stamp };
                }
              end
              else begin
                ctx.send ~dst:witness (Regenerate { gen = new_gen });
                { state with recovering = false; best_status = None }
              end
      end
      else state
  end)

let protocol : (module Node_intf.PROTOCOL) = (module (val make ()))
