open Tr_sim
module Search = Tr_proto.Search
module Traps = Tr_proto.Proto_util.Traps

type msg =
  | Token of { stamp : int; mode : Movement.mode; idle_hops : int }
  | Loan of { stamp : int }
  | Return of { stamp : int }
  | Gimme of { requester : int; span : int; stamp : int }

(* While inside a critical section the node physically keeps the token
   ([In_cs]); [return_to] remembers the lender when we entered from a
   loan. [Parked] also keeps the token physically here: an idle token
   that exceeded its park threshold waits for the next local request or
   incoming search instead of circulating. *)
type holding =
  | Not_holding
  | Lent
  | In_cs of { stamp : int; return_to : int option }
  | Parked of { stamp : int }

type state = {
  last_stamp : int;
  last_mode : Movement.mode;
      (** Movement mode of the last token this node saw — requesters
          suppress searches while the token is rotating. *)
  holding : holding;
  traps : Traps.t;
}

let timer_exit = 1

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ -> Metrics.Control_msg

let label = function
  | Token { stamp; mode = Movement.Search; _ } -> Printf.sprintf "token#%d" stamp
  | Token { stamp; mode = Movement.Rotate; _ } ->
      Printf.sprintf "token#%d[rotate]" stamp
  | Loan { stamp } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; span; stamp } ->
      Printf.sprintf "gimme(req=%d span=%d stamp=%d)" requester span stamp

let gimme ~requester ~span ~stamp = Gimme { requester; span; stamp }

type event = [ `Enter | `Exit ]

let make ?(cs_duration = 2.0) ?directive ?on_event () :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  let directive =
    match directive with Some f -> f | None -> fun () -> Movement.default
  in
  let emit (ctx : msg Node_intf.ctx) ev =
    match on_event with
    | None -> ()
    | Some f -> f ~self:ctx.self ~now:(ctx.now ()) (ev : event)
  in
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "mutex"

    let describe =
      Printf.sprintf
        "mutual-exclusion service on the hybrid rotate/search token: \
         critical sections hold the token for %g time units; FIFO trap \
         service"
        cs_duration

    let classify = classify
    let label = label

    (* [idle_hops] is how many consecutive idle visits the token has made
       including this one; a busy visit (critical section, loan round
       trip) resets it to zero. *)
    let dispatch (ctx : msg Node_intf.ctx) state ~stamp ~idle_hops =
      match Search.next_trap ctx state.traps with
      | Some (requester, traps) ->
          ctx.send ~dst:requester (Loan { stamp });
          { state with holding = Lent; traps }
      | None ->
          let d = directive () and traps = Traps.empty in
          if Movement.parks d ~idle_hops then begin
            ctx.note (fun () -> "park");
            { state with holding = Parked { stamp }; traps }
          end
          else begin
            ctx.send
              ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
              (Token { stamp = stamp + 1; mode = d.Movement.mode; idle_hops });
            { state with holding = Not_holding; traps }
          end

    (* Enter the critical section if work is pending; otherwise pass the
       token along immediately. *)
    let acquire (ctx : msg Node_intf.ctx) state ~stamp ~return_to ~idle_hops =
      if ctx.pending () > 0 then begin
        ctx.note (fun () -> "cs-enter");
        emit ctx `Enter;
        ctx.set_timer ~delay:cs_duration ~key:timer_exit;
        { state with holding = In_cs { stamp; return_to } }
      end
      else
        match return_to with
        | Some lender ->
            ctx.send ~dst:lender (Return { stamp });
            { state with holding = Not_holding }
        | None -> dispatch ctx state ~stamp ~idle_hops

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then begin
        ctx.possession ();
        let d = directive () in
        ctx.send
          ~dst:(Node_intf.succ_node ~n:ctx.n 0)
          (Token { stamp = 1; mode = d.Movement.mode; idle_hops = 0 })
      end;
      {
        last_stamp = 0;
        last_mode = Movement.Search;
        holding = Not_holding;
        traps = Traps.empty;
      }

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.holding with
      | In_cs _ -> state (* will be picked up when the section exits *)
      | Parked { stamp } ->
          (* We already hold the token: wake it for the new request. *)
          ctx.note (fun () -> "unpark");
          acquire ctx
            { state with holding = Not_holding }
            ~stamp ~return_to:None ~idle_hops:0
      | Lent | Not_holding ->
          if not (Movement.silent ~last_mode:state.last_mode directive) then
            ignore (Search.launch ctx ~stamp:state.last_stamp gimme : bool);
          state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp; mode; idle_hops } ->
          ctx.possession ();
          acquire ctx
            { state with last_stamp = stamp; last_mode = mode }
            ~stamp ~return_to:None ~idle_hops:(idle_hops + 1)
      | Loan { stamp } ->
          ctx.possession ();
          acquire ctx state ~stamp ~return_to:(Some src) ~idle_hops:0
      | Return { stamp } ->
          ctx.possession ();
          acquire ctx
            { state with holding = Not_holding }
            ~stamp ~return_to:None ~idle_hops:0
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            match state.holding with
            | In_cs _ | Lent -> state (* token is here or on loan; wait *)
            | Parked { stamp = held_stamp } ->
                (* Recall the parked token: serve the searcher directly. *)
                ctx.note (fun () -> "unpark");
                dispatch ctx
                  { state with holding = Not_holding }
                  ~stamp:held_stamp ~idle_hops:0
            | Not_holding ->
                Search.forward ctx ~last_stamp:state.last_stamp ~requester
                  ~span ~stamp gimme;
                state
          end

    let on_timer (ctx : msg Node_intf.ctx) state ~key =
      if key <> timer_exit then state
      else
        match state.holding with
        | In_cs { stamp; return_to } ->
            (* Exit: account one served request per section. *)
            if ctx.pending () > 0 then ctx.serve ();
            ctx.note (fun () -> "cs-exit");
            emit ctx `Exit;
            if ctx.pending () > 0 then
              (* More local work: re-enter immediately (we still hold). *)
              acquire ctx state ~stamp ~return_to ~idle_hops:0
            else begin
              match return_to with
              | Some lender ->
                  ctx.send ~dst:lender (Return { stamp });
                  { state with holding = Not_holding }
              | None ->
                  dispatch ctx { state with holding = Not_holding } ~stamp
                    ~idle_hops:0
            end
        | Not_holding | Lent | Parked _ -> state
  end)

let protocol : (module Node_intf.PROTOCOL) = (module (val make ()))

let cs_intervals trace =
  let open Trace in
  let pending_enter = Hashtbl.create 16 in
  List.fold_left
    (fun acc { time; event } ->
      match event with
      | Note { node; text } when String.equal text "cs-enter" ->
          Hashtbl.replace pending_enter node time;
          acc
      | Note { node; text } when String.equal text "cs-exit" -> (
          match Hashtbl.find_opt pending_enter node with
          | Some enter ->
              Hashtbl.remove pending_enter node;
              (node, enter, time) :: acc
          | None -> acc)
      | _ -> acc)
    [] (events trace)
  |> List.rev

let intervals_overlap intervals =
  let sorted =
    List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) intervals
  in
  let rec scan = function
    | (_, _, exit1) :: ((_, enter2, _) :: _ as rest) ->
        exit1 > enter2 || scan rest
    | [ _ ] | [] -> false
  in
  scan sorted
