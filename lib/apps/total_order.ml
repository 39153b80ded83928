open Tr_sim
module IMap = Map.Make (Int)
module Search = Tr_proto.Search
module Traps = Tr_proto.Proto_util.Traps

type payload = { origin : int; origin_seq : int }

type msg =
  | Token of { stamp : int; next_seq : int; mode : Movement.mode; idle_hops : int }
  | Loan of { stamp : int; next_seq : int }
  | Return of { stamp : int; next_seq : int }
  | Gimme of { requester : int; span : int; stamp : int }
  | Bcast of { seq : int; payload : payload }

type holding = Not_holding | Lent | Parked of { stamp : int; next_seq : int }

type state = {
  last_stamp : int;
  last_mode : Movement.mode;
  holding : holding;
  traps : Traps.t;
  (* Application state. *)
  origin_seq : int;  (** Broadcasts this node has originated. *)
  next_expected : int;  (** Next global sequence number to deliver. *)
  buffer : payload IMap.t;  (** Early arrivals, keyed by sequence. *)
  log : payload list;  (** Delivered payloads, newest first. *)
}

let delivered state = List.rev state.log
let buffered_count state = IMap.cardinal state.buffer

let classify = function
  | Token _ | Loan _ | Return _ -> Metrics.Token_msg
  | Gimme _ | Bcast _ -> Metrics.Control_msg

let label = function
  | Token { stamp; next_seq; mode = Movement.Search; _ } ->
      Printf.sprintf "token#%d(seq=%d)" stamp next_seq
  | Token { stamp; next_seq; mode = Movement.Rotate; _ } ->
      Printf.sprintf "token#%d(seq=%d)[rotate]" stamp next_seq
  | Loan { stamp; _ } -> Printf.sprintf "loan#%d" stamp
  | Return { stamp; _ } -> Printf.sprintf "return#%d" stamp
  | Gimme { requester; span; _ } ->
      Printf.sprintf "gimme(req=%d span=%d)" requester span
  | Bcast { seq; payload } ->
      Printf.sprintf "bcast(seq=%d from=%d.%d)" seq payload.origin
        payload.origin_seq

let gimme ~requester ~span ~stamp = Gimme { requester; span; stamp }

(* Deliver in strict sequence order; anything early waits in the buffer. *)
let rec deliver state seq payload =
  if seq < state.next_expected then state (* duplicate: already delivered *)
  else if seq > state.next_expected then
    { state with buffer = IMap.add seq payload state.buffer }
  else
    let state =
      {
        state with
        log = payload :: state.log;
        next_expected = state.next_expected + 1;
      }
    in
    match IMap.find_opt state.next_expected state.buffer with
    | Some next ->
        deliver
          { state with buffer = IMap.remove state.next_expected state.buffer }
          state.next_expected next
    | None -> state

let make ?directive ?on_deliver () :
    (module Node_intf.PROTOCOL with type state = state and type msg = msg) =
  let directive =
    match directive with Some f -> f | None -> fun () -> Movement.default
  in
  (* Run [deliver] and notify the hook once per payload newly appended to
     the log, in sequence order. [deliver] itself stays pure. *)
  let deliver_note (ctx : msg Node_intf.ctx) state seq payload =
    match on_deliver with
    | None -> deliver state seq payload
    | Some f ->
        let before = state.next_expected in
        let state = deliver state seq payload in
        let fresh = state.next_expected - before in
        if fresh > 0 then begin
          (* [log] is newest-first: the [fresh] head entries carry
             sequence numbers [before .. next_expected-1], reversed. *)
          let rec take k acc = function
            | p :: rest when k > 0 -> take (k - 1) (p :: acc) rest
            | _ -> acc
          in
          let now = ctx.now () in
          List.iteri
            (fun i p -> f ~self:ctx.self ~now ~seq:(before + i) p)
            (take fresh [] state.log)
        end;
        state
  in
  (* The holder turns every pending request into a sequenced broadcast.
     The sequencing right is exactly token possession, so numbers are
     globally unique and gap-free. *)
  let broadcast_pending (ctx : msg Node_intf.ctx) state ~next_seq =
    let state = ref state and seq = ref next_seq in
    while ctx.pending () > 0 do
      ctx.serve ();
      let payload = { origin = ctx.self; origin_seq = !state.origin_seq + 1 } in
      state := { !state with origin_seq = payload.origin_seq };
      (* Application data travels on the reliable channel: losing a
         sequenced broadcast would stall delivery at every node. Search
         messages stay cheap — dropping those only costs performance. *)
      for dst = 0 to ctx.n - 1 do
        if dst <> ctx.self then ctx.send ~dst (Bcast { seq = !seq; payload })
      done;
      state := deliver_note ctx !state !seq payload;
      incr seq
    done;
    (!state, !seq)
  in
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = "total-order"

    let describe =
      "Totem-style total-order broadcast: the hybrid rotate/search token \
       carries the global sequence counter; delivery logs at all nodes \
       are prefixes of the token-defined order"

    let classify = classify
    let label = label

    (* [idle_hops]: consecutive idle token visits including this one; any
       broadcast or loan round trip resets it. *)
    let dispatch (ctx : msg Node_intf.ctx) state ~stamp ~next_seq ~idle_hops =
      match Search.next_trap ctx state.traps with
      | Some (requester, traps) ->
          ctx.send ~dst:requester (Loan { stamp; next_seq });
          { state with holding = Lent; traps }
      | None ->
          let d = directive () and traps = Traps.empty in
          if Movement.parks d ~idle_hops then begin
            ctx.note (fun () -> "park");
            { state with holding = Parked { stamp; next_seq }; traps }
          end
          else begin
            ctx.send
              ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
              (Token
                 { stamp = stamp + 1; next_seq; mode = d.Movement.mode; idle_hops });
            { state with holding = Not_holding; traps }
          end

    let init (ctx : msg Node_intf.ctx) =
      let state =
        {
          last_stamp = 0;
          last_mode = Movement.Search;
          holding = Not_holding;
          traps = Traps.empty;
          origin_seq = 0;
          next_expected = 1;
          buffer = IMap.empty;
          log = [];
        }
      in
      if ctx.self = 0 then begin
        ctx.possession ();
        let d = directive () in
        ctx.send
          ~dst:(Node_intf.succ_node ~n:ctx.n 0)
          (Token { stamp = 1; next_seq = 1; mode = d.Movement.mode; idle_hops = 0 })
      end;
      state

    let on_request (ctx : msg Node_intf.ctx) state =
      match state.holding with
      | Parked { stamp; next_seq } ->
          ctx.note (fun () -> "unpark");
          let state, next_seq =
            broadcast_pending ctx { state with holding = Not_holding } ~next_seq
          in
          dispatch ctx state ~stamp ~next_seq ~idle_hops:0
      | Lent | Not_holding ->
          if not (Movement.silent ~last_mode:state.last_mode directive) then
            ignore (Search.launch ctx ~stamp:state.last_stamp gimme : bool);
          state

    let on_message (ctx : msg Node_intf.ctx) state ~src msg =
      match msg with
      | Token { stamp; next_seq; mode; idle_hops } ->
          ctx.possession ();
          let busy = ctx.pending () > 0 in
          let state, next_seq =
            broadcast_pending ctx
              { state with last_stamp = stamp; last_mode = mode }
              ~next_seq
          in
          let idle_hops = if busy then 0 else idle_hops + 1 in
          dispatch ctx state ~stamp ~next_seq ~idle_hops
      | Loan { stamp; next_seq } ->
          ctx.possession ();
          let state, next_seq = broadcast_pending ctx state ~next_seq in
          ctx.send ~dst:src (Return { stamp; next_seq });
          state
      | Return { stamp; next_seq } ->
          ctx.possession ();
          let state, next_seq = broadcast_pending ctx state ~next_seq in
          dispatch ctx
            { state with holding = Not_holding }
            ~stamp ~next_seq ~idle_hops:0
      | Gimme { requester; span; stamp } ->
          if requester = ctx.self then state
          else begin
            let state =
              { state with traps = Search.trap ctx state.traps requester }
            in
            match state.holding with
            | Lent -> state
            | Parked { stamp = held_stamp; next_seq } ->
                ctx.note (fun () -> "unpark");
                dispatch ctx
                  { state with holding = Not_holding }
                  ~stamp:held_stamp ~next_seq ~idle_hops:0
            | Not_holding ->
                Search.forward ctx ~last_stamp:state.last_stamp ~requester
                  ~span ~stamp gimme;
                state
          end
      | Bcast { seq; payload } -> deliver_note ctx state seq payload

    let on_timer _ctx state ~key:_ = state
  end)

module Impl = (val make ())

let protocol : (module Node_intf.PROTOCOL) = (module Impl)
