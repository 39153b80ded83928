open Tr_sim

type rotation_msg =
  | RToken of { stamp : int; satisfied : int array }
  | RLoan of { stamp : int; satisfied : int array }
  | RReturn of { stamp : int; satisfied : int array }
  | RGimme of { requester : int; seq : int; span : int; stamp : int }

type inverse_msg =
  | IToken of { stamp : int }
  | ILoanVia of { stamp : int; requester : int; trail : int list }
  | IReturn of { stamp : int }
  | IGimme of { requester : int; span : int; stamp : int; trail : int list }

(* ------------------------------------------------------------------ *)
(* Token-rotation cleanup                                              *)
(* ------------------------------------------------------------------ *)

module Rotation = struct
  type holding = Not_holding | Lent

  type state = {
    last_stamp : int;
    holding : holding;
    traps : (int * int) list;  (** (requester, seq), FIFO. *)
    req_seq : int;  (** This node's own request sequence counter. *)
  }

  let name = "binsearch-gc-rotation"

  let describe =
    "BinarySearch + token-rotation trap cleanup (§4.4): the token carries \
     a satisfied-request vector and holders drop obsolete traps as it \
     rotates"

  let classify = function
    | RToken _ | RLoan _ | RReturn _ -> Metrics.Token_msg
    | RGimme _ -> Metrics.Control_msg

  let label = function
    | RToken { stamp; _ } -> Printf.sprintf "token#%d" stamp
    | RLoan { stamp; _ } -> Printf.sprintf "loan#%d" stamp
    | RReturn { stamp; _ } -> Printf.sprintf "return#%d" stamp
    | RGimme { requester; seq; span; _ } ->
        Printf.sprintf "gimme(req=%d.%d span=%d)" requester seq span

  (* Keep one trap per requester, at its original queue position, with
     the highest sequence number seen. *)
  let push_trap traps requester seq =
    if List.mem_assoc requester traps then
      List.map
        (fun (z, s) -> if z = requester then (z, Stdlib.max s seq) else (z, s))
        traps
    else traps @ [ (requester, seq) ]

  let purge traps satisfied =
    List.filter (fun (z, seq) -> satisfied.(z) < seq) traps

  (* The vector learns that this node's requests up to [req_seq] are
     satisfied whenever its pending queue is empty. Messages share the
     vector and nothing writes to one in place: a node copies it only
     when its own entry rises. *)
  let refresh_satisfied (ctx : rotation_msg Node_intf.ctx) state satisfied =
    if ctx.pending () = 0 && satisfied.(ctx.self) < state.req_seq then begin
      let satisfied = Array.copy satisfied in
      satisfied.(ctx.self) <- state.req_seq;
      satisfied
    end
    else satisfied

  let rec dispatch (ctx : rotation_msg Node_intf.ctx) state ~stamp ~satisfied =
    match state.traps with
    | (requester, _) :: rest when requester = ctx.self ->
        dispatch ctx { state with traps = rest } ~stamp ~satisfied
    | (requester, _) :: rest ->
        ctx.send ~dst:requester (RLoan { stamp; satisfied });
        { state with holding = Lent; traps = rest }
    | [] ->
        ctx.send
          ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
          (RToken { stamp = stamp + 1; satisfied });
        { state with holding = Not_holding }

  let init (ctx : rotation_msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      ctx.possession ();
      ctx.send
        ~dst:(Node_intf.succ_node ~n:ctx.n 0)
        (RToken { stamp = 1; satisfied = Array.make ctx.n 0 })
    end;
    { last_stamp = 0; holding = Not_holding; traps = []; req_seq = 0 }

  let gimme ~seq ~requester ~span ~stamp =
    RGimme { requester; seq; span; stamp }

  let on_request (ctx : rotation_msg Node_intf.ctx) state =
    let state = { state with req_seq = state.req_seq + 1 } in
    ignore
      (Search.launch ctx ~stamp:state.last_stamp (gimme ~seq:state.req_seq)
        : bool);
    state

  let on_message (ctx : rotation_msg Node_intf.ctx) state ~src msg =
    match msg with
    | RToken { stamp; satisfied } ->
        ctx.possession ();
        Proto_util.serve_all ctx;
        let satisfied = refresh_satisfied ctx state satisfied in
        let state =
          { state with last_stamp = stamp; traps = purge state.traps satisfied }
        in
        dispatch ctx state ~stamp ~satisfied
    | RLoan { stamp; satisfied } ->
        ctx.possession ();
        Proto_util.serve_all ctx;
        let satisfied = refresh_satisfied ctx state satisfied in
        let state = { state with traps = purge state.traps satisfied } in
        ctx.send ~dst:src (RReturn { stamp; satisfied });
        state
    | RReturn { stamp; satisfied } ->
        ctx.possession ();
        Proto_util.serve_all ctx;
        let satisfied = refresh_satisfied ctx state satisfied in
        let state =
          { state with holding = Not_holding; traps = purge state.traps satisfied }
        in
        dispatch ctx state ~stamp ~satisfied
    | RGimme { requester; seq; span; stamp } ->
        if requester = ctx.self then state
        else begin
          ctx.search_forward ();
          let state =
            { state with traps = push_trap state.traps requester seq }
          in
          (match state.holding with
          | Lent -> ()
          | Not_holding ->
              Search.forward ctx ~last_stamp:state.last_stamp ~requester ~span
                ~stamp (gimme ~seq));
          state
        end

  let on_timer _ctx state ~key:_ = state
end

(* ------------------------------------------------------------------ *)
(* Inverse-token cleanup                                               *)
(* ------------------------------------------------------------------ *)

module Inverse = struct
  type holding = Not_holding | Lent

  type state = {
    last_stamp : int;
    holding : holding;
    traps : (int * int list) list;  (** (requester, trail back to it). *)
  }

  let name = "binsearch-gc-inverse"

  let describe =
    "BinarySearch + inverse-token trap cleanup (§4.4): the loaned token \
     retraces the search trail, erasing the request's traps en route to \
     the requester"

  let classify = function
    | IToken _ | ILoanVia _ | IReturn _ -> Metrics.Token_msg
    | IGimme _ -> Metrics.Control_msg

  let label = function
    | IToken { stamp } -> Printf.sprintf "token#%d" stamp
    | ILoanVia { stamp; requester; trail } ->
        Printf.sprintf "loan-via#%d(req=%d hops=%d)" stamp requester
          (List.length trail)
    | IReturn { stamp } -> Printf.sprintf "return#%d" stamp
    | IGimme { requester; span; trail; _ } ->
        Printf.sprintf "gimme(req=%d span=%d trail=%d)" requester span
          (List.length trail)

  let push_trap traps requester trail =
    if List.mem_assoc requester traps then traps
    else traps @ [ (requester, trail) ]

  let remove_trap traps requester =
    List.filter (fun (z, _) -> z <> requester) traps

  (* The loan hops along [trail] (nearest node first), erasing traps, and
     finally reaches the requester. The requester hands the token back to
     the loan's immediate sender — the last trail node — and rotation
     resumes from there; the paper only requires that the token "continues
     to flow around the ring", not that it returns to the original
     lender. The lender's [Lent] flag is cleared the next time the
     rotation reaches it. *)
  let send_loan (ctx : inverse_msg Node_intf.ctx) ~stamp ~requester ~trail =
    match trail with
    | [] -> ctx.send ~dst:requester (ILoanVia { stamp; requester; trail = [] })
    | hop :: rest ->
        ctx.send ~dst:hop (ILoanVia { stamp; requester; trail = rest })

  let rec dispatch (ctx : inverse_msg Node_intf.ctx) state ~stamp =
    match state.traps with
    | (requester, _) :: rest when requester = ctx.self ->
        dispatch ctx { state with traps = rest } ~stamp
    | (requester, trail) :: rest ->
        send_loan ctx ~stamp ~requester ~trail;
        { state with holding = Lent; traps = rest }
    | [] ->
        ctx.send
          ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self)
          (IToken { stamp = stamp + 1 });
        { state with holding = Not_holding }

  let init (ctx : inverse_msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      ctx.possession ();
      ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (IToken { stamp = 1 })
    end;
    { last_stamp = 0; holding = Not_holding; traps = [] }

  (* A search carries the trail of nodes it passed, nearest first. *)
  let gimme ~trail ~requester ~span ~stamp =
    IGimme { requester; span; stamp; trail }

  let on_request (ctx : inverse_msg Node_intf.ctx) state =
    ignore (Search.launch ctx ~stamp:state.last_stamp (gimme ~trail:[]) : bool);
    state

  let on_message (ctx : inverse_msg Node_intf.ctx) state ~src msg =
    match msg with
    | IToken { stamp } ->
        ctx.possession ();
        Proto_util.serve_all ctx;
        let state = { state with last_stamp = stamp } in
        dispatch ctx state ~stamp
    | ILoanVia { stamp; requester; trail } ->
        if requester = ctx.self then begin
          (* The loan reached us: use it and send it back to the sender,
             which relays it to the lender. *)
          Search.use_loan ctx ~lender:src (IReturn { stamp });
          state
        end
        else begin
          (* Intermediate hop: erase this request's trap and relay the
             loan along the rest of the trail. *)
          let state =
            { state with traps = remove_trap state.traps requester }
          in
          send_loan ctx ~stamp ~requester ~trail;
          state
        end
    | IReturn { stamp } ->
        ctx.possession ();
        Proto_util.serve_all ctx;
        dispatch ctx { state with holding = Not_holding } ~stamp
    | IGimme { requester; span; stamp; trail } ->
        if requester = ctx.self then state
        else begin
          ctx.search_forward ();
          let state =
            { state with traps = push_trap state.traps requester trail }
          in
          (match state.holding with
          | Lent -> ()
          | Not_holding ->
              Search.forward ctx ~last_stamp:state.last_stamp ~requester ~span
                ~stamp (gimme ~trail:(ctx.self :: trail)));
          state
        end

  let on_timer _ctx state ~key:_ = state
end

(* Typed handles are the codec-derivation hooks: the wire layer pairs
   them with the [rotation_msg]/[inverse_msg] codecs. *)
type rotation_state = Rotation.state
type inverse_state = Inverse.state

let protocol_rotation_t :
    (module Node_intf.PROTOCOL
       with type state = rotation_state
        and type msg = rotation_msg) =
  (module struct
    include Rotation

    type nonrec state = Rotation.state
    type msg = rotation_msg
  end)

let protocol_rotation : (module Node_intf.PROTOCOL) =
  (module (val protocol_rotation_t))

let protocol_inverse_t :
    (module Node_intf.PROTOCOL
       with type state = inverse_state
        and type msg = inverse_msg) =
  (module struct
    include Inverse

    type nonrec state = Inverse.state
    type msg = inverse_msg
  end)

let protocol_inverse : (module Node_intf.PROTOCOL) =
  (module (val protocol_inverse_t))
