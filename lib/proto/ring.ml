open Tr_sim

type msg = Token of { stamp : int }
type state = { last_stamp : int }

let name = "ring"

let describe =
  "regular ring rotation (Message-Passing rule 3'): token circulates \
   continuously, holder serves all local requests then passes on"

let classify (Token _) = Metrics.Token_msg
let label (Token { stamp }) = Printf.sprintf "token#%d" stamp

let init (ctx : msg Node_intf.ctx) =
  if ctx.self = 0 then begin
    (* Node 0 is the initial holder; it starts the perpetual rotation. *)
    ctx.possession ();
    ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Token { stamp = 1 })
  end;
  { last_stamp = 0 }

let on_message (ctx : msg Node_intf.ctx) _state ~src:_ (Token { stamp }) =
  ctx.possession ();
  Proto_util.serve_all ctx;
  ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self) (Token { stamp = stamp + 1 });
  { last_stamp = stamp }

let on_timer _ctx state ~key:_ = state

(* Rotation alone finds every request; a ready node does nothing active. *)
let on_request _ctx state = state

let protocol : (module Node_intf.PROTOCOL) =
  (module struct
    type nonrec state = state
    type nonrec msg = msg

    let name = name
    let describe = describe
    let classify = classify
    let label = label
    let init = init
    let on_message = on_message
    let on_timer = on_timer
    let on_request = on_request
  end)
