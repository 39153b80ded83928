open Tr_sim
module ISet = Set.Make (Int)
module Traps = Proto_util.Traps

let launch (ctx : _ Node_intf.ctx) ~stamp gimme =
  let span = ctx.n / 2 in
  if span < 1 then false
  else begin
    let dst = Node_intf.forward_node ~n:ctx.n ctx.self span in
    ctx.send ~channel:Network.Cheap ~dst
      (gimme ~requester:ctx.self ~span ~stamp);
    true
  end

let trap (ctx : _ Node_intf.ctx) traps requester =
  ctx.search_forward ();
  Traps.push traps requester

let forward (ctx : _ Node_intf.ctx) ~last_stamp ~requester ~span ~stamp gimme =
  if span >= 2 then begin
    let jump = span / 2 in
    let dir = if last_stamp >= stamp then jump else -jump in
    let dst = Node_intf.forward_node ~n:ctx.n ctx.self dir in
    ctx.send ~channel:Network.Cheap ~dst (gimme ~requester ~span:jump ~stamp)
  end

(* Top level, so that the hot path's call allocates no closure. *)
let rec skip_to ~self ~dead traps =
  match Traps.pop traps with
  | Some (requester, rest) when requester = self || ISet.mem requester dead ->
      skip_to ~self ~dead rest
  | found -> found

let next_trap ?(dead = ISet.empty) (ctx : _ Node_intf.ctx) traps =
  skip_to ~self:ctx.self ~dead traps

let use_loan (ctx : _ Node_intf.ctx) ~lender return =
  ctx.possession ();
  Proto_util.serve_all ctx;
  ctx.send ~dst:lender return
