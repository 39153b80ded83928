open Tr_sim
module ISet = Set.Make (Int)

let serve_all (ctx : 'msg Node_intf.ctx) =
  while ctx.pending () > 0 do
    ctx.serve ()
  done

module Traps = struct
  (* A banker's queue: [front] holds the oldest requesters in pop order,
     [back] the newer ones newest first. [back] is reversed into [front]
     when [front] runs out, so push and pop are amortised O(1). [front]
     is empty only when the whole queue is. [members] dedups pushes. *)
  type t = { front : int list; back : int list; members : ISet.t }

  let empty = { front = []; back = []; members = ISet.empty }
  let is_empty t = match t.front with [] -> true | _ :: _ -> false
  let mem t requester = ISet.mem requester t.members

  let push t requester =
    if mem t requester then t
    else
      let members = ISet.add requester t.members in
      match t.front with
      | [] -> { front = [ requester ]; back = []; members }
      | _ :: _ -> { t with back = requester :: t.back; members }

  let pop t =
    match t.front with
    | [] -> None
    | requester :: rest ->
        let members = ISet.remove requester t.members in
        let t =
          match rest with
          | [] -> { front = List.rev t.back; back = []; members }
          | _ :: _ -> { t with front = rest; members }
        in
        Some (requester, t)

  let to_list t = t.front @ List.rev t.back
  let size t = List.length t.front + List.length t.back
end
