include Node_intf.Event

type entry = { time : float; event : string event }

(* Entries live in two parallel growable arrays: an unboxed [float
   array] of times and a generic array of events. Appending is O(1) with
   no per-entry cons cell; iteration is forward, so accessors never
   [List.rev]. *)
type t = {
  mutable times : float array;
  mutable evs : string event array;
  mutable length : int;
  (* Derived views are memoized until the next [record]. *)
  mutable memo_events : entry list option;
}

(* Placeholder for unwritten slots; never returned. All [event]
   constructors are boxed, so the array is generic and safe to share. *)
let filler_event = Crashed { node = min_int }

let create () = { times = [||]; evs = [||]; length = 0; memo_events = None }

let grow t =
  let cap = Array.length t.times in
  let cap' = Stdlib.max 64 (2 * cap) in
  let times = Array.make cap' 0.0 in
  let evs = Array.make cap' filler_event in
  Array.blit t.times 0 times 0 t.length;
  Array.blit t.evs 0 evs 0 t.length;
  t.times <- times;
  t.evs <- evs

let record t ~time event =
  t.memo_events <- None;
  if t.length = Array.length t.times then grow t;
  t.times.(t.length) <- time;
  t.evs.(t.length) <- event;
  t.length <- t.length + 1

(* The one rendering of a message into the trace. Timer firings and
   search forwards are left out, which keeps every trace digest. *)
let render ~label : _ event -> string event option = function
  | Sent { src; dst; channel; msg } ->
      Some (Sent { src; dst; channel; msg = label msg })
  | Delivered { src; dst; msg } -> Some (Delivered { src; dst; msg = label msg })
  | Dropped { src; dst; msg } -> Some (Dropped { src; dst; msg = label msg })
  | Timer_fired _ | Search_forward _ -> None
  | Request { node } -> Some (Request { node })
  | Served { node; waited } -> Some (Served { node; waited })
  | Token_at { node } -> Some (Token_at { node })
  | Crashed { node } -> Some (Crashed { node })
  | Note { node; text } -> Some (Note { node; text })

let observe t ~label ~time event =
  match render ~label event with
  | Some event -> record t ~time event
  | None -> ()

let length t = t.length

(* Chronological iteration directly over the buffer — the shared
   substrate of every accessor below. *)
let iter t f =
  for i = 0 to t.length - 1 do
    f t.times.(i) t.evs.(i)
  done

let events t =
  match t.memo_events with
  | Some cached -> cached
  | None ->
      let acc = ref [] in
      iter t (fun time event -> acc := { time; event } :: !acc);
      let result = List.rev !acc in
      t.memo_events <- Some result;
      result

let collect t f =
  let acc = ref [] in
  iter t (fun time event ->
      match f time event with Some x -> acc := x :: !acc | None -> ());
  List.rev !acc

let token_possessions t =
  collect t (fun time event ->
      match event with Token_at { node } -> Some (time, node) | _ -> None)

let running_mean_waiting t ~window =
  if window < 1 then invalid_arg "Trace.running_mean_waiting: window < 1";
  (* A ring buffer of the last [window] waits keeps this linear. *)
  let buffer = Array.make window 0.0 in
  let filled = ref 0 and cursor = ref 0 and sum = ref 0.0 in
  collect t (fun time event ->
      match event with
      | Served { waited; _ } ->
          if !filled = window then sum := !sum -. buffer.(!cursor)
          else incr filled;
          buffer.(!cursor) <- waited;
          sum := !sum +. waited;
          cursor := (!cursor + 1) mod window;
          Some (time, !sum /. float_of_int !filled)
      | _ -> None)

let pp_event ppf = function
  | Sent { src; dst; channel; msg } ->
      Format.fprintf ppf "send %d->%d [%a] %s" src dst Network.pp_channel
        channel msg
  | Delivered { src; dst; msg } ->
      Format.fprintf ppf "recv %d->%d %s" src dst msg
  | Dropped { src; dst; msg } -> Format.fprintf ppf "drop %d->%d %s" src dst msg
  | Timer_fired { node; key } -> Format.fprintf ppf "timer @%d key %d" node key
  | Search_forward { node } -> Format.fprintf ppf "forward @%d" node
  | Request { node } -> Format.fprintf ppf "request @%d" node
  | Served { node; waited } ->
      Format.fprintf ppf "served @%d (waited %.3g)" node waited
  | Token_at { node } -> Format.fprintf ppf "token @%d" node
  | Crashed { node } -> Format.fprintf ppf "crash @%d" node
  | Note { node; text } -> Format.fprintf ppf "note @%d: %s" node text

let pp ppf t =
  iter t (fun time event ->
      Format.fprintf ppf "%10.3f  %a@\n" time pp_event event)
