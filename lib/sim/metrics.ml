module Summary = Tr_stats.Summary
module Quantile = Tr_stats.Quantile
module P2 = Tr_stats.P2

type msg_class = Token_msg | Control_msg

(* Streaming (O(1)-memory) percentile estimates of one sample stream —
   the tail statistics large-N sweeps read when exact sample retention
   would be wasteful. *)
type sketches = { q50 : P2.t; q90 : P2.t; q99 : P2.t }

let make_sketches () =
  { q50 = P2.create ~p:0.5; q90 = P2.create ~p:0.9; q99 = P2.create ~p:0.99 }

(* One sample stream: running moments, exact quantiles and sketches. *)
type stream = { summary : Summary.t; exact : Quantile.t; sketches : sketches }

let make_stream () =
  { summary = Summary.create (); exact = Quantile.create (); sketches = make_sketches () }

(* Kept out of line on purpose: a float crossing into [Tr_stats] is
   passed boxed, and as a parameter here it is boxed once for all five
   consumers instead of once per call. *)
let[@inline never] stream_add st x =
  Summary.add st.summary x;
  Quantile.add st.exact x;
  P2.add st.sketches.q50 x;
  P2.add st.sketches.q90 x;
  P2.add st.sketches.q99 x

(* A FIFO of floats in a circular buffer whose power-of-two capacity
   doubles when full: a queued arrival is a slot in a flat array, not a
   [Queue] cell holding a boxed float. *)
type fifo = { mutable buf : float array; mutable head : int; mutable len : int }

let fifo_create cap = { buf = Array.make cap 0.0; head = 0; len = 0 }

(* Ring [src] (its [len] entries from [head] on, wrapping) unwrapped
   into the front of an array of twice its capacity: the growth step
   of the per-node rings and of the arrival log. *)
let regrow src ~head ~len fill =
  let cap = Array.length src in
  let dst = Array.make (2 * cap) fill in
  let first = Stdlib.min len (cap - head) in
  Array.blit src head dst 0 first;
  Array.blit src 0 dst first (len - first);
  dst

let fifo_push q x =
  if q.len = Array.length q.buf then begin
    q.buf <- regrow q.buf ~head:q.head ~len:q.len 0.0;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
  q.len <- q.len + 1

let fifo_drop q =
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1

(* The global arrival log, three parallel rings (node, per-node index,
   arrival time) sharing one head and length. *)
type log = {
  mutable nodes : int array;
  mutable idxs : int array;
  mutable times : float array;
  mutable lhead : int;
  mutable llen : int;
}

let log_push l ~node ~idx time =
  if l.llen = Array.length l.nodes then begin
    let head = l.lhead and len = l.llen in
    l.nodes <- regrow l.nodes ~head ~len 0;
    l.idxs <- regrow l.idxs ~head ~len 0;
    l.times <- regrow l.times ~head ~len 0.0;
    l.lhead <- 0
  end;
  let i = (l.lhead + l.llen) land (Array.length l.nodes - 1) in
  l.nodes.(i) <- node;
  l.idxs.(i) <- idx;
  l.times.(i) <- time;
  l.llen <- l.llen + 1

(* The run's two clocks, in an all-float record so writes stay unboxed. *)
type clocks = { mutable last_arrival : float; mutable last_service : float }

type t = {
  n : int;
  pending : fifo array; (* arrival times, FIFO per node *)
  (* Global arrival log with lazy deletion: entries are
     [(node, per-node index, arrival)]. While arrivals come in
     non-decreasing time order (true under the engine, which processes
     events chronologically), the log front — after discarding entries
     whose request was already served — IS the earliest outstanding
     arrival, making the responsiveness window lookup amortised O(1)
     instead of an O(n) scan per serve. If a caller ever feeds
     out-of-order arrivals directly, [fifo_monotone] trips and we fall
     back to a scan of every node's oldest request. *)
  arrivals : log;
  arrival_idx : int array; (* arrivals recorded per node *)
  served_idx : int array; (* serves recorded per node *)
  mutable fifo_monotone : bool;
  clocks : clocks;
  mutable total_pending : int;
  mutable serves : int;
  responsiveness : stream;
  waiting : stream;
  waiting_per_node : Summary.t array;
  mutable token_messages : int;
  mutable control_messages : int;
  mutable cheap_messages : int;
  mutable search_forwards : int;
  possessions : int array;
  mutable total_possessions : int;
}

let create ~n =
  if n < 1 then invalid_arg "Metrics.create: n < 1";
  {
    n;
    pending = Array.init n (fun _ -> fifo_create 4);
    arrivals =
      {
        nodes = Array.make 16 0;
        idxs = Array.make 16 0;
        times = Array.make 16 0.0;
        lhead = 0;
        llen = 0;
      };
    arrival_idx = Array.make n 0;
    served_idx = Array.make n 0;
    fifo_monotone = true;
    clocks = { last_arrival = neg_infinity; last_service = neg_infinity };
    total_pending = 0;
    serves = 0;
    responsiveness = make_stream ();
    waiting = make_stream ();
    waiting_per_node = Array.init n (fun _ -> Summary.create ());
    token_messages = 0;
    control_messages = 0;
    cheap_messages = 0;
    search_forwards = 0;
    possessions = Array.make n 0;
    total_possessions = 0;
  }

let n t = t.n

let on_request t ~time ~node =
  fifo_push t.pending.(node) time;
  if t.fifo_monotone then begin
    if time < t.clocks.last_arrival then begin
      (* Serves scan from now on, so the log is dropped, not kept
         growing: nothing would ever consume it again. *)
      t.fifo_monotone <- false;
      let l = t.arrivals in
      l.nodes <- [||];
      l.idxs <- [||];
      l.times <- [||];
      l.lhead <- 0;
      l.llen <- 0
    end
    else begin
      t.clocks.last_arrival <- time;
      log_push t.arrivals ~node ~idx:t.arrival_idx.(node) time
    end
  end;
  t.arrival_idx.(node) <- t.arrival_idx.(node) + 1;
  t.total_pending <- t.total_pending + 1

(* Earliest oldest-request time over all nodes, [infinity] if none:
   from the log front while arrivals have been monotone, else by an
   O(n) scan of every node's FIFO head. Inlined so that its float
   result is not boxed. *)
let[@inline] earliest_outstanding t =
  if t.fifo_monotone then begin
    let l = t.arrivals in
    while
      l.llen > 0 && l.idxs.(l.lhead) < t.served_idx.(l.nodes.(l.lhead))
    do
      l.lhead <- (l.lhead + 1) land (Array.length l.nodes - 1);
      l.llen <- l.llen - 1
    done;
    if l.llen = 0 then infinity else l.times.(l.lhead)
  end
  else begin
    let best = ref infinity in
    for v = 0 to t.n - 1 do
      let q = t.pending.(v) in
      if q.len > 0 && q.buf.(q.head) < !best then best := q.buf.(q.head)
    done;
    !best
  end

(* Out of line for the same reason as [stream_add]. *)
let[@inline never] add_waited t node x =
  stream_add t.waiting x;
  Summary.add t.waiting_per_node.(node) x

let on_serve t ~time ~node =
  let q = t.pending.(node) in
  if q.len = 0 then invalid_arg "Metrics.on_serve: no outstanding request at node";
  let arrival = q.buf.(q.head) in
  fifo_drop q;
  t.served_idx.(node) <- t.served_idx.(node) + 1;
  (* [arrival] has already been popped, but it still bounds the window:
     the demand window opened at the earliest outstanding request,
     which is [min arrival (earliest remaining)], and never before the
     previous serve. Compared at float type, with the operand order of
     [Stdlib.min] and [Stdlib.max]. *)
  let earliest = earliest_outstanding t in
  let window_open = if arrival <= earliest then arrival else earliest in
  let last = t.clocks.last_service in
  let window_open = if window_open >= last then window_open else last in
  stream_add t.responsiveness (time -. window_open);
  add_waited t node (time -. arrival);
  t.total_pending <- t.total_pending - 1;
  t.serves <- t.serves + 1;
  t.clocks.last_service <- time

let on_message t channel cls =
  (match cls with
  | Token_msg -> t.token_messages <- t.token_messages + 1
  | Control_msg -> t.control_messages <- t.control_messages + 1);
  match channel with
  | Network.Cheap -> t.cheap_messages <- t.cheap_messages + 1
  | Network.Reliable -> ()

let on_token_possession t ~node =
  t.possessions.(node) <- t.possessions.(node) + 1;
  t.total_possessions <- t.total_possessions + 1

let on_search_forward t = t.search_forwards <- t.search_forwards + 1
let pending t ~node = t.pending.(node).len

let oldest_arrival t ~node =
  let q = t.pending.(node) in
  if q.len = 0 then None else Some q.buf.(q.head)

let total_pending t = t.total_pending
let serves t = t.serves
let responsiveness t = t.responsiveness.summary
let responsiveness_quantiles t = t.responsiveness.exact
let responsiveness_sketches t = t.responsiveness.sketches
let waiting t = t.waiting.summary
let waiting_quantiles t = t.waiting.exact
let waiting_sketches t = t.waiting.sketches
let token_messages t = t.token_messages
let control_messages t = t.control_messages
let cheap_messages t = t.cheap_messages
let search_forwards t = t.search_forwards
let possessions t ~node = t.possessions.(node)
let total_possessions t = t.total_possessions
let max_possessions t = Array.fold_left Stdlib.max 0 t.possessions

let waiting_by_node t ~node = t.waiting_per_node.(node)

let waiting_fairness t =
  let means =
    Array.to_list t.waiting_per_node
    |> List.filter_map (fun s ->
           if Summary.count s > 0 then Some (Summary.mean s) else None)
  in
  match means with
  | [] -> nan
  | _ ->
      let k = float_of_int (List.length means) in
      let sum = List.fold_left ( +. ) 0.0 means in
      let sum_sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 means in
      if sum_sq = 0.0 then 1.0 else sum *. sum /. (k *. sum_sq)

let possession_imbalance t =
  if t.total_possessions = 0 then nan
  else
    let mean = float_of_int t.total_possessions /. float_of_int t.n in
    float_of_int (max_possessions t) /. mean

let report ppf t =
  Format.fprintf ppf "serves: %d (pending %d)@\n" t.serves t.total_pending;
  Format.fprintf ppf "responsiveness: %a@\n" Summary.pp t.responsiveness.summary;
  Format.fprintf ppf "waiting:        %a@\n" Summary.pp t.waiting.summary;
  Format.fprintf ppf "messages: token=%d control=%d (cheap-channel=%d)@\n"
    t.token_messages t.control_messages t.cheap_messages;
  Format.fprintf ppf "search forwards: %d@\n" t.search_forwards;
  Format.fprintf ppf "possessions: total=%d max=%d imbalance=%.3g@\n"
    t.total_possessions (max_possessions t) (possession_imbalance t);
  Format.fprintf ppf "waiting fairness (Jain): %.3f@\n" (waiting_fairness t)
