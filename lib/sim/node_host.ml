type 'msg t = {
  n : int;
  seed : int;
  classify : 'msg -> Metrics.msg_class;
  metrics : Metrics.t;
  observe : 'msg Node_intf.observer option;
  chaos : Tr_chaos.Injector.t option;
  lock : Mutex.t option;
  instants : float array;
  stamp : int -> unit;
      (** [stamp node] leaves the instant of [node]'s running handler
          in [instants.(node)]: a float array holds it unboxed. *)
  (* [epochs.(node).(key)]; a key past its row is epoch 0. A row
     grows when its own node cancels a key past its end. *)
  epochs : int array array;
}

let create (type m) (module P : Node_intf.PROTOCOL with type msg = m) ~n ~seed
    ~metrics ?observe ~chaos ?lock ~instants ~stamp () : m t =
  {
    n;
    seed;
    classify = P.classify;
    metrics;
    observe;
    chaos;
    lock;
    instants;
    stamp;
    epochs = Array.init n (fun _ -> Array.make 8 0);
  }

let tee a b =
  match (a, b) with
  | None, o | o, None -> o
  | Some f, Some g -> Some (fun ~time e -> f ~time e; g ~time e)

(* [@inline]: on the simulator's per-event path, which has no lock and
   usually no observer, each of these helpers costs one test, not a
   call. Each event kind is built at one site below, inside the test,
   so no event is allocated when no observer is attached. *)
let[@inline] now h node =
  h.stamp node;
  h.instants.(node)

let[@inline] lock h = match h.lock with Some mu -> Mutex.lock mu | None -> ()

let[@inline] unlock h =
  match h.lock with Some mu -> Mutex.unlock mu | None -> ()

let[@inline] epoch h ~node ~key =
  let row = h.epochs.(node) in
  if key < Array.length row then row.(key) else 0

let[@inline] timer_live h ~node ~key ~epoch:e = e >= epoch h ~node ~key

let check_key key = if key < 0 then invalid_arg "Node_host: negative timer key"

let cancel h ~node ~key =
  check_key key;
  let row = h.epochs.(node) in
  if key >= Array.length row then begin
    let row' = Array.make (Int.max (2 * Array.length row) (key + 1)) 0 in
    Array.blit row 0 row' 0 (Array.length row);
    h.epochs.(node) <- row'
  end;
  let row = h.epochs.(node) in
  row.(key) <- row.(key) + 1

let[@inline] down h ~node =
  match h.chaos with
  | None -> false
  | Some inj -> Tr_chaos.Injector.node_down inj ~now:(now h node) ~node

let down_until h ~node =
  match h.chaos with
  | None -> now h node
  | Some inj -> Tr_chaos.Injector.down_until inj ~now:(now h node) ~node

let[@inline] request h ~time ~node =
  lock h;
  Metrics.on_request h.metrics ~time ~node;
  unlock h;
  match h.observe with Some f -> f ~time (Request { node }) | None -> ()

let[@inline] delivered h ~src ~dst msg =
  match h.observe with
  | Some f -> f ~time:(now h dst) (Delivered { src; dst; msg })
  | None -> ()

let dropped h ~src ~dst msg =
  match h.observe with
  | Some f -> f ~time:(now h src) (Dropped { src; dst; msg })
  | None -> ()

let[@inline] timer_fired h ~node ~key =
  match h.observe with
  | Some f -> f ~time:(now h node) (Timer_fired { node; key })
  | None -> ()

let crashed h ~node =
  match h.observe with
  | Some f -> f ~time:(now h node) (Crashed { node })
  | None -> ()

let ctx h node ~leave ~arm ~served : _ Node_intf.ctx =
  let send ?(channel = Network.Reliable) ~dst msg =
    if dst < 0 || dst >= h.n then
      invalid_arg "Node_host: send destination out of range";
    let cls = h.classify msg in
    lock h;
    Metrics.on_message h.metrics channel cls;
    unlock h;
    (match h.observe with
    | Some f -> f ~time:(now h node) (Sent { src = node; dst; channel; msg })
    | None -> ());
    (* The message is counted and observed before it leaves: the trace
       digests pin the Sent line ahead of any Dropped line, and the
       simulator's leave draws chaos and network randomness in a fixed
       order that this must not move. *)
    leave ~src:node ~dst channel msg
  in
  let set_timer ~delay ~key =
    if delay < 0.0 then invalid_arg "Node_host: negative timer delay";
    check_key key;
    let epoch = epoch h ~node ~key in
    match h.chaos with
    | None -> arm ~node ~delay ~key ~epoch
    | Some inj ->
        let scale = Tr_chaos.Injector.timer_scale inj ~now:(now h node) ~node in
        arm ~node ~delay:(delay *. scale) ~key ~epoch
  in
  let serve () =
    let time = now h node in
    if Metrics.pending h.metrics ~node = 0 then
      invalid_arg
        (Printf.sprintf "Node_host: node %d served with no pending request"
           node);
    (* Outside the lock, like every emit: an observer may call back into
       the runtime. *)
    (match h.observe with
    | Some f ->
        f ~time
          (Served
             { node; waited = time -. Metrics.oldest_arrival_exn h.metrics ~node })
    | None -> ());
    lock h;
    Metrics.on_serve h.metrics ~time ~node;
    (* Read in the same critical section as this serve's own count, so
       the serve that reaches a runtime's stop target sees it. *)
    let serves = Metrics.serves h.metrics in
    unlock h;
    served ~node ~serves
  in
  {
    Node_intf.self = node;
    n = h.n;
    now = (fun () -> now h node);
    rng = Rng.create ((h.seed * 1_000_003) + node);
    send;
    set_timer;
    cancel_timers = cancel h ~node;
    serve;
    (* No lock: only this node's requests and serves change its count. *)
    pending = (fun () -> Metrics.pending h.metrics ~node);
    possession =
      (fun () ->
        lock h;
        Metrics.on_token_possession h.metrics ~node;
        unlock h;
        match h.observe with
        | Some f -> f ~time:(now h node) (Token_at { node })
        | None -> ());
    search_forward =
      (fun () ->
        lock h;
        Metrics.on_search_forward h.metrics;
        unlock h;
        match h.observe with
        | Some f -> f ~time:(now h node) (Search_forward { node })
        | None -> ());
    note =
      (fun thunk ->
        match h.observe with
        | Some f -> f ~time:(now h node) (Note { node; text = thunk () })
        | None -> ());
  }
