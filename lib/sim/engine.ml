type stop =
  | At_time of float
  | After_serves of int
  | After_token_messages of int
  | First_of of stop list

type config = {
  n : int;
  seed : int;
  network : Network.t;
  workload : Workload.spec;
  trace : bool;
  crashes : (float * int) list;
  chaos : Tr_chaos.Injector.t option;
}

let default_config ~n ~seed =
  {
    n;
    seed;
    network = Network.default;
    workload = Workload.Nothing;
    trace = false;
    crashes = [];
    chaos = None;
  }

(* [stop] trees compile to three scalar limits: [stop_reached] is an OR
   over leaves, and OR of [clock > l_i] (resp. [serves >= k_i]) is
   exactly [clock > min l_i] (resp. [>= min k_i]); [within_horizon]'s
   [for_all] over [First_of] takes the same minimum over [At_time]
   leaves. Checking per event is then three scalar compares with no list
   walk and no closure. *)
type compiled_stop = {
  time_limit : float; (* infinity when no At_time leaf *)
  serves_limit : int; (* max_int when no After_serves leaf *)
  token_limit : int; (* max_int when no After_token_messages leaf *)
}

let rec compile_stop acc = function
  | At_time limit ->
      let l = acc.time_limit in
      { acc with time_limit = (if l <= limit then l else limit) }
  | After_serves k -> { acc with serves_limit = Int.min acc.serves_limit k }
  | After_token_messages k ->
      { acc with token_limit = Int.min acc.token_limit k }
  | First_of stops -> List.fold_left compile_stop acc stops

let compile_stop stop =
  compile_stop
    { time_limit = infinity; serves_limit = max_int; token_limit = max_int }
    stop

(* ---------------- event arena ---------------- *)

(* An event is an int handle into the parallel arrays of an [arena];
   the queue is an [Int_heap] of handles, so queueing an event stores
   only floats and ints. [tag] discriminates, and only the fields of the
   active tag are meaningful. The scalar fields are immediate arrays, so
   filling them in takes no write barrier; a Deliver's message and an
   Arrival's node list are the only pointer stores. An Arrival's list is
   blanked when the event is dispatched, a Deliver's message unless the
   handler's own send took the handle back (see [run]). *)
type event_tag = Deliver | Timer | Arrival | Crash

type arena = {
  mutable tags : event_tag array;
  mutable src : int array; (* Deliver src; Timer/Crash node *)
  mutable dst : int array; (* Deliver dst; Timer key *)
  mutable epoch : int array; (* Timer *)
  (* Deliver messages. [Obj.t], created from an immediate, so that a
     protocol whose messages are floats cannot make this a flat float
     array. *)
  mutable msgs : Obj.t array;
  mutable nodes : int list array; (* Arrival *)
  mutable free : int array; (* free handles: [free.(0 .. free_len - 1)] *)
  mutable free_len : int;
}

(* Filler for blank [msgs] slots: an immediate, so a dispatched event
   pins no message. *)
let no_msg = Obj.repr 0

let create_arena () =
  {
    tags = [||];
    src = [||];
    dst = [||];
    epoch = [||];
    msgs = [||];
    nodes = [||];
    free = [||];
    free_len = 0;
  }

(* Only called with every handle live: the new handles
   [cap .. cap' - 1] fill the free stack, lowest on top. *)
let grow_arena a =
  let cap = Array.length a.tags in
  let cap' = Int.max 64 (2 * cap) in
  let extend arr filler =
    let arr' = Array.make cap' filler in
    Array.blit arr 0 arr' 0 cap;
    arr'
  in
  a.tags <- extend a.tags Crash;
  a.src <- extend a.src 0;
  a.dst <- extend a.dst 0;
  a.epoch <- extend a.epoch 0;
  a.msgs <- extend a.msgs no_msg;
  a.nodes <- extend a.nodes [];
  a.free <- Array.init cap' (fun i -> cap' - 1 - i);
  a.free_len <- cap' - cap

(* A fresh handle whose event is [tag] from [src]; the caller fills in
   the tag's other fields. *)
let alloc a tag ~src =
  if a.free_len = 0 then grow_arena a;
  a.free_len <- a.free_len - 1;
  let h = a.free.(a.free_len) in
  a.tags.(h) <- tag;
  a.src.(h) <- src;
  h

let free a h =
  a.free.(a.free_len) <- h;
  a.free_len <- a.free_len + 1

(* The chaos action of a send that has no injector: one copy, on time. *)
let no_chaos =
  {
    Tr_chaos.Injector.drop = false;
    copies = 1;
    extra_delay = 0.0;
    corrupt = false;
    link_count = 0;
  }

module Make (P : Node_intf.PROTOCOL) = struct
  (* The simulated time, alone in an all-float record: stored flat, so
     advancing it per event writes a float in place instead of boxing
     one into [t]. *)
  type clock = { mutable now : float }

  type t = {
    config : config;
    (* [states] and [ctxs] are populated during [create]; handlers always
       access them through [t], so mutation is visible to every closure. *)
    mutable states : P.state array;
    mutable ctxs : P.msg Node_intf.ctx array;
    queue : Int_heap.t; (* event handles *)
    events : arena;
    clock : clock;
    net_rng : Rng.t;
    (* [Network.fixed_delay] per channel, read once at [create]; [None]
       on every channel under chaos. A send on a fixed channel is queued
       at that delay and draws nothing. *)
    reliable_fixed : float option;
    cheap_fixed : float option;
    workload : Workload.t;
    metrics : Metrics.t;
    trace : Trace.t;
    host : P.msg Node_host.t;
    crashed : bool array;
    mutable events_processed : int;
    mutable initialized : bool;
  }

  let now t = t.clock.now
  let metrics t = t.metrics
  let trace t = t.trace
  let state t i = t.states.(i)
  let crashed t i = t.crashed.(i)
  let events_processed t = t.events_processed

  (* ---------------- scheduling ---------------- *)

  let push_arrival t ~time nodes =
    let a = t.events in
    let h = alloc a Arrival ~src:0 in
    a.nodes.(h) <- nodes;
    Int_heap.push t.queue ~time h

  let push_deliver t ~time ~src ~dst (msg : P.msg) =
    let a = t.events in
    let h = alloc a Deliver ~src in
    a.dst.(h) <- dst;
    a.msgs.(h) <- Obj.repr msg;
    Int_heap.push t.queue ~time h

  let push_timer t ~time ~node ~key ~epoch =
    let a = t.events in
    let h = alloc a Timer ~src:node in
    a.dst.(h) <- key;
    a.epoch.(h) <- epoch;
    Int_heap.push t.queue ~time h

  (* ---------------- runtime hooks ---------------- *)

  (* How a counted send leaves: queued at the channel's fixed delay, or
     through chaos and the network model. *)
  let[@inline] leave t ~src ~dst channel (msg : P.msg) =
    let fixed =
      match channel with
      | Network.Reliable -> t.reliable_fixed
      | Network.Cheap -> t.cheap_fixed
    in
    match fixed with
    | Some delay -> push_deliver t ~time:(t.clock.now +. delay) ~src ~dst msg
    | None -> (
        (* Chaos interposition, delivery side: the injector decides
           drop / duplicate / extra delay / corrupt for every protocol
           send. The simulator has no bytes, so a corrupted message is
           modelled as detect-and-drop — the abstract reading of the
           live decoder discarding a mangled frame and resyncing. The
           injector is asked first, the network's drop only when chaos
           keeps the message, and the delay sampled last: each seeded
           run replays its chaos schedule and network draws only while
           this order holds. *)
        let action =
          match t.config.chaos with
          | None -> no_chaos
          | Some inj -> Tr_chaos.Injector.on_send inj ~now:t.clock.now ~src ~dst
        in
        if
          action.Tr_chaos.Injector.drop || action.Tr_chaos.Injector.corrupt
          || Network.dropped t.config.network t.net_rng channel ~src ~dst
        then Node_host.dropped t.host ~src ~dst msg
        else
          let delay =
            Network.sample_delay t.config.network t.net_rng channel ~src ~dst
          in
          let time =
            t.clock.now +. delay +. action.Tr_chaos.Injector.extra_delay
          in
          for _ = 1 to action.Tr_chaos.Injector.copies do
            push_deliver t ~time ~src ~dst msg
          done)

  let[@inline] arm t ~node ~delay ~key ~epoch =
    push_timer t ~time:(t.clock.now +. delay) ~node ~key ~epoch

  (* A [Continuous] competitor re-requests the moment it is served
     (Theorem 3's adversary). *)
  let[@inline] served t ~node ~serves:_ =
    if Workload.wants_immediate_rerequest t.workload node then
      push_arrival t ~time:t.clock.now [ node ]

  let create ?observe config =
    if config.n < 2 then invalid_arg "Engine.create: n < 2";
    let workload =
      Workload.make config.workload ~n:config.n
        ~rng:(Rng.create (config.seed lxor 0x5DEECE66D))
    in
    let fixed channel =
      match config.chaos with
      | None -> Network.fixed_delay config.network channel
      | Some _ -> None
    in
    let clock = { now = 0.0 } in
    let metrics = Metrics.create ~n:config.n in
    let trace = Trace.create () in
    let observe =
      if config.trace then
        Node_host.tee (Some (Trace.observe trace ~label:P.label)) observe
      else observe
    in
    (* Every node's instant is the engine's clock, copied on demand. *)
    let instants = Array.make config.n 0.0 in
    let t =
      {
        config;
        states = [||];
        ctxs = [||];
        queue = Int_heap.create ();
        events = create_arena ();
        clock;
        net_rng = Rng.create (config.seed lxor 0x2545F491);
        reliable_fixed = fixed Network.Reliable;
        cheap_fixed = fixed Network.Cheap;
        workload;
        metrics;
        trace;
        host =
          Node_host.create
            (module P)
            ~n:config.n ~seed:config.seed ~metrics ?observe ~chaos:config.chaos
            ~instants
            ~stamp:(fun node -> instants.(node) <- clock.now)
            ();
        crashed = Array.make config.n false;
        events_processed = 0;
        initialized = false;
      }
    in
    (* Closures, not partial applications: each hook's body inlines
       into the one closure the host calls. *)
    let leave ~src ~dst channel msg = leave t ~src ~dst channel msg
    and arm ~node ~delay ~key ~epoch = arm t ~node ~delay ~key ~epoch
    and served ~node ~serves = served t ~node ~serves in
    t.ctxs <-
      Array.init config.n (fun node ->
          Node_host.ctx t.host node ~leave ~arm ~served);
    t.states <- Array.init config.n (fun node -> P.init t.ctxs.(node));
    t

  let schedule_first_arrival t =
    match Workload.first t.workload with
    | None -> ()
    | Some (time, nodes) -> push_arrival t ~time nodes

  let schedule_next_arrival t ~after =
    match Workload.next t.workload ~after with
    | None -> ()
    | Some (time, nodes) ->
        let now = t.clock.now in
        push_arrival t ~time:(if time >= now then time else now) nodes

  let schedule_crashes t =
    List.iter
      (fun (time, node) ->
        if node < 0 || node >= t.config.n then
          invalid_arg "Engine: crash node out of range";
        Int_heap.push t.queue ~time (alloc t.events Crash ~src:node))
      t.config.crashes

  let initialize t =
    if not t.initialized then begin
      t.initialized <- true;
      schedule_first_arrival t;
      schedule_crashes t
    end

  (* A churned node is unreachable: a token sent to it is lost, which is
     the fault being injected. *)
  let deliver t ~src ~dst ~msg =
    if not (t.crashed.(dst) || Node_host.down t.host ~node:dst) then begin
      Node_host.delivered t.host ~src ~dst msg;
      t.states.(dst) <- P.on_message t.ctxs.(dst) t.states.(dst) ~src msg
    end

  let fire_timer t ~node ~key ~epoch =
    if (not t.crashed.(node)) && Node_host.timer_live t.host ~node ~key ~epoch
    then begin
      (* Unlike deliveries, a down node's timers are parked, not lost:
         they re-fire when the node rejoins, so timeout-driven recovery
         (token regeneration) resumes against its stale state. *)
      if Node_host.down t.host ~node then
        let resume = Node_host.down_until t.host ~node in
        push_timer t ~time:(resume +. 1e-9) ~node ~key ~epoch
      else begin
        Node_host.timer_fired t.host ~node ~key;
        t.states.(node) <- P.on_timer t.ctxs.(node) t.states.(node) ~key
      end
    end

  let arrive t nodes =
    let live node = not (t.crashed.(node) || Node_host.down t.host ~node) in
    List.iter
      (fun node ->
        if live node then begin
          Node_host.request t.host ~time:t.clock.now ~node;
          t.states.(node) <- P.on_request t.ctxs.(node) t.states.(node)
        end)
      nodes

  let crash t node =
    t.crashed.(node) <- true;
    Node_host.crashed t.host ~node

  let run t ~stop =
    initialize t;
    let { time_limit; serves_limit; token_limit } = compile_stop stop in
    let q = t.queue in
    let continue = ref true in
    while !continue do
      (* The next event's time, read once; [infinity] on an empty queue,
         which the [len] test below stops on. It is read from the
         private record: a function returning it would box it. *)
      let time =
        if q.Int_heap.len = 0 then infinity else q.Int_heap.times.(0)
      in
      if
        t.clock.now > time_limit
        || Metrics.serves t.metrics >= serves_limit
        || Metrics.token_messages t.metrics >= token_limit
        (* Horizon check: with an [At_time] bound we must not pop events
           past it, so the clock never overshoots a time-limited run. *)
        || q.Int_heap.len = 0
        || time > time_limit
      then continue := false
      else begin
        let h = Int_heap.pop_exn q in
        t.events_processed <- t.events_processed + 1;
        let now = t.clock.now in
        t.clock.now <- (if now >= time then now else time);
        (* Copy the fields out, free the handle, then dispatch: the
           handler's first new event takes this handle straight back
           off the free stack. *)
        let a = t.events in
        let src = a.src.(h) in
        match a.tags.(h) with
        | Deliver ->
            let dst = a.dst.(h) and msg : P.msg = Obj.obj a.msgs.(h) in
            free a h;
            let mark = a.free_len in
            deliver t ~src ~dst ~msg;
            (* Blank the message slot only if no send refilled it. On a
               token pass the handler's send stores its (young) message
               over the delivered (young) one, which the write barrier
               passes over; blanking first and storing again would put
               the slot in the remembered set on every delivery. The
               handle is still free if it still sits at [mark - 1]: no
               event is freed during a dispatch, and a grown arena's
               free stack holds only new handles. If something else
               took it, only a Deliver wrote its message slot. *)
            if
              (a.free_len >= mark && a.free.(mark - 1) = h)
              || a.tags.(h) != Deliver
            then a.msgs.(h) <- no_msg
        | Timer ->
            let key = a.dst.(h) and epoch = a.epoch.(h) in
            free a h;
            fire_timer t ~node:src ~key ~epoch
        | Crash ->
            free a h;
            crash t src
        | Arrival ->
            let nodes = a.nodes.(h) in
            a.nodes.(h) <- [];
            free a h;
            let batch_time = t.clock.now in
            arrive t nodes;
            schedule_next_arrival t ~after:batch_time
      end
    done

  let request_now t ~node =
    if node < 0 || node >= t.config.n then
      invalid_arg "Engine.request_now: node out of range";
    initialize t;
    push_arrival t ~time:t.clock.now [ node ]
end
