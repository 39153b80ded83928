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
  trace_window : int option;
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
    trace_window = None;
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
   the queue holds only handles. [tag] discriminates, and only the
   fields of the active tag are meaningful. The scalar fields are
   immediate arrays, so filling them in takes no write barrier; a
   Deliver's message and an Arrival's node list are the only pointer
   stores, each blanked again when the event is dispatched. *)
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
    queue : int Pqueue.t; (* event handles *)
    events : arena;
    clock : clock;
    net_rng : Rng.t;
    workload : Workload.t;
    metrics : Metrics.t;
    trace : Trace.t;
    tracing : bool; (* [Trace.enabled trace], read once at [create] *)
    crashed : bool array;
    (* Timer epochs, scalar-keyed: slot [node * keyspace + key]. The
       keyspace grows (rebuilding the table) if a protocol uses a key
       >= the current bound; existing protocols use keys 1..5. *)
    mutable timer_epochs : int array;
    mutable keyspace : int;
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
    Pqueue.push t.queue ~time h

  let push_timer t ~time ~node ~key ~epoch =
    let a = t.events in
    let h = alloc a Timer ~src:node in
    a.dst.(h) <- key;
    a.epoch.(h) <- epoch;
    Pqueue.push t.queue ~time h

  (* ---------------- timer epochs ---------------- *)

  let grow_keyspace t key =
    let keyspace' = ref (Int.max 8 (2 * t.keyspace)) in
    while key >= !keyspace' do
      keyspace' := 2 * !keyspace'
    done;
    let keyspace' = !keyspace' in
    let table = Array.make (t.config.n * keyspace') 0 in
    for node = 0 to t.config.n - 1 do
      for k = 0 to t.keyspace - 1 do
        table.((node * keyspace') + k) <- t.timer_epochs.((node * t.keyspace) + k)
      done
    done;
    t.timer_epochs <- table;
    t.keyspace <- keyspace'

  let timer_epoch t ~node ~key =
    if key < t.keyspace then t.timer_epochs.((node * t.keyspace) + key) else 0

  let bump_timer_epoch t ~node ~key =
    if key >= t.keyspace then grow_keyspace t key;
    let i = (node * t.keyspace) + key in
    t.timer_epochs.(i) <- t.timer_epochs.(i) + 1

  let check_timer_key key =
    if key < 0 then invalid_arg "Engine: negative timer key"

  (* ---------------- node contexts ---------------- *)

  let make_ctx t node : P.msg Node_intf.ctx =
    let rng = Rng.create ((t.config.seed * 1_000_003) + node) in
    let send ?(channel = Network.Reliable) ~dst msg =
      if dst < 0 || dst >= t.config.n then
        invalid_arg "Engine: send destination out of range";
      Metrics.on_message t.metrics channel (P.classify msg);
      if t.tracing then
        Trace.record t.trace ~time:t.clock.now
          (Trace.Sent { src = node; dst; channel; label = P.label msg });
      (* Chaos interposition, delivery side: the injector decides drop /
         duplicate / extra delay / corrupt for every protocol send. The
         simulator has no bytes, so a corrupted message is modelled as
         detect-and-drop — the abstract reading of the live decoder
         discarding a mangled frame and resyncing. *)
      let chaos_action =
        match t.config.chaos with
        | None -> None
        | Some inj ->
            Some (Tr_chaos.Injector.on_send inj ~now:t.clock.now ~src:node ~dst)
      in
      let chaos_dropped =
        match chaos_action with
        | Some a -> a.Tr_chaos.Injector.drop || a.Tr_chaos.Injector.corrupt
        | None -> false
      in
      if
        chaos_dropped
        || Network.dropped t.config.network t.net_rng channel ~src:node ~dst
      then begin
        if t.tracing then
          Trace.record t.trace ~time:t.clock.now
            (Trace.Dropped { src = node; dst; label = P.label msg })
      end
      else begin
        let delay =
          Network.sample_delay t.config.network t.net_rng channel ~src:node
            ~dst
        in
        let copies, extra_delay =
          match chaos_action with
          | Some a -> (a.Tr_chaos.Injector.copies, a.Tr_chaos.Injector.extra_delay)
          | None -> (1, 0.0)
        in
        for _ = 1 to copies do
          let a = t.events in
          let h = alloc a Deliver ~src:node in
          a.dst.(h) <- dst;
          a.msgs.(h) <- Obj.repr msg;
          Pqueue.push t.queue ~time:(t.clock.now +. delay +. extra_delay) h
        done
      end
    in
    let set_timer ~delay ~key =
      if delay < 0.0 then invalid_arg "Engine: negative timer delay";
      check_timer_key key;
      let delay =
        match t.config.chaos with
        | None -> delay
        | Some inj ->
            delay *. Tr_chaos.Injector.timer_scale inj ~now:t.clock.now ~node
      in
      push_timer t ~time:(t.clock.now +. delay) ~node ~key
        ~epoch:(timer_epoch t ~node ~key)
    in
    let cancel_timers ~key =
      check_timer_key key;
      bump_timer_epoch t ~node ~key
    in
    let serve () =
      if Metrics.pending t.metrics ~node = 0 then
        invalid_arg
          (Printf.sprintf "Engine: node %d served with no pending request" node);
      (* The option is only built when a trace wants the waited time. *)
      if t.tracing then begin
        let arrival = Option.get (Metrics.oldest_arrival t.metrics ~node) in
        Trace.record t.trace ~time:t.clock.now
          (Trace.Served { node; waited = t.clock.now -. arrival })
      end;
      Metrics.on_serve t.metrics ~time:t.clock.now ~node;
      (* A [Continuous] competitor re-requests the moment it is served
         (Theorem 3's adversary). *)
      if Workload.wants_immediate_rerequest t.workload node then
        push_arrival t ~time:t.clock.now [ node ]
    in
    {
      Node_intf.self = node;
      n = t.config.n;
      now = (fun () -> t.clock.now);
      rng;
      send;
      set_timer;
      cancel_timers;
      serve;
      pending = (fun () -> Metrics.pending t.metrics ~node);
      possession =
        (fun () ->
          Metrics.on_token_possession t.metrics ~node;
          if t.tracing then
            Trace.record t.trace ~time:t.clock.now (Trace.Token_at { node }));
      search_forward = (fun () -> Metrics.on_search_forward t.metrics);
      note =
        (fun thunk ->
          if t.tracing then
            Trace.record t.trace ~time:t.clock.now
              (Trace.Note { node; text = thunk () }));
    }

  let create config =
    if config.n < 2 then invalid_arg "Engine.create: n < 2";
    let workload =
      Workload.make config.workload ~n:config.n
        ~rng:(Rng.create (config.seed lxor 0x5DEECE66D))
    in
    let keyspace = 8 in
    let trace =
      Trace.create ~enabled:config.trace ?window:config.trace_window ()
    in
    let t =
      {
        config;
        states = [||];
        ctxs = [||];
        queue = Pqueue.create ();
        events = create_arena ();
        clock = { now = 0.0 };
        net_rng = Rng.create (config.seed lxor 0x2545F491);
        workload;
        metrics = Metrics.create ~n:config.n;
        trace;
        tracing = Trace.enabled trace;
        crashed = Array.make config.n false;
        timer_epochs = Array.make (config.n * keyspace) 0;
        keyspace;
        events_processed = 0;
        initialized = false;
      }
    in
    t.ctxs <- Array.init config.n (fun node -> make_ctx t node);
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
        Pqueue.push t.queue ~time (alloc t.events Crash ~src:node))
      t.config.crashes

  let initialize t =
    if not t.initialized then begin
      t.initialized <- true;
      schedule_first_arrival t;
      schedule_crashes t
    end

  (* Churn: a node inside a down-window is unreachable — deliveries to
     it are destroyed (that is the fault being injected: a token sent to
     a churned node is lost). *)
  let chaos_down t node =
    match t.config.chaos with
    | None -> false
    | Some inj -> Tr_chaos.Injector.node_down inj ~now:t.clock.now ~node

  let deliver t ~src ~dst ~msg =
    if not (t.crashed.(dst) || chaos_down t dst) then begin
      if t.tracing then
        Trace.record t.trace ~time:t.clock.now
          (Trace.Delivered { src; dst; label = P.label msg });
      t.states.(dst) <- P.on_message t.ctxs.(dst) t.states.(dst) ~src msg
    end

  let fire_timer t ~node ~key ~epoch =
    if (not t.crashed.(node)) && epoch >= timer_epoch t ~node ~key then begin
      (* Unlike deliveries, a down node's timers are parked, not lost:
         they re-fire when the node rejoins, so timeout-driven recovery
         (token regeneration) resumes against its stale state. *)
      let resume =
        match t.config.chaos with
        | None -> t.clock.now
        | Some inj -> Tr_chaos.Injector.down_until inj ~now:t.clock.now ~node
      in
      if resume > t.clock.now then
        push_timer t ~time:(resume +. 1e-9) ~node ~key ~epoch
      else t.states.(node) <- P.on_timer t.ctxs.(node) t.states.(node) ~key
    end

  let arrive t nodes =
    let live node = not (t.crashed.(node) || chaos_down t node) in
    List.iter
      (fun node ->
        if live node then begin
          Metrics.on_request t.metrics ~time:t.clock.now ~node;
          if t.tracing then
            Trace.record t.trace ~time:t.clock.now (Trace.Request { node });
          t.states.(node) <- P.on_request t.ctxs.(node) t.states.(node)
        end)
      nodes

  let crash t node =
    t.crashed.(node) <- true;
    Trace.record t.trace ~time:t.clock.now (Trace.Crashed { node })

  let run t ~stop =
    initialize t;
    let { time_limit; serves_limit; token_limit } = compile_stop stop in
    let q = t.queue in
    let continue = ref true in
    while !continue do
      (* The next event's time, read once; [infinity] on an empty queue,
         which the [len] test below stops on. It is read from the
         private record: [Pqueue.top_time_exn] would return it boxed. *)
      let time = if q.Pqueue.len = 0 then infinity else q.Pqueue.times.(0) in
      if
        t.clock.now > time_limit
        || Metrics.serves t.metrics >= serves_limit
        || Metrics.token_messages t.metrics >= token_limit
        (* Horizon check: with an [At_time] bound we must not pop events
           past it, so the clock never overshoots a time-limited run. *)
        || q.Pqueue.len = 0
        || time > time_limit
      then continue := false
      else begin
        let h = Pqueue.pop_exn q in
        t.events_processed <- t.events_processed + 1;
        let now = t.clock.now in
        t.clock.now <- (if now >= time then now else time);
        (* Copy the fields out, blank the pointer slot, free the handle,
           then dispatch — the handler's own sends may reuse it
           immediately. *)
        let a = t.events in
        let src = a.src.(h) in
        match a.tags.(h) with
        | Deliver ->
            let dst = a.dst.(h) and msg : P.msg = Obj.obj a.msgs.(h) in
            a.msgs.(h) <- no_msg;
            free a h;
            deliver t ~src ~dst ~msg
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
