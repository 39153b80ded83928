open Tr_sim
open Tr_wire

type load =
  | No_load
  | Open_loop of { mean_interarrival : float }
  | Closed_loop of { depth : int }
  | External

type stop = Grants of int | Duration of float

type config = {
  n : int;
  seed : int;
  unit_s : float;
  shards : int;
  load : load;
  stop : stop;
  max_wall_s : float;
  readiness : Readiness.backend option;
  spin : bool;
  inproc : bool;
  chaos : Tr_chaos.Injector.t option;
}

let default_shards n = Stdlib.min n (Stdlib.max 2 (Domain.recommended_domain_count ()))

let default_config ~n ~seed =
  {
    n;
    seed;
    unit_s = 1e-3;
    shards = default_shards n;
    load = No_load;
    stop = Duration 1000.0;
    max_wall_s = 60.0;
    readiness = None;
    spin = false;
    inproc = false;
    chaos = None;
  }

(* Every loopback hop takes one time unit, on either channel, as in the
   simulator's default network; sockets ignore the delay. *)
let hop_units = 1.0

type control = {
  kill : int -> unit;
  request_stop : unit -> unit;
  live_now : unit -> float;
  inject : int -> unit;
  transport_stats : Transport.stats;
  pending_at : int -> int;
}

type report = {
  protocol : string;
  n : int;
  seed : int;
  backend : string;
  readiness : string;
  unit_s : float;
  shards : int;
  wall_s : float;
  duration_units : float;
  grants : int;
  frames_sent : int;
  bytes_sent : int;
  frames_received : int;
  decode_errors : int;
  resync_skips : int;
  reconnects : int;
  frames_dropped : int;
  out_hwm_bytes : int;
  write_syscalls : int;
  read_syscalls : int;
  wait_calls : int;
  fds_registered : int;
  avg_ready_per_wait : float;
  spin_hits : int;
  spin_misses : int;
  inproc_frames : int;
  syscalls_per_grant : float;
  corrupt_frames_detected : int;
  chaos_spec : string;
  chaos_injected : (string * int) list;
  chaos_total_injected : int;
  chaos_digest : int;
  metrics : Metrics.t;
}

type backend_spec =
  | Loopback
  | Sockets of { owned : int list; addrs : Unix.sockaddr array }

(* Per-node live state. [st] is the protocol's pure state; everything
   else is runtime plumbing owned by exactly one shard. *)
type ('state, 'msg) rt = {
  id : int;
  mutable st : 'state;
  ctx : 'msg Node_intf.ctx;
  mutable on_view : Frame.view -> unit;
      (** The node's delivery callback, built once. *)
}

let validate (config : config) =
  if config.n < 2 then invalid_arg "Cluster.run: n < 2";
  if config.shards < 1 then invalid_arg "Cluster.run: shards < 1";
  (* Negated so NaN fails too; [infinity] means no cap. *)
  if not (config.max_wall_s > 0.0) then
    invalid_arg "Cluster.run: max_wall_s must be positive";
  (match config.load with
  | No_load | External -> ()
  | Open_loop { mean_interarrival } ->
      if not (Float.is_finite mean_interarrival) || mean_interarrival <= 0.0
      then invalid_arg "Cluster.run: open-loop mean interarrival <= 0"
  | Closed_loop { depth } ->
      if depth < 1 then invalid_arg "Cluster.run: closed-loop depth < 1");
  match config.stop with
  | Grants k -> if k < 1 then invalid_arg "Cluster.run: grants target < 1"
  | Duration d ->
      if not (Float.is_finite d) || d <= 0.0 then
        invalid_arg "Cluster.run: duration <= 0"

let run (type m) ?observe ?tap ?attach ?(backend = Loopback) config
    (module P : Node_intf.PROTOCOL with type msg = m) (codec : m Codec.t) :
    report =
  validate config;
  let n = config.n in
  let clock = Clock.create ~unit_s:config.unit_s () in
  let transport, owned =
    match backend with
    | Loopback ->
        ( Transport.loopback ?readiness:config.readiness ~clock ~n (),
          List.init n Fun.id )
    | Sockets { owned; addrs } ->
        if owned = [] then invalid_arg "Cluster.run: no nodes to host";
        ( Transport.sockets ?readiness:config.readiness ~spin:config.spin
            ~inproc:config.inproc ~clock ~n ~owned ~addrs (),
          List.sort_uniq compare owned )
  in
  let owned_arr = Array.of_list owned in
  let n_owned = Array.length owned_arr in
  (* The shard layout is fixed before any protocol code runs so the ctx
     closures (set_timer, serve) can address their shard's structures
     directly. *)
  let shards = Stdlib.min config.shards n_owned in
  let shard_of = Array.make n (-1) in
  (* Each shard hosts a contiguous block of the owned ids, so a ring's
     token crosses domains only at the [shards] block edges instead of
     on every hop. *)
  Array.iteri (fun idx i -> shard_of.(i) <- idx * shards / n_owned) owned_arr;
  (* Shard plumbing: the transport's shard (adopted before any domain
     starts, so no wake races its set), an activation mailbox (which
     nodes to step next — the shard never scans its full node list), and
     a timer index heap (earliest due time per armed timer, so an idle
     shard knows exactly how long to sleep). Entries in the index may be
     stale after a cancel; the cost is one spurious activation, never a
     missed timer. *)
  let tshards =
    Array.init shards (fun s ->
        Transport.adopt transport
          ~owners:(List.filter (fun i -> shard_of.(i) = s) owned))
  in
  let act_inbox = Array.init shards (fun _ -> Mailbox.create ()) in
  let timer_index = Array.init shards (fun _ -> Pqueue.create ()) in
  let metrics = Metrics.create ~n in
  (* The host's metrics lock, needed only where several shards write the
     metrics: on one shard the one writer is that shard's domain. *)
  let lock = if shards > 1 then Some (Mutex.create ()) else None in
  let stop_flag = Atomic.make false in
  let alive = Array.init n (fun _ -> Atomic.make true) in
  (* Kills so far: while none, every node is alive, and a step reads
     this one shared counter instead of its node's own flag. A kill
     counts after it clears the flag. *)
  let kills = Atomic.make 0 in
  let is_alive i = Atomic.get kills = 0 || Atomic.get alive.(i) in
  let failure_box : exn option Atomic.t = Atomic.make None in
  let signal_stop () =
    Atomic.set stop_flag true;
    Array.iter Transport.wake tshards
  in
  (* Cross-shard activation: queue the node and poke the shard's pipe
     (level-triggered: a byte written before the shard enters its wait
     still wakes it). *)
  let wake_node i =
    if i >= 0 && i < n && shard_of.(i) >= 0 then begin
      Mailbox.push act_inbox.(shard_of.(i)) i;
      Transport.wake tshards.(shard_of.(i))
    end
  in
  (* A closed-loop re-request never leaves its shard: the serve that
     makes it runs there. Its time waits in the node's own ring and its
     node in the shard's [requeued] list, which the shard drains where
     it drains its mailbox, so the node's next step runs [on_request]
     as a mailbox arrival would have, with no atomic and no
     allocation. A shard's rings share one flat array of its own,
     [local_cap.(s)] slots a node, so that neighbours' times share cache
     lines; a node that needs more slots doubles its shard's rings.
     [local_len.(i)] is also the count [pending_at] adds: an int read
     from another domain never tears. *)
  let local_cap = Array.make shards 1 in
  let local_times = Array.init shards (fun _ -> Array.make n 0.0) in
  let local_head = Array.make n 0 in
  let local_len = Array.make n 0 in
  let requeued = Array.init shards (fun _ -> Array.make 16 0) in
  let requeued_len = Array.make shards 0 in
  let local_slot i k =
    let cap = local_cap.(shard_of.(i)) in
    let p = local_head.(i) + k in
    (i * cap) + if p >= cap then p - cap else p
  in
  let grow_local s =
    let cap = local_cap.(s) in
    let bigger = Array.make (n * 2 * cap) 0.0 in
    for j = 0 to n - 1 do
      if shard_of.(j) = s then begin
        for k = 0 to local_len.(j) - 1 do
          bigger.((j * 2 * cap) + k) <- local_times.(s).(local_slot j k)
        done;
        local_head.(j) <- 0
      end
    done;
    local_times.(s) <- bigger;
    local_cap.(s) <- 2 * cap
  in
  let requeue i at =
    let s = shard_of.(i) in
    let k = local_len.(i) in
    if k = local_cap.(s) then grow_local s;
    local_times.(s).(local_slot i k) <- at;
    local_len.(i) <- k + 1;
    let len = requeued_len.(s) in
    if len = Array.length requeued.(s) then begin
      let bigger = Array.make (2 * len) 0 in
      Array.blit requeued.(s) 0 bigger 0 len;
      requeued.(s) <- bigger
    end;
    requeued.(s).(len) <- i;
    requeued_len.(s) <- len + 1
  in
  (* Timer plumbing, index-addressed so ctx closures need no [rt]. *)
  let timers = Array.init n (fun _ -> Pqueue.create ()) in
  (* [armed.(i)] is the length of [timers.(i)]: a step of a node with
     no timer reads one int, not the queue. *)
  let armed = Array.make n 0 in
  let req_inbox : float Mailbox.t array = Array.init n (fun _ -> Mailbox.create ()) in
  (* Requests pushed but not yet drained by the owning shard. Metrics
     only learn of a request at drain time, so [pending_at] adds this
     on top — otherwise a poll racing the shard (chaos recovery probes)
     reads pending=0 for a request that is merely still in the mailbox. *)
  let req_inflight = Array.init n (fun _ -> Atomic.make 0) in
  (* Requests pushed to a shard's nodes and not yet drained, counted
     before the push: while it reads 0, a step need not look at its
     node's mailbox. *)
  let arriving = Array.init (Stdlib.max 1 shards) (fun _ -> Atomic.make 0) in
  let push_request i at =
    Atomic.incr req_inflight.(i);
    if shard_of.(i) >= 0 then Atomic.incr arriving.(shard_of.(i));
    Mailbox.push req_inbox.(i) at
  in
  (* Chaos holdback: reordered frames wait here (per source node, owned
     by its shard) until their release time, then ship with zero delay —
     one mechanism for both backends, since the sockets transport has no
     delay of its own to piggyback on. *)
  let chaos_out : (int * string) Pqueue.t array =
    match config.chaos with
    | Some _ -> Array.init n (fun _ -> Pqueue.create ())
    | None -> [||]
  in
  let control =
    {
      kill =
        (fun i ->
          if i >= 0 && i < n then begin
            Atomic.set alive.(i) false;
            Atomic.incr kills
          end);
      request_stop = signal_stop;
      live_now = (fun () -> Clock.now clock);
      inject =
        (fun i ->
          (* External request arrival (service front-end): queue it for
             the owning shard and poke that shard's wake pipe. Safe from
             any domain — the mailbox is lock-free. *)
          if i >= 0 && i < n && is_alive i then begin
            push_request i (Clock.now clock);
            wake_node i
          end);
      transport_stats = Transport.stats transport;
      (* Without a lock the count is read while its one writer, the sole
         shard, may be changing it. That is safe: it is one int field,
         and an OCaml 5 int read never tears, so it reads the count from
         just before or just after the change. *)
      pending_at =
        (fun i ->
          if i < 0 || i >= n then 0
          else
            (match lock with
            | Some mu -> Mutex.protect mu (fun () -> Metrics.pending metrics ~node:i)
            | None -> Metrics.pending metrics ~node:i)
            + Atomic.get req_inflight.(i)
            + local_len.(i));
    }
  in
  (* Each handler runs at one instant: the clock is read the first time
     the handler asks (for an event's time, a serve, a due time, a
     re-request or [ctx.now]) and that reading serves the rest of it.
     [fresh] opens a node's slot before each handler; only the node's
     own shard touches it. *)
  let instants = Array.make n Float.nan in
  let stamp i =
    if Float.is_nan instants.(i) then instants.(i) <- Clock.now clock
  in
  let now_at i =
    stamp i;
    instants.(i)
  in
  let fresh i = instants.(i) <- Float.nan in
  let host =
    Node_host.create
      (module P)
      ~n ~seed:config.seed ~metrics ?observe ~chaos:config.chaos ?lock
      ~instants ~stamp ()
  in
  (* Chaos interposition, live side: pre-encode decisions (drop /
     duplicate / reorder), post-encode byte flips for corruption —
     mangled frames go down the real wire and must be absorbed by the
     decoder's resync path on the receiving shard. [scratch] is the
     sending node's own, so steady-state sends allocate no fresh
     buffers. *)
  let leave scratch ~src ~dst channel msg =
    match config.chaos with
    | None ->
        Transport.send_payload transport ~src ~dst ~delay:hop_units
          (Codec.encode_payload scratch codec ~src ~channel msg)
    | Some inj ->
        let now_u = now_at src in
        let a = Tr_chaos.Injector.on_send inj ~now:now_u ~src ~dst in
        if a.Tr_chaos.Injector.drop then Node_host.dropped host ~src ~dst msg
        else begin
          let payload =
            Buffer.contents (Codec.encode_frame scratch codec ~src ~channel msg)
          in
          let payload =
            if a.Tr_chaos.Injector.corrupt then
              Tr_chaos.Injector.corrupt_payload inj ~src ~dst
                ~k:a.Tr_chaos.Injector.link_count payload
            else payload
          in
          for _ = 1 to a.Tr_chaos.Injector.copies do
            if a.Tr_chaos.Injector.extra_delay > 0.0 then begin
              let release =
                now_u +. hop_units +. a.Tr_chaos.Injector.extra_delay
              in
              Pqueue.push chaos_out.(src) ~time:release (dst, payload);
              Pqueue.push timer_index.(shard_of.(src)) ~time:release src
            end
            else Transport.send transport ~src ~dst ~delay:hop_units payload
          done
        end
  in
  let arm ~node ~delay ~key ~epoch =
    let at = now_at node +. delay in
    Pqueue.push timers.(node) ~time:at (key, epoch);
    armed.(node) <- armed.(node) + 1;
    Pqueue.push timer_index.(shard_of.(node)) ~time:at node
  in
  (* [serves] was read under the lock together with this serve's own count:
     a read outside it could miss the serve that reaches [Grants k] on a
     multi-shard run, and no later serve might come to stop it. *)
  let served ~node ~serves =
    (match config.load with
    | Closed_loop _ ->
        (* Re-arm through the shard's queue so the protocol handler
           finishes before the next on_request fires (the simulator
           queues the re-request as an event for the same reason). *)
        requeue node (now_at node)
    | _ -> ());
    match config.stop with
    | Grants k -> if serves >= k then signal_stop ()
    | Duration _ -> ()
  in
  (* A start that fails — a [P.init] or an [attach] that raises — closes
     the transport, whose shards' readiness sets and wake pipes are open
     by now. *)
  let or_close f =
    try f ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Transport.close transport;
      Printexc.raise_with_backtrace e bt
  in
  (* Initialise every hosted node before any shard runs: init sends (the
     initial token) sit queued in the transport until the loops start. *)
  let rts =
    or_close (fun () ->
        List.map
          (fun i ->
            let ctx =
              Node_host.ctx host i ~leave:(leave (Codec.scratch ())) ~arm
                ~served
            in
            { id = i; st = P.init ctx; ctx; on_view = ignore })
          owned)
  in
  (* Closed-loop priming: [depth] outstanding requests per node at t=0. *)
  (match config.load with
  | Closed_loop { depth } ->
      let t0 = Clock.now clock in
      List.iter
        (fun i ->
          for _ = 1 to depth do
            push_request i t0
          done)
        owned
  | _ -> ());
  (* Open-loop generator state: Poisson arrivals over the live hosted
     nodes, pumped by the lead shard. *)
  let open_loop =
    match config.load with
    | Open_loop { mean_interarrival } ->
        let rng = Rng.create (config.seed lxor 0x5DEECE66D) in
        let next = ref (Rng.exponential rng ~mean:mean_interarrival) in
        let pump now_u =
          while !next <= now_u && not (Atomic.get stop_flag) do
            let live = ref 0 in
            for j = 0 to n_owned - 1 do
              if is_alive owned_arr.(j) then incr live
            done;
            (if !live = 0 then signal_stop ()
             else begin
               (* The k-th live owner, in [owned] order. A kill on another
                  shard between the count and this walk can leave fewer
                  than k + 1: then the last owner is picked, as a kill
                  just after the pick would have left it. *)
               let k = ref (Rng.int rng !live) and j = ref 0 in
               while
                 !j < n_owned - 1
                 && (!k > 0 || not (is_alive owned_arr.(!j)))
               do
                 if is_alive owned_arr.(!j) then decr k;
                 incr j
               done;
               let pick = owned_arr.(!j) in
               push_request pick !next;
               wake_node pick
             end);
            next := !next +. Rng.exponential rng ~mean:mean_interarrival
          done
        in
        Some (pump, next)
    | _ -> None
  in
  (* Ship reordered frames whose holdback expired. Runs even while the
     source is churned down — the frames left it before the window. *)
  let flush_chaos_out i now_u =
    if Array.length chaos_out > 0 then begin
      let q = chaos_out.(i) in
      while (not (Pqueue.is_empty q)) && Pqueue.top_time_exn q <= now_u do
        let dst, payload = Pqueue.pop_exn q in
        Transport.send transport ~src:i ~dst ~delay:0.0 payload
      done
    end
  in
  (* One decode cursor per shard, repointed at each frame. *)
  let cursors =
    Array.init shards (fun _ -> Buf.Dec.of_bytes Bytes.empty ~pos:0 ~limit:0)
  in
  (* Deliveries decode straight into the handler: no envelope, result or
     closure is made per frame. *)
  let on_view rt =
    let i = rt.id and cur = cursors.(shard_of.(rt.id)) in
    let on_msg src (_ : Network.channel) msg =
      if is_alive i then begin
        (* Emitted before the handler, which runs whatever the observer
           does: one that kills this node models a crash just after
           handling the message — e.g. while holding a token it has
           already acknowledged. *)
        fresh i;
        Node_host.delivered host ~src ~dst:i msg;
        (match tap with Some f -> f control ~self:i msg | None -> ());
        rt.st <- P.on_message rt.ctx rt.st ~src msg
      end
    in
    let on_error (_ : Buf.error) =
      Transport.count_decode_error transport ~owner:i
    in
    fun (v : Frame.view) ->
      Buf.Dec.reset cur v.Frame.buf ~pos:v.Frame.off
        ~limit:(v.Frame.off + v.Frame.len);
      Codec.decode_with codec cur ~ok:on_msg ~error:on_error
  in
  List.iter (fun rt -> rt.on_view <- on_view rt) rts;
  let discard (_ : Frame.view) = () in
  let request rt at =
    let i = rt.id in
    fresh i;
    Node_host.request host ~time:at ~node:i;
    rt.st <- P.on_request rt.ctx rt.st
  in
  let rec requests rt = function
    | [] -> ()
    | at :: rest ->
        request rt at;
        (* Decrement after the metric records it: [pending_at] may
           briefly double-count, never read 0 for a queued request. *)
        Atomic.decr req_inflight.(rt.id);
        requests rt rest
  in
  let step_node rt now_u =
    let i = rt.id in
    fresh i;
    flush_chaos_out i now_u;
    if Node_host.down host ~node:i then begin
      (* Churned out: frames addressed to it are destroyed, timers and
         queued arrivals are parked for rejoin. Re-index the node at the
         window's close so the shard re-activates it then. *)
      Transport.poll transport ~owner:i discard;
      let resume = Node_host.down_until host ~node:i in
      Pqueue.push timer_index.(shard_of.(i)) ~time:resume i
    end
    else
    let arrivals =
      let waiting = arriving.(shard_of.(i)) in
      if Atomic.get waiting = 0 || Mailbox.is_empty req_inbox.(i) then []
      else begin
        let drained = Mailbox.drain req_inbox.(i) in
        ignore (Atomic.fetch_and_add waiting (- List.length drained) : int);
        drained
      end
    in
    if is_alive i then begin
      (* Re-requests first, in the order they were made: a mailbox
         arrival comes from another domain, unordered against them. *)
      for _ = 1 to local_len.(i) do
        (* The front time stays queued, and counted, until its request
           is recorded. A handler may re-request meanwhile: that lands
           behind these, for the next step. *)
        let s = shard_of.(i) in
        request rt local_times.(s).(local_slot i 0);
        let h = local_head.(i) + 1 in
        local_head.(i) <- (if h = local_cap.(s) then 0 else h);
        local_len.(i) <- local_len.(i) - 1
      done;
      requests rt arrivals;
      let tq = timers.(i) in
      (* Interleave timers and frame deliveries in due-time order, as
         the discrete-event engine would: when the shard runs late both
         may be due at once, and firing an ack timeout before the ack
         frame that precedes it would fabricate a failure. *)
      let continue = ref true in
      while !continue && armed.(i) > 0 && Pqueue.top_time_exn tq <= now_u do
        let tt = Pqueue.top_time_exn tq in
        Transport.poll transport ~upto:tt ~owner:i rt.on_view;
        (* Deliveries may have armed an earlier timer or cancelled this
           one; only fire if this slot is still frontmost. *)
        if armed.(i) > 0 && Pqueue.top_time_exn tq <= tt then begin
          let key, ep = Pqueue.pop_exn tq in
          armed.(i) <- armed.(i) - 1;
          if is_alive i then begin
            if Node_host.timer_live host ~node:i ~key ~epoch:ep then begin
              fresh i;
              Node_host.timer_fired host ~node:i ~key;
              rt.st <- P.on_timer rt.ctx rt.st ~key
            end
          end
          else continue := false
        end
      done;
      if is_alive i then Transport.poll transport ~owner:i rt.on_view
      else begin
        Pqueue.clear tq;
        armed.(i) <- 0;
        Transport.poll transport ~owner:i discard
      end
    end
    else begin
      (* Dead node: everything addressed to it evaporates. The drained
         arrivals keep their [req_inflight] counts and re-requests their
         [local_len] — a dead node can never serve, so [pending_at] must
         not read 0 for them. *)
      Pqueue.clear timers.(i);
      armed.(i) <- 0;
      Transport.poll transport ~owner:i discard
    end
  in
  let shard_rts =
    List.init shards (fun s ->
        List.filter (fun rt -> shard_of.(rt.id) = s) rts)
  in
  let next_arrival () =
    match open_loop with Some (_, at) -> !at | None -> infinity
  in
  let stop_at = match config.stop with Duration d -> d | Grants _ -> infinity in
  (* The shard loop, active-set form: the shard steps only nodes
     something happened to — a ready descriptor or a due loopback frame
     (reported by [Transport.wait] through [on_ready]), an activation
     queued by another shard, or a due timer from the index heap. Idle
     nodes cost nothing per iteration, which is what lets one shard
     carry 10k+ of them. *)
  let shard_loop ~lead ~shard shard_rts () =
    (* Its timeouts are due times: see the timer slack note in the mli. *)
    ignore (Readiness.set_timer_slack_ns 1_000 : bool);
    let tshard = tshards.(shard) in
    let inbox = act_inbox.(shard) in
    let tindex = timer_index.(shard) in
    let rt_of = Array.make n None in
    List.iter (fun rt -> rt_of.(rt.id) <- Some rt) shard_rts;
    let on_q = Array.make n false in
    (* The activation FIFO: a ring of node ids, grown on demand. *)
    let q = ref (Array.make 64 0) and q_head = ref 0 and q_len = ref 0 in
    let activate i =
      if i >= 0 && i < n && not on_q.(i) then begin
        on_q.(i) <- true;
        let a = !q in
        let cap = Array.length a in
        if !q_len = cap then begin
          let b = Array.make (2 * cap) 0 in
          for k = 0 to cap - 1 do
            b.(k) <- a.((!q_head + k) land (cap - 1))
          done;
          q := b;
          q_head := 0
        end;
        let a = !q in
        a.((!q_head + !q_len) land (Array.length a - 1)) <- i;
        incr q_len
      end
    in
    let on_ready = Some activate in
    (* Sweep every owner once: init sends are still unflushed. *)
    List.iter (fun rt -> activate rt.id) shard_rts;
    (* Floats compared in place: [Float.min] and [Float.max] are calls
       that box. *)
    let fmin (a : float) b = if a <= b then a else b in
    let wall_cap_u = config.max_wall_s /. config.unit_s in
    try
      while not (Atomic.get stop_flag) do
        let now_u = Clock.now clock in
        if now_u *. config.unit_s > config.max_wall_s then signal_stop ()
        else begin
          if lead then begin
            if now_u >= stop_at then signal_stop ();
            match open_loop with Some (pump, _) -> pump now_u | None -> ()
          end;
          let local = requeued.(shard) in
          for k = 0 to requeued_len.(shard) - 1 do
            activate local.(k)
          done;
          requeued_len.(shard) <- 0;
          if not (Mailbox.is_empty inbox) then
            List.iter activate (Mailbox.drain inbox);
          while
            (not (Pqueue.is_empty tindex)) && Pqueue.top_time_exn tindex <= now_u
          do
            activate (Pqueue.pop_exn tindex)
          done;
          while !q_len > 0 do
            let a = !q in
            let i = a.(!q_head) in
            q_head := (!q_head + 1) land (Array.length a - 1);
            decr q_len;
            on_q.(i) <- false;
            match rt_of.(i) with
            | Some rt -> step_node rt now_u
            | None -> ()
          done;
          if not (Atomic.get stop_flag) then begin
            let next =
              if Pqueue.is_empty tindex then infinity
              else Pqueue.top_time_exn tindex
            in
            (* The lead shard also wakes for the next open-loop arrival
               and for either stop deadline, so none waits out the cap. *)
            let next =
              if lead then
                fmin next (fmin (fmin (next_arrival ()) stop_at) wall_cap_u)
              else next
            in
            let timeout_s =
              if requeued_len.(shard) > 0 || not (Mailbox.is_empty inbox) then
                0.0
              else
                let t = (next -. Clock.now clock) *. config.unit_s in
                if t >= 0.0 then t else 0.0
            in
            Transport.wait transport tshard ?on_ready ~timeout_s ()
          end
        end
      done
    with e ->
      ignore (Atomic.compare_and_set failure_box None (Some e));
      signal_stop ()
  in
  (* Hand the control handle to an embedding service (e.g. a client
     front-end injecting External load) before the shards start. *)
  or_close (fun () -> match attach with Some f -> f control | None -> ());
  let domains =
    List.mapi
      (fun s nodes ->
        Domain.spawn (shard_loop ~lead:(s = 0) ~shard:s nodes))
      shard_rts
  in
  List.iter Domain.join domains;
  Transport.close transport;
  (match Atomic.get failure_box with Some e -> raise e | None -> ());
  (* One coherent snapshot, not a field-by-field walk of live atomics:
     the same primitive the service layer's periodic report uses, so a
     report can never pair counters from two different moments. *)
  let s = Transport.snapshot transport in
  let wait_calls = s.Transport.snap_wait_calls in
  let grants = Metrics.serves metrics in
  let chaos_spec, chaos_injected, chaos_total_injected, chaos_digest =
    match config.chaos with
    | None -> ("", [], 0, 0)
    | Some inj ->
        Tr_chaos.Injector.
          ( Tr_chaos.Scenario.spec (scenario inj),
            counts inj,
            total_injected inj,
            schedule_digest inj )
  in
  {
    protocol = P.name;
    n;
    seed = config.seed;
    backend = Transport.name transport;
    readiness = Transport.readiness_backend transport;
    unit_s = config.unit_s;
    shards;
    wall_s = Clock.elapsed_wall clock;
    duration_units = Clock.now clock;
    grants;
    frames_sent = s.Transport.snap_frames_sent;
    bytes_sent = s.Transport.snap_bytes_sent;
    frames_received = s.Transport.snap_frames_received;
    decode_errors = s.Transport.snap_decode_errors;
    resync_skips = s.Transport.snap_resync_skips;
    reconnects = s.Transport.snap_reconnects;
    frames_dropped = s.Transport.snap_frames_dropped;
    out_hwm_bytes = s.Transport.snap_out_hwm_bytes;
    write_syscalls = s.Transport.snap_write_syscalls;
    read_syscalls = s.Transport.snap_read_syscalls;
    wait_calls;
    fds_registered = s.Transport.snap_fds_registered;
    avg_ready_per_wait =
      (if wait_calls = 0 then 0.0
       else float_of_int s.Transport.snap_fds_ready /. float_of_int wait_calls);
    spin_hits = s.Transport.snap_spin_hits;
    spin_misses = s.Transport.snap_spin_misses;
    inproc_frames = s.Transport.snap_inproc_frames;
    syscalls_per_grant =
      (if grants = 0 then 0.0
       else
         float_of_int
           (s.Transport.snap_write_syscalls + s.Transport.snap_read_syscalls
          + wait_calls)
         /. float_of_int grants);
    (* Cluster-level corruption roll-up: envelope decode failures plus
       framing-level resync skips — everything the wire layer detected
       and survived, the number chaos corruption runs assert on. *)
    corrupt_frames_detected =
      s.Transport.snap_decode_errors + s.Transport.snap_resync_skips;
    chaos_spec;
    chaos_injected;
    chaos_total_injected;
    chaos_digest;
    metrics;
  }

let run_packed ?backend config (Codecs.Packed ((module P), codec)) =
  run ?backend config (module P) codec
