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
  (* Same-shard activation (a serve re-arming its own node): the shard
     drains its mailbox before every sleep, so no pipe write is needed. *)
  let note_local i =
    if shard_of.(i) >= 0 then Mailbox.push act_inbox.(shard_of.(i)) i
  in
  (* Timer plumbing, index-addressed so ctx closures need no [rt]. *)
  let timers = Array.init n (fun _ -> Pqueue.create ()) in
  let req_inbox : float Mailbox.t array = Array.init n (fun _ -> Mailbox.create ()) in
  (* Requests pushed but not yet drained by the owning shard. Metrics
     only learn of a request at drain time, so [pending_at] adds this
     on top — otherwise a poll racing the shard (chaos recovery probes)
     reads pending=0 for a request that is merely still in the mailbox. *)
  let req_inflight = Array.init n (fun _ -> Atomic.make 0) in
  let push_request i at =
    Atomic.incr req_inflight.(i);
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
          if i >= 0 && i < n then Atomic.set alive.(i) false);
      request_stop = signal_stop;
      live_now = (fun () -> Clock.now clock);
      inject =
        (fun i ->
          (* External request arrival (service front-end): queue it for
             the owning shard and poke that shard's wake pipe. Safe from
             any domain — the mailbox is lock-free. *)
          if i >= 0 && i < n && Atomic.get alive.(i) then begin
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
            + Atomic.get req_inflight.(i));
    }
  in
  (* The tap is the observer's deliveries, handed the control handle. *)
  let tap =
    match tap with
    | None -> None
    | Some f ->
        Some
          (fun ~time:_ -> function
            | Node_intf.Delivered { dst; msg; _ } -> f control ~self:dst msg
            | _ -> ())
  in
  (* Each handler runs at one instant: the clock is read the first time
     the handler asks (for an event's time, a serve, a due time, a
     re-request or [ctx.now]) and that reading serves the rest of it.
     [fresh] opens a node's slot before each handler; only the node's
     own shard touches it. *)
  let instants = Array.make n Float.nan in
  let now_at i =
    let t = instants.(i) in
    if Float.is_nan t then begin
      let t = Clock.now clock in
      instants.(i) <- t;
      t
    end
    else t
  in
  let fresh i = instants.(i) <- Float.nan in
  let host =
    Node_host.create
      (module P)
      ~n ~seed:config.seed ~metrics
      ?observe:(Node_host.tee observe tap)
      ~chaos:config.chaos ?lock ~now:now_at ()
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
        let frame = Codec.encode_frame scratch codec ~src ~channel msg in
        Transport.send_frame transport ~src ~dst ~delay:hop_units frame
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
    Pqueue.push timer_index.(shard_of.(node)) ~time:at node
  in
  (* [serves] was read under the lock together with this serve's own count:
     a read outside it could miss the serve that reaches [Grants k] on a
     multi-shard run, and no later serve might come to stop it. *)
  let served ~node ~serves =
    (match config.load with
    | Closed_loop _ ->
        (* Re-arm through the mailbox so the protocol handler finishes
           before the next on_request fires (the simulator queues the
           re-request as an event for the same reason). *)
        push_request node (now_at node);
        note_local node
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
            { id = i; st = P.init ctx; ctx })
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
              if Atomic.get alive.(owned_arr.(j)) then incr live
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
                 && (!k > 0 || not (Atomic.get alive.(owned_arr.(!j))))
               do
                 if Atomic.get alive.(owned_arr.(!j)) then decr k;
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
  let step_node rt now_u =
    let i = rt.id in
    fresh i;
    flush_chaos_out i now_u;
    if Node_host.down host ~node:i then begin
      (* Churned out: frames addressed to it are destroyed, timers and
         queued arrivals are parked for rejoin. Re-index the node at the
         window's close so the shard re-activates it then. *)
      Transport.poll transport ~owner:i (fun _ -> ());
      let resume = Node_host.down_until host ~node:i in
      Pqueue.push timer_index.(shard_of.(i)) ~time:resume i
    end
    else
    let arrivals = Mailbox.drain req_inbox.(i) in
    if Atomic.get alive.(i) then begin
      List.iter
        (fun at ->
          fresh i;
          Node_host.request host ~time:at ~node:i;
          (* Decrement after the metric records it: [pending_at] may
             briefly double-count, never read 0 for a queued request. *)
          Atomic.decr req_inflight.(i);
          rt.st <- P.on_request rt.ctx rt.st)
        arrivals;
      let tq = timers.(i) in
      let deliver ?upto () =
        Transport.poll transport ?upto ~owner:i (fun view ->
            match Codec.decode_view codec view with
            | Error _ -> Transport.count_decode_error transport
            | Ok { Codec.src; channel = _; msg } ->
                if Atomic.get alive.(i) then begin
                  (* Emitted before the handler, which runs whatever the
                     observer does: one that kills this node models a
                     crash just after handling the message — e.g. while
                     holding a token it has already acknowledged. *)
                  fresh i;
                  Node_host.delivered host ~src ~dst:i msg;
                  rt.st <- P.on_message rt.ctx rt.st ~src msg
                end)
      in
      (* Interleave timers and frame deliveries in due-time order, as
         the discrete-event engine would: when the shard runs late both
         may be due at once, and firing an ack timeout before the ack
         frame that precedes it would fabricate a failure. *)
      let continue = ref true in
      while
        !continue && (not (Pqueue.is_empty tq)) && Pqueue.top_time_exn tq <= now_u
      do
        let tt = Pqueue.top_time_exn tq in
        deliver ~upto:tt ();
        (* Deliveries may have armed an earlier timer or cancelled this
           one; only fire if this slot is still frontmost. *)
        if (not (Pqueue.is_empty tq)) && Pqueue.top_time_exn tq <= tt then begin
          let key, ep = Pqueue.pop_exn tq in
          if Atomic.get alive.(i) then begin
            if Node_host.timer_live host ~node:i ~key ~epoch:ep then begin
              fresh i;
              Node_host.timer_fired host ~node:i ~key;
              rt.st <- P.on_timer rt.ctx rt.st ~key
            end
          end
          else continue := false
        end
      done;
      if Atomic.get alive.(i) then deliver ()
      else begin
        Pqueue.clear tq;
        Transport.poll transport ~owner:i (fun _ -> ())
      end
    end
    else begin
      (* Dead node: everything addressed to it evaporates. The drained
         arrivals keep their [req_inflight] counts — a dead node can
         never serve, so [pending_at] must not read 0 for them. *)
      Pqueue.clear timers.(i);
      Transport.poll transport ~owner:i (fun _ -> ())
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
    let q = Queue.create () in
    let activate i =
      if i >= 0 && i < n && not on_q.(i) then begin
        on_q.(i) <- true;
        Queue.add i q
      end
    in
    (* Sweep every owner once: init sends are still unflushed. *)
    List.iter (fun rt -> activate rt.id) shard_rts;
    try
      while not (Atomic.get stop_flag) do
        let now_u = Clock.now clock in
        if now_u *. config.unit_s > config.max_wall_s then signal_stop ()
        else begin
          if lead then begin
            if now_u >= stop_at then signal_stop ();
            match open_loop with Some (pump, _) -> pump now_u | None -> ()
          end;
          List.iter activate (Mailbox.drain inbox);
          while
            match Pqueue.peek_time tindex with
            | Some t -> t <= now_u
            | None -> false
          do
            activate (Pqueue.pop_exn tindex)
          done;
          while not (Queue.is_empty q) do
            let i = Queue.pop q in
            on_q.(i) <- false;
            match rt_of.(i) with
            | Some rt -> step_node rt now_u
            | None -> ()
          done;
          if not (Atomic.get stop_flag) then begin
            let next =
              match Pqueue.peek_time tindex with Some t -> t | None -> infinity
            in
            (* The lead shard also wakes for the next open-loop arrival
               and for either stop deadline, so none waits out the cap. *)
            let next =
              if lead then
                Float.min next
                  (Float.min (Float.min (next_arrival ()) stop_at)
                     (config.max_wall_s /. config.unit_s))
              else next
            in
            let timeout_s =
              if not (Mailbox.is_empty inbox) then 0.0
              else
                Float.max 0.0 ((next -. Clock.now clock) *. config.unit_s)
            in
            Transport.wait transport tshard ~on_ready:activate ~timeout_s ()
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
