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
  hop_delay : float;
  cheap_delay : float;
  load : load;
  stop : stop;
  max_wall_s : float;
  pin_cores : bool;
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
    hop_delay = 1.0;
    cheap_delay = 1.0;
    load = No_load;
    stop = Duration 1000.0;
    max_wall_s = 60.0;
    pin_cores = false;
    readiness = None;
    spin = false;
    inproc = false;
    chaos = None;
  }

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
  if not (Float.is_finite config.hop_delay) || config.hop_delay < 0.0 then
    invalid_arg "Cluster.run: hop_delay must be finite and non-negative";
  if not (Float.is_finite config.cheap_delay) || config.cheap_delay < 0.0 then
    invalid_arg "Cluster.run: cheap_delay must be finite and non-negative";
  if config.max_wall_s <= 0.0 then invalid_arg "Cluster.run: max_wall_s <= 0";
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

let run (type m) ?tap ?attach ?(backend = Loopback) config
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
  Array.iteri (fun idx i -> shard_of.(i) <- idx mod shards) owned_arr;
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
  let mu = Mutex.create () in
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
  let epochs = Array.init n (fun _ -> Hashtbl.create 8) in
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
  let chaos_down node =
    match config.chaos with
    | None -> false
    | Some inj ->
        Tr_chaos.Injector.node_down inj ~now:(Clock.now clock) ~node
  in
  let current_epoch ~node ~key =
    match Hashtbl.find_opt epochs.(node) key with Some e -> e | None -> 0
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
      pending_at =
        (fun i ->
          if i < 0 || i >= n then 0
          else
            Mutex.protect mu (fun () -> Metrics.pending metrics ~node:i)
            + Atomic.get req_inflight.(i));
    }
  in
  let make_ctx node : m Node_intf.ctx =
    let rng = Rng.create ((config.seed * 1_000_003) + node) in
    (* One scratch per node: only its owning shard encodes with it, so
       steady-state sends allocate no fresh buffers. *)
    let scratch = Codec.scratch () in
    let send ?(channel = Network.Reliable) ~dst msg =
      if dst < 0 || dst >= n then
        invalid_arg "Cluster: send destination out of range";
      let kind = P.classify msg in
      Mutex.lock mu;
      Metrics.on_message metrics channel kind;
      Mutex.unlock mu;
      let delay =
        match channel with
        | Network.Reliable -> config.hop_delay
        | Network.Cheap -> config.cheap_delay
      in
      (* Chaos interposition, live side: pre-encode decisions (drop /
         duplicate / reorder), post-encode byte flips for corruption —
         mangled frames go down the real wire and must be absorbed by
         the decoder's resync path on the receiving shard. *)
      match config.chaos with
      | None ->
          let frame = Codec.encode_frame scratch codec ~src:node ~channel msg in
          Transport.send_frame transport ~src:node ~dst ~delay frame
      | Some inj ->
          let now_u = Clock.now clock in
          let a = Tr_chaos.Injector.on_send inj ~now:now_u ~src:node ~dst in
          if not a.Tr_chaos.Injector.drop then begin
            let frame =
              Codec.encode_frame scratch codec ~src:node ~channel msg
            in
            if
              (not a.Tr_chaos.Injector.corrupt)
              && a.Tr_chaos.Injector.extra_delay = 0.0
              && a.Tr_chaos.Injector.copies = 1
            then Transport.send_frame transport ~src:node ~dst ~delay frame
            else begin
              let payload = Buffer.contents frame in
              let payload =
                if a.Tr_chaos.Injector.corrupt then
                  Tr_chaos.Injector.corrupt_payload inj ~src:node ~dst
                    ~k:a.Tr_chaos.Injector.link_count payload
                else payload
              in
              for _ = 1 to a.Tr_chaos.Injector.copies do
                if a.Tr_chaos.Injector.extra_delay > 0.0 then begin
                  let release =
                    now_u +. delay +. a.Tr_chaos.Injector.extra_delay
                  in
                  Pqueue.push chaos_out.(node) ~time:release (dst, payload);
                  Pqueue.push timer_index.(shard_of.(node)) ~time:release node
                end
                else
                  Transport.send transport ~src:node ~dst ~delay payload
              done
            end
          end
    in
    let set_timer ~delay ~key =
      if delay < 0.0 then invalid_arg "Cluster: negative timer delay";
      if key < 0 then invalid_arg "Cluster: negative timer key";
      let delay =
        match config.chaos with
        | None -> delay
        | Some inj ->
            delay
            *. Tr_chaos.Injector.timer_scale inj ~now:(Clock.now clock) ~node
      in
      let at = Clock.now clock +. delay in
      Pqueue.push timers.(node) ~time:at (key, current_epoch ~node ~key);
      Pqueue.push timer_index.(shard_of.(node)) ~time:at node
    in
    let cancel_timers ~key =
      if key < 0 then invalid_arg "Cluster: negative timer key";
      Hashtbl.replace epochs.(node) key (current_epoch ~node ~key + 1)
    in
    let serve () =
      let t = Clock.now clock in
      Mutex.lock mu;
      if Metrics.pending metrics ~node = 0 then begin
        Mutex.unlock mu;
        invalid_arg
          (Printf.sprintf "Cluster: node %d served with no pending request"
             node)
      end;
      Metrics.on_serve metrics ~time:t ~node;
      let grants = Metrics.serves metrics in
      Mutex.unlock mu;
      (match config.load with
      | Closed_loop _ ->
          (* Re-arm through the mailbox so the protocol handler finishes
             before the next on_request fires (the simulator queues the
             re-request as an event for the same reason). *)
          push_request node (Clock.now clock);
          note_local node
      | _ -> ());
      match config.stop with
      | Grants k -> if grants >= k then signal_stop ()
      | Duration _ -> ()
    in
    {
      Node_intf.self = node;
      n;
      now = (fun () -> Clock.now clock);
      rng;
      send;
      set_timer;
      cancel_timers;
      serve;
      pending =
        (fun () ->
          Mutex.lock mu;
          let p = Metrics.pending metrics ~node in
          Mutex.unlock mu;
          p);
      possession =
        (fun () ->
          Mutex.lock mu;
          Metrics.on_token_possession metrics ~node;
          Mutex.unlock mu);
      search_forward =
        (fun () ->
          Mutex.lock mu;
          Metrics.on_search_forward metrics;
          Mutex.unlock mu);
      note = (fun _ -> ());
    }
  in
  (* Initialise every hosted node before any shard runs: init sends (the
     initial token) sit queued in the transport until the loops start. *)
  let rts =
    List.map
      (fun i ->
        let ctx = make_ctx i in
        { id = i; st = P.init ctx; ctx })
      owned
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
    flush_chaos_out i now_u;
    if chaos_down i then begin
      (* Churned out: frames addressed to it are destroyed, timers and
         queued arrivals are parked for rejoin. Re-index the node at the
         window's close so the shard re-activates it then. *)
      Transport.poll transport ~owner:i (fun _ -> ());
      match config.chaos with
      | Some inj ->
          let resume =
            Tr_chaos.Injector.down_until inj ~now:(Clock.now clock) ~node:i
          in
          Pqueue.push timer_index.(shard_of.(i)) ~time:resume i
      | None -> ()
    end
    else
    let arrivals = Mailbox.drain req_inbox.(i) in
    if Atomic.get alive.(i) then begin
      List.iter
        (fun at ->
          Mutex.lock mu;
          Metrics.on_request metrics ~time:at ~node:i;
          Mutex.unlock mu;
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
                  rt.st <- P.on_message rt.ctx rt.st ~src msg;
                  (* The tap observes a *processed* delivery, so a tap
                     that kills this node models a crash just after
                     handling the message — e.g. while holding a token
                     it has already acknowledged. *)
                  match tap with Some f -> f control ~self:i msg | None -> ()
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
            if current_epoch ~node:i ~key = ep then
              rt.st <- P.on_timer rt.ctx rt.st ~key
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
    if config.pin_cores then
      ignore (Readiness.pin_cpu (shard mod Readiness.ncpus ()) : bool);
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
  (match attach with Some f -> f control | None -> ());
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
    chaos_spec =
      (match config.chaos with
      | None -> ""
      | Some inj -> Tr_chaos.Scenario.spec (Tr_chaos.Injector.scenario inj));
    chaos_injected =
      (match config.chaos with
      | None -> []
      | Some inj -> Tr_chaos.Injector.counts inj);
    chaos_total_injected =
      (match config.chaos with
      | None -> 0
      | Some inj -> Tr_chaos.Injector.total_injected inj);
    chaos_digest =
      (match config.chaos with
      | None -> 0
      | Some inj -> Tr_chaos.Injector.schedule_digest inj);
    metrics;
  }

let run_packed ?backend config (Codecs.Packed ((module P), codec)) =
  run ?backend config (module P) codec

(* ---------------- multi-process fleet ---------------- *)

type fleet_member = {
  m_grants : int;
  m_frames_sent : int;
  m_wall_s : float;
  m_resp_mean : float;
  m_resp_p99 : float;
  m_wait_calls : int;
  m_fds_registered : int;
  m_decode_errors : int;
}

(* Split a socket cluster across [procs] forked children, each hosting a
   contiguous slice of the ids, all running the same wall-clock duration
   so no cross-process stop coordination is needed: a child that hit its
   duration keeps its sockets open until every slice is done, because the
   transport only closes on [run] return and the parent only reaps after
   reading all summary lines. Each child ships one scalar summary line
   over a shared pipe (far below PIPE_BUF, so lines can't interleave). *)
let run_fleet ~procs ~addrs (config : config) packed =
  let n = config.n in
  let slice p =
    let lo = p * n / procs and hi = (p + 1) * n / procs in
    List.init (hi - lo) (fun k -> lo + k)
  in
  let rpipe, wpipe = Unix.pipe () in
  let pids =
    List.init procs (fun p ->
        match Unix.fork () with
        | 0 ->
            let code =
              try
                Unix.close rpipe;
                let report =
                  run_packed
                    ~backend:(Sockets { owned = slice p; addrs })
                    config packed
                in
                let resp = Tr_sim.Metrics.responsiveness report.metrics in
                let p99 =
                  Tr_stats.Quantile.quantile
                    (Tr_sim.Metrics.responsiveness_quantiles report.metrics)
                    0.99
                in
                let line =
                  Printf.sprintf "%d %d %d %.6f %.6f %.6f %d %d %d\n" p
                    report.grants report.frames_sent report.wall_s
                    (Tr_stats.Summary.mean resp)
                    p99 report.wait_calls report.fds_registered
                    report.decode_errors
                in
                ignore
                  (Unix.write_substring wpipe line 0 (String.length line));
                0
              with e ->
                Printf.eprintf "fleet child %d: %s\n%!" p
                  (Printexc.to_string e);
                1
            in
            exit code
        | pid -> pid)
  in
  Unix.close wpipe;
  let ic = Unix.in_channel_of_descr rpipe in
  let lines =
    List.init procs (fun _ ->
        match input_line ic with
        | line -> Some line
        | exception End_of_file -> None)
  in
  let ok =
    List.for_all
      (fun pid ->
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
      pids
  in
  close_in ic;
  if not ok then failwith "fleet child exited abnormally";
  (* Lines arrive in pipe order, i.e. whichever child finished first;
     sort by the reported child index to honour the slice-order doc. *)
  List.filter_map Fun.id lines
  |> List.map (fun line ->
         Scanf.sscanf line "%d %d %d %f %f %f %d %d %d"
           (fun p g f w r p99 waits fds de ->
             ( p,
               {
                 m_grants = g;
                 m_frames_sent = f;
                 m_wall_s = w;
                 m_resp_mean = r;
                 m_resp_p99 = p99;
                 m_wait_calls = waits;
                 m_fds_registered = fds;
                 m_decode_errors = de;
               } )))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let fleet_total members =
  let sum f = List.fold_left (fun a m -> a + f m) 0 members in
  let fmax f = List.fold_left (fun a m -> Float.max a (f m)) 0.0 members in
  let grants = sum (fun m -> m.m_grants) in
  (* Grant-weighted: a child that served nothing has a NaN mean. *)
  let resp_mean =
    if grants = 0 then Float.nan
    else
      List.fold_left
        (fun a m ->
          if Float.is_nan m.m_resp_mean then a
          else a +. (m.m_resp_mean *. float_of_int m.m_grants))
        0.0 members
      /. float_of_int grants
  in
  {
    m_grants = grants;
    m_frames_sent = sum (fun m -> m.m_frames_sent);
    m_wall_s = fmax (fun m -> m.m_wall_s);
    m_resp_mean = resp_mean;
    m_resp_p99 = fmax (fun m -> m.m_resp_p99);
    m_wait_calls = sum (fun m -> m.m_wait_calls);
    m_fds_registered = sum (fun m -> m.m_fds_registered);
    m_decode_errors = sum (fun m -> m.m_decode_errors);
  }
