(* Live-runtime tests: loopback cluster smoke, sim-vs-live trend
   cross-validation (ring O(N) vs binsearch O(log N)), token
   regeneration after killing a live node, a socket-backend exchange
   over Unix-domain sockets, and delay-model validation. *)

open Tr_sim
module Cluster = Tr_net_rt.Cluster
module Transport = Tr_net_rt.Transport
module Readiness = Tr_net_rt.Readiness
module Wakeup = Tr_net_rt.Wakeup
module Codecs = Tr_wire.Codecs

(* Fast wall clock: 0.2 ms per unit keeps every run below a second. *)
let quick_config ?(unit_s = 2e-4) ~n ~seed ~load ~stop () =
  { (Cluster.default_config ~n ~seed) with unit_s; load; stop }

(* ---------------- loopback smoke ---------------- *)

let test_loopback_smoke () =
  let config =
    quick_config ~n:4 ~seed:11
      ~load:(Cluster.Closed_loop { depth = 1 })
      ~stop:(Cluster.Grants 300) ()
  in
  let report = Cluster.run_packed config (Codecs.find_exn "binsearch") in
  Alcotest.(check bool) "grants reached" true (report.Cluster.grants >= 300);
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
  Alcotest.(check string) "backend" "loopback" report.Cluster.backend;
  (* Loopback shards wait in a readiness set around their wake pipe,
     resolved as for sockets. *)
  Alcotest.(check string) "loopback readiness backend"
    (Readiness.backend_name (Readiness.default_backend ()))
    report.Cluster.readiness;
  Alcotest.(check int) "one wake pipe per shard" report.Cluster.shards
    report.Cluster.fds_registered;
  Alcotest.(check bool)
    "frames flowed" true
    (report.Cluster.frames_received > 0)

(* An adopted loopback shard waits on its own: a frame sent with a
   delay activates its node through [on_ready] no earlier than its due
   time, after one kernel wait sized to that time, and a wake or a
   cross-domain send ends a wait in progress with the pipe drained.
   Asserted on the counters, not on a nap cadence. *)
let test_loopback_shard_wait () =
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
  let t = Transport.loopback ~clock ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Transport.close t)
    (fun () ->
      let frame =
        Tr_wire.Codec.encode_envelope Codecs.ring ~src:0
          ~channel:Network.Reliable
          (Tr_proto.Ring.Token { stamp = 1 })
      in
      let due = Tr_net_rt.Clock.now clock +. 30.0 in
      (* Sent before adoption: [adopt] salvages its notification. *)
      Transport.send t ~src:0 ~dst:1 ~delay:30.0 frame;
      let shard = Transport.adopt t ~owners:[ 0; 1 ] in
      let woke = ref [] in
      let on_ready i = woke := (i, Tr_net_rt.Clock.now clock) :: !woke in
      let tries = ref 0 in
      while !woke = [] && !tries < 10 do
        Transport.wait t shard ~on_ready ~timeout_s:5.0 ();
        incr tries
      done;
      (match !woke with
      | [ (1, at) ] ->
          Alcotest.(check bool)
            (Printf.sprintf "activated at %.3f, due %.3f" at due)
            true (at >= due)
      | _ -> Alcotest.fail "expected exactly one activation, of node 1");
      let got = ref 0 in
      Transport.poll t ~owner:1 (fun _ -> incr got);
      Alcotest.(check int) "the due frame is delivered" 1 !got;
      let a = Transport.snapshot t in
      Alcotest.(check bool)
        (Printf.sprintf "slept to the due time (%d waits)"
           a.Transport.snap_wait_calls)
        true
        (a.Transport.snap_wait_calls >= 1 && a.Transport.snap_wait_calls <= 2);
      Alcotest.(check int) "no wake, nothing drained" 0
        a.Transport.snap_read_syscalls;
      (* Each case must end a 5 s wait (itself capped at 0.25 s) within
         0.2 s, with the pipe reported once and drained in two reads.
         [during] runs on another domain 20 ms into the wait. *)
      let ends_wait what ?during ~woken () =
        let w0 = Transport.snapshot t in
        woke := [];
        let t0 = Unix.gettimeofday () in
        let d =
          Option.map
            (fun f ->
              Domain.spawn (fun () ->
                  Unix.sleepf 0.02;
                  f ()))
            during
        in
        Transport.wait t shard ~on_ready ~timeout_s:5.0 ();
        let elapsed = Unix.gettimeofday () -. t0 in
        Option.iter Domain.join d;
        let w1 = Transport.snapshot t in
        Alcotest.(check bool)
          (Printf.sprintf "%s: wait ended after %.3f s" what elapsed)
          true (elapsed < 0.2);
        Alcotest.(check int) (what ^ ": one kernel wait") 1
          (w1.Transport.snap_wait_calls - w0.Transport.snap_wait_calls);
        Alcotest.(check int) (what ^ ": the pipe was ready") 1
          (w1.Transport.snap_fds_ready - w0.Transport.snap_fds_ready);
        Alcotest.(check int) (what ^ ": drained, reads counted") 2
          (w1.Transport.snap_read_syscalls - w0.Transport.snap_read_syscalls);
        Alcotest.(check (list int)) (what ^ ": activations") woken
          (List.map fst !woke)
      in
      Transport.wake shard;
      ends_wait "wake before the wait" ~woken:[] ();
      ends_wait "wake during the wait" ~woken:[]
        ~during:(fun () -> Transport.wake shard) ();
      ends_wait "send during the wait" ~woken:[ 1 ]
        ~during:(fun () -> Transport.send t ~src:0 ~dst:1 ~delay:0.0 frame)
        ())

(* A request injected into an idle loopback cluster is picked up at
   once. With 1 s units the old loopback loop napped 0.5 s between
   passes; the shard now wakes on the injection's wake pipe. Suzuki-
   Kasami parks the token at node 0, so a request there is served as
   soon as it is seen, and the single grant ends the run. *)
let test_loopback_inject_pickup () =
  let config =
    {
      (Cluster.default_config ~n:4 ~seed:5) with
      unit_s = 1.0;
      shards = 1;
      load = Cluster.External;
      stop = Cluster.Grants 1;
      max_wall_s = 20.0;
    }
  in
  let (Codecs.Packed ((module P), codec)) = Codecs.find_exn "suzuki-kasami" in
  let injected_at = Atomic.make 0.0 in
  let injector = ref None in
  let attach (control : Cluster.control) =
    injector :=
      Some
        (Domain.spawn (fun () ->
             Unix.sleepf 0.1;
             Atomic.set injected_at (Unix.gettimeofday ());
             control.Cluster.inject 0))
  in
  let report = Cluster.run ~attach config (module P) codec in
  let latency = Unix.gettimeofday () -. Atomic.get injected_at in
  Option.iter Domain.join !injector;
  Alcotest.(check int) "one grant" 1 report.Cluster.grants;
  Alcotest.(check bool)
    (Printf.sprintf "served %.3f s after injection" latency)
    true (latency < 0.1)

(* The control handle outlives the run: an embedder may still inject or
   stop once [run] has returned and the transport has closed its wake
   pipes. Those calls must not write to the pipes' fd numbers, which the
   next descriptors opened here reuse. *)
let test_wake_after_run () =
  let config =
    {
      (Cluster.default_config ~n:4 ~seed:5) with
      shards = 2;
      load = Cluster.External;
      stop = Cluster.Duration 5.0;
    }
  in
  let (Codecs.Packed ((module P), codec)) = Codecs.find_exn "suzuki-kasami" in
  let control = ref None in
  let attach c = control := Some c in
  ignore (Cluster.run ~attach config (module P) codec : Cluster.report);
  let pipes = List.init 4 (fun _ -> Unix.pipe ~cloexec:true ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (r, w) ->
          Unix.close r;
          Unix.close w)
        pipes)
    (fun () ->
      let c = Option.get !control in
      for i = 0 to 3 do
        c.Cluster.inject i
      done;
      c.Cluster.request_stop ();
      let buf = Bytes.create 16 in
      List.iter
        (fun (r, _) ->
          Unix.set_nonblock r;
          match Unix.read r buf 0 16 with
          | k -> Alcotest.failf "a late wake wrote %d byte(s) to a reused fd" k
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ())
        pipes)

(* An idle loopback cluster sleeps: no frames, no timers, so each shard
   waits in the kernel until the lead's stop deadline. The stop is not
   held back by the 0.25 s wait cap either. *)
let test_loopback_idle_waits () =
  let config =
    {
      (Cluster.default_config ~n:4 ~seed:5) with
      unit_s = 1e-2;
      shards = 2;
      load = Cluster.External;
      stop = Cluster.Duration 30.0;
    }
  in
  let report = Cluster.run_packed config (Codecs.find_exn "suzuki-kasami") in
  Alcotest.(check int) "idle: no frames" 0 report.Cluster.frames_sent;
  Alcotest.(check bool)
    (Printf.sprintf "bounded kernel waits (%d)" report.Cluster.wait_calls)
    true
    (report.Cluster.wait_calls >= 2 && report.Cluster.wait_calls <= 8);
  Alcotest.(check bool)
    (Printf.sprintf "stopped at the deadline (%.3f s)" report.Cluster.wall_s)
    true (report.Cluster.wall_s < 0.45)

(* Every protocol in the registry must at least circulate and serve a
   little load over the live loopback runtime. *)
let test_all_protocols_live () =
  List.iter
    (fun name ->
      let config =
        quick_config ~n:4 ~seed:7
          ~load:(Cluster.Closed_loop { depth = 1 })
          ~stop:(Cluster.Grants 40) ()
      in
      let report = Cluster.run_packed config (Codecs.find_exn name) in
      if report.Cluster.grants < 40 then
        Alcotest.failf "%s: only %d grants live" name report.Cluster.grants;
      if report.Cluster.decode_errors <> 0 then
        Alcotest.failf "%s: %d decode errors" name
          report.Cluster.decode_errors)
    [
      "ring"; "tree"; "suzuki-kasami"; "seq-search"; "binsearch";
      "binsearch-throttle"; "directed"; "binsearch-gc-rotation";
      "binsearch-gc-inverse"; "adaptive"; "pushpull"; "ring-failsafe";
      "binsearch-failsafe"; "ring-membership"; "random-walk";
    ]

(* ---------------- sim-vs-live trend cross-validation ---------------- *)

(* Figure 9's shape must survive the move to wall time: under light
   Poisson load the ring's responsiveness grows linearly with N while
   delegated binary search stays logarithmic. Live scheduling adds
   jitter, so the assertions are about trends and ordering, not exact
   values. *)
let live_responsiveness ~protocol ~n =
  let config =
    quick_config ~n ~seed:42
      ~load:(Cluster.Open_loop { mean_interarrival = 10.0 })
      ~stop:(Cluster.Duration 500.0) ()
  in
  let report = Cluster.run_packed config (Codecs.find_exn protocol) in
  Alcotest.(check int)
    (Printf.sprintf "%s n=%d decode errors" protocol n)
    0 report.Cluster.decode_errors;
  Tr_stats.Summary.mean (Metrics.responsiveness report.Cluster.metrics)

let test_trend_ring_vs_binsearch () =
  let ns = [ 4; 16 ] in
  let ring = List.map (fun n -> live_responsiveness ~protocol:"ring" ~n) ns in
  let bin =
    List.map (fun n -> live_responsiveness ~protocol:"binsearch" ~n) ns
  in
  match (ring, bin) with
  | [ ring4; ring16 ], [ bin4; bin16 ] ->
      (* Ring scales with N: 4x the nodes should cost clearly more than
         half the proportional increase. *)
      Alcotest.(check bool)
        (Printf.sprintf "ring grows with N (%.2f -> %.2f)" ring4 ring16)
        true
        (ring16 > ring4 *. 1.8);
      (* Binsearch stays within a log-factor envelope: going 4 -> 16
         doubles log2 N, so allow at most ~3x. *)
      Alcotest.(check bool)
        (Printf.sprintf "binsearch stays sub-linear (%.2f -> %.2f)" bin4 bin16)
        true
        (bin16 < bin4 *. 3.0);
      (* And at N=16 the ordering is unambiguous. *)
      Alcotest.(check bool)
        (Printf.sprintf "binsearch beats ring at n=16 (%.2f < %.2f)" bin16
           ring16)
        true (bin16 < ring16)
  | _ -> assert false

(* ---------------- failure regeneration, live ---------------- *)

let test_live_regeneration () =
  let n = 5 in
  let victim = 2 in
  let mu = Mutex.create () in
  let histories = Array.make n [] in
  let killed_at_grants = ref (-1) in
  let module F = struct
    (* Observe every processed ring-failsafe token; kill the victim just
       after it handles (and acks) a token once things are warmed up, so
       it crashes while holding and the token is genuinely lost. *)
    let tap (control : Cluster.control) ~self msg =
      match msg with
      | Tr_proto.Failure.Token { gen; stamp } ->
          Mutex.lock mu;
          histories.(self) <- (gen, stamp) :: histories.(self);
          let do_kill = self = victim && stamp > 10 && !killed_at_grants < 0 in
          if do_kill then killed_at_grants := stamp;
          Mutex.unlock mu;
          if do_kill then control.Cluster.kill victim
      | _ -> ()
  end in
  let config =
    (* One shard and a 5 ms unit keep scheduling jitter far below the
       protocol's ack window — the margin is ack_wait minus the 2-unit
       hop+ack round trip, i.e. one unit of wall slack, and at 1 ms
       units a single busy-box hiccup forged a spurious ack timeout
       (peer marked dead, token duplicated) often enough to flake. The
       sparse Poisson load (mirroring the sim-side crash tests) keeps
       watch timers rare, so the induced crash is the only recovery
       trigger and cascading re-regenerations don't muddy the
       histories; 500 units comfortably covers kill (~25), watch
       timeout (60) and post-regeneration circulation. *)
    {
      (Cluster.default_config ~n ~seed:3) with
      unit_s = 5e-3;
      shards = 1;
      load = Cluster.Open_loop { mean_interarrival = 10.0 };
      stop = Cluster.Duration 500.0;
    }
  in
  let report =
    (* A watch timeout far above live scheduling jitter: the only token
       loss — hence the only regeneration — is the induced crash. *)
    Cluster.run ~tap:F.tap config
      (module (val Tr_proto.Failure.make ~timeout:60.0 ())
        : Tr_sim.Node_intf.PROTOCOL with type msg = Tr_proto.Failure.msg)
      Codecs.failure
  in
  Alcotest.(check bool) "victim was killed" true (!killed_at_grants > 0);
  let survivors =
    List.filter (fun i -> i <> victim) (List.init n Fun.id)
  in
  (* The regenerated token must have reached every survivor. (Once it
     circulates, late watch timers armed during the outage can trigger
     further — legitimate — regenerations, so we assert reach, not an
     exact generation count.) *)
  List.iter
    (fun i ->
      let saw_regen = List.exists (fun (g, _) -> g >= 2) histories.(i) in
      if not saw_regen then
        Alcotest.failf "node %d never saw a regenerated (gen >= 2) token" i)
    survivors;
  (* Before the crash there is exactly one generation-1 token, minted
     once at node 0 — so each survivor's gen-1 sightings are strictly
     increasing and no stamp is witnessed twice anywhere. *)
  let gen1 i = List.rev (List.filter_map
    (fun (g, s) -> if g = 1 then Some s else None) histories.(i))
  in
  List.iter
    (fun i ->
      let rec check = function
        | s1 :: (s2 :: _ as rest) ->
            if s2 <= s1 then
              Alcotest.failf "node %d gen-1 stamps not increasing: %d then %d"
                i s1 s2;
            check rest
        | _ -> ()
      in
      check (gen1 i))
    survivors;
  let seen = Hashtbl.create 256 in
  List.iter
    (fun i ->
      List.iter
        (fun s ->
          if Hashtbl.mem seen s then
            Alcotest.failf "gen-1 stamp %d witnessed twice" s;
          Hashtbl.add seen s ())
        (gen1 i))
    survivors;
  (* Liveness after the kill: survivors kept being served. *)
  Alcotest.(check bool)
    (Printf.sprintf "grants continued (%d total)" report.Cluster.grants)
    true
    (report.Cluster.grants > 20)

(* The fail-safe binsearch keeps the full search machinery (gimmes,
   traps, loans) on top of acknowledged rotation, so the live kill test
   asserts recovery (a higher-generation token reaches the survivors)
   and continued service rather than exact token paths. *)
let test_live_failsafe_search_regeneration () =
  let n = 5 in
  let victim = 1 in
  let mu = Mutex.create () in
  let regen_seen = Array.make n false in
  let killed = ref false in
  let tap (control : Cluster.control) ~self msg =
    match msg with
    | Tr_proto.Failsafe_search.Token { gen; stamp } ->
        let do_kill =
          Mutex.lock mu;
          if gen >= 2 then regen_seen.(self) <- true;
          let k = (not !killed) && self = victim && stamp > 10 in
          if k then killed := true;
          Mutex.unlock mu;
          k
        in
        if do_kill then control.Cluster.kill victim
    | _ -> ()
  in
  let config =
    (* Same 5 ms unit as the ring-failsafe test above: the ack window
       leaves one unit of wall slack, and 1 ms units let scheduling
       hiccups forge ack timeouts that mark live peers dead. *)
    {
      (Cluster.default_config ~n ~seed:9) with
      unit_s = 5e-3;
      shards = 1;
      load = Cluster.Open_loop { mean_interarrival = 10.0 };
      stop = Cluster.Duration 500.0;
    }
  in
  let report =
    Cluster.run ~tap config
      (module (val Tr_proto.Failsafe_search.make ~timeout:60.0 ())
        : Tr_sim.Node_intf.PROTOCOL with type msg = Tr_proto.Failsafe_search.msg)
      Codecs.failsafe_search
  in
  Alcotest.(check bool) "victim was killed" true !killed;
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
  let reached =
    List.filter (fun i -> i <> victim && regen_seen.(i)) (List.init n Fun.id)
  in
  Alcotest.(check bool)
    (Printf.sprintf "regenerated token reached survivors (%d of %d)"
       (List.length reached) (n - 1))
    true
    (List.length reached >= n - 2);
  Alcotest.(check bool)
    (Printf.sprintf "service continued (%d grants)" report.Cluster.grants)
    true
    (report.Cluster.grants > 20)

(* ---------------- sockets backend ---------------- *)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tr-net-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Unix.unlink (Filename.concat dir f) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

let test_unix_sockets_cluster () =
  with_temp_dir (fun dir ->
      let n = 3 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (Cluster.default_config ~n ~seed:5) with
          unit_s = 1e-3;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Grants 60;
          max_wall_s = 30.0;
        }
      in
      let report =
        Cluster.run_packed
          ~backend:(Cluster.Sockets { owned = [ 0; 1; 2 ]; addrs })
          config
          (Codecs.find_exn "ring")
      in
      Alcotest.(check bool) "grants reached" true (report.Cluster.grants >= 60);
      Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
      Alcotest.(check string) "backend" "unix" report.Cluster.backend)

(* One timed window on a one-shard 1024-node closed UDS ring, shared by
   the two per-grant allocation guards below: 20k deliveries after two
   revolutions of warm-up, with the shard's minor words, promoted words
   and major collections read by the tap at both ends of the window. *)
type ring_window = {
  minor_per_grant : float;
  promoted_per_grant : float;
  window_majors : int;
}

let ring_window =
  lazy
    (with_temp_dir (fun dir ->
         let n = 1024 and warm = 2048 and window = 20_000 in
         let addrs = Transport.uds_addrs ~dir ~n in
         let config =
           {
             (Cluster.default_config ~n ~seed:1) with
             unit_s = 1e-4;
             shards = 1;
             load = Cluster.Closed_loop { depth = 1 };
             stop = Cluster.Duration 1e12;
             max_wall_s = 60.0;
             spin = false;
             inproc = false;
           }
         in
         (* The tap runs on the one shard: no lock, and the run's join
            publishes what it wrote. The minor-word counter is the
            shard domain's own, read before the stat record is built. *)
         let deliveries = ref 0 in
         let minor = Array.make 2 nan
         and promoted = Array.make 2 nan
         and majors = Array.make 2 0 in
         let mark i =
           minor.(i) <- Gc.minor_words ();
           let s = Gc.quick_stat () in
           promoted.(i) <- s.Gc.promoted_words;
           majors.(i) <- s.Gc.major_collections
         in
         let tap (control : Cluster.control) ~self:_ _ =
           incr deliveries;
           if !deliveries = warm then mark 0
           else if !deliveries = warm + window then begin
             mark 1;
             control.Cluster.request_stop ()
           end
         in
         let report =
           Cluster.run ~tap
             ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
             config
             (module Tr_proto.Ring)
             Codecs.ring
         in
         Alcotest.(check bool)
           "window closed" true
           (!deliveries >= warm + window);
         Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
         let per_grant a = (a.(1) -. a.(0)) /. float_of_int window in
         {
           minor_per_grant = per_grant minor;
           promoted_per_grant = per_grant promoted;
           window_majors = majors.(1) - majors.(0);
         }))

(* Per-grant bookkeeping must die young. At the default minor heap
   size a socket ring fills the minor heap in about 700 grants, so on
   1024 nodes whatever a node keeps from one visit to the next (a
   queued arrival, a boxed statistic) is promoted. The budget is 4
   promoted words a grant; boxed per-request bookkeeping read 22. *)
let test_ring_promotion_budget () =
  let w = Lazy.force ring_window in
  let reading =
    Printf.sprintf "%.1f promoted words per grant, %d major GCs in the window"
      w.promoted_per_grant w.window_majors
  in
  print_endline reading;
  if not (w.promoted_per_grant <= 4.0) then
    Alcotest.failf "%s (budget 4)" reading

(* Everything one socket hop allocates on the shard: the handler's
   state and message, the frame's encode and decode, the transport's
   and the shard loop's bookkeeping. The count is a pure function of
   the code (every delivery takes the same path), so it repeats
   exactly. This code reads 253.0 words and the budget is 278, that
   count plus about 10 %; per-hop hash lookups, [Mutex.protect]
   closures and boxed clock reads read 317.0. *)
let test_ring_minor_budget () =
  let w = Lazy.force ring_window in
  let reading = Printf.sprintf "%.1f minor words per grant" w.minor_per_grant in
  print_endline reading;
  if not (w.minor_per_grant <= 278.0) then
    Alcotest.failf "%s (budget 278)" reading

(* The simulator's hot path, beside the socket ring's promotion budget:
   minor words allocated per simulated event at seed 1, over a fixed
   window of grants after a warm-up, for the offline benchmark's three
   kernels. What a steady-state event still allocates is the protocol's
   state record and message, the delay sample and the due time boxed on
   their way across module boundaries, and in the search protocols the
   trap queue's set nodes. Each count is a pure function of the seed and
   the code, so it repeats exactly. This code reads 9.16, 31.83 and
   13.29 words; each budget is that count plus about 10 %. *)
let test_sim_alloc_budget () =
  let words_per_event (module P : Node_intf.PROTOCOL) ~n ~mean ~warm ~window =
    let module E = Engine.Make (P) in
    let t =
      E.create
        {
          (Engine.default_config ~n ~seed:1) with
          Engine.workload =
            Workload.Global_poisson { mean_interarrival = mean };
        }
    in
    E.run t ~stop:(Engine.After_serves warm);
    let events0 = E.events_processed t and words0 = Gc.minor_words () in
    E.run t ~stop:(Engine.After_serves (warm + window));
    let words = Gc.minor_words () -. words0 in
    words /. float_of_int (E.events_processed t - events0)
  in
  List.iter
    (fun (name, proto, n, mean, warm, window, budget) ->
      let w = words_per_event proto ~n ~mean ~warm ~window in
      let reading = Printf.sprintf "%s: %.3f minor words per event" name w in
      print_endline reading;
      if not (w <= budget) then
        Alcotest.failf "%s (budget %.1f)" reading budget)
    (* name, protocol, n, mean interarrival, warm-up and window grants,
       budget *)
    [
      ("ring n=1024", Tr_proto.Ring.protocol, 1024, 10., 2000, 20_000, 10.1);
      ("binsearch n=1024", Tr_proto.Binsearch.protocol, 1024, 10., 1000, 5000,
       35.);
      ("adaptive n=100", Tr_proto.Adaptive.protocol, 100, 200., 500, 5000,
       14.6);
    ]

(* A listener that cannot bind (here: a missing --uds directory) is a
   caller error, reported as a Failure naming the socket path, the
   failed call and the errno. *)
let test_sockets_missing_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tr-net-missing-%d" (Unix.getpid ()))
  in
  Alcotest.(check bool) "directory absent" false (Sys.file_exists dir);
  let addrs = Transport.uds_addrs ~dir ~n:2 in
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
  match Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () with
  | t ->
      Transport.close t;
      Alcotest.fail "sockets bound into a missing directory"
  | exception Failure msg ->
      let has affix = Astring.String.is_infix ~affix msg in
      Alcotest.(check bool)
        ("names the socket path: " ^ msg)
        true
        (has (Filename.concat dir "node-0.sock"));
      Alcotest.(check bool)
        ("names the failed call and errno: " ^ msg)
        true
        (has "bind" && has (Unix.error_message Unix.ENOENT))

(* The raw UDS pump, on the tracked path: one shard adopts both nodes,
   then every batch is sent, flushed by polling the sender,
   reported by a zero-timeout wait and drained by polling the receiver.
   Every frame must arrive once, in order and in its own step, and the
   coalescing must survive: about one write(2) per 64-frame batch, not
   one per frame. Polling before adoption is a caller error. *)
let test_uds_pump_batching () =
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n:2 in
      let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
      let t = Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () in
      Fun.protect
        ~finally:(fun () -> Transport.close t)
        (fun () ->
          (match Transport.poll t ~owner:1 (fun _ -> ()) with
          | () -> Alcotest.fail "poll before adoption accepted"
          | exception Invalid_argument _ -> ());
          let batch = 64 and batches = 16 in
          let total = batch * batches in
          let got = ref [] in
          let on_frame view =
            match Tr_wire.Codec.decode_view Codecs.ring view with
            | Ok { Tr_wire.Codec.msg = Tr_proto.Ring.Token { stamp }; _ } ->
                got := stamp :: !got
            | Error _ -> Alcotest.fail "decode error"
          in
          let shard = Transport.adopt t ~owners:[ 0; 1 ] in
          let step () =
            Transport.poll t ~owner:0 (fun _ -> ());
            Transport.wait t shard ~timeout_s:0.0 ();
            Transport.poll t ~owner:1 on_frame
          in
          let scratch = Tr_wire.Codec.scratch () in
          for b = 0 to batches - 1 do
            for k = 0 to batch - 1 do
              Tr_wire.Codec.encode_frame scratch Codecs.ring ~src:0
                ~channel:Network.Reliable
                (Tr_proto.Ring.Token { stamp = (b * batch) + k })
              |> Transport.send_frame t ~src:0 ~dst:1 ~delay:0.0
            done;
            step ();
            (* Unix-domain connect and write complete synchronously, and a
               freshly accepted connection is read in the accepting poll:
               even the first batch needs no extra wait. *)
            Alcotest.(check int)
              (Printf.sprintf "batch %d delivered by its own step" b)
              ((b + 1) * batch) (List.length !got)
          done;
          Alcotest.(check (list int))
            "every frame once, in order" (List.init total Fun.id)
            (List.rev !got);
          let s = Transport.snapshot t in
          Alcotest.(check bool)
            (Printf.sprintf "about one write per batch (%d writes, %d batches)"
               s.Transport.snap_write_syscalls batches)
            true
            (s.Transport.snap_write_syscalls <= batches + 2)))

(* The non-blocking read/write stubs sort errno into the classes the
   transport acts on: would-block keeps a connection and its queued
   bytes, EOF drops an inbound connection, and a write to a closed peer
   tears the outbound one down for a reconnect. Node 0 is hosted; node
   1's address is a bare socket the test drives by hand. *)
let test_sockets_io_errors () =
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n:2 in
      let peer = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind peer addrs.(1);
      Unix.listen peer 8;
      let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
      let t = Transport.sockets ~clock ~n:2 ~owned:[ 0 ] ~addrs () in
      Fun.protect
        ~finally:(fun () ->
          Transport.close t;
          Unix.close peer)
        (fun () ->
          let shard = Transport.adopt t ~owners:[ 0 ] in
          let got = ref 0 in
          let poll () = Transport.poll t ~owner:0 (fun _ -> incr got) in
          let wait () = Transport.wait t shard ~timeout_s:1.0 () in
          let snap () = Transport.snapshot t in
          let scratch = Tr_wire.Codec.scratch () in
          let frame stamp =
            Tr_wire.Codec.encode_frame scratch Codecs.ring ~src:0
              ~channel:Network.Reliable
              (Tr_proto.Ring.Token { stamp })
          in
          poll ();
          (* An inbound connection with nothing on it yet: the accepting
             poll reads it at once, finds it empty and keeps it. *)
          let client = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect client addrs.(0);
          wait ();
          let a = snap () in
          poll ();
          let b = snap () in
          Alcotest.(check int) "an empty read is counted" 1
            (b.Transport.snap_read_syscalls - a.Transport.snap_read_syscalls);
          Alcotest.(check int) "and keeps the connection"
            (a.Transport.snap_fds_registered + 1)
            b.Transport.snap_fds_registered;
          let f = Buffer.contents (frame 7) in
          ignore (Unix.write_substring client f 0 (String.length f) : int);
          wait ();
          poll ();
          Alcotest.(check int) "the kept connection delivers" 1 !got;
          Unix.close client;
          wait ();
          poll ();
          Alcotest.(check int) "EOF drops the connection"
            a.Transport.snap_fds_registered
            (snap ()).Transport.snap_fds_registered;
          (* Outbound: dial the bare peer, then fill its kernel buffer
             while it reads nothing. *)
          let sent = ref 0 in
          let send k =
            for i = 1 to k do
              let buf = frame i in
              sent := !sent + Buffer.length buf;
              Transport.send_frame t ~src:0 ~dst:1 ~delay:0.0 buf
            done
          in
          send 1;
          poll ();
          let conn, _ = Unix.accept peer in
          send 100_000;
          poll ();
          let c = snap () in
          poll ();
          let d = snap () in
          Alcotest.(check int) "a full kernel buffer costs a write" 1
            (d.Transport.snap_write_syscalls - c.Transport.snap_write_syscalls);
          Alcotest.(check int) "and keeps the connection" 0
            (d.Transport.snap_reconnects + d.Transport.snap_frames_dropped);
          (* Drain it all at the peer: every byte queued arrives. *)
          Unix.set_nonblock conn;
          let rbuf = Bytes.create 65536 and recvd = ref 0 in
          while !recvd < !sent do
            poll ();
            match Unix.read conn rbuf 0 (Bytes.length rbuf) with
            | k -> recvd := !recvd + k
            | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
          done;
          Alcotest.(check int) "every queued byte arrived" !sent !recvd;
          Unix.close conn;
          (* The peer is gone: the next write fails with EPIPE, which
             must tear the connection down, not kill the process. *)
          let e = snap () in
          send 1;
          poll ();
          let g = snap () in
          Alcotest.(check int) "the failed write is counted" 1
            (g.Transport.snap_write_syscalls - e.Transport.snap_write_syscalls);
          Alcotest.(check int) "one reconnect scheduled" 1
            (g.Transport.snap_reconnects - e.Transport.snap_reconnects);
          Alcotest.(check int) "the connection is gone"
            (e.Transport.snap_fds_registered - 1)
            g.Transport.snap_fds_registered;
          Alcotest.(check int) "no frame dropped" 0
            g.Transport.snap_frames_dropped))

(* ---------------- readiness backends ---------------- *)

let available_backends () =
  List.filter Readiness.available [ Readiness.Epoll; Readiness.Poll ]

(* Adoption validates every owner before it touches any: a failed
   adopt leaves the nodes it named free for a later one. Both
   transports refuse a poll before adoption. *)
let test_adopt_rejects () =
  let rejects t what owners =
    match Transport.adopt t ~owners with
    | _ -> Alcotest.failf "adopt accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  let rejects_poll t what =
    match Transport.poll t ~owner:0 (fun _ -> ()) with
    | () -> Alcotest.failf "%s: poll before adopt accepted" what
    | exception Invalid_argument _ -> ()
  in
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n:3 in
      let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
      let t = Transport.sockets ~clock ~n:3 ~owned:[ 0; 1 ] ~addrs () in
      Fun.protect
        ~finally:(fun () -> Transport.close t)
        (fun () ->
          let rejects = rejects t in
          rejects_poll t "sockets";
          rejects "an out-of-range owner" [ 1; 3 ];
          rejects "a negative owner" [ -1 ];
          rejects "a node hosted elsewhere" [ 2 ];
          ignore (Transport.adopt t ~owners:[ 0 ] : Transport.shard);
          rejects "a node another shard adopted" [ 1; 0 ];
          (* Node 1 was named by two failed adopts, yet is still free. *)
          ignore (Transport.adopt t ~owners:[ 1 ] : Transport.shard);
          rejects "a node adopted twice" [ 1 ]));
  let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
  let t = Transport.loopback ~clock ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Transport.close t)
    (fun () ->
      rejects_poll t "loopback";
      rejects t "an out-of-range loopback owner" [ 0; 2 ];
      ignore (Transport.adopt t ~owners:[ 0 ] : Transport.shard);
      rejects t "a loopback node another shard adopted" [ 1; 0 ])

(* One wake pipe per shard, drained only when the set reports it: a
   wake issued before the shard's first wait still ends that wait, the
   wait drains the pipe (two reads, counted), and the next wait finds
   nothing ready. Read from the counters, not from wall time: a lost
   wake would show as a wait with zero fds ready. *)
let test_wake_before_first_wait () =
  List.iter
    (fun backend ->
      let name = Readiness.backend_name backend in
      with_temp_dir (fun dir ->
          let addrs = Transport.uds_addrs ~dir ~n:2 in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let t =
            Transport.sockets ~readiness:backend ~clock ~n:2 ~owned:[ 0; 1 ]
              ~addrs ()
          in
          Fun.protect
            ~finally:(fun () -> Transport.close t)
            (fun () ->
              let shard = Transport.adopt t ~owners:[ 0; 1 ] in
              let activations = ref 0 in
              let on_ready _ = incr activations in
              Transport.wake shard;
              Transport.wake shard;
              Transport.wait t shard ~on_ready ~timeout_s:5.0 ();
              let a = Transport.snapshot t in
              Alcotest.(check int) (name ^ ": one wait") 1
                a.Transport.snap_wait_calls;
              Alcotest.(check int) (name ^ ": the wake pipe was ready") 1
                a.Transport.snap_fds_ready;
              Alcotest.(check int)
                (name ^ ": drained, reads counted")
                2 a.Transport.snap_read_syscalls;
              Alcotest.(check int)
                (name ^ ": a wake activates no owner")
                0 !activations;
              Transport.wait t shard ~on_ready ~timeout_s:0.01 ();
              let b = Transport.snapshot t in
              Alcotest.(check int) (name ^ ": second wait") 2
                b.Transport.snap_wait_calls;
              Alcotest.(check int)
                (name ^ ": no stale readability")
                1 b.Transport.snap_fds_ready;
              Alcotest.(check int)
                (name ^ ": an unreported pipe is not read")
                2 b.Transport.snap_read_syscalls)))
    (available_backends ())


(* Register / report / level-trigger / remove, for every backend this
   build can create. *)
let test_readiness_basic () =
  List.iter
    (fun backend ->
      let name = Readiness.backend_name backend in
      let rd = Readiness.create ~backend () in
      let r, w = Unix.pipe () in
      Readiness.set rd r ~read:true ~write:false;
      Alcotest.(check int) (name ^ ": registered") 1 (Readiness.fds_registered rd);
      let cb ~fd:_ ~readable:_ ~writable:_ = () in
      Alcotest.(check int)
        (name ^ ": idle pipe not ready")
        0
        (Readiness.wait rd ~timeout_s:0.0 cb);
      ignore (Unix.write_substring w "x" 0 1);
      Alcotest.(check int)
        (name ^ ": ready after write")
        1
        (Readiness.wait rd ~timeout_s:1.0 cb);
      Alcotest.(check int)
        (name ^ ": level-triggered re-report")
        1
        (Readiness.wait rd ~timeout_s:0.0 cb);
      Readiness.remove rd r;
      Alcotest.(check int)
        (name ^ ": removed fd silent")
        0
        (Readiness.wait rd ~timeout_s:0.0 cb);
      Unix.close r;
      Unix.close w;
      Readiness.close rd)
    (available_backends ())

(* The fd-indexed sets against a Hashtbl model, on every backend: random
   set/modify/remove over a pool of pipes, some closed and reopened so
   the kernel hands their numbers out again, with fds past the tables'
   initial size. Every pipe holds a byte, so a read end with read
   interest is readable and a write end with write interest writable;
   every wait must report exactly those fds, with those flags. *)
type rd_op = Set of int * bool * bool | Remove of int | Reopen of int

let rd_pipes = 48

(* Unix.file_descr is an int on every Unix port, as wait reports it. *)
external fdi : Unix.file_descr -> int = "%identity"

let rd_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun e r w -> Set (e, r, w)) (int_bound ((2 * rd_pipes) - 1)) bool bool);
        (3, map (fun e -> Remove e) (int_bound ((2 * rd_pipes) - 1)));
        (1, map (fun p -> Reopen p) (int_bound (rd_pipes - 1)));
      ])

let rd_op_print = function
  | Set (e, r, w) -> Printf.sprintf "Set(%d,%b,%b)" e r w
  | Remove e -> Printf.sprintf "Remove %d" e
  | Reopen p -> Printf.sprintf "Reopen %d" p

let readiness_model_prop backend ops =
  let rd = Readiness.create ~backend () in
  let open_pipe () =
    let r, w = Unix.pipe ~cloexec:true () in
    ignore (Unix.write_substring w "x" 0 1 : int);
    (r, w)
  in
  let pipes = Array.init rd_pipes (fun _ -> open_pipe ()) in
  (* End [e] is pipe [e / 2]'s read end when even, write end when odd. *)
  let fd_of e =
    let r, w = pipes.(e / 2) in
    if e mod 2 = 0 then r else w
  in
  let model = Hashtbl.create 64 in
  let check () =
    if Readiness.fds_registered rd <> Hashtbl.length model then
      QCheck.Test.fail_reportf "fds_registered %d, model %d"
        (Readiness.fds_registered rd) (Hashtbl.length model);
    let reported = ref [] in
    let n =
      Readiness.wait rd ~timeout_s:0.0 (fun ~fd ~readable ~writable ->
          reported := (fd, readable, writable) :: !reported)
    in
    let expected =
      Array.to_list (Array.init (2 * rd_pipes) Fun.id)
      |> List.filter_map (fun e ->
             match Hashtbl.find_opt model (fdi (fd_of e)) with
             | Some (r, w) ->
                 let readable = r && e mod 2 = 0
                 and writable = w && e mod 2 = 1 in
                 if readable || writable then
                   Some (fdi (fd_of e), readable, writable)
                 else None
             | None -> None)
      |> List.sort compare
    in
    let reported = List.sort compare !reported in
    if reported <> expected || n <> List.length expected then
      QCheck.Test.fail_reportf "wait reported %d: [%s], expected [%s]" n
        (String.concat "; "
           (List.map (fun (f, r, w) -> Printf.sprintf "%d:%b:%b" f r w) reported))
        (String.concat "; "
           (List.map (fun (f, r, w) -> Printf.sprintf "%d:%b:%b" f r w) expected))
  in
  let forget fd =
    Readiness.remove rd fd;
    Hashtbl.remove model (fdi fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (r, w) ->
          Unix.close r;
          Unix.close w)
        pipes;
      Readiness.close rd)
    (fun () ->
      List.iter
        (fun op ->
          (match op with
          | Set (e, read, write) ->
              Readiness.set rd (fd_of e) ~read ~write;
              Hashtbl.replace model (fdi (fd_of e)) (read, write)
          | Remove e -> forget (fd_of e)
          | Reopen p ->
              let r, w = pipes.(p) in
              forget r;
              forget w;
              Unix.close r;
              Unix.close w;
              pipes.(p) <- open_pipe ());
          check ())
        ops;
      true)

let test_readiness_model =
  List.map
    (fun backend ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:60
           ~name:("fd tables vs a model: "
                  ^ Readiness.backend_name backend)
           (QCheck.make
              ~print:(fun ops -> String.concat "; " (List.map rd_op_print ops))
              ~shrink:QCheck.Shrink.list
              QCheck.Gen.(list_size (int_range 1 120) rd_op_gen))
           (readiness_model_prop backend)))
    (available_backends ())

(* Unknown backend names fail loudly (a forced backend silently
   downgrading would invalidate benchmarks), and the unforced default
   follows the epoll -> poll fallback chain. The names of the removed
   uring and select backends are unknown values like any other. *)
let test_readiness_config () =
  let rejected = [ "bogus"; "uring"; "io_uring"; "select" ] in
  List.iter
    (fun name ->
      match Readiness.backend_of_string name with
      | Error e ->
          Alcotest.(check bool)
            (name ^ ": error names the choices") true
            (Astring.String.is_infix ~affix:"epoll or poll" e)
      | Ok _ -> Alcotest.failf "%S backend accepted" name)
    rejected;
  (match Readiness.backend_of_string " Poll " with
  | Ok Readiness.Poll -> ()
  | _ -> Alcotest.fail "trimmed/cased parse failed");
  let saved = Sys.getenv_opt "TR_READINESS" in
  List.iter
    (fun name ->
      Unix.putenv "TR_READINESS" name;
      match Readiness.default_backend () with
      | exception Failure msg ->
          Alcotest.(check bool)
            (name ^ ": failure names TR_READINESS") true
            (String.length msg >= 12 && String.sub msg 0 12 = "TR_READINESS")
      | _ -> Alcotest.failf "TR_READINESS=%s did not fail" name)
    rejected;
  (* An empty value reads as unset, so restoring is always possible. *)
  Unix.putenv "TR_READINESS" (Option.value saved ~default:"");
  if saved = None || saved = Some "" then begin
    let expect =
      if Readiness.available Readiness.Epoll then Readiness.Epoll
      else Readiness.Poll
    in
    Alcotest.(check string)
      "default is first of the fallback chain"
      (Readiness.backend_name expect)
      (Readiness.backend_name (Readiness.default_backend ()))
  end

(* A burst of wakes must fully drain: stale readability would turn every
   later wait into an immediate return and spin the shard at 100% CPU. *)
let test_wakeup_drain () =
  let wake = Wakeup.create () in
  let rd = Readiness.create () in
  Readiness.set rd (Wakeup.read_fd wake) ~read:true ~write:false;
  let cb ~fd:_ ~readable:_ ~writable:_ = () in
  for _ = 1 to 1000 do
    Wakeup.wake wake
  done;
  Alcotest.(check int)
    "wake burst visible" 1
    (Readiness.wait rd ~timeout_s:1.0 cb);
  Alcotest.(check int)
    "drain counts the emptying read and the EAGAIN read" 2
    (Wakeup.drain wake);
  Alcotest.(check int)
    "drained pipe is silent" 0
    (Readiness.wait rd ~timeout_s:0.0 cb);
  Wakeup.wake wake;
  Alcotest.(check int)
    "wake after drain still wakes" 1
    (Readiness.wait rd ~timeout_s:1.0 cb);
  Alcotest.(check int) "second drain: two reads" 2 (Wakeup.drain wake);
  Alcotest.(check int)
    "second drain silent again" 0
    (Readiness.wait rd ~timeout_s:0.0 cb);
  Alcotest.(check int) "empty pipe: one read" 1 (Wakeup.drain wake);
  Readiness.remove rd (Wakeup.read_fd wake);
  Readiness.close rd;
  Wakeup.close wake

(* The env var must reach a real transport end-to-end: a sockets
   transport created with no explicit backend under TR_READINESS=poll
   waits in poll. *)
let test_readiness_env_forcing () =
  let saved = Sys.getenv_opt "TR_READINESS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TR_READINESS" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "TR_READINESS" "poll";
      with_temp_dir (fun dir ->
          let addrs = Transport.uds_addrs ~dir ~n:2 in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let t = Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () in
          Fun.protect
            ~finally:(fun () -> Transport.close t)
            (fun () ->
              Alcotest.(check string)
                "TR_READINESS=poll forces the transport backend" "poll"
                (Transport.readiness_backend t))))

(* ---------------- backend parity over real sockets ---------------- *)

(* The same closed-loop UDS ring, forced onto each backend in turn: the
   token is unique, so a single-shard run's processed-token sequence is
   deterministic and must be byte-identical across epoll and poll. Also pins the observability satellite: the report names the
   forced backend and carries live wait counters. *)
let capture_sockets_ring_log ?(spin = false) ?(inproc = false) ?(shards = 1)
    ~backend ~n ~grants ~keep () =
  with_temp_dir (fun dir ->
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (Cluster.default_config ~n ~seed:7) with
          unit_s = 1e-3;
          shards;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Grants grants;
          max_wall_s = 30.0;
          readiness = Some backend;
          spin;
          inproc;
        }
      in
      let mu = Mutex.create () in
      let log = ref [] in
      let count = ref 0 in
      let tap _control ~self (Tr_proto.Ring.Token { stamp }) =
        Mutex.lock mu;
        if !count < keep then begin
          log := Printf.sprintf "%d T %d" self stamp :: !log;
          incr count
        end;
        Mutex.unlock mu
      in
      let report =
        Cluster.run ~tap
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config
          (module Tr_proto.Ring)
          Codecs.ring
      in
      (report, String.concat "\n" (List.rev !log)))

let test_backend_parity () =
  let runs =
    List.map
      (fun backend ->
        let report, log =
          capture_sockets_ring_log ~backend ~n:3 ~grants:60 ~keep:40 ()
        in
        let name = Readiness.backend_name backend in
        Alcotest.(check string)
          (name ^ ": report names the backend")
          name report.Cluster.readiness;
        Alcotest.(check int)
          (name ^ ": zero decode errors")
          0 report.Cluster.decode_errors;
        Alcotest.(check bool)
          (name ^ ": waits counted")
          true
          (report.Cluster.wait_calls > 0);
        Alcotest.(check bool)
          (name ^ ": fd gauge positive")
          true
          (report.Cluster.fds_registered > 0);
        Alcotest.(check bool)
          (name ^ ": ready-per-wait sane")
          true
          (report.Cluster.avg_ready_per_wait > 0.0);
        (name, log))
      (available_backends ())
  in
  match runs with
  | [] -> Alcotest.fail "no readiness backend available"
  | (name0, log0) :: rest ->
      List.iter
        (fun (name, log) ->
          Alcotest.(check string)
            (Printf.sprintf "%s token log == %s token log" name name0)
            log0 log)
        rest

(* The in-process fast path must be invisible on the wire: the same
   forced-backend closed-loop ring, with every hop short-circuited
   through lock-free mailboxes, must produce a byte-identical processed
   token log — and the report must prove the fast path actually carried
   frames. *)
let test_inproc_parity () =
  let backend =
    if Readiness.available Readiness.Epoll then Readiness.Epoll
    else Readiness.Poll
  in
  let plain, log_plain =
    capture_sockets_ring_log ~backend ~n:3 ~grants:60 ~keep:40 ()
  in
  let fast, log_fast =
    capture_sockets_ring_log ~inproc:true ~backend ~n:3 ~grants:60 ~keep:40 ()
  in
  Alcotest.(check int)
    "no inproc frames when disabled" 0 plain.Cluster.inproc_frames;
  Alcotest.(check bool)
    "fast path carried frames" true
    (fast.Cluster.inproc_frames > 0);
  Alcotest.(check int) "zero decode errors" 0 fast.Cluster.decode_errors;
  Alcotest.(check string)
    "token log identical through the fast path" log_plain log_fast;
  (* Co-hosted hops never touch a socket, so the syscall bill collapses. *)
  Alcotest.(check bool)
    (Printf.sprintf "syscalls/grant dropped (%.2f -> %.2f)"
       plain.Cluster.syscalls_per_grant fast.Cluster.syscalls_per_grant)
    true
    (fast.Cluster.syscalls_per_grant < plain.Cluster.syscalls_per_grant)

(* The adaptive spin window only arms when there is a user-space signal
   to poll (the in-process mailboxes) and the shard would
   otherwise block; two shards passing the token back and forth block
   between hops, so the hit/miss counters must move — except on a
   single-CPU host, where the transport gates spinning off (the idle
   shard's busy-poll would steal the working shard's only core) and the
   counters must stay exactly zero. Both branches are real assertions:
   this test pins the gate itself. *)
let test_spin_smoke () =
  let backend =
    if Readiness.available Readiness.Epoll then Readiness.Epoll
    else Readiness.Poll
  in
  let report, _ =
    capture_sockets_ring_log ~spin:true ~inproc:true ~shards:2 ~backend ~n:4
      ~grants:60 ~keep:0 ()
  in
  let windows = report.Cluster.spin_hits + report.Cluster.spin_misses in
  if Readiness.ncpus () > 1 then
    Alcotest.(check bool)
      (Printf.sprintf "spin windows ran (hits=%d misses=%d)"
         report.Cluster.spin_hits report.Cluster.spin_misses)
      true (windows > 0)
  else
    Alcotest.(check int) "single-CPU host: spin gated off" 0 windows;
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors

(* Regression guard for the teardown race in report assembly: totals
   must come from one coherent [snapshot], not field-by-field re-reads
   of live atomics. Quiescent, two snapshots and the raw counters must
   agree exactly — and [snapshot_of_stats] (the service front-end's
   path, which only holds the bare stats record) must match too. *)
let test_stats_snapshot_coherent () =
  with_temp_dir (fun dir ->
      let n = 2 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
      let t = Transport.sockets ~clock ~n ~owned:[ 0; 1 ] ~addrs () in
      Fun.protect
        ~finally:(fun () -> Transport.close t)
        (fun () ->
          let frame stamp =
            Tr_wire.Codec.encode_envelope Codecs.ring ~src:0
              ~channel:Network.Reliable
              (Tr_proto.Ring.Token { stamp })
          in
          let got = ref 0 in
          let shard = Transport.adopt t ~owners:[ 0; 1 ] in
          Transport.send t ~src:0 ~dst:1 ~delay:0.0 (frame 1);
          let deadline = Unix.gettimeofday () +. 5.0 in
          while !got < 1 && Unix.gettimeofday () < deadline do
            Transport.wait t shard ~timeout_s:0.05 ();
            (* Polling the sender flushes its coalesced outgoing buffer. *)
            Transport.poll t ~owner:0 (fun _view -> ());
            Transport.poll t ~owner:1 (fun _view -> incr got)
          done;
          Alcotest.(check int) "frame arrived" 1 !got;
          let stats = Transport.stats t in
          let a = Transport.snapshot t in
          let b = Transport.snapshot_of_stats stats in
          Alcotest.(check bool) "snapshots agree" true (a = b);
          Alcotest.(check int)
            "frames_sent coherent"
            (Atomic.get stats.Transport.frames_sent)
            a.Transport.snap_frames_sent;
          Alcotest.(check int)
            "frames_received coherent"
            (Atomic.get stats.Transport.frames_received)
            a.Transport.snap_frames_received;
          Alcotest.(check bool)
            "write syscalls counted" true
            (a.Transport.snap_write_syscalls > 0)));
  (* The race itself: a reporter snapshotting while shard domains still
     mutate the counters (and then tear the transport down) must never
     crash or read a torn record. Run a short cluster and snapshot its
     stats from the control block mid-flight, exactly as the service
     front-end does. *)
  with_temp_dir (fun dir ->
      let n = 3 in
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (Cluster.default_config ~n ~seed:13) with
          unit_s = 1e-3;
          shards = 2;
          load = Cluster.Closed_loop { depth = 1 };
          stop = Cluster.Grants 120;
          max_wall_s = 30.0;
        }
      in
      let snaps = ref [] in
      let tap (control : Cluster.control) ~self:_ _msg =
        if List.length !snaps < 50 then
          snaps :=
            Transport.snapshot_of_stats control.Cluster.transport_stats
            :: !snaps
      in
      let report =
        Cluster.run ~tap
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config
          (module Tr_proto.Ring)
          Codecs.ring
      in
      Alcotest.(check bool) "cluster ran" true (report.Cluster.grants >= 120);
      Alcotest.(check bool) "mid-run snapshots taken" true (!snaps <> []);
      (* Monotone counters must read monotone across snapshots taken in
         tap order on one shard's timeline... they interleave across
         shards, so just require every snapshot internally sane. *)
      List.iter
        (fun (s : Transport.snapshot) ->
          Alcotest.(check bool)
            "non-negative counters" true
            (s.Transport.snap_frames_sent >= 0
            && s.Transport.snap_frames_received >= 0
            && s.Transport.snap_wait_calls >= 0))
        !snaps)

(* Feed frames to a hosted listener through a raw socket in adversarial
   chunks (byte-by-byte, then 3-byte slices) under each forced backend:
   the stream decoder must deliver each frame exactly once, with no
   resync skips and no decode errors, regardless of how reads split. *)
let test_adversarial_chunking () =
  List.iter
    (fun backend ->
      let name = Readiness.backend_name backend in
      with_temp_dir (fun dir ->
          let n = 2 in
          let addrs = Transport.uds_addrs ~dir ~n in
          let clock = Tr_net_rt.Clock.create ~unit_s:1e-3 () in
          let t =
            Transport.sockets ~readiness:backend ~clock ~n ~owned:[ 1 ] ~addrs
              ()
          in
          Fun.protect
            ~finally:(fun () -> Transport.close t)
            (fun () ->
              let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () -> try Unix.close s with _ -> ())
                (fun () ->
                  let shard = Transport.adopt t ~owners:[ 1 ] in
                  Unix.connect s addrs.(1);
                  let frame stamp =
                    Tr_wire.Codec.encode_envelope Codecs.ring ~src:0
                      ~channel:Network.Reliable
                      (Tr_proto.Ring.Token { stamp })
                  in
                  let got = ref [] in
                  let on_frame view =
                    match Tr_wire.Codec.decode_view Codecs.ring view with
                    | Ok
                        {
                          Tr_wire.Codec.src;
                          msg = Tr_proto.Ring.Token { stamp };
                          _;
                        } ->
                        got := (src, stamp) :: !got
                    | Error _ -> Alcotest.failf "%s: decode error" name
                  in
                  let pump_until k =
                    let deadline = Unix.gettimeofday () +. 5.0 in
                    while
                      List.length !got < k && Unix.gettimeofday () < deadline
                    do
                      Transport.wait t shard ~timeout_s:0.05 ();
                      Transport.poll t ~owner:1 on_frame
                    done
                  in
                  let send_chunked data ~chunk =
                    String.iteri
                      (fun i _ ->
                        if i mod chunk = 0 then begin
                          let len =
                            Stdlib.min chunk (String.length data - i)
                          in
                          ignore (Unix.write_substring s data i len);
                          (* Let the reader see this fragment alone. *)
                          Transport.wait t shard ~timeout_s:0.002 ();
                          Transport.poll t ~owner:1 on_frame
                        end)
                      data
                  in
                  let f1 = frame 11 in
                  (* All but the last byte: nothing may be delivered. *)
                  send_chunked
                    (String.sub f1 0 (String.length f1 - 1))
                    ~chunk:1;
                  Alcotest.(check int)
                    (name ^ ": partial frame not delivered")
                    0 (List.length !got);
                  ignore
                    (Unix.write_substring s f1 (String.length f1 - 1) 1);
                  pump_until 1;
                  send_chunked (frame 12) ~chunk:3;
                  pump_until 2;
                  Alcotest.(check (list (pair int int)))
                    (name ^ ": both frames exactly once")
                    [ (0, 11); (0, 12) ]
                    (List.rev !got);
                  let stats = Transport.stats t in
                  Alcotest.(check int)
                    (name ^ ": no resync skips")
                    0
                    (Atomic.get stats.Transport.resync_skips);
                  Alcotest.(check int)
                    (name ^ ": no decode errors")
                    0
                    (Atomic.get stats.Transport.decode_errors)))))
    (available_backends ())

(* ---------------- loopback golden guard ---------------- *)

(* Semantic byte-identity of the live loopback runtime across I/O
   rewrites, in the same spirit as test/golden/: a single-shard
   closed-loop run's processed-message sequence is deterministic (ring
   and binsearch use no timers, all channels share the one-unit hop
   delay, and a single shard processes deliveries in due-time order =
   emission order), so the tap log must match a committed golden file.

   Two guards against wall-clock jitter: the unit scale is far above
   scheduling noise, and only the first [keep] lines are compared — the
   tail after the stop condition fires depends on how many in-flight
   messages the final iteration drains, which is timing-sensitive.

   Regenerate with TR_LIVE_GOLDEN_REGEN=<dir> (writes <dir>/<file>
   instead of comparing). *)

let live_log_config ~n ~seed ~unit_s ~grants =
  {
    (Cluster.default_config ~n ~seed) with
    unit_s;
    shards = 1;
    load = Cluster.Closed_loop { depth = 1 };
    stop = Cluster.Grants grants;
    max_wall_s = 30.0;
  }

let capture_live_log (type m) ~(protocol : (module Tr_sim.Node_intf.PROTOCOL
                                              with type msg = m))
    ~(codec : m Tr_wire.Codec.t) ~(render : m -> string)
    ?(filter = fun _ -> true) ~config ~keep () =
  let mu = Mutex.create () in
  let log = ref [] in
  let count = ref 0 in
  let tap _control ~self msg =
    Mutex.lock mu;
    (if !count < keep then
       let line = Printf.sprintf "%d %s" self (render msg) in
       if filter line then begin
         log := line :: !log;
         incr count
       end);
    Mutex.unlock mu
  in
  let report = Cluster.run ~tap config protocol codec in
  Alcotest.(check int) "zero decode errors" 0 report.Cluster.decode_errors;
  Alcotest.(check bool) "no frames dropped" true
    (report.Cluster.frames_dropped = 0);
  String.concat "\n" (List.rev !log) ^ "\n"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_live_golden ~file log =
  match Sys.getenv_opt "TR_LIVE_GOLDEN_REGEN" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir file) in
      output_string oc log;
      close_out oc
  | None -> Alcotest.(check string) file (read_file ("golden/" ^ file)) log

let test_golden_live_ring () =
  let log =
    capture_live_log
      ~protocol:(module Tr_proto.Ring)
      ~codec:Codecs.ring
      ~render:(fun (Tr_proto.Ring.Token { stamp }) ->
        Printf.sprintf "T %d" stamp)
      ~config:(live_log_config ~n:8 ~seed:21 ~unit_s:1e-3 ~grants:80)
      ~keep:64 ()
  in
  check_live_golden ~file:"live_ring_n8_seed21.txt" log

let test_golden_live_binsearch () =
  let render msg =
    let open Tr_proto.Binsearch in
    match msg with
    | Token { stamp } -> Printf.sprintf "T %d" stamp
    | Loan { stamp } -> Printf.sprintf "L %d" stamp
    | Return { stamp } -> Printf.sprintf "R %d" stamp
    | Gimme { requester; span; stamp } ->
        Printf.sprintf "G %d %d %d" requester span stamp
  in
  (* Binsearch floods Gimme requests from several nodes concurrently;
     their relative arrival order carries wall-clock jitter even at a
     4 ms unit. Token movement and the Loan/Return chain are serialized
     by the unique token, so that subsequence is the deterministic
     semantic core — verified identical across 8 repeat runs. *)
  let filter line =
    match String.index_opt line ' ' with
    | Some i -> i + 1 < String.length line && line.[i + 1] <> 'G'
    | None -> false
  in
  let log =
    capture_live_log
      ~protocol:(module (val Tr_proto.Binsearch.make ()))
      ~codec:Codecs.binsearch ~render ~filter
      ~config:(live_log_config ~n:8 ~seed:21 ~unit_s:4e-3 ~grants:60)
      ~keep:40 ()
  in
  check_live_golden ~file:"live_binsearch_n8_seed21.txt" log

(* ---------------- delay-model validation ---------------- *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_network_validation () =
  expect_invalid "uniform lo>hi" (fun () ->
      Network.create ~reliable_delay:(Network.Uniform (3.0, 1.0)) ());
  expect_invalid "uniform negative" (fun () ->
      Network.create ~cheap_delay:(Network.Uniform (-1.0, 2.0)) ());
  expect_invalid "uniform nan" (fun () ->
      Network.create ~reliable_delay:(Network.Uniform (Float.nan, 1.0)) ());
  expect_invalid "constant negative" (fun () ->
      Network.create ~reliable_delay:(Network.Constant (-0.5)) ());
  expect_invalid "exponential zero" (fun () ->
      Network.create ~cheap_delay:(Network.Exponential 0.0) ());
  (* Valid models still construct. *)
  let (_ : Network.t) =
    Network.create
      ~reliable_delay:(Network.Uniform (0.2, 3.0))
      ~cheap_delay:(Network.Exponential 1.5) ()
  in
  ()

let test_per_link_guard () =
  let net =
    Network.create
      ~reliable_delay:(Network.Per_link (fun ~src ~dst:_ -> if src = 1 then -1.0 else 2.0))
      ()
  in
  let rng = Rng.create 1 in
  let d = Network.sample_delay net rng Network.Reliable ~src:0 ~dst:1 in
  Alcotest.(check (float 1e-9)) "good link" 2.0 d;
  expect_invalid "bad per-link sample" (fun () ->
      Network.sample_delay net rng Network.Reliable ~src:1 ~dst:0)

(* Fleet totals: counts add up, wall and p99 take the worst child, and
   mean responsiveness weighs each child by its grants (a child that
   served nothing carries a NaN mean and no weight). *)
let test_fleet_total () =
  let member ~grants ~wall ~resp ~p99 =
    {
      Cluster.m_grants = grants;
      m_frames_sent = 10 * grants;
      m_wall_s = wall;
      m_resp_mean = resp;
      m_resp_p99 = p99;
      m_wait_calls = 7;
      m_fds_registered = 3;
      m_decode_errors = 1;
    }
  in
  let t =
    Cluster.fleet_total
      [
        member ~grants:100 ~wall:2.0 ~resp:4.0 ~p99:9.0;
        member ~grants:300 ~wall:3.0 ~resp:8.0 ~p99:6.0;
        member ~grants:0 ~wall:1.0 ~resp:Float.nan ~p99:0.0;
      ]
  in
  Alcotest.(check int) "grants" 400 t.Cluster.m_grants;
  Alcotest.(check int) "frames" 4000 t.Cluster.m_frames_sent;
  Alcotest.(check int) "waits" 21 t.Cluster.m_wait_calls;
  Alcotest.(check int) "fds" 9 t.Cluster.m_fds_registered;
  Alcotest.(check int) "decode errors" 3 t.Cluster.m_decode_errors;
  Alcotest.(check (float 1e-9)) "wall" 3.0 t.Cluster.m_wall_s;
  Alcotest.(check (float 1e-9)) "p99" 9.0 t.Cluster.m_resp_p99;
  Alcotest.(check (float 1e-9)) "weighted resp" 7.0 t.Cluster.m_resp_mean;
  let idle = member ~grants:0 ~wall:1.0 ~resp:Float.nan ~p99:0.0 in
  Alcotest.(check bool) "no grants, no mean" true
    (Float.is_nan (Cluster.fleet_total [ idle ]).Cluster.m_resp_mean)

let test_scenario_network_error () =
  match Tokenring.Scenario.network_of_string "uniform:3,1" with
  | Ok _ -> Alcotest.fail "inverted uniform accepted"
  | Error msg ->
      Alcotest.(check bool)
        "message mentions uniform" true
        (Astring.String.is_infix ~affix:"niform" msg)

let () =
  Alcotest.run "net_rt"
    [
      ( "loopback",
        [
          Alcotest.test_case "smoke" `Quick test_loopback_smoke;
          Alcotest.test_case "shard wait: due frames and wakes" `Quick
            test_loopback_shard_wait;
          Alcotest.test_case "injected request picked up at once" `Quick
            test_loopback_inject_pickup;
          Alcotest.test_case "idle cluster: bounded kernel waits" `Quick
            test_loopback_idle_waits;
          Alcotest.test_case "wakes after the run touch no fd" `Quick
            test_wake_after_run;
          Alcotest.test_case "all protocols live" `Slow
            test_all_protocols_live;
        ] );
      ( "cross-validation",
        [
          Alcotest.test_case "ring O(N) vs binsearch O(log N)" `Slow
            test_trend_ring_vs_binsearch;
        ] );
      ( "failure",
        [
          Alcotest.test_case "live regeneration" `Quick test_live_regeneration;
          Alcotest.test_case "failsafe-search live regeneration" `Quick
            test_live_failsafe_search_regeneration;
        ] );
      ( "sockets",
        [
          Alcotest.test_case "unix-domain cluster" `Quick
            test_unix_sockets_cluster;
          Alcotest.test_case "missing uds directory names the path" `Quick
            test_sockets_missing_dir;
          Alcotest.test_case "uds pump batches on the tracked path" `Quick
            test_uds_pump_batching;
          Alcotest.test_case "adopt rejects bad owners" `Quick
            test_adopt_rejects;
          Alcotest.test_case "non-blocking I/O error classes" `Quick
            test_sockets_io_errors;
          Alcotest.test_case "promoted words per grant" `Quick
            test_ring_promotion_budget;
          Alcotest.test_case "minor words per grant" `Quick
            test_ring_minor_budget;
          Alcotest.test_case "simulator minor words per event" `Quick
            test_sim_alloc_budget;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "register/report/remove" `Quick
            test_readiness_basic;
        ]
        @ test_readiness_model
        @ [
          Alcotest.test_case "config errors + fallback chain" `Quick
            test_readiness_config;
          Alcotest.test_case "TR_READINESS reaches the transport" `Quick
            test_readiness_env_forcing;
          Alcotest.test_case "wake pipe drains to EAGAIN" `Quick
            test_wakeup_drain;
          Alcotest.test_case "wake before the first wait is kept" `Quick
            test_wake_before_first_wait;
          Alcotest.test_case "backend parity on a UDS ring" `Quick
            test_backend_parity;
          Alcotest.test_case "adversarial chunking per backend" `Quick
            test_adversarial_chunking;
          Alcotest.test_case "inproc fast-path parity" `Quick
            test_inproc_parity;
          Alcotest.test_case "adaptive spin counters" `Quick test_spin_smoke;
          Alcotest.test_case "stats snapshot coherent" `Quick
            test_stats_snapshot_coherent;
        ] );
      ( "golden",
        [
          Alcotest.test_case "loopback ring token sequence" `Quick
            test_golden_live_ring;
          Alcotest.test_case "loopback binsearch message sequence" `Quick
            test_golden_live_binsearch;
        ] );
      ( "network-validation",
        [
          Alcotest.test_case "delay models" `Quick test_network_validation;
          Alcotest.test_case "per-link guard" `Quick test_per_link_guard;
          Alcotest.test_case "scenario error" `Quick
            test_scenario_network_error;
        ] );
      ("fleet", [ Alcotest.test_case "totals" `Quick test_fleet_total ]);
    ]
