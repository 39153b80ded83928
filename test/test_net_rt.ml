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
  Alcotest.(check string) "no readiness set on loopback" "none"
    report.Cluster.readiness;
  Alcotest.(check bool)
    "frames flowed" true
    (report.Cluster.frames_received > 0)

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

(* The raw UDS pump, on the tracked path: one zero-timeout wait adopts
   both nodes, then every batch is sent, flushed by polling the sender,
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
          let step () =
            Transport.poll t ~owner:0 (fun _ -> ());
            Transport.wait t ~owners:[ 0; 1 ] ~timeout_s:0.0 ();
            Transport.poll t ~owner:1 on_frame
          in
          let scratch = Tr_wire.Codec.scratch () in
          Transport.wait t ~owners:[ 0; 1 ] ~timeout_s:0.0 ();
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

(* ---------------- readiness backends ---------------- *)

let available_backends () =
  List.filter Readiness.available [ Readiness.Epoll; Readiness.Poll ]

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
  Wakeup.drain wake;
  Alcotest.(check int)
    "drained pipe is silent" 0
    (Readiness.wait rd ~timeout_s:0.0 cb);
  Wakeup.wake wake;
  Alcotest.(check int)
    "wake after drain still wakes" 1
    (Readiness.wait rd ~timeout_s:1.0 cb);
  Wakeup.drain wake;
  Alcotest.(check int)
    "second drain silent again" 0
    (Readiness.wait rd ~timeout_s:0.0 cb);
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
          Transport.send t ~src:0 ~dst:1 ~delay:0.0 (frame 1);
          let deadline = Unix.gettimeofday () +. 5.0 in
          while !got < 1 && Unix.gettimeofday () < deadline do
            Transport.wait t ~owners:[ 0; 1 ] ~timeout_s:0.05 ();
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
                      Transport.wait t ~owners:[ 1 ] ~timeout_s:0.05 ();
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
                          Transport.wait t ~owners:[ 1 ] ~timeout_s:0.002 ();
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
        ] );
      ( "readiness",
        [
          Alcotest.test_case "register/report/remove" `Quick
            test_readiness_basic;
          Alcotest.test_case "config errors + fallback chain" `Quick
            test_readiness_config;
          Alcotest.test_case "TR_READINESS reaches the transport" `Quick
            test_readiness_env_forcing;
          Alcotest.test_case "wake pipe drains to EAGAIN" `Quick
            test_wakeup_drain;
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
    ]
