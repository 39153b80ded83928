(* The service workload, svc-ramp: the server under open-loop load from
   [Loadgen], over one Unix-domain listener and two connections. It is
   FIG10-LIVE: the adaptive policy at 5 ms units through a light ->
   heavy -> light ramp, where latency is hops x 5 ms plus switch timing,
   so it moves with protocol and policy changes and not with
   software-path speed. *)

module Server = Tr_service.Server
module Policy = Tr_service.Policy
module Cluster = Tr_net_rt.Cluster
module Transport = Tr_net_rt.Transport
module Movement = Tr_apps.Movement
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile

let now = Mono.now
let n = 8
let conns = 2

type server = { dom : Server.outcome Domain.t; control : Cluster.control }

let config ~sock ~seed ~unit_s ~mode =
  let cluster =
    {
      (Cluster.default_config ~n ~seed) with
      Cluster.load = Cluster.External;
      unit_s;
      shards = 1;
      stop = Cluster.Duration 1e12;
      max_wall_s = 900.;
    }
  in
  {
    (Server.default_config ~n ~seed ~listen:(Unix.ADDR_UNIX sock)) with
    Server.cluster;
    mode;
    cs_duration = 0.2;
  }

(* The server's domains inherit this thread's timer slack: spawn them
   with the default, as a deployment would run. *)
let start_server cfg =
  ignore (Loadgen.set_timerslack 0);
  let slot = Atomic.make None in
  let dom =
    Domain.spawn (fun () ->
        Server.run
          ~on_ready:(fun ~addr:_ ~control -> Atomic.set slot (Some control))
          cfg)
  in
  let deadline = now () +. 30. in
  let rec await () =
    match Atomic.get slot with
    | Some control -> { dom; control }
    | None ->
        if now () > deadline then failwith "service never became ready";
        Unix.sleepf 1e-4;
        await ()
  in
  await ()

let stop_server s =
  s.control.Cluster.request_stop ();
  Domain.join s.dom

(* One set-up: server domain spawned until every client's Hello is
   welcomed. Returns the live server, its generator and the seconds. *)
let setup cfg ~clients =
  let t0 = now () in
  let s = start_server cfg in
  let gen = Loadgen.connect ~addr:cfg.Server.listen ~conns ~clients in
  if not (Loadgen.hello_all gen ~timeout_s:30.) then
    failwith "not every client was welcomed";
  (s, gen, now () -. t0)

(* [setup_s]: the median of the pass's own set-up time [first] and six
   more set-ups from fresh configs, each torn down at once. They run
   after the pass and its memory reading, so their garbage is not
   counted. *)
let setup_median ~first ~make_cfg ~clients =
  let more =
    List.init 6 (fun _ ->
        let s, gen, dt = setup (make_cfg ()) ~clients in
        Loadgen.close gen;
        ignore (stop_server s);
        dt)
  in
  Samples.median (Samples.of_list (first :: more))

let phase_rng ~seed ~tag ~rate = Random.State.make [| seed; tag; int_of_float rate |]

(* Counters every service pass reports, and the checks on them. *)
let common r (gen : Loadgen.t) (o : Server.outcome) ~pending ~attempted_range =
  let st = o.Server.stats and rep = o.Server.report in
  let r0, r1 = attempted_range in
  let unanswered = Loadgen.outstanding gen in
  Report.check r (gen.Loadgen.decode_errors + gen.Loadgen.resync_skips = 0)
    "client saw decode errors or resync skips";
  Report.check r
    (st.Server.decode_errors + st.Server.resync_skips + rep.Cluster.decode_errors
     + rep.Cluster.resync_skips
    = 0)
    "server or cluster saw decode errors or resync skips";
  Report.check r (gen.Loadgen.duplicates = 0) "duplicate (client, seq) response";
  Report.check r (gen.Loadgen.unknown = 0) "unknown (client, seq) response";
  Report.check r
    (gen.Loadgen.grants = st.Server.acquires - unanswered)
    (Printf.sprintf "grants %d <> acquires %d - outstanding %d"
       gen.Loadgen.grants st.Server.acquires unanswered);
  Report.check r (gen.Loadgen.releaseds = gen.Loadgen.grants)
    "a granted lease was never released";
  Report.check r (rep.Cluster.frames_dropped = 0) "cluster dropped frames";
  r.Report.attempted <- r1 - r0;
  r.Report.failed <- gen.Loadgen.rejects + unanswered + gen.Loadgen.conn_failures;
  let metric = Report.metric r in
  let resp = Metrics.responsiveness_quantiles rep.Cluster.metrics in
  metric "service.fifo_hwm" "count" (float_of_int st.Server.fifo_hwm);
  metric "service.conn_out_hwm_bytes" "bytes" (float_of_int st.Server.conn_out_hwm);
  metric "service.pending_mean" "requests" (Samples.mean pending);
  metric "service.switches" "count" (float_of_int (List.length o.Server.switches));
  metric "service.rejects" "count" (float_of_int gen.Loadgen.rejects);
  metric "net_rt.syscalls_per_grant" "syscalls/grant" rep.Cluster.syscalls_per_grant;
  metric "net_rt.wait_calls_per_grant" "waits/grant"
    (Report.ratio rep.Cluster.wait_calls rep.Cluster.grants);
  metric "net_rt.avg_ready_per_wait" "fds/wait" rep.Cluster.avg_ready_per_wait;
  metric "net_rt.fds_registered" "count" (float_of_int rep.Cluster.fds_registered);
  metric "net_rt.out_hwm_bytes" "bytes" (float_of_int rep.Cluster.out_hwm_bytes);
  metric "net_rt.frames_dropped" "count" (float_of_int rep.Cluster.frames_dropped);
  metric "net_rt.reconnects" "count" (float_of_int rep.Cluster.reconnects);
  metric "wire.bytes_per_frame" "bytes/frame"
    (Report.ratio rep.Cluster.bytes_sent rep.Cluster.frames_sent);
  metric "wire.corrupt_frames" "count"
    (float_of_int
       (rep.Cluster.corrupt_frames_detected + st.Server.decode_errors
      + st.Server.resync_skips + gen.Loadgen.decode_errors
      + gen.Loadgen.resync_skips));
  metric "proto.resp_p50_units" "units" (Quantile.quantile resp 0.5);
  metric "proto.resp_p99_units" "units" (Quantile.quantile resp 0.99)

(* Client-side span timings of a traced pass. *)
let client_spans r (gen : Loadgen.t) =
  match gen.Loadgen.trace with
  | None -> ()
  | Some tr ->
      let sp = tr.Loadgen.spans in
      let self = Spans.self_times sp in
      let us name q = 1e6 *. Samples.quantile (Spans.self_samples sp self name) q in
      Report.metric r "service.client_send_us" "us" (us "service.client_send" 0.5);
      Report.metric r "service.client_recv_us" "us" (us "service.client_recv" 0.5);
      Report.metric r "bench.spans" "count" (float_of_int sp.Spans.n);
      Report.metric r "bench.spans_dropped" "count" (float_of_int sp.Spans.dropped)

(* The generator checks itself: a run whose median send went out later
   than a tenth of the median latency it measured is invalid. *)
let check_generator r late ~latency_p50_s =
  let l = Samples.median late in
  Report.check r (l <= 0.1 *. latency_p50_s)
    (Printf.sprintf "generator ran late: median %.1f us against a %.1f us budget"
       (1e6 *. l) (1e5 *. latency_p50_s))

let sample_pending (s : server) pending =
  let sum = ref 0 in
  for i = 0 to n - 1 do
    sum := !sum + s.control.Cluster.pending_at i
  done;
  Samples.add pending (float_of_int !sum)

let ms x = 1e3 *. x

(* ------------------------------------------------------------------ *)
(* svc-ramp                                                            *)
(* ------------------------------------------------------------------ *)

let ramp_unit_s = 0.005
let lo_rate = 2.
let hi_rate = 120.

let ramp ~seed ~seconds ~traced ~sock =
  let r = Report.create ~workload:"svc-ramp" ~seed ~traced in
  let make_cfg () =
    let policy =
      Policy.create
        { (Policy.default_config ~n ~hop_s:1.0) with Policy.window_s = 30. }
    in
    config ~sock ~seed ~unit_s:ramp_unit_s ~mode:(Server.Adaptive policy)
  in
  (* The heavy step takes most of the run: the policy's lag in switching
     back to search mode, whose spread over seeds is wide, costs
     circulating frames, and a long heavy step keeps that a small share
     of the frames counted. *)
  let lo_s = 0.15 *. seconds and hi_s = 0.6 *. seconds and drain_s = 0.1 *. seconds in
  let capacity = int_of_float (2. *. ((2. *. lo_rate *. lo_s) +. (hi_rate *. hi_s))) in
  let s, gen, first_setup_s = setup (make_cfg ()) ~clients:1200 in
  Loadgen.prepare gen ~capacity ~traced;
  let pending = Samples.create (int_of_float (seconds *. 200.)) in
  Loadgen.every gen 0.01 (fun _ -> sample_pending s pending);
  let frames () =
    (Transport.snapshot_of_stats s.control.Cluster.transport_stats)
      .Transport.snap_frames_sent
  in
  (* Each step notes the cluster clock at its start, so the policy's
     switch lag can be read off its switch events. *)
  let step tag rate duration =
    let at = s.control.Cluster.live_now () in
    (at, Loadgen.run_phase gen ~rng:(phase_rng ~seed ~tag ~rate) ~rate ~duration)
  in
  let t_start = now () in
  let frames0 = frames () in
  let _, first = step 0 lo_rate lo_s in
  let up, heavy = step 1 hi_rate hi_s in
  let down, last = step 2 lo_rate lo_s in
  (* Messages are counted over the three steps: the drain that follows
     would add idle circulation that depends on when the run stops. *)
  let msgs_per_grant = Report.ratio (frames () - frames0) gen.Loadgen.grants in
  let sending_s = now () -. t_start in
  Loadgen.drain gen ~timeout_s:drain_s;
  let all = (fst first, snd last) in
  let late = Loadgen.lateness gen all in
  Loadgen.close gen;
  let o = stop_server s in
  let metric = Report.metric r in
  metric "peak_rss_mb" "MB" (Report.peak_rss_mb ());
  metric "setup_s" "s" (setup_median ~first:first_setup_s ~make_cfg ~clients:1200);
  let lat, _ = Loadgen.latencies gen all in
  let lag ~after ~to_mode =
    List.find_map
      (fun (e : Policy.switch_event) ->
        if e.Policy.at >= after && e.Policy.to_mode = to_mode then
          Some ((e.Policy.at -. after) *. ramp_unit_s)
        else None)
      o.Server.switches
  in
  metric "latency_p50_ms" "ms" (ms (Samples.median lat));
  metric "latency_p90_ms" "ms" (ms (Samples.quantile lat 0.9));
  metric "latency_p99_ms" "ms" (ms (Samples.quantile lat 0.99));
  (* Goodput: requests granted within two revolutions of the ring (16
     hops, 80 ms) per second of sending. Every seed offers the same
     number of requests, so this falls only when the policy or the
     protocol makes more of them wait longer, or leaves a backlog. *)
  metric "grants_per_s" "grants/s"
    (float_of_int (Samples.count_le lat (2. *. float_of_int n *. ramp_unit_s))
    /. sending_s);
  metric "msgs_per_grant" "msgs/grant" msgs_per_grant;
  metric "grant_samples" "count" (float_of_int (Samples.count lat));
  let heavy_lat, _ = Loadgen.latencies gen heavy in
  metric "grant_p50_ms.heavy" "ms" (ms (Samples.median heavy_lat));
  metric "service.gen_late_p50_us" "us" (1e6 *. Samples.median late);
  metric "service.gen_late_p99_us" "us" (1e6 *. Samples.quantile late 0.99);
  check_generator r late ~latency_p50_s:(Samples.median lat);
  Option.iter
    (metric "service.switch_lag_s" "s")
    (lag ~after:up ~to_mode:Movement.Rotate);
  Option.iter
    (metric "service.switch_back_lag_s" "s")
    (lag ~after:down ~to_mode:Movement.Search);
  common r gen o ~pending ~attempted_range:all;
  client_spans r gen;
  Report.check r (o.Server.switches <> []) "adaptive policy never switched";
  List.iter
    (fun (e : Policy.switch_event) ->
      Report.line r "  switch t=%.1fu %s -> %s (per_rev %.2f)" e.Policy.at
        (Movement.mode_to_string e.Policy.from_mode)
        (Movement.mode_to_string e.Policy.to_mode)
        e.Policy.per_rev)
    o.Server.switches;
  (r, gen)
