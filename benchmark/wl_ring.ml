(* ring-uds: a 1024-node ring over Unix-domain sockets in this process,
   one shard, closed loop at depth 1, default readiness backend, no spin
   and no in-process delivery. Every grant is one real socket hop
   (encode, write, wait, read, decode, handler), so transport, readiness,
   wire and the cluster's timer heap set the pace; service and policy
   are bypassed.

   A pass runs sixteen clusters one after another, each from fresh
   sockets: set-up (up to the first revolution), a warm-up, then a timed
   window of a fixed number of deliveries, together about [seconds] long
   on the reference host. The judged figures are medians over the
   clusters. One cluster's speed depends on where its thousands of
   sockets, buffers and heap blocks land in memory: consecutive clusters
   of one process differ by up to a third, and a single long window
   carries its one draw into the result. The count is fixed, not the
   time, because a cluster's memory grows with every grant it serves: a
   timed window would make [peak_rss_mb] follow the host's speed.

   A tap on every delivery reads the clock once and stores the gap since
   the previous delivery (one hop) and since this node's previous visit
   (one revolution: with depth 1 a node re-requests the moment it is
   served, so that is its request -> grant latency).

   The judged times are read from CPU clocks and scaled to the reference
   host ([Calib]). The shard never sleeps in the window -- the token is
   always a ready frame -- so on an idle host its CPU time is its wall
   time; on a shared one, wall time also counts the spells in which the
   hypervisor runs another guest on this vCPU, which moved medians by
   half between runs. Every eighth of the ring (nodes 0, n/8, ...), the
   tap reads the shard thread's CPU clock, so a sample is one node's
   revolution in CPU time. Set-up is timed on the process's CPU clock,
   as it spans the calling domain (sockets) and the shard (the first
   revolution). Unscaled CPU figures are kept as [*.cpu] metrics and
   wall-clock ones as [*.wall]. *)

module Cluster = Tr_net_rt.Cluster
module Transport = Tr_net_rt.Transport
module Codecs = Tr_wire.Codecs
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile

let now = Mono.now
let unit_s = 1e-4

(* Deliveries per second of run length in the timed windows: the
   reference host runs 35k-75k a CPU second, and set-ups, warm-ups and
   collections between clusters take the rest of the run. *)
let nominal_rate = 32_000.

type tap = {
  n : int;
  warm : int;
  length : int;  (** Deliveries in the timed window. *)
  mutable deliveries : int;
  mutable window : int;
  mutable prev_node : int;
  mutable out_of_order : int;
  mutable stopped : bool;
  (* Floats live in arrays so the tap never boxes one:
     0 run start, 1 first revolution done, 2 window start, 3 window end,
     4 previous delivery, 5/6 shard minor words at window start/end,
     7/8 process CPU at run start / first revolution,
     9/10 shard thread CPU at window start/end. *)
  times : float array;
  last_visit : float array;
  cpu_visit : float array;  (** Thread CPU at a sampled node's last visit. *)
  hops : Samples.t;
  revolutions : Samples.t;
  cpu_revolutions : Samples.t;
  spans : (Spans.t * int) option;
}

(* Nodes whose revolutions are timed on the CPU clock: eight a lap. *)
let cpu_stride n = Stdlib.max 1 (n / 8)

let make_tap ~n ~warm ~length ~spans =
  {
    n;
    warm;
    length;
    deliveries = 0;
    window = 0;
    prev_node = -1;
    out_of_order = 0;
    stopped = false;
    times = Array.make 11 0.;
    last_visit = Array.make n Float.neg_infinity;
    cpu_visit = Array.make n Float.nan;
    hops = Samples.create length;
    revolutions = Samples.create length;
    cpu_revolutions = Samples.create (length / cpu_stride n);
    spans;
  }

let on_delivery tp (control : Cluster.control) ~self =
  if not tp.stopped then begin
    let at = now () in
    let d = tp.deliveries + 1 in
    tp.deliveries <- d;
    if tp.prev_node >= 0 && self <> (tp.prev_node + 1) mod tp.n then
      tp.out_of_order <- tp.out_of_order + 1;
    tp.prev_node <- self;
    if d = tp.n then begin
      tp.times.(1) <- at;
      tp.times.(8) <- Mono.process_cpu ()
    end;
    if d = tp.warm then begin
      tp.times.(2) <- at;
      tp.times.(5) <- Gc.minor_words ();
      tp.times.(9) <- Mono.thread_cpu ()
    end
    else if d > tp.warm then begin
      let prev = tp.times.(4) in
      Samples.add tp.hops (at -. prev);
      (match tp.spans with
      | Some (sp, id) ->
          ignore (Spans.record sp ~name:id ~parent:(-1) ~req:d ~start:prev ~stop:at)
      | None -> ());
      let lv = tp.last_visit.(self) in
      if lv >= tp.times.(2) then Samples.add tp.revolutions (at -. lv);
      if self mod cpu_stride tp.n = 0 then begin
        let c = Mono.thread_cpu () in
        let cv = tp.cpu_visit.(self) in
        if not (Float.is_nan cv) then Samples.add tp.cpu_revolutions (c -. cv);
        tp.cpu_visit.(self) <- c
      end;
      tp.window <- tp.window + 1;
      if tp.window = tp.length then begin
        tp.times.(3) <- at;
        tp.times.(6) <- Gc.minor_words ();
        tp.times.(10) <- Mono.thread_cpu ();
        tp.stopped <- true;
        control.Cluster.request_stop ()
      end
    end;
    tp.last_visit.(self) <- at;
    tp.times.(4) <- at
  end

(* What the pass keeps of one cluster: its tap and the few report
   fields it uses. The report itself is dropped, as its metrics hold
   every grant the cluster served. *)
type lap = {
  tap : tap;
  frames_sent : int;
  bytes_sent : int;
  grants : int;
  wait_calls : int;
  decode_errors : int;
  frames_dropped : int;
  corrupt : int;
  reconnects : int;
  fds_registered : int;
  out_hwm_bytes : int;
  syscalls_per_grant : float;
  avg_ready_per_wait : float;
  readiness : string;
  resp_p50 : float;
  resp_p99 : float;
}

(* [dir] prefixes the socket names; the suite passes one in Linux's
   abstract namespace, so no file is created. *)
let run_cluster ~dir ~n ~seed ~max_wall_s tp =
  let addrs = Transport.uds_addrs ~dir ~n in
  let config =
    {
      (Cluster.default_config ~n ~seed) with
      Cluster.unit_s;
      shards = 1;
      load = Cluster.Closed_loop { depth = 1 };
      stop = Cluster.Duration 1e12;
      max_wall_s;
      readiness = None;
      spin = false;
      inproc = false;
    }
  in
  let (Codecs.Packed (protocol, codec)) = Codecs.find_exn "ring" in
  tp.times.(0) <- now ();
  tp.times.(7) <- Mono.process_cpu ();
  let rep =
    Cluster.run
      ~tap:(fun control ~self _ -> on_delivery tp control ~self)
      ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
      config protocol codec
  in
  let resp = Metrics.responsiveness_quantiles rep.Cluster.metrics in
  {
    tap = tp;
    frames_sent = rep.Cluster.frames_sent;
    bytes_sent = rep.Cluster.bytes_sent;
    grants = rep.Cluster.grants;
    wait_calls = rep.Cluster.wait_calls;
    decode_errors = rep.Cluster.decode_errors + rep.Cluster.resync_skips;
    frames_dropped = rep.Cluster.frames_dropped;
    corrupt = rep.Cluster.corrupt_frames_detected;
    reconnects = rep.Cluster.reconnects;
    fds_registered = rep.Cluster.fds_registered;
    out_hwm_bytes = rep.Cluster.out_hwm_bytes;
    syscalls_per_grant = rep.Cluster.syscalls_per_grant;
    avg_ready_per_wait = rep.Cluster.avg_ready_per_wait;
    readiness = rep.Cluster.readiness;
    resp_p50 = Quantile.quantile resp 0.5;
    resp_p99 = Quantile.quantile resp 0.99;
  }

let run ~seed ~seconds ~traced ~dir ~n ~warm ~clusters =
  let r = Report.create ~workload:"ring-uds" ~seed ~traced in
  let max_wall_s = (4. *. seconds) +. 60. in
  let length = int_of_float (seconds *. nominal_rate) / clusters in
  let spans =
    if traced then
      let sp = Spans.create [ "net_rt.hop" ] in
      Some (sp, Spans.name_id sp "net_rt.hop")
    else None
  in
  (* The reference job runs before the first cluster and after each one,
     once the cluster's garbage is collected, so that every cluster
     starts from the same heap and is scaled by the two probes around
     it. *)
  let calib = Calib.create () in
  Calib.probe calib;
  let laps =
    List.init clusters (fun _ ->
        let l = run_cluster ~dir ~n ~seed ~max_wall_s (make_tap ~n ~warm ~length ~spans) in
        Gc.full_major ();
        Calib.probe calib;
        l)
  in
  let peak_rss_mb = Report.peak_rss_mb () in
  let sum f = List.fold_left (fun a l -> a + f l) 0 laps in
  let fsum f = List.fold_left (fun a l -> a +. f l) 0. laps in
  let median f = Samples.median (Samples.of_list (List.map f laps)) in
  (* Median over the clusters of a figure scaled to the reference host:
     [`Time] figures are multiplied by the cluster's scale, [`Rate]
     figures divided. *)
  let scaled kind f =
    Samples.median
      (Samples.of_list
         (List.mapi
            (fun k l ->
              let s = Calib.scale calib k (k + 1) in
              match kind with `Time -> f l *. s | `Rate -> f l /. s)
            laps))
  in
  let all p = List.for_all p laps in
  let check = Report.check r in
  check (all (fun l -> l.tap.window = length)) "a timed window never closed";
  check (all (fun l -> l.tap.out_of_order = 0)) "the token skipped a node";
  check (sum (fun l -> l.decode_errors) = 0) "decode errors or resync skips";
  check (sum (fun l -> l.frames_dropped) = 0) "frames dropped";
  check (all (fun l -> l.grants >= l.tap.window)) "fewer grants than deliveries";
  check
    (all (fun l -> Samples.count l.tap.cpu_revolutions >= 10))
    "too few revolutions in a window";
  r.Report.attempted <- sum (fun l -> l.tap.window);
  r.Report.failed <- sum (fun l -> l.frames_dropped + l.corrupt);
  let metric = Report.metric r in
  let t i j l = l.tap.times.(j) -. l.tap.times.(i) in
  let window l = float_of_int l.tap.window in
  let cpu_rev q l = 1e3 *. Samples.quantile l.tap.cpu_revolutions q in
  let cpu_rate l = window l /. t 9 10 l in
  metric "setup_s" "s" (scaled `Time (t 7 8));
  metric "latency_p50_ms" "ms" (scaled `Time (cpu_rev 0.5));
  metric "latency_p90_ms" "ms" (scaled `Time (cpu_rev 0.9));
  metric "latency_p99_ms" "ms" (scaled `Time (cpu_rev 0.99));
  metric "grants_per_s" "grants/s" (scaled `Rate cpu_rate);
  metric "setup_s.cpu" "s" (median (t 7 8));
  metric "latency_p50_ms.cpu" "ms" (median (cpu_rev 0.5));
  metric "latency_p90_ms.cpu" "ms" (median (cpu_rev 0.9));
  metric "grants_per_s.cpu" "grants/s" (median cpu_rate);
  metric "setup_s.wall" "s" (median (t 0 1));
  metric "host.reference_ns" "ns" (Calib.median_ns calib);
  let wall_rev q l = 1e3 *. Samples.quantile l.tap.revolutions q in
  metric "latency_p50_ms.wall" "ms" (median (wall_rev 0.5));
  metric "latency_p90_ms.wall" "ms" (median (wall_rev 0.9));
  metric "grants_per_s.wall" "grants/s" (median (fun l -> window l /. t 2 3 l));
  metric "cpu_share" "ratio" (fsum (t 9 10) /. fsum (t 2 3));
  metric "peak_rss_mb" "MB" peak_rss_mb;
  metric "msgs_per_grant" "msgs/grant"
    (Report.ratio (sum (fun l -> l.frames_sent)) (sum (fun l -> l.grants)));
  metric "net_rt.hop_us_p50" "us" (median (fun l -> 1e6 *. Samples.median l.tap.hops));
  metric "net_rt.hop_us_p99" "us"
    (median (fun l -> 1e6 *. Samples.quantile l.tap.hops 0.99));
  metric "net_rt.syscalls_per_grant" "syscalls/grant"
    (median (fun l -> l.syscalls_per_grant));
  metric "net_rt.wait_calls_per_grant" "waits/grant"
    (Report.ratio (sum (fun l -> l.wait_calls)) (sum (fun l -> l.grants)));
  metric "net_rt.avg_ready_per_wait" "fds/wait" (median (fun l -> l.avg_ready_per_wait));
  metric "net_rt.fds_registered" "count"
    (median (fun l -> float_of_int l.fds_registered));
  metric "net_rt.out_hwm_bytes" "bytes"
    (float_of_int (List.fold_left (fun a l -> Stdlib.max a l.out_hwm_bytes) 0 laps));
  metric "net_rt.frames_dropped" "count" (float_of_int (sum (fun l -> l.frames_dropped)));
  metric "net_rt.reconnects" "count" (float_of_int (sum (fun l -> l.reconnects)));
  metric "wire.bytes_per_frame" "bytes/frame"
    (Report.ratio (sum (fun l -> l.bytes_sent)) (sum (fun l -> l.frames_sent)));
  metric "wire.alloc_words_per_frame.window" "words/frame"
    (fsum (t 5 6) /. float_of_int (Stdlib.max 1 r.Report.attempted));
  metric "wire.corrupt_frames" "count" (float_of_int (sum (fun l -> l.corrupt)));
  metric "proto.resp_p50_units" "units" (median (fun l -> l.resp_p50));
  metric "proto.resp_p99_units" "units" (median (fun l -> l.resp_p99));
  metric "grant_samples" "count"
    (float_of_int (sum (fun l -> Samples.count l.tap.cpu_revolutions)));
  (match spans with
  | Some (sp, _) ->
      metric "bench.spans" "count" (float_of_int sp.Spans.n);
      metric "bench.spans_dropped" "count" (float_of_int sp.Spans.dropped)
  | None -> ());
  let first = List.hd laps in
  Report.line r
    "  readiness %s, %d fds; %d clusters of %d grants: windows %.2f s wall / \
     %.2f s shard CPU; grants/s per cluster %s"
    first.readiness first.fds_registered clusters length (fsum (t 2 3))
    (fsum (t 9 10))
    (String.concat " "
       (List.map (fun l -> Printf.sprintf "%.0f" (window l /. t 9 10 l)) laps));
  (r, spans)
