(* offline: the research tools, no live I/O. Three simulator kernels --
   Figure 9's ring and binary search at N=1024 (Poisson, mean 10 units)
   and the adaptive protocol at N=100 under light load (mean 200 units,
   the Figure 10 regime) -- advance together in fixed blocks of grants;
   the time of each block is a latency sample. Then the explorer
   enumerates System BinarySearch (n=3, one datum) up to 100k states on
   one domain, checking the prefix property on every state.

   Everything here is deterministic for a seed: serve counts, event
   counts and transition counts repeat exactly, and are checked to.

   The judged times are read from this thread's CPU clock and scaled to
   the reference host ([Calib]). Nothing here waits, so on an idle host
   CPU time is wall time, while on a shared one wall time also counts
   the spells in which the hypervisor runs another guest on this vCPU,
   which moved medians by half between runs. Unscaled CPU figures are
   kept as [*.cpu] metrics and wall-clock ones as [*.wall]. *)

module Engine = Tr_sim.Engine
module Workload = Tr_sim.Workload
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile
module Explore = Tr_trs.Explore
module Prefix = Tr_specs.Prefix
module Sb = Tr_specs.System_binsearch

let now = Mono.now
let cpu = Mono.thread_cpu

type kernel = {
  name : string;
  block : int;  (** Grants per block. *)
  advance : int -> unit;  (** Run until this many grants in total. *)
  metrics : unit -> Metrics.t;
  events : unit -> int;
}

let kernel (module P : Tr_sim.Node_intf.PROTOCOL) ~name ~n ~seed ~mean ~block =
  let module E = Engine.Make (P) in
  let t =
    E.create
      {
        (Engine.default_config ~n ~seed) with
        Engine.workload = Workload.Global_poisson { mean_interarrival = mean };
      }
  in
  {
    name;
    block;
    advance = (fun target -> E.run t ~stop:(Engine.After_serves target));
    metrics = (fun () -> E.metrics t);
    events = (fun () -> E.events_processed t);
  }

(* Block sizes put the three kernels at comparable cost per block,
   about 100 ms in all on the reference host. A block of a fifth that
   size either held a major GC slice or did not, and how many blocks did
   depended on the seed, so the p90 jumped by a third between seeds. *)
let kernels ~seed ~scale =
  let block k = Stdlib.max 1 (k / scale) in
  [
    kernel Tr_proto.Ring.protocol ~name:"ring" ~n:1024 ~seed ~mean:10.
      ~block:(block 10_000);
    kernel Tr_proto.Binsearch.protocol ~name:"binsearch" ~n:1024 ~seed ~mean:10.
      ~block:(block 2000);
    kernel Tr_proto.Adaptive.protocol ~name:"adaptive" ~n:100 ~seed ~mean:200.
      ~block:(block 2000);
  ]

let serves k = Metrics.serves (k.metrics ())

(* Advance every kernel by one block; [false] if one stopped short of
   its target. A holder serves every request pending at it in one event,
   so a kernel may pass its target by a few grants, identically on every
   run of a seed. *)
let step ks ~blocks_done ~on_kernel =
  List.for_all
    (fun k ->
      let target = (blocks_done + 1) * k.block in
      on_kernel k (fun () -> k.advance target);
      serves k >= target)
    ks

type trace = {
  spans : Spans.t;
  sp_block : int;
  sp_kernel : (string * int) list;
  sp_explore : int;
  sp_check : int;
}

let kernel_names = [ "ring"; "binsearch"; "adaptive" ]

let span_names =
  [ "sim.block"; "trs.explore"; "specs.prefix" ]
  @ List.map (fun k -> "sim." ^ k) kernel_names

let run ~seed ~seconds ~traced ~blocks_per_s ~max_states ~scale =
  let r = Report.create ~workload:"offline" ~seed ~traced in
  let check = Report.check r in
  let tr =
    if traced then
      let spans = Spans.create span_names in
      let id = Spans.name_id spans in
      Some
        {
          spans;
          sp_block = id "sim.block";
          sp_kernel = List.map (fun k -> (k, id ("sim." ^ k))) kernel_names;
          sp_explore = id "trs.explore";
          sp_check = id "specs.prefix";
        }
    else None
  in
  (* Set-up: build the kernels and run their first blocks to a steady
     state. *)
  let warm_blocks = 1 in
  let setup () =
    let t0 = cpu () in
    let ks = kernels ~seed ~scale in
    for b = 0 to warm_blocks - 1 do
      check
        (step ks ~blocks_done:b ~on_kernel:(fun _ f -> f ()))
        "a kernel stopped short of its target"
    done;
    (ks, cpu () -. t0)
  in
  (* The reference job runs before and after each set-up, after every
     fourth block and after the exploration; each set-up and block is
     scaled by the two probes around it (a block's group), the
     exploration by the two around it. [setup_s] is the median of seven
     set-ups, each from a collected heap; the pass runs on the last, and
     the others' garbage is gone before the heap grows to its peak. *)
  let calib = Calib.create () in
  let last_scale () = Calib.scale calib (Calib.count calib - 2) (Calib.count calib - 1) in
  Calib.probe calib;
  let setup_times = Samples.create 7 and setup_cpu = Samples.create 7 in
  let rec setups k =
    let ks, dt = setup () in
    if k > 1 then Gc.full_major ();
    Calib.probe calib;
    Samples.add setup_cpu dt;
    Samples.add setup_times (dt *. last_scale ());
    if k = 1 then ks else setups (k - 1)
  in
  let ks = setups 7 in
  let blocks = Stdlib.max 8 (int_of_float (blocks_per_s *. 0.6 *. seconds)) in
  let lat = Samples.create blocks and lat_wall = Samples.create blocks in
  let group = Array.make blocks 0 in
  let total f = List.fold_left (fun a k -> a + f k) 0 ks in
  let events0 = total (fun k -> k.events ()) and serves0 = total serves in
  let words0 = Gc.minor_words () in
  let sim_s = ref 0. in
  for i = 0 to blocks - 1 do
    let b = warm_blocks + i in
    group.(i) <- Calib.count calib - 1;
    let c0 = cpu () in
    let t0 = now () in
    let parent =
      match tr with
      | Some tr -> Spans.start tr.spans ~name:tr.sp_block ~parent:(-1) ~req:b ~at:t0
      | None -> -1
    in
    let on_kernel k f =
      match tr with
      | None -> f ()
      | Some tr ->
          let s =
            Spans.start tr.spans ~name:(List.assoc k.name tr.sp_kernel) ~parent ~req:b
              ~at:(now ())
          in
          f ();
          Spans.finish tr.spans s ~at:(now ())
    in
    check (step ks ~blocks_done:b ~on_kernel) "a kernel stopped short of its target";
    let t1 = now () in
    let dc = cpu () -. c0 in
    sim_s := !sim_s +. dc;
    Samples.add lat dc;
    Option.iter (fun tr -> Spans.finish tr.spans parent ~at:t1) tr;
    Samples.add lat_wall (t1 -. t0);
    if i mod 4 = 3 || i = blocks - 1 then Calib.probe calib
  done;
  let lat_scaled = Samples.create blocks in
  for i = 0 to blocks - 1 do
    Samples.add lat_scaled
      (lat.Samples.a.(i) *. Calib.scale calib group.(i) (group.(i) + 1))
  done;
  let sim_s = !sim_s in
  let sim_words = Gc.minor_words () -. words0 in
  let events = total (fun k -> k.events ()) - events0 in
  let grants = total serves - serves0 in
  let msgs =
    total (fun k ->
        let m = k.metrics () in
        Metrics.token_messages m + Metrics.control_messages m)
  in
  (* Explorer. *)
  let system = Sb.system ~n:3 and init = Sb.initial ~n:3 ~data_budget:1 in
  let checks = ref 0 in
  let explore_span =
    match tr with
    | Some tr ->
        Spans.start tr.spans ~name:tr.sp_explore ~parent:(-1) ~req:(-1) ~at:(now ())
    | None -> -1
  in
  let prefix =
    match tr with
    | None ->
        fun term ->
          incr checks;
          Prefix.check_binsearch term
    | Some tr ->
        fun term ->
          incr checks;
          let s =
            Spans.start tr.spans ~name:tr.sp_check ~parent:explore_span ~req:!checks
              ~at:(now ())
          in
          let res = Prefix.check_binsearch term in
          Spans.finish tr.spans s ~at:(now ());
          res
  in
  let xwords0 = Gc.minor_words () in
  let t_x = now () and c_x = cpu () in
  let stats, violations =
    Explore.bfs ~max_states ~domains:1 ~check:prefix system ~init
  in
  let explore_cpu_s = cpu () -. c_x in
  let explore_s = now () -. t_x in
  let xwords = Gc.minor_words () -. xwords0 in
  Option.iter (fun tr -> Spans.finish tr.spans explore_span ~at:(now ())) tr;
  Calib.probe calib;
  let explore_scale = last_scale () in
  let peak_rss_mb = Report.peak_rss_mb () in
  check (stats.Explore.states = max_states)
    (Printf.sprintf "explored %d states, expected %d" stats.Explore.states max_states);
  check (violations = []) "prefix property violated";
  check (!checks >= stats.Explore.states) "a state went unchecked";
  let failed_checks = List.length violations in
  r.Report.attempted <- grants + stats.Explore.states;
  r.Report.failed <- failed_checks;
  let metric = Report.metric r in
  metric "setup_s" "s" (Samples.median setup_times);
  let block q = 1e3 *. Samples.quantile lat_scaled q in
  metric "latency_p50_ms" "ms" (block 0.5);
  metric "latency_p90_ms" "ms" (block 0.9);
  metric "latency_p99_ms" "ms" (block 0.99);
  let scaled_s = Samples.mean lat_scaled *. float_of_int blocks in
  metric "grants_per_s" "grants/s" (float_of_int grants /. scaled_s);
  metric "setup_s.cpu" "s" (Samples.median setup_cpu);
  let block q = 1e3 *. Samples.quantile lat q in
  metric "latency_p50_ms.cpu" "ms" (block 0.5);
  metric "latency_p90_ms.cpu" "ms" (block 0.9);
  metric "grants_per_s.cpu" "grants/s" (float_of_int grants /. sim_s);
  let block q = 1e3 *. Samples.quantile lat_wall q in
  metric "latency_p50_ms.wall" "ms" (block 0.5);
  metric "latency_p90_ms.wall" "ms" (block 0.9);
  metric "grants_per_s.wall" "grants/s"
    (float_of_int grants /. (Samples.mean lat_wall *. float_of_int blocks));
  metric "host.reference_ns" "ns" (Calib.median_ns calib);
  metric "peak_rss_mb" "MB" peak_rss_mb;
  metric "msgs_per_grant" "msgs/grant" (Report.ratio msgs (total serves));
  let states = float_of_int stats.Explore.states in
  metric "explore_states_per_s" "states/s" (states /. (explore_cpu_s *. explore_scale));
  metric "explore_states_per_s.wall" "states/s" (states /. explore_s);
  Report.exact r "sim.events" (total (fun k -> k.events ()));
  Report.exact r "sim.serves" (total serves);
  metric "sim.ns_per_event" "ns" (sim_s /. float_of_int events *. 1e9);
  metric "sim.alloc_words_per_event" "words/event" (sim_words /. float_of_int events);
  Report.exact r "trs.transitions" stats.Explore.transitions;
  metric "trs.dedup_ratio" "ratio"
    (Report.ratio stats.Explore.states stats.Explore.transitions);
  metric "trs.us_per_state" "us" (explore_cpu_s /. states *. 1e6);
  metric "trs.alloc_words_per_state" "words/state" (xwords /. states);
  let resp =
    Metrics.responsiveness_quantiles
      ((List.find (fun k -> k.name = "binsearch") ks).metrics ())
  in
  metric "proto.resp_p50_units" "units" (Quantile.quantile resp 0.5);
  metric "proto.resp_p99_units" "units" (Quantile.quantile resp 0.99);
  metric "block_samples" "count" (float_of_int (Samples.count lat));
  if traced then begin
    let t2 = now () in
    let stats2, _ =
      Explore.bfs ~max_states ~domains:2 ~check:Prefix.check_binsearch system
        ~init
    in
    let j2_s = now () -. t2 in
    check (stats2 = stats) "the D=2 exploration differs from D=1";
    metric "trs.speedup_j2" "x" (explore_s /. j2_s)
  end;
  Report.line r "  set-ups %s s, scaled"
    (String.concat " "
       (List.map (Printf.sprintf "%.4f")
          (Array.to_list (Array.sub setup_times.Samples.a 0 7))));
  Report.line r
    "  sim: %d blocks, %d grants, %d events in %.2f CPU s; explore: %d states, \
     %d transitions in %.2f CPU s (%.2f s wall)"
    blocks grants events sim_s stats.Explore.states stats.Explore.transitions
    explore_cpu_s explore_s;
  (r, Option.map (fun tr -> tr.spans) tr)
