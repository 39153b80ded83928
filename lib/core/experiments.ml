open Tr_sim
module Series = Tr_stats.Series
module Summary = Tr_stats.Summary

type result = {
  id : string;
  title : string;
  expectation : string;
  notes : (string * string) list;
  series : Series.t list;
  table : Series.Table.t;
}

let log2 x = log x /. log 2.0

(* Sweep points are independent seeded runs, so a pool may fan them out
   across domains; results always come back in input order, which keeps
   every table byte-identical to the sequential run. *)
let pmap ?pool f xs =
  match pool with None -> List.map f xs | Some pool -> Pool.map pool f xs

let config ~n ~seed ~workload =
  { (Engine.default_config ~n ~seed) with workload }

let poisson mean = Workload.Global_poisson { mean_interarrival = mean }

(* A run long enough for steady-state statistics: the serve target plays
   the role of the paper's 1000 rounds, with a generous time cap as a
   safety net against degenerate configurations. *)
let steady_stop serves = Engine.First_of [ Engine.After_serves serves; Engine.At_time 5e6 ]

let mean_responsiveness outcome =
  Summary.mean (Metrics.responsiveness outcome.Runner.metrics)

(* ------------------------------------------------------------------ *)
(* Figure 9: fixed load, sweep N                                       *)
(* ------------------------------------------------------------------ *)

let fig9 ?pool ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 8; 16; 32 ] else [ 4; 8; 16; 32; 64; 100; 128; 256 ] in
  let serves = if quick then 300 else 2000 in
  let ring = Series.create ~name:"ring" in
  let bin = Series.create ~name:"binsearch" in
  let reference = Series.create ~name:"log2(n)" in
  (* One job per (size, protocol) point for load balance: the ring runs
     dominate, so pairing them with the cheap binsearch runs in a single
     job would leave domains idle. *)
  let jobs =
    List.concat_map
      (fun n -> [ (n, Tr_proto.Ring.protocol); (n, Tr_proto.Binsearch.protocol) ])
      ns
  in
  let ys =
    pmap ?pool
      (fun (n, protocol) ->
        let cfg = config ~n ~seed ~workload:(poisson 10.0) in
        mean_responsiveness (Runner.run protocol cfg ~stop:(steady_stop serves)))
      jobs
  in
  let rec fill ns ys =
    match (ns, ys) with
    | [], [] -> ()
    | n :: ns', y_ring :: y_bin :: ys' ->
        let x = float_of_int n in
        Series.add ring ~x ~y:y_ring;
        Series.add bin ~x ~y:y_bin;
        Series.add reference ~x ~y:(log2 x);
        fill ns' ys'
    | _ -> assert false
  in
  fill ns ys;
  {
    id = "FIG9";
    title = "Average responsiveness vs ring size (fixed load, 1 request / 10 time units)";
    expectation =
      "ring approaches 10 (the mean interarrival) as N grows; binsearch \
       stays bounded by ~log2(N)";
    notes = [];
    series = [ ring; bin; reference ];
    table = Series.Table.of_series ~x_label:"n" [ ring; bin; reference ];
  }

(* ------------------------------------------------------------------ *)
(* Figure 10: fixed N, sweep load                                      *)
(* ------------------------------------------------------------------ *)

let fig10 ?pool ?(quick = false) ?(seed = 42) () =
  let n = 100 in
  let means =
    if quick then [ 5.0; 50.0; 400.0 ]
    else [ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 400.0; 1000.0 ]
  in
  let serves = if quick then 200 else 1500 in
  let ring = Series.create ~name:"ring" in
  let bin = Series.create ~name:"binsearch" in
  let half_n = Series.create ~name:"n/2" in
  let logn = Series.create ~name:"log2(n)" in
  let jobs =
    List.concat_map
      (fun mean ->
        [ (mean, Tr_proto.Ring.protocol); (mean, Tr_proto.Binsearch.protocol) ])
      means
  in
  let ys =
    pmap ?pool
      (fun (mean, protocol) ->
        let cfg = config ~n ~seed ~workload:(poisson mean) in
        mean_responsiveness (Runner.run protocol cfg ~stop:(steady_stop serves)))
      jobs
  in
  let rec fill means ys =
    match (means, ys) with
    | [], [] -> ()
    | mean :: means', y_ring :: y_bin :: ys' ->
        Series.add ring ~x:mean ~y:y_ring;
        Series.add bin ~x:mean ~y:y_bin;
        Series.add half_n ~x:mean ~y:(float_of_int n /. 2.0);
        Series.add logn ~x:mean ~y:(log2 (float_of_int n));
        fill means' ys'
    | _ -> assert false
  in
  fill means ys;
  {
    id = "FIG10";
    title =
      Printf.sprintf
        "Average responsiveness vs mean interarrival (n = %d)" n;
    expectation =
      "as the load decreases, ring's responsiveness approaches n/2 = 50 \
       while binsearch approaches log2(100) ~ 6.6 from below";
    notes = [];
    series = [ ring; bin; half_n; logn ];
    table = Series.Table.of_series ~x_label:"interarrival" [ ring; bin; half_n; logn ];
  }

(* ------------------------------------------------------------------ *)
(* Large-N responsiveness: the O(N) / O(log N) gap at scale            *)
(* ------------------------------------------------------------------ *)

(* Figures 9/10 stop at N = 256 — small enough that constants blur the
   asymptotic story. This sweep pushes to N = 16384 with traces off; the
   p99 is the exact one over the run's responsiveness samples, which
   [Metrics] keeps anyway. Load scales with N (mean interarrival
   N/4): light enough that the ring pays its ~N/2 rotation while
   binsearch stays logarithmic — at N = 16384 the gap exceeds two
   orders of magnitude. *)
let large_n ?pool ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 256; 512 ] else [ 1024; 2048; 4096; 8192; 16384 ] in
  let serves = if quick then 60 else 150 in
  let ring = Series.create ~name:"ring" in
  let ring_p99 = Series.create ~name:"ring-p99" in
  let bin = Series.create ~name:"binsearch" in
  let bin_p99 = Series.create ~name:"binsearch-p99" in
  let half_n = Series.create ~name:"n/2" in
  let logn = Series.create ~name:"log2(n)" in
  let jobs =
    List.concat_map
      (fun n -> [ (n, Tr_proto.Ring.protocol); (n, Tr_proto.Binsearch.protocol) ])
      ns
  in
  let measure (n, protocol) =
    let workload = poisson (float_of_int n /. 4.0) in
    let cfg = config ~n ~seed ~workload in
    let o = Runner.run protocol cfg ~stop:(steady_stop serves) in
    let q = Metrics.responsiveness_quantiles o.Runner.metrics in
    (mean_responsiveness o, Tr_stats.Quantile.p99 q)
  in
  let ys = pmap ?pool measure jobs in
  let rec fill ns ys =
    match (ns, ys) with
    | [], [] -> ()
    | n :: ns', (ring_mean, ring_q99) :: (bin_mean, bin_q99) :: ys' ->
        let x = float_of_int n in
        Series.add ring ~x ~y:ring_mean;
        Series.add ring_p99 ~x ~y:ring_q99;
        Series.add bin ~x ~y:bin_mean;
        Series.add bin_p99 ~x ~y:bin_q99;
        Series.add half_n ~x ~y:(x /. 2.0);
        Series.add logn ~x ~y:(log2 x);
        fill ns' ys'
    | _ -> assert false
  in
  fill ns ys;
  {
    id = "LARGE-N";
    title =
      "Responsiveness at large ring sizes (light load, interarrival = N/4)";
    expectation =
      "ring's mean and p99 grow linearly with N while binsearch stays \
       within a small multiple of log2(N); the gap exceeds two orders of \
       magnitude by N = 16384";
    notes = [];
    series = [ ring; ring_p99; bin; bin_p99; half_n; logn ];
    table =
      Series.Table.of_series ~x_label:"n"
        [ ring; ring_p99; bin; bin_p99; half_n; logn ];
  }

(* ------------------------------------------------------------------ *)
(* Worst-case single-request probes (Lemma 4, Theorem 2, Lemma 6)      *)
(* ------------------------------------------------------------------ *)

(* Let the idle rotation reach a steady state, then fire one request at a
   sampled node; repeat for several nodes and keep the worst result. *)
let probe_placements n = List.map (fun node -> node mod n) [ 1; n / 4; n / 2; (3 * n / 4) + 1 ]

let probe_run protocol ~n ~seed ~node =
  let at = (3.0 *. float_of_int n) +. 0.37 in
  let cfg = config ~n ~seed ~workload:(Workload.Script [ (at, node) ]) in
  Runner.run protocol cfg
    ~stop:
      (Engine.First_of
         [ Engine.After_serves 1; Engine.At_time (at +. (10.0 *. float_of_int n)) ])

(* Worst probe result per ring size, the whole (size × placement) sweep
   flattened into independent pool jobs. The per-size [max] folds in
   placement order, exactly as the sequential loop did. *)
let worst_probes ?pool protocol ~ns ~seed ~measure =
  let jobs =
    List.concat_map (fun n -> List.map (fun node -> (n, node)) (probe_placements n)) ns
  in
  let values =
    pmap ?pool (fun (n, node) -> measure (probe_run protocol ~n ~seed ~node)) jobs
  in
  let rec group ns values =
    match ns with
    | [] ->
        assert (values = []);
        []
    | n :: ns' ->
        let rec take k worst = function
          | rest when k = 0 -> (worst, rest)
          | v :: rest -> take (k - 1) (Stdlib.max worst v) rest
          | [] -> assert false
        in
        let worst, rest =
          take (List.length (probe_placements n)) neg_infinity values
        in
        (n, worst) :: group ns' rest
  in
  group ns values

let lem4 ?pool ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128; 256; 512 ] in
  let waiting = Series.create ~name:"ring-worst-wait" in
  let linear = Series.create ~name:"n" in
  List.iter
    (fun (n, w) ->
      Series.add waiting ~x:(float_of_int n) ~y:w;
      Series.add linear ~x:(float_of_int n) ~y:(float_of_int n))
    (worst_probes ?pool Tr_proto.Ring.protocol ~ns ~seed ~measure:(fun o ->
         Summary.max (Metrics.waiting o.Runner.metrics)));
  {
    id = "LEM4";
    title = "Worst-case single-request waiting time, ring";
    expectation = "grows linearly: O(N) responsiveness (Lemma 4)";
    notes = [];
    series = [ waiting; linear ];
    table = Series.Table.of_series ~x_label:"n" [ waiting; linear ];
  }

let thm2 ?pool ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128; 256; 512 ] in
  let waiting = Series.create ~name:"binsearch-worst-wait" in
  let reference = Series.create ~name:"3*log2(n)" in
  List.iter
    (fun (n, w) ->
      Series.add waiting ~x:(float_of_int n) ~y:w;
      Series.add reference ~x:(float_of_int n) ~y:(3.0 *. log2 (float_of_int n)))
    (worst_probes ?pool Tr_proto.Binsearch.protocol ~ns ~seed ~measure:(fun o ->
         Summary.max (Metrics.waiting o.Runner.metrics)));
  {
    id = "THM2";
    title = "Worst-case single-request waiting time, binsearch";
    expectation = "grows logarithmically: O(log N) responsiveness (Theorem 2)";
    notes = [];
    series = [ waiting; reference ];
    table = Series.Table.of_series ~x_label:"n" [ waiting; reference ];
  }

let lem6 ?pool ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128; 256; 512 ] in
  let forwards = Series.create ~name:"search-forwards" in
  let reference = Series.create ~name:"log2(n)" in
  List.iter
    (fun (n, f) ->
      Series.add forwards ~x:(float_of_int n) ~y:f;
      Series.add reference ~x:(float_of_int n) ~y:(log2 (float_of_int n)))
    (worst_probes ?pool Tr_proto.Binsearch.protocol ~ns ~seed ~measure:(fun o ->
         float_of_int (Metrics.search_forwards o.Runner.metrics)));
  {
    id = "LEM6";
    title = "Search-message forwards per request, binsearch";
    expectation = "a request is forwarded O(log N) times (Lemma 6)";
    notes = [];
    series = [ forwards; reference ];
    table = Series.Table.of_series ~x_label:"n" [ forwards; reference ];
  }

(* ------------------------------------------------------------------ *)
(* Theorem 3: log N fairness                                           *)
(* ------------------------------------------------------------------ *)

let thm3 ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128; 256 ] in
  let single = Series.create ~name:"max-by-one-node" in
  let total = Series.create ~name:"total-possessions" in
  let logn = Series.create ~name:"log2(n)" in
  let budget = Series.create ~name:"n+log2(n)" in
  List.iter
    (fun n ->
      let module P = (val Tr_proto.Binsearch.protocol : Node_intf.PROTOCOL) in
      let module E = Engine.Make (P) in
      let competitor = 1 in
      let observer = (n / 2) + 1 in
      let cfg =
        {
          (Engine.default_config ~n ~seed) with
          workload = Workload.Continuous { node = competitor };
          trace = true;
        }
      in
      let t = E.create cfg in
      (* Warm up with the competitor hammering the token... *)
      E.run t ~stop:(Engine.At_time (6.0 *. float_of_int n));
      (* ...then the observer asks once and we watch the window. *)
      let t0 = E.now t in
      E.request_now t ~node:observer;
      E.run t
        ~stop:
          (Engine.At_time (t0 +. (20.0 *. float_of_int n)));
      let trace = E.trace t in
      let served_at =
        List.find_map
          (fun { Trace.time; event } ->
            match event with
            | Trace.Served { node; _ } when node = observer && time >= t0 ->
                Some time
            | _ -> None)
          (Trace.events trace)
      in
      let t1 = Option.value served_at ~default:infinity in
      let window =
        List.filter
          (fun (time, node) -> time >= t0 && time <= t1 && node <> observer)
          (Trace.token_possessions trace)
      in
      let by_node = Hashtbl.create 16 in
      List.iter
        (fun (_, node) ->
          Hashtbl.replace by_node node
            (1 + Option.value (Hashtbl.find_opt by_node node) ~default:0))
        window;
      let max_single = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) by_node 0 in
      let x = float_of_int n in
      Series.add single ~x ~y:(float_of_int max_single);
      Series.add total ~x ~y:(float_of_int (List.length window));
      Series.add logn ~x ~y:(log2 x);
      Series.add budget ~x ~y:(x +. log2 x))
    ns;
  {
    id = "THM3";
    title =
      "Possessions while a request waits, against a continuous competitor";
    expectation =
      "no single other node holds the token more than ~log N times, and \
       total possessions stay within ~N + log N (Theorem 3)";
    notes = [];
    series = [ single; total; logn; budget ];
    table = Series.Table.of_series ~x_label:"n" [ single; total; logn; budget ];
  }

(* ------------------------------------------------------------------ *)
(* §4.4 message costs                                                  *)
(* ------------------------------------------------------------------ *)

let per_serve metric outcome =
  let serves = Stdlib.max 1 (Metrics.serves outcome.Runner.metrics) in
  float_of_int (metric outcome.Runner.metrics) /. float_of_int serves

let opt_messages ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 16; 64 ] else [ 16; 32; 64; 128; 256 ] in
  let serves = if quick then 200 else 1000 in
  let contenders =
    [
      ("binsearch", Tr_proto.Binsearch.protocol);
      ("throttled", Tr_proto.Binsearch.protocol_throttled);
      ("directed", Tr_proto.Directed.protocol);
      ("seq-search", Tr_proto.Seq_search.protocol);
      ("gc-rotation", Tr_proto.Cleanup.protocol_rotation);
      ("gc-inverse", Tr_proto.Cleanup.protocol_inverse);
      ("suzuki-kasami", Tr_proto.Suzuki_kasami.protocol);
    ]
  in
  let series =
    List.map
      (fun (label, protocol) ->
        let s = Series.create ~name:label in
        List.iter
          (fun n ->
            let cfg = config ~n ~seed ~workload:(poisson 10.0) in
            let o = Runner.run protocol cfg ~stop:(steady_stop serves) in
            Series.add s ~x:(float_of_int n)
              ~y:(per_serve Metrics.control_messages o))
          ns;
        s)
      contenders
  in
  {
    id = "OPT-MSG";
    title = "Control (search) messages per served request";
    expectation =
      "delegated binsearch ~log N; directed ~2 log N; sequential ~N; \
       Suzuki-Kasami broadcasts ~N; throttling and trap GC reduce the \
       delegated count";
    notes = [];
    series;
    table = Series.Table.of_series ~x_label:"n" series;
  }

(* ------------------------------------------------------------------ *)
(* Tree contrast                                                       *)
(* ------------------------------------------------------------------ *)

let tree_balance ?(quick = false) ?(seed = 42) () =
  let ns = if quick then [ 15; 63 ] else [ 15; 31; 63; 127; 255 ] in
  let serves = if quick then 200 else 1000 in
  let contenders =
    [
      ("ring", Tr_proto.Ring.protocol);
      ("binsearch", Tr_proto.Binsearch.protocol);
      ("tree", Tr_proto.Tree.protocol);
    ]
  in
  let series =
    List.map
      (fun (label, protocol) ->
        let s = Series.create ~name:(label ^ "-imbalance") in
        List.iter
          (fun n ->
            let cfg = config ~n ~seed ~workload:(poisson 10.0) in
            let o = Runner.run protocol cfg ~stop:(steady_stop serves) in
            Series.add s ~x:(float_of_int n)
              ~y:(Metrics.possession_imbalance o.Runner.metrics))
          ns;
        s)
      contenders
  in
  {
    id = "TREE";
    title = "Token-possession imbalance (max node / mean)";
    expectation =
      "ring and binsearch spread possessions evenly (imbalance ~1); the \
       fixed tree concentrates traffic on interior nodes (§5)";
    notes = [];
    series;
    table = Series.Table.of_series ~x_label:"n" series;
  }

(* ------------------------------------------------------------------ *)
(* Adaptive speed / push-pull idle cost                                *)
(* ------------------------------------------------------------------ *)

let adaptive_idle ?(quick = false) ?(seed = 42) () =
  let means = if quick then [ 20.0; 200.0 ] else [ 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 ] in
  let n = if quick then 32 else 100 in
  let serves = if quick then 150 else 600 in
  let contenders =
    [
      ("ring", Tr_proto.Ring.protocol);
      ("adaptive", Tr_proto.Adaptive.protocol);
      ("pushpull", Tr_proto.Pushpull.protocol);
      ("suzuki-kasami", Tr_proto.Suzuki_kasami.protocol);
    ]
  in
  let series =
    List.map
      (fun (label, protocol) ->
        let s = Series.create ~name:(label ^ "-tok/serve") in
        List.iter
          (fun mean ->
            let cfg = config ~n ~seed ~workload:(poisson mean) in
            let o = Runner.run protocol cfg ~stop:(steady_stop serves) in
            Series.add s ~x:mean ~y:(per_serve Metrics.token_messages o))
          means;
        s)
      contenders
  in
  {
    id = "ADAPT";
    title =
      Printf.sprintf "Token messages per served request vs load (n = %d)" n;
    expectation =
      "the plain ring burns ~interarrival token hops per serve; adaptive \
       speed caps the idle cost; push-pull parks the token and pays O(1) \
       expensive messages per serve";
    notes = [];
    series;
    table = Series.Table.of_series ~x_label:"interarrival" series;
  }

(* ------------------------------------------------------------------ *)
(* Responsiveness distribution (beyond the paper's averages)           *)
(* ------------------------------------------------------------------ *)

let dist ?(quick = false) ?(seed = 42) () =
  let n = if quick then 32 else 100 in
  let serves = if quick then 400 else 3000 in
  let contenders =
    [ ("ring", Tr_proto.Ring.protocol); ("binsearch", Tr_proto.Binsearch.protocol) ]
  in
  let quantile_points = [ 0.10; 0.25; 0.50; 0.75; 0.90; 0.95; 0.99 ] in
  let series =
    List.map
      (fun (label, protocol) ->
        let cfg = config ~n ~seed ~workload:(poisson 10.0) in
        let o = Runner.run protocol cfg ~stop:(steady_stop serves) in
        let q = Metrics.responsiveness_quantiles o.Runner.metrics in
        let s = Series.create ~name:label in
        List.iter
          (fun p -> Series.add s ~x:(100.0 *. p) ~y:(Tr_stats.Quantile.quantile q p))
          quantile_points;
        s)
      contenders
  in
  {
    id = "DIST";
    title =
      Printf.sprintf
        "Responsiveness percentiles (n = %d, fixed load) — tail behaviour          the paper's averages hide" n;
    expectation =
      "binsearch dominates at every percentile; the ring's tail stretches        toward the full rotation time while binsearch's stays within a few        log2(n)";
    notes = [];
    series;
    table = Series.Table.of_series ~x_label:"percentile" series;
  }

(* ------------------------------------------------------------------ *)
(* Warm-up / convergence (the "1000 rounds" methodology)               *)
(* ------------------------------------------------------------------ *)

let warmup ?(quick = false) ?(seed = 42) () =
  let n = if quick then 32 else 100 in
  let serves = if quick then 600 else 3000 in
  let checkpoints =
    List.filter (fun k -> k <= serves) [ 25; 50; 100; 200; 400; 800; 1600; 3000 ]
  in
  let window = 100 in
  let series =
    List.map
      (fun (label, protocol) ->
        let cfg =
          { (config ~n ~seed ~workload:(poisson 10.0)) with trace = true }
        in
        let o = Runner.run protocol cfg ~stop:(steady_stop serves) in
        let curve = Trace.running_mean_waiting o.Runner.trace ~window in
        let s = Series.create ~name:label in
        List.iteri
          (fun i (_, mean) ->
            if List.mem (i + 1) checkpoints then
              Series.add s ~x:(float_of_int (i + 1)) ~y:mean)
          curve;
        s)
      [ ("ring", Tr_proto.Ring.protocol); ("binsearch", Tr_proto.Binsearch.protocol) ]
  in
  {
    id = "WARMUP";
    title =
      Printf.sprintf
        "Running mean waiting time vs serves (window %d, n = %d)" window n;
    expectation =
      "both protocols converge to their steady-state statistic well before        the paper's 1000-rounds horizon; binsearch's level sits below the        ring's";
    notes = [];
    series;
    table = Series.Table.of_series ~x_label:"serves" series;
  }

(* ------------------------------------------------------------------ *)
(* State-space growth of the specifications (methodology)              *)
(* ------------------------------------------------------------------ *)

let spec_space ?pool ?(quick = false) ?seed:_ () =
  let cap = if quick then 1500 else 8000 in
  let specs =
    [
      ("S", fun n -> (Tr_specs.System_s.system ~n, Tr_specs.System_s.initial ~n ~data_budget:1));
      ("S1", fun n -> (Tr_specs.System_s1.system ~n, Tr_specs.System_s1.initial ~n ~data_budget:1));
      ("Token", fun n -> (Tr_specs.System_token.system ~n, Tr_specs.System_token.initial ~n ~data_budget:1));
      ("MsgPass", fun n -> (Tr_specs.System_msgpass.system ~n, Tr_specs.System_msgpass.initial ~n ~data_budget:1));
      ("Search", fun n -> (Tr_specs.System_search.system ~n, Tr_specs.System_search.initial ~n ~data_budget:1));
      ("BinSearch", fun n -> (Tr_specs.System_binsearch.system ~n, Tr_specs.System_binsearch.initial ~n ~data_budget:1));
    ]
  in
  let sizes = [ 2; 3 ] in
  (* Unlike the sweep experiments, a pool here parallelises {e inside}
     each exploration (the explorer's layer workers), not across jobs —
     Pool.map cannot be re-entered from worker jobs, and a single big
     exploration is exactly the workload those workers exist for. The visited
     counts are deterministic across domain counts, so the table stays
     byte-identical with and without a pool. *)
  (* [bfs] builds no visited-order list, which the table does not read,
     so the peak RSS noted below is the explorations' own. *)
  let results =
    List.concat_map
      (fun (_, make_spec) ->
        List.map
          (fun n ->
            let system, init = make_spec n in
            let t0 = Unix.gettimeofday () in
            let stats, _ =
              Tr_trs.Explore.bfs ~max_states:cap ?pool system ~init
            in
            (stats, Unix.gettimeofday () -. t0))
          sizes)
      specs
  in
  let remaining = ref results in
  let series =
    List.map
      (fun (label, _) ->
        let s = Series.create ~name:label in
        List.iter
          (fun n ->
            match !remaining with
            | (stats, _) :: rest ->
                remaining := rest;
                Series.add s ~x:(float_of_int n)
                  ~y:(float_of_int stats.Tr_trs.Explore.states)
            | [] -> assert false)
          sizes;
        s)
      specs
  in
  let total_states, total_wall =
    List.fold_left
      (fun (states, wall) ((stats : Tr_trs.Explore.stats), wall_s) ->
        (states + stats.states, wall +. wall_s))
      (0, 0.0) results
  in
  let domains = Option.fold ~none:1 ~some:Tr_sim.Pool.domains pool in
  {
    id = "SPACE";
    title =
      Printf.sprintf
        "Reachable states per specification (budget 1, capped at %d)" cap;
    expectation =
      "each refinement step multiplies the state space: the abstract        systems stay tiny while the distributed ones hit the exploration        cap — the reason the paper separates correctness from performance";
    notes =
      [
        ( "states_per_s",
          Printf.sprintf "%.0f"
            (if total_wall > 0.0 then float_of_int total_states /. total_wall
             else 0.0) );
        ("domains", string_of_int domains);
        ("peak_rss_kb", string_of_int (Tr_trs.Explore.peak_rss_kb ()));
      ];
    series;
    table = Series.Table.of_series ~x_label:"n" series;
  }

type run = ?pool:Tr_sim.Pool.t -> ?quick:bool -> ?seed:int -> unit -> result

let serial f : run = fun ?pool:_ ?quick ?seed () -> f ?quick ?seed ()

let registry : (string * run) list =
  [
    ("FIG9", fig9);
    ("FIG10", fig10);
    ("LARGE-N", large_n);
    ("LEM4", lem4);
    ("LEM6", lem6);
    ("THM2", thm2);
    ("THM3", serial thm3);
    ("OPT-MSG", serial opt_messages);
    ("TREE", serial tree_balance);
    ("ADAPT", serial adaptive_idle);
    ("DIST", serial dist);
    ("WARMUP", serial warmup);
    ("SPACE", spec_space);
  ]

let ids = List.map fst registry

let find id = List.assoc_opt (String.uppercase_ascii id) registry

let all ?pool ?quick ?seed () =
  List.map (fun (_, run) -> run ?pool ?quick ?seed ()) registry

let pp_result ppf r =
  let pp_plot ppf series =
    Tr_stats.Plot.pp ~width:60 ~height:14 ~x_label:"x" ~y_label:"y" ppf series
  in
  let pp_notes ppf = function
    | [] -> ()
    | notes ->
        List.iter (fun (k, v) -> Format.fprintf ppf "%s: %s@\n" k v) notes
  in
  Format.fprintf ppf "=== %s: %s ===@\nexpectation: %s@\n%a%a@\n%a" r.id r.title
    r.expectation pp_notes r.notes Series.Table.pp r.table pp_plot r.series
