(* End-to-end checks of the experiment harness: every figure/claim
   regenerates (in quick mode) with the paper's qualitative shape. *)

module Exp = Tokenring.Experiments
module Series = Tr_stats.Series

let find_result id results =
  List.find (fun r -> String.equal r.Exp.id id) results

(* Run the quick experiments once for the whole file. *)
let results = lazy (Exp.all ~quick:true ~seed:11 ())

let test_all_present () =
  let ids = List.map (fun r -> r.Exp.id) (Lazy.force results) in
  Alcotest.(check (list string)) "experiment index"
    [ "FIG9"; "FIG10"; "LARGE-N"; "LEM4"; "LEM6"; "THM2"; "THM3"; "OPT-MSG";
      "TREE"; "ADAPT"; "DIST"; "WARMUP"; "SPACE" ]
    ids;
  (* The registry names each experiment by the id its result carries,
     so the CLI can reject an unknown id before running anything. *)
  Alcotest.(check (list string)) "registry ids" ids Exp.ids;
  Alcotest.(check bool) "find is case-insensitive" true
    (Option.is_some (Exp.find "fig9"));
  Alcotest.(check bool) "unknown id" true (Option.is_none (Exp.find "NOPE"))

let test_tables_render () =
  List.iter
    (fun r ->
      let text = Format.asprintf "%a" Exp.pp_result r in
      if String.length text < 50 then
        Alcotest.failf "%s: table suspiciously small" r.Exp.id)
    (Lazy.force results)

(* The quick FIG9 sweep covers n in {8,16,32}; rebuild the raw series to
   assert shapes numerically. *)
let rerun_fig9 = lazy (Exp.fig9 ~quick:true ~seed:11 ())

let table_cell table x col =
  (* Parse the rendered CSV: x,ring,binsearch,log2(n) *)
  let csv = Series.Table.to_csv table in
  let lines = String.split_on_char '\n' csv in
  let headers =
    match lines with h :: _ -> String.split_on_char ',' h | [] -> []
  in
  let col_idx =
    match List.find_index (String.equal col) headers with
    | Some i -> i
    | None -> Alcotest.failf "column %s not found" col
  in
  let row =
    List.find_opt
      (fun line ->
        match String.split_on_char ',' line with
        | x_str :: _ -> ( try float_of_string x_str = x with _ -> false)
        | [] -> false)
      lines
  in
  match row with
  | Some line -> float_of_string (List.nth (String.split_on_char ',' line) col_idx)
  | None -> Alcotest.failf "row x=%g not found" x

let test_fig9_shape () =
  let r = Lazy.force rerun_fig9 in
  (* At the largest quick size, binsearch beats ring and stays within
     ~2x log2(n). *)
  let ring = table_cell r.Exp.table 32.0 "ring" in
  let bin = table_cell r.Exp.table 32.0 "binsearch" in
  Alcotest.(check bool) "binsearch <= ring at n=32" true (bin <= ring);
  Alcotest.(check bool) "binsearch ~ log2 n" true (bin < 2.0 *. 5.0)

let test_fig10_shape () =
  let r = find_result "FIG10" (Lazy.force results) in
  let ring_light = table_cell r.Exp.table 400.0 "ring" in
  let bin_light = table_cell r.Exp.table 400.0 "binsearch" in
  (* Light load: ring tends toward n/2 = 50, binsearch toward log2 100. *)
  Alcotest.(check bool) "ring -> n/2" true (ring_light > 30.0);
  Alcotest.(check bool) "binsearch -> log2 n" true (bin_light < 12.0);
  Alcotest.(check bool) "separation" true (ring_light > 3.0 *. bin_light)

let test_lem4_linear () =
  let r = find_result "LEM4" (Lazy.force results) in
  let w8 = table_cell r.Exp.table 8.0 "ring-worst-wait" in
  let w32 = table_cell r.Exp.table 32.0 "ring-worst-wait" in
  Alcotest.(check bool) "scales ~linearly" true (w32 > 2.5 *. w8)

let test_lem6_logarithmic () =
  let r = find_result "LEM6" (Lazy.force results) in
  let f8 = table_cell r.Exp.table 8.0 "search-forwards" in
  let f32 = table_cell r.Exp.table 32.0 "search-forwards" in
  Alcotest.(check bool) "8-node forwards <= log2+2" true (f8 <= 5.0);
  Alcotest.(check bool) "32-node forwards <= log2+2" true (f32 <= 7.0)

let test_thm2_logarithmic () =
  let r = find_result "THM2" (Lazy.force results) in
  let w32 = table_cell r.Exp.table 32.0 "binsearch-worst-wait" in
  Alcotest.(check bool) "bounded by ~4 log2 n" true (w32 <= 4.0 *. 5.0)

let test_thm3_fairness () =
  let r = find_result "THM3" (Lazy.force results) in
  List.iter
    (fun n ->
      let x = float_of_int n in
      let single = table_cell r.Exp.table x "max-by-one-node" in
      let total = table_cell r.Exp.table x "total-possessions" in
      let logn = log x /. log 2.0 in
      if single > (3.0 *. logn) +. 3.0 then
        Alcotest.failf "n=%d: one node held the token %.0f times" n single;
      if total > (2.0 *. x) +. (3.0 *. logn) then
        Alcotest.failf "n=%d: %.0f total possessions" n total)
    [ 8; 32 ]

let test_opt_messages_ordering () =
  let r = find_result "OPT-MSG" (Lazy.force results) in
  let seq = table_cell r.Exp.table 64.0 "seq-search" in
  let bin = table_cell r.Exp.table 64.0 "binsearch" in
  let directed = table_cell r.Exp.table 64.0 "directed" in
  Alcotest.(check bool) "sequential >> delegated" true (seq > 4.0 *. bin);
  Alcotest.(check bool) "directed > delegated" true (directed > bin)

let test_tree_imbalance () =
  let r = find_result "TREE" (Lazy.force results) in
  let tree = table_cell r.Exp.table 63.0 "tree-imbalance" in
  let ring = table_cell r.Exp.table 63.0 "ring-imbalance" in
  Alcotest.(check bool) "tree concentrates" true (tree > 2.0 *. ring)

let test_dist_dominance () =
  let r = find_result "DIST" (Lazy.force results) in
  (* binsearch is at least as good as ring at the median and p99. *)
  let ring50 = table_cell r.Exp.table 50.0 "ring" in
  let bin50 = table_cell r.Exp.table 50.0 "binsearch" in
  let ring99 = table_cell r.Exp.table 99.0 "ring" in
  let bin99 = table_cell r.Exp.table 99.0 "binsearch" in
  Alcotest.(check bool) "median dominance" true (bin50 <= ring50 +. 1e-9);
  Alcotest.(check bool) "tail dominance" true (bin99 <= ring99 +. 1e-9)

let test_adapt_idle_costs () =
  let r = find_result "ADAPT" (Lazy.force results) in
  let ring = table_cell r.Exp.table 200.0 "ring-tok/serve" in
  let adaptive = table_cell r.Exp.table 200.0 "adaptive-tok/serve" in
  let pushpull = table_cell r.Exp.table 200.0 "pushpull-tok/serve" in
  Alcotest.(check bool) "adaptive cheaper than ring" true (adaptive < ring);
  Alcotest.(check bool) "pushpull cheapest" true (pushpull < adaptive)

(* ---------------- JSON export ---------------- *)

let balanced text =
  let depth = ref 0 and ok = ref true and in_string = ref false in
  String.iteri
    (fun i c ->
      if !in_string then begin
        if c = '"' && (i = 0 || text.[i - 1] <> '\\') then in_string := false
      end
      else
        match c with
        | '"' -> in_string := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    text;
  !ok && !depth = 0

let test_export_escape () =
  Alcotest.(check string) "quotes and backslashes" {|a\"b\\c|}
    (Tr_stats.Json.escape_string {|a"b\c|});
  Alcotest.(check string) "newline" {|x\ny|}
    (Tr_stats.Json.escape_string "x\ny")

let test_export_outcome_json () =
  let config =
    {
      (Tokenring.Engine.default_config ~n:8 ~seed:1) with
      workload = Tokenring.Workload.Global_poisson { mean_interarrival = 5.0 };
    }
  in
  let o =
    Tokenring.Runner.run_named "ring" config
      ~stop:(Tokenring.Engine.After_serves 20)
  in
  let json = Tokenring.Export.outcome_to_json o in
  Alcotest.(check bool) "balanced" true (balanced json);
  List.iter
    (fun key ->
      if not (Astring.String.is_infix ~affix:(Printf.sprintf "\"%s\"" key) json)
      then Alcotest.failf "missing key %s" key)
    [ "protocol"; "serves"; "responsiveness"; "waiting_quantiles";
      "token_messages"; "waiting_fairness" ]

let test_export_result_json () =
  let r = Tokenring.Experiments.fig9 ~quick:true ~seed:3 () in
  let json = Tokenring.Export.result_to_json r in
  Alcotest.(check bool) "balanced" true (balanced json);
  Alcotest.(check bool) "has series" true
    (Astring.String.is_infix ~affix:"\"binsearch\"" json)

(* ---------------- runner facade ---------------- *)

let test_run_named () =
  let config =
    {
      (Tokenring.Engine.default_config ~n:16 ~seed:0) with
      workload = Tokenring.Workload.Global_poisson { mean_interarrival = 5.0 };
    }
  in
  let o =
    Tokenring.Runner.run_named "binsearch" config
      ~stop:(Tokenring.Engine.After_serves 50)
  in
  Alcotest.(check string) "name" "binsearch" o.Tokenring.Runner.protocol_name;
  Alcotest.(check bool) "served" true
    (Tokenring.Metrics.serves o.Tokenring.Runner.metrics >= 50)

let test_run_named_unknown () =
  let config = Tokenring.Engine.default_config ~n:4 ~seed:0 in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Tokenring.Runner.run_named "no-such-protocol" config
            ~stop:(Tokenring.Engine.At_time 1.0));
       false
     with Invalid_argument _ -> true)

let test_registry_names_unique () =
  let names = Tokenring.Registry.names in
  Alcotest.(check int) "no duplicates"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_run_many_ensemble () =
  let config =
    {
      (Tokenring.Engine.default_config ~n:16 ~seed:0) with
      workload = Tokenring.Workload.Global_poisson { mean_interarrival = 8.0 };
    }
  in
  let ensemble =
    Tokenring.Runner.run_many Tr_proto.Binsearch.protocol config
      ~seeds:[ 1; 2; 3; 4 ]
      ~stop:(Tokenring.Engine.After_serves 80)
  in
  Alcotest.(check int) "four runs" 4 (List.length ensemble.Tokenring.Runner.outcomes);
  let resp = ensemble.Tokenring.Runner.responsiveness_means in
  Alcotest.(check int) "four means" 4 (Tokenring.Summary.count resp);
  Alcotest.(check bool) "error bar is finite and positive" true
    (let half = Tokenring.Summary.ci95_halfwidth resp in
     half > 0.0 && half < Tokenring.Summary.mean resp);
  Alcotest.(check bool) "empty seeds rejected" true
    (try
       ignore
         (Tokenring.Runner.run_many Tr_proto.Binsearch.protocol config ~seeds:[]
            ~stop:(Tokenring.Engine.At_time 1.0));
       false
     with Invalid_argument _ -> true)

(* ---------------- parallel determinism ---------------- *)

(* The tentpole guarantee: a pool changes wall-clock, never data. Tables
   must come out byte-identical because every sweep point is an
   independent seeded run and results are reassembled in sweep order. *)
let csv r = Series.Table.to_csv r.Exp.table

let test_parallel_experiments_deterministic () =
  Tr_sim.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun (label, seq, par) ->
          Alcotest.(check string)
            (label ^ " byte-identical with and without pool")
            (csv (seq ())) (csv (par pool)))
        [
          ( "FIG9",
            (fun () -> Exp.fig9 ~quick:true ~seed:11 ()),
            fun pool -> Exp.fig9 ~pool ~quick:true ~seed:11 () );
          ( "FIG10",
            (fun () -> Exp.fig10 ~quick:true ~seed:11 ()),
            fun pool -> Exp.fig10 ~pool ~quick:true ~seed:11 () );
          ( "LEM4",
            (fun () -> Exp.lem4 ~quick:true ~seed:11 ()),
            fun pool -> Exp.lem4 ~pool ~quick:true ~seed:11 () );
          ( "THM2",
            (fun () -> Exp.thm2 ~quick:true ~seed:11 ()),
            fun pool -> Exp.thm2 ~pool ~quick:true ~seed:11 () );
          ( "SPACE",
            (fun () -> Exp.spec_space ~quick:true ()),
            fun pool -> Exp.spec_space ~pool ~quick:true () );
        ])

let test_parallel_run_many_deterministic () =
  let config =
    {
      (Tokenring.Engine.default_config ~n:16 ~seed:0) with
      workload = Tokenring.Workload.Global_poisson { mean_interarrival = 8.0 };
    }
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let stop = Tokenring.Engine.After_serves 60 in
  let seq = Tokenring.Runner.run_many Tr_proto.Binsearch.protocol config ~seeds ~stop in
  let par =
    Tr_sim.Pool.with_pool ~domains:4 (fun pool ->
        Tokenring.Runner.run_many ~pool Tr_proto.Binsearch.protocol config ~seeds
          ~stop)
  in
  let digest e =
    List.map
      (fun o ->
        ( o.Tokenring.Runner.seed,
          o.Tokenring.Runner.duration,
          Tokenring.Metrics.token_messages o.Tokenring.Runner.metrics,
          Tokenring.Summary.mean (Tokenring.Metrics.responsiveness o.Tokenring.Runner.metrics) ))
      e.Tokenring.Runner.outcomes
  in
  Alcotest.(check bool) "outcomes identical in seed order" true
    (digest seq = digest par);
  Alcotest.(check (float 0.0)) "aggregates identical"
    (Tokenring.Summary.mean seq.Tokenring.Runner.responsiveness_means)
    (Tokenring.Summary.mean par.Tokenring.Runner.responsiveness_means)

let test_run_many_trace_retention () =
  let config =
    {
      (Tokenring.Engine.default_config ~n:8 ~seed:0) with
      workload = Tokenring.Workload.Global_poisson { mean_interarrival = 5.0 };
      trace = true;
    }
  in
  let stop = Tokenring.Engine.After_serves 10 in
  let ensemble =
    Tokenring.Runner.run_many Tr_proto.Ring.protocol config ~seeds:[ 1; 2 ] ~stop
  in
  List.iter
    (fun o ->
      Alcotest.(check int) "ensembles drop traces by default" 0
        (Tokenring.Trace.length o.Tokenring.Runner.trace))
    ensemble.Tokenring.Runner.outcomes;
  let traced =
    Tokenring.Runner.run_many ~record_trace:true Tr_proto.Ring.protocol config
      ~seeds:[ 1; 2 ] ~stop
  in
  List.iter
    (fun o ->
      Alcotest.(check bool) "record_trace:true keeps them" true
        (Tokenring.Trace.length o.Tokenring.Runner.trace > 0))
    traced.Tokenring.Runner.outcomes

let test_rounds_stop () =
  match Tokenring.Runner.rounds_stop ~n:10 ~rounds:100 with
  | Tokenring.Engine.After_token_messages 1000 -> ()
  | _ -> Alcotest.fail "rounds_stop mis-scaled"

let test_spec_space_growth () =
  let r = find_result "SPACE" (Lazy.force results) in
  let s = table_cell r.Exp.table 2.0 "S" in
  let bs = table_cell r.Exp.table 2.0 "BinSearch" in
  Alcotest.(check bool) "refinement blows up the space" true (bs > 10.0 *. s)

let test_warmup_converges () =
  let r = find_result "WARMUP" (Lazy.force results) in
  (* By the last checkpoint binsearch's running mean sits below ring's. *)
  let ring = table_cell r.Exp.table 400.0 "ring" in
  let bin = table_cell r.Exp.table 400.0 "binsearch" in
  Alcotest.(check bool) "levels separate" true (bin < ring)

(* ---------------- scenario specs ---------------- *)

let test_scenario_workloads () =
  let ok spec expected =
    match Tokenring.Scenario.workload_of_string spec with
    | Ok w when w = expected -> ()
    | Ok _ -> Alcotest.failf "%S parsed to the wrong workload" spec
    | Error e -> Alcotest.failf "%S rejected: %s" spec e
  in
  ok "nothing" Tokenring.Workload.Nothing;
  ok "poisson:10" (Tokenring.Workload.Global_poisson { mean_interarrival = 10.0 });
  ok "pernode:50.5"
    (Tokenring.Workload.Per_node_poisson { mean_interarrival = 50.5 });
  ok "burst:25,4" (Tokenring.Workload.Burst { period = 25.0; size = 4 });
  ok "hotspot:10,3,0.8"
    (Tokenring.Workload.Hotspot { mean_interarrival = 10.0; hot = 3; bias = 0.8 });
  ok "continuous:2" (Tokenring.Workload.Continuous { node = 2 })

let test_scenario_workload_errors () =
  List.iter
    (fun spec ->
      match Tokenring.Scenario.workload_of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" spec)
    [ ""; "poisson"; "poisson:abc"; "burst:1"; "zipf:2"; "hotspot:1,2" ]

let test_scenario_networks () =
  List.iter
    (fun spec ->
      match Tokenring.Scenario.network_of_string spec with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S rejected: %s" spec e)
    Tokenring.Scenario.network_examples;
  (* Behavioural spot-checks. *)
  let rng = Tr_sim.Rng.create 0 in
  (match Tokenring.Scenario.network_of_string "const:2.5" with
  | Ok net ->
      Alcotest.(check (float 1e-9)) "const delay" 2.5
        (Tr_sim.Network.sample_delay net rng Tr_sim.Network.Reliable ~src:0 ~dst:1)
  | Error e -> Alcotest.fail e);
  match Tokenring.Scenario.network_of_string "const:1+slow:5,8" with
  | Ok net ->
      Alcotest.(check (float 1e-9)) "slow node" 8.0
        (Tr_sim.Network.sample_delay net rng Tr_sim.Network.Reliable ~src:5 ~dst:0);
      Alcotest.(check (float 1e-9)) "normal node" 1.0
        (Tr_sim.Network.sample_delay net rng Tr_sim.Network.Reliable ~src:0 ~dst:5)
  | Error e -> Alcotest.fail e

let test_scenario_network_errors () =
  List.iter
    (fun spec ->
      match Tokenring.Scenario.network_of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should be rejected" spec)
    [ "warp:1"; "uniform:2,1"; "lossy:1.5"; "uniform:1"; "slow:1" ]

let test_scenario_runs_end_to_end () =
  match
    ( Tokenring.Scenario.workload_of_string "burst:15,3",
      Tokenring.Scenario.network_of_string "uniform:0.5,1.5" )
  with
  | Ok workload, Ok network ->
      let config =
        { (Tokenring.Engine.default_config ~n:12 ~seed:5) with workload; network }
      in
      let o =
        Tokenring.Runner.run_named "binsearch" config
          ~stop:(Tokenring.Engine.After_serves 60)
      in
      Alcotest.(check bool) "lives" true
        (Tokenring.Metrics.serves o.Tokenring.Runner.metrics >= 60)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* ---------------- golden files ---------------- *)

(* The CSVs and traces under test/golden/ were captured before the
   flat-queue/pooled-event engine rewrite; byte-identity here is the
   refactor's correctness bar — the optimized simulator must replay the
   exact same event streams. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_golden_csv id golden () =
  let r = find_result id (Lazy.force results) in
  Alcotest.(check string)
    (id ^ " table byte-identical to pre-refactor capture")
    (read_file ("golden/" ^ golden))
    (Series.Table.to_csv r.Exp.table)

let golden_trace_config =
  {
    (Tokenring.Engine.default_config ~n:8 ~seed:3) with
    workload = Tokenring.Workload.Global_poisson { mean_interarrival = 5.0 };
    trace = true;
  }

let test_golden_trace protocol golden () =
  let o =
    Tokenring.Runner.run protocol golden_trace_config
      ~stop:(Tokenring.Engine.After_serves 20)
  in
  Alcotest.(check string) "trace byte-identical to pre-refactor capture"
    (read_file ("golden/" ^ golden))
    (Format.asprintf "%a" Tokenring.Trace.pp o.Tokenring.Runner.trace)

(* The trace is a pure rendering of the observer stream: the same run
   with the trace off and only an observer, its events rendered through
   the protocol's label and [Trace.pp_event], prints the golden trace
   byte for byte. The stream's search forwards are the metric's. *)
let test_golden_observer (module P : Tokenring.Node_intf.PROTOCOL) golden () =
  let module E = Tokenring.Engine.Make (P) in
  let b = Buffer.create 16384 in
  let ppf = Format.formatter_of_buffer b in
  let forwards = ref 0 in
  let observe ~time event =
    (match event with
    | Tokenring.Node_intf.Search_forward _ -> incr forwards
    | _ -> ());
    match Tokenring.Trace.render ~label:P.label event with
    | Some e -> Format.fprintf ppf "%10.3f  %a@\n" time Tokenring.Trace.pp_event e
    | None -> ()
  in
  let t = E.create ~observe { golden_trace_config with trace = false } in
  E.run t ~stop:(Tokenring.Engine.After_serves 20);
  Format.pp_print_flush ppf ();
  Alcotest.(check int) "trace off" 0 (Tokenring.Trace.length (E.trace t));
  Alcotest.(check string) "rendered stream equals the golden trace"
    (read_file ("golden/" ^ golden))
    (Buffer.contents b);
  Alcotest.(check int) "search forwards"
    (Tokenring.Metrics.search_forwards (E.metrics t))
    !forwards

(* One digest per registry protocol and per hybrid-app directive: the
   MD5 of the rendered traces of two fixed runs (n = 8, seed 5, a fixed
   serve count), one under heavy and one under light load, so that both
   the trap/loan paths and the idle (parking) paths are pinned. *)
let digest_loads = [ 2.0; 12.0 ]

let traces_digest run =
  let b = Buffer.create 65536 in
  List.iter
    (fun mean ->
      let config =
        {
          (Tokenring.Engine.default_config ~n:8 ~seed:5) with
          workload = Tokenring.Workload.Global_poisson { mean_interarrival = mean };
          trace = true;
        }
      in
      let o : Tokenring.Runner.outcome = run config in
      Buffer.add_string b (Format.asprintf "%a" Tokenring.Trace.pp o.trace))
    digest_loads;
  Digest.to_hex (Digest.string (Buffer.contents b))

let protocol_digests =
  [
    ("ring", "a6a6ef1d185410896162ebaf3215c656");
    ("tree", "e13a3b01672c5e1276e158782af50081");
    ("suzuki-kasami", "0a64f04cb78f2e0442c7960e8312768f");
    ("seq-search", "60c0db2be3513b9f3f68b387c22a8d81");
    ("binsearch", "e78fca4f3354dff020733c7ffd562821");
    ("binsearch-throttle", "a09349a254069c6e599064c4d9eb8412");
    ("directed", "08899d3d4ac2fc93bb590203b3ed753f");
    ("binsearch-gc-rotation", "6fa05af8c59454f2af2eb7ba36e561cc");
    ("binsearch-gc-inverse", "e240be0882f09ccd5beda2daab082300");
    ("adaptive", "49ad2a0122c944aa4b31afe5cd9edd5b");
    ("pushpull", "6e0a8e403a0dc8417b9ff65f91265fc2");
    ("ring-failsafe", "78a4be5c40af956a4f197e7894e198dd");
    ("binsearch-failsafe", "9a7c7eda6de5c155200c6001ca65af1d");
    ("ring-membership", "5e47795076822e47a081ee0b6b089bff");
    ("random-walk", "5d5c22811cb8fdc819ee038d972fc9f8");
  ]

let test_protocol_digest name want () =
  Alcotest.(check string) (name ^ " trace digest") want
    (traces_digest (fun config ->
         Tokenring.Runner.run_named name config
           ~stop:(Tokenring.Engine.After_serves 60)))

let test_protocol_digests_cover_registry () =
  Alcotest.(check (list string)) "one digest per wire protocol"
    Tr_wire.Codecs.names (List.map fst protocol_digests)

let app_digests =
  let rotate = { Tr_apps.Movement.mode = Rotate; park_after = None } in
  let park2 = { Tr_apps.Movement.mode = Search; park_after = Some 2 } in
  let mutex d : (module Tokenring.Node_intf.PROTOCOL) =
    (module (val Tr_apps.Mutex.make ~directive:(fun () -> d) ()))
  in
  let total_order d : (module Tokenring.Node_intf.PROTOCOL) =
    (module (val Tr_apps.Total_order.make ~directive:(fun () -> d) ()))
  in
  [
    ("mutex rotate", mutex rotate, "5e4a09e27c37273d78a5e9ff20fbf2b0");
    ("mutex search park 2", mutex park2, "fb48e7c32878b4ca7bc5032249ac259f");
    ("total-order rotate", total_order rotate, "1cf692236bc5d857b8c4501151dd2102");
    ("total-order search park 2", total_order park2, "8a9bda8100aac38c75227ac1ddab5cb0");
  ]

let test_app_digest name protocol want () =
  Alcotest.(check string) (name ^ " trace digest") want
    (traces_digest (fun config ->
         Tokenring.Runner.run protocol config
           ~stop:(Tokenring.Engine.After_serves 40)))

(* The engine queues a send on a fixed channel ([Constant] delay, no
   loss, no partition, no chaos) without consulting the network, and
   routes every other send through [Network.dropped] and
   [Network.sample_delay]. A [Per_link] model returning the same
   constant takes the sampled path and draws nothing, so both paths must
   replay the same run: same trace, same metrics, same event count. *)
let delay_path_run name network ~n ~seed ~mean =
  let config =
    {
      (Tokenring.Engine.default_config ~n ~seed) with
      network;
      workload = Tokenring.Workload.Global_poisson { mean_interarrival = mean };
      trace = true;
    }
  in
  (* The token-message cap ends runs whose token keeps circulating at
     the floored [Constant 0.0] delay. *)
  let o =
    Tokenring.Runner.run_named name config
      ~stop:
        (Tokenring.Engine.First_of
           [
             Tokenring.Engine.After_serves 60;
             Tokenring.Engine.After_token_messages 20_000;
           ])
  in
  let rendered = Format.asprintf "%a" Tokenring.Trace.pp o.trace in
  (Digest.to_hex (Digest.string rendered), o.metrics, o.events)

let same_run (digest_a, metrics_a, events_a) (digest_b, metrics_b, events_b) =
  String.equal digest_a digest_b
  && Stdlib.compare metrics_a metrics_b = 0
  && events_a = events_b

let delay_path_protocols =
  [ "ring"; "binsearch"; "adaptive"; "directed"; "binsearch-gc-rotation" ]

let prop_delay_paths_agree =
  let module N = Tokenring.Network in
  let one ~src:_ ~dst:_ = 1.0 in
  let sampled =
    N.create ~reliable_delay:(N.Per_link one) ~cheap_delay:(N.Per_link one) ()
  in
  QCheck.Test.make ~name:"fixed and sampled delay paths agree" ~count:25
    QCheck.(
      quad (make ~print:Fun.id (Gen.oneofl delay_path_protocols))
        (int_range 2 12) (int_bound 100_000)
        (make ~print:string_of_float (Gen.oneofl [ 2.0; 12.0 ])))
    (fun (name, n, seed, mean) ->
      same_run
        (delay_path_run name N.default ~n ~seed ~mean)
        (delay_path_run name sampled ~n ~seed ~mean))

(* [Constant 0.0] is floored to 1e-9 on both paths: queued directly, and
   sampled when a partition predicate that never fires forces the
   sampled path. *)
let test_zero_delay_paths_agree () =
  let module N = Tokenring.Network in
  let zero = N.Constant 0.0 in
  let fixed = N.create ~reliable_delay:zero ~cheap_delay:zero () in
  let sampled =
    N.create ~reliable_delay:zero ~cheap_delay:zero
      ~partitioned:(fun _ _ -> false) ()
  in
  List.iter
    (fun name ->
      let a = delay_path_run name fixed ~n:8 ~seed:5 ~mean:2.0 in
      let b = delay_path_run name sampled ~n:8 ~seed:5 ~mean:2.0 in
      Alcotest.(check bool) (name ^ ": same run") true (same_run a b))
    delay_path_protocols

let () =
  Alcotest.run "experiments"
    [
      ( "harness",
        [
          Alcotest.test_case "all present" `Quick test_all_present;
          Alcotest.test_case "tables render" `Quick test_tables_render;
        ] );
      ( "golden",
        [
          Alcotest.test_case "FIG9 csv" `Quick
            (test_golden_csv "FIG9" "fig9_quick_seed11.csv");
          Alcotest.test_case "FIG10 csv" `Quick
            (test_golden_csv "FIG10" "fig10_quick_seed11.csv");
          Alcotest.test_case "ring trace" `Quick
            (test_golden_trace Tr_proto.Ring.protocol "trace_ring_n8_seed3.txt");
          Alcotest.test_case "binsearch trace" `Quick
            (test_golden_trace Tr_proto.Binsearch.protocol
               "trace_binsearch_n8_seed3.txt");
          Alcotest.test_case "digests cover the registry" `Quick
            test_protocol_digests_cover_registry;
        ]
        @ List.map
            (fun (name, want) ->
              Alcotest.test_case (name ^ " digest") `Quick
                (test_protocol_digest name want))
            protocol_digests
        @ List.map
            (fun (name, protocol, want) ->
              Alcotest.test_case (name ^ " digest") `Quick
                (test_app_digest name protocol want))
            app_digests
        @ [
            Alcotest.test_case "ring observer stream" `Quick
              (test_golden_observer Tr_proto.Ring.protocol
                 "trace_ring_n8_seed3.txt");
            Alcotest.test_case "binsearch observer stream" `Quick
              (test_golden_observer Tr_proto.Binsearch.protocol
                 "trace_binsearch_n8_seed3.txt");
          ] );
      ( "delay paths",
        [
          Alcotest.test_case "constant 0 floored on both paths" `Quick
            test_zero_delay_paths_agree;
          QCheck_alcotest.to_alcotest prop_delay_paths_agree;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "FIG9" `Quick test_fig9_shape;
          Alcotest.test_case "FIG10" `Quick test_fig10_shape;
          Alcotest.test_case "LEM4" `Quick test_lem4_linear;
          Alcotest.test_case "LEM6" `Quick test_lem6_logarithmic;
          Alcotest.test_case "THM2" `Quick test_thm2_logarithmic;
          Alcotest.test_case "THM3" `Quick test_thm3_fairness;
          Alcotest.test_case "OPT-MSG" `Quick test_opt_messages_ordering;
          Alcotest.test_case "TREE" `Quick test_tree_imbalance;
          Alcotest.test_case "ADAPT" `Quick test_adapt_idle_costs;
          Alcotest.test_case "DIST" `Quick test_dist_dominance;
          Alcotest.test_case "WARMUP" `Quick test_warmup_converges;
          Alcotest.test_case "SPACE" `Quick test_spec_space_growth;
        ] );
      ( "export",
        [
          Alcotest.test_case "escape" `Quick test_export_escape;
          Alcotest.test_case "outcome json" `Quick test_export_outcome_json;
          Alcotest.test_case "result json" `Quick test_export_result_json;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "workloads" `Quick test_scenario_workloads;
          Alcotest.test_case "workload errors" `Quick test_scenario_workload_errors;
          Alcotest.test_case "networks" `Quick test_scenario_networks;
          Alcotest.test_case "network errors" `Quick test_scenario_network_errors;
          Alcotest.test_case "end to end" `Quick test_scenario_runs_end_to_end;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run_named" `Quick test_run_named;
          Alcotest.test_case "unknown protocol" `Quick test_run_named_unknown;
          Alcotest.test_case "registry unique" `Quick test_registry_names_unique;
          Alcotest.test_case "run_many ensemble" `Quick test_run_many_ensemble;
          Alcotest.test_case "rounds stop" `Quick test_rounds_stop;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "sweeps deterministic under pool" `Quick
            test_parallel_experiments_deterministic;
          Alcotest.test_case "run_many deterministic under pool" `Quick
            test_parallel_run_many_deterministic;
          Alcotest.test_case "run_many trace retention" `Quick
            test_run_many_trace_retention;
        ] );
    ]
