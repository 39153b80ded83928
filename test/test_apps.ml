(* Tests for the applications: total-order broadcast (agreement and
   gap-freedom, including under message loss and reordering) and the
   mutex service (no overlapping critical sections). *)

open Tr_sim

(* ---------------- total order ---------------- *)

module TO = Engine.Make (Tr_apps.Total_order.Impl)

let run_total_order ?(n = 8) ?(seed = 3) ?(network = Network.default)
    ~workload ~serves () =
  let config = { (Engine.default_config ~n ~seed) with network; workload } in
  let t = TO.create config in
  TO.run t ~stop:(Engine.After_serves serves);
  (* Drain in-flight broadcasts so logs settle. *)
  TO.run t ~stop:(Engine.At_time (TO.now t +. 100.0));
  t

let logs_of t n = List.init n (fun i -> Tr_apps.Total_order.delivered (TO.state t i))

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && go a' b'
  in
  go a b

let assert_total_order t n =
  let logs = logs_of t n in
  let longest =
    List.fold_left (fun acc l -> if List.length l > List.length acc then l else acc)
      [] logs
  in
  List.iteri
    (fun i log ->
      if not (is_prefix log longest) then
        Alcotest.failf "node %d's log is not a prefix of the longest" i)
    logs;
  longest

let test_total_order_agreement () =
  let t =
    run_total_order ~workload:(Workload.Global_poisson { mean_interarrival = 4.0 })
      ~serves:100 ()
  in
  let longest = assert_total_order t 8 in
  Alcotest.(check bool) "everything delivered" true (List.length longest >= 100)

let test_total_order_under_random_delays () =
  let network =
    Network.create
      ~reliable_delay:(Network.Uniform (0.2, 3.0))
      ~cheap_delay:(Network.Uniform (0.2, 6.0))
      ()
  in
  let t =
    run_total_order ~network
      ~workload:(Workload.Burst { period = 7.0; size = 3 })
      ~serves:90 ()
  in
  ignore (assert_total_order t 8)

let test_total_order_survives_cheap_loss () =
  (* Dropping 30% of cheap messages (searches) must not break agreement
     — the paper's claim that cheap messages never affect safety. *)
  let network = Network.create ~cheap_drop_probability:0.3 () in
  let t =
    run_total_order ~network
      ~workload:(Workload.Global_poisson { mean_interarrival = 5.0 })
      ~serves:80 ()
  in
  ignore (assert_total_order t 8)

let test_total_order_no_gaps_no_duplicates () =
  let t =
    run_total_order ~workload:(Workload.Global_poisson { mean_interarrival = 3.0 })
      ~serves:120 ()
  in
  List.iteri
    (fun i log ->
      (* Each (origin, origin_seq) pair appears at most once. *)
      let keys =
        List.map
          (fun p -> Tr_apps.Total_order.(p.origin, p.origin_seq))
          log
      in
      if List.length keys <> List.length (List.sort_uniq compare keys) then
        Alcotest.failf "node %d delivered a duplicate" i;
      (* No buffered leftovers: gap-free delivery after the drain. *)
      Alcotest.(check int)
        (Printf.sprintf "node %d buffer empty" i)
        0
        (Tr_apps.Total_order.buffered_count (TO.state t i)))
    (logs_of t 8)

let test_total_order_origin_sequences_ordered () =
  (* Per-origin FIFO: broadcasts from the same origin appear in their
     origin_seq order inside every log. *)
  let t =
    run_total_order ~workload:(Workload.Per_node_poisson { mean_interarrival = 30.0 })
      ~serves:100 ()
  in
  List.iter
    (fun log ->
      let per_origin = Hashtbl.create 8 in
      List.iter
        (fun p ->
          let open Tr_apps.Total_order in
          let last =
            Option.value (Hashtbl.find_opt per_origin p.origin) ~default:0
          in
          if p.origin_seq <= last then Alcotest.fail "origin order violated";
          Hashtbl.replace per_origin p.origin p.origin_seq)
        log)
    (logs_of t 8)

let test_total_order_safe_under_crash () =
  (* Crash a node mid-run: delivery may stall (the sequencer offers no
     recovery — that is Failure/Failsafe_search's job), but safety must
     hold: the live nodes' logs remain prefixes of the longest log. *)
  let config =
    {
      (Engine.default_config ~n:8 ~seed:5) with
      workload = Workload.Global_poisson { mean_interarrival = 4.0 };
      crashes = [ (60.0, 3) ];
    }
  in
  let t = TO.create config in
  TO.run t ~stop:(Engine.First_of [ Engine.After_serves 60; Engine.At_time 2000.0 ]);
  TO.run t ~stop:(Engine.At_time (TO.now t +. 50.0));
  let logs =
    List.filter_map
      (fun i ->
        if i = 3 then None else Some (Tr_apps.Total_order.delivered (TO.state t i)))
      (List.init 8 (fun i -> i))
  in
  let longest =
    List.fold_left
      (fun acc l -> if List.length l > List.length acc then l else acc)
      [] logs
  in
  List.iter
    (fun log ->
      if not (is_prefix log longest) then
        Alcotest.fail "a live node's log diverged after the crash")
    logs

let prop_total_order_random_seeds =
  QCheck.Test.make ~name:"total order across random seeds" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let t =
        run_total_order ~seed
          ~workload:(Workload.Global_poisson { mean_interarrival = 4.0 })
          ~serves:60 ()
      in
      let logs = logs_of t 8 in
      let longest =
        List.fold_left
          (fun acc l -> if List.length l > List.length acc then l else acc)
          [] logs
      in
      List.for_all (fun l -> is_prefix l longest) logs)

(* ---------------- mutex ---------------- *)

let run_mutex ?(n = 16) ?(seed = 2) ?(cs_duration = 1.0) ?(network = Network.default)
    ~serves () =
  let module P = (val Tr_apps.Mutex.make ~cs_duration ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n ~seed) with
      network;
      workload = Workload.Global_poisson { mean_interarrival = 3.0 };
      trace = true;
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.After_serves serves);
  (E.trace t, E.metrics t)

let test_mutex_no_overlap () =
  let trace, _ = run_mutex ~serves:150 () in
  let intervals = Tr_apps.Mutex.cs_intervals trace in
  Alcotest.(check bool) "sections completed" true (List.length intervals >= 140);
  Alcotest.(check bool) "no overlap" false (Tr_apps.Mutex.intervals_overlap intervals)

let test_mutex_no_overlap_random_delays () =
  let network = Network.create ~reliable_delay:(Network.Uniform (0.3, 2.5)) () in
  let trace, _ = run_mutex ~network ~serves:120 () in
  Alcotest.(check bool) "no overlap with jitter" false
    (Tr_apps.Mutex.intervals_overlap (Tr_apps.Mutex.cs_intervals trace))

let test_mutex_cs_duration_respected () =
  let trace, _ = run_mutex ~cs_duration:2.0 ~serves:60 () in
  List.iter
    (fun (_, enter, exit) ->
      if exit -. enter < 2.0 -. 1e-6 then
        Alcotest.failf "critical section too short: %.3f" (exit -. enter))
    (Tr_apps.Mutex.cs_intervals trace)

let test_mutex_throughput_bounded_by_cs () =
  (* With 1-unit critical sections, at most ~1 serve per time unit. *)
  let module P = (val Tr_apps.Mutex.make ~cs_duration:1.0 ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:8 ~seed:1) with
      workload = Workload.Global_poisson { mean_interarrival = 0.5 };
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.After_serves 100);
  Alcotest.(check bool) "duration >= serves * cs" true (E.now t >= 100.0)

let prop_mutex_safety_random_seeds =
  QCheck.Test.make ~name:"mutex safety across seeds" ~count:8
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let trace, _ = run_mutex ~seed ~serves:60 () in
      not (Tr_apps.Mutex.intervals_overlap (Tr_apps.Mutex.cs_intervals trace)))

let test_intervals_overlap_detector () =
  (* Validate the checker itself. *)
  Alcotest.(check bool) "disjoint" false
    (Tr_apps.Mutex.intervals_overlap [ (0, 0.0, 1.0); (1, 1.5, 2.0) ]);
  Alcotest.(check bool) "touching is fine" false
    (Tr_apps.Mutex.intervals_overlap [ (0, 0.0, 1.0); (1, 1.0, 2.0) ]);
  Alcotest.(check bool) "overlapping" true
    (Tr_apps.Mutex.intervals_overlap [ (0, 0.0, 1.0); (1, 0.5, 2.0) ])

(* ---------------- app transcript goldens ---------------- *)

(* Full-transcript pins for the mutex and total-order applications. The
   sim engine is deterministic from the seed, so the complete trace —
   every send/recv/request/serve/possession/note — is reproducible
   byte-for-byte. These were generated from the pre-service-layer code
   and guard the hybrid-movement refactor: with default options (Search
   movement, no directive, no parking, no hooks) the apps must produce
   the identical transcript, proving the service layer changed no app
   semantics. Regenerate with TR_APP_GOLDEN_REGEN=<dir>. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_app_golden ~file log =
  match Sys.getenv_opt "TR_APP_GOLDEN_REGEN" with
  | Some dir ->
      let oc = open_out_bin (Filename.concat dir file) in
      output_string oc log;
      close_out oc
  | None -> Alcotest.(check string) file (read_file ("golden/" ^ file)) log

let render_transcript ?(keep = 800) trace =
  let lines =
    List.filteri (fun i _ -> i < keep) (Trace.events trace)
    |> List.map (fun { Trace.time; event } ->
           Format.asprintf "%.3f %a" time Trace.pp_event event)
  in
  String.concat "\n" lines ^ "\n"

let test_golden_mutex_transcript () =
  let module P = (val Tr_apps.Mutex.make ~cs_duration:2.0 ()) in
  let module E = Engine.Make (P) in
  let config =
    {
      (Engine.default_config ~n:8 ~seed:11) with
      workload = Workload.Global_poisson { mean_interarrival = 3.0 };
      trace = true;
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.After_serves 30);
  check_app_golden ~file:"app_mutex_n8_seed11.txt" (render_transcript (E.trace t))

let test_golden_total_order_transcript () =
  let t =
    let config =
      {
        (Engine.default_config ~n:8 ~seed:11) with
        workload = Workload.Global_poisson { mean_interarrival = 4.0 };
        trace = true;
      }
    in
    let t = TO.create config in
    TO.run t ~stop:(Engine.After_serves 25);
    t
  in
  check_app_golden ~file:"app_total_order_n8_seed11.txt"
    (render_transcript (TO.trace t))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "apps"
    [
      ( "total-order",
        [
          Alcotest.test_case "agreement" `Quick test_total_order_agreement;
          Alcotest.test_case "random delays" `Quick test_total_order_under_random_delays;
          Alcotest.test_case "cheap loss" `Quick test_total_order_survives_cheap_loss;
          Alcotest.test_case "no gaps/duplicates" `Quick
            test_total_order_no_gaps_no_duplicates;
          Alcotest.test_case "per-origin order" `Quick
            test_total_order_origin_sequences_ordered;
          Alcotest.test_case "safe under crash" `Quick
            test_total_order_safe_under_crash;
        ]
        @ qsuite [ prop_total_order_random_seeds ] );
      ( "mutex",
        [
          Alcotest.test_case "no overlap" `Quick test_mutex_no_overlap;
          Alcotest.test_case "no overlap (jitter)" `Quick
            test_mutex_no_overlap_random_delays;
          Alcotest.test_case "cs duration respected" `Quick
            test_mutex_cs_duration_respected;
          Alcotest.test_case "throughput bound" `Quick test_mutex_throughput_bounded_by_cs;
          Alcotest.test_case "overlap detector" `Quick test_intervals_overlap_detector;
        ]
        @ qsuite [ prop_mutex_safety_random_seeds ] );
      ( "golden",
        [
          Alcotest.test_case "mutex transcript" `Quick test_golden_mutex_transcript;
          Alcotest.test_case "total-order transcript" `Quick
            test_golden_total_order_transcript;
        ] );
    ]
