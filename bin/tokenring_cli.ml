(* Command-line front end: run protocols, regenerate the paper's figures,
   and machine-check the specifications.

   Options come in groups, each declared once as a Cmdliner term that
   returns a validated value: a simulator scenario, a spec-system
   instance, a live cluster, a socket address. A subcommand is a short
   composition of these groups and its own flags. *)

open Cmdliner

(* Every caller error ends here: "error: ..." on stderr, exit 2. *)
let die fmt = Format.kasprintf (fun msg -> Format.eprintf "error: %s@." msg; exit 2) fmt

(* The option table is built from these two: an option with a default,
   and a flag. *)
let opt_arg kind default names docv doc =
  Arg.(value & opt kind default & info names ~docv ~doc)

let flag_arg names doc = Arg.(value & flag & info names ~doc)

(* ---------------- shared options ---------------- *)

let nodes = opt_arg Arg.int 100 [ "n"; "nodes" ] "N" "Ring size."
let seed = opt_arg Arg.int 42 [ "seed" ] "SEED" "RNG seed."

let mean =
  opt_arg Arg.float 10.0 [ "mean" ] "T"
    "Mean request interarrival time (global Poisson workload)."

let serves = opt_arg Arg.int 1000 [ "serves" ] "K" "Stop after K served requests."
let quick = flag_arg [ "quick" ] "Smaller sweeps (for smoke runs)."

let jobs =
  let valid j =
    if j < 0 then die "--jobs must be at least 0, got %d" j;
    j
  in
  Term.(
    const valid
    $ opt_arg Arg.int 0 [ "j"; "jobs" ] "J"
        "Domains for parallel sweeps (default: all cores). Results are \
         byte-identical to -j 1 — seeded determinism survives parallelism.")

let json = flag_arg [ "json" ]
let json_line = json "Emit a JSON result line."
let quiet = flag_arg [ "quiet" ] "No periodic reports."

(* [0] (the default) means "all cores". A pool of 1 domain is just the
   calling domain, so only J >= 2 spawns anything. *)
let with_jobs jobs f =
  let domains = if jobs = 0 then Tr_sim.Pool.default_domains () else jobs in
  if domains <= 1 then f None
  else Tr_sim.Pool.with_pool ~domains (fun pool -> f (Some pool))

let known_protocol name =
  if not (List.mem name Tokenring.Registry.names) then
    die "unknown protocol %S; known: %s" name
      (String.concat ", " Tokenring.Registry.names);
  name

let protocol =
  Term.(
    const known_protocol
    $ opt_arg Arg.string "binsearch" [ "p"; "protocol" ] "NAME"
        (Printf.sprintf "Protocol to run. One of: %s."
           (String.concat ", " Tokenring.Registry.names)))

(* ---------------- sim scenario ---------------- *)

(* -n and --seed with a global Poisson workload of the given mean; with
   [specs] (the docs of -w and --net) the two spec overrides as well. *)
let sim_scenario ?specs mean =
  let base n seed mean_interarrival =
    if n < 2 then die "a simulated ring needs at least two nodes (got -n %d)" n;
    {
      (Tokenring.Engine.default_config ~n ~seed) with
      workload = Tokenring.Workload.Global_poisson { mean_interarrival };
    }
  in
  let base = Term.(const base $ nodes $ seed $ mean) in
  match specs with
  | None -> base
  | Some (workload_doc, network_doc) ->
      let spec names doc = opt_arg Arg.(some string) None names "SPEC" doc in
      let parse of_string ~default = function
        | None -> default
        | Some s -> ( match of_string s with Ok v -> v | Error e -> die "%s" e)
      in
      let override (c : Tokenring.Engine.config) workload network =
        {
          c with
          workload =
            parse Tokenring.Scenario.workload_of_string ~default:c.workload
              workload;
          network =
            parse Tokenring.Scenario.network_of_string ~default:c.network
              network;
        }
      in
      Term.(
        const override $ base
        $ spec [ "w"; "workload" ] workload_doc
        $ spec [ "net"; "network" ] network_doc)

let stop_after serves =
  Tokenring.Engine.First_of
    [ Tokenring.Engine.After_serves serves; Tokenring.Engine.At_time 5e6 ]

(* ---------------- list ---------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun { Tokenring.Registry.name; describe; kind; _ } ->
        let tag =
          match kind with
          | `Baseline -> "baseline"
          | `Paper -> "paper"
          | `Optimization -> "optimization"
          | `Extension -> "extension"
        in
        Format.printf "%-20s [%-12s] %s@." name tag describe)
      Tokenring.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available protocols") Term.(const run $ const ())

(* ---------------- run ---------------- *)

let run_cmd =
  let run protocol config serves json histogram profile =
    let t0 = Unix.gettimeofday () in
    let outcome =
      Tokenring.Runner.run_named protocol config ~stop:(stop_after serves)
    in
    let wall = Unix.gettimeofday () -. t0 in
    (* stderr so that --json output stays machine-parseable *)
    if profile then
      Format.eprintf "profile: %d events in %.4f s (%.0f events/sec)@."
        outcome.Tokenring.Runner.events wall
        (float_of_int outcome.Tokenring.Runner.events /. wall);
    if json then print_string (Tokenring.Export.outcome_to_json outcome)
    else begin
      Format.printf "%a@." Tokenring.Runner.pp_outcome outcome;
      if histogram then begin
        let q =
          Tokenring.Metrics.responsiveness_quantiles
            outcome.Tokenring.Runner.metrics
        in
        let samples = Tr_stats.Quantile.to_sorted_array q in
        if Array.length samples > 1 then begin
          let hi = samples.(Array.length samples - 1) +. 1e-9 in
          let h = Tr_stats.Histogram.create ~lo:0.0 ~hi ~bins:16 in
          Array.iter (Tr_stats.Histogram.add h) samples;
          Format.printf "responsiveness distribution:@.%a@."
            Tr_stats.Histogram.pp h
        end
      end
    end
  in
  let specs =
    ( Printf.sprintf "Workload spec, e.g. %s. Overrides --mean."
        (String.concat ", " Tokenring.Scenario.workload_examples),
      Printf.sprintf "Network spec, e.g. %s."
        (String.concat ", " Tokenring.Scenario.network_examples) )
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol under a configurable scenario")
    Term.(
      const run $ protocol $ sim_scenario ~specs mean $ serves
      $ json "Emit the outcome as JSON."
      $ flag_arg [ "histogram" ] "Also print the responsiveness histogram."
      $ flag_arg [ "profile" ] "Print events processed, wall time and events/sec.")

(* ---------------- exp ---------------- *)

let exp_cmd =
  let run id quick seed csv json jobs =
    let module E = Tokenring.Experiments in
    (* Reject an unknown id before running anything. *)
    let runs =
      if String.equal id "all" then List.filter_map E.find E.ids
      else
        match E.find id with
        | Some run -> [ run ]
        | None ->
            die "unknown experiment %S; known: %s" id
              (String.concat ", " E.ids)
    in
    let results =
      with_jobs jobs (fun pool ->
          List.map (fun (run : E.run) -> run ?pool ~quick ~seed ()) runs)
    in
    List.iter
      (fun (r : E.result) ->
        if json then print_string (Tokenring.Export.result_to_json r)
        else if csv then
          Format.printf "# %s: %s@.%s@." r.id r.title
            (Tokenring.Series.Table.to_csv r.table)
        else Format.printf "%a@." E.pp_result r)
      results
  in
  let id =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (FIG9, FIG10, LEM4, ... or all).")
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's figures and claims as tables")
    Term.(
      const run $ id $ quick $ seed
      $ flag_arg [ "csv" ] "Emit comma-separated tables only."
      $ json "Emit results as JSON." $ jobs)

(* ---------------- compare ---------------- *)

let compare_cmd =
  let run protocols config serves =
    Format.printf "%-22s %10s %10s %10s %12s %12s %8s@." "protocol" "resp"
      "wait-p50" "wait-p99" "tok-msg/srv" "ctl-msg/srv" "fair";
    List.iter
      (fun name ->
        let o = Tokenring.Runner.run_named name config ~stop:(stop_after serves) in
        let m = o.Tokenring.Runner.metrics in
        let serves_f = float_of_int (Stdlib.max 1 (Tokenring.Metrics.serves m)) in
        Format.printf "%-22s %10.2f %10.2f %10.2f %12.1f %12.1f %8.2f@." name
          (Tokenring.Summary.mean (Tokenring.Metrics.responsiveness m))
          (Tr_stats.Quantile.median (Tokenring.Metrics.waiting_quantiles m))
          (Tr_stats.Quantile.p99 (Tokenring.Metrics.waiting_quantiles m))
          (float_of_int (Tokenring.Metrics.token_messages m) /. serves_f)
          (float_of_int (Tokenring.Metrics.control_messages m) /. serves_f)
          (Tokenring.Metrics.waiting_fairness m))
      protocols
  in
  let protocols =
    let expand = function
      | [] -> [ "ring"; "binsearch" ]
      | [ "all" ] -> Tokenring.Registry.names
      | names -> List.map known_protocol names
    in
    Term.(
      const expand
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"PROTOCOL"
              ~doc:
                "Protocols to compare (default: ring binsearch; 'all' for \
                 every one)."))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run several protocols on the same scenario and tabulate them")
    Term.(
      const run $ protocols
      $ sim_scenario
          ~specs:
            ( "Workload spec (see 'run --help').",
              "Network spec (see 'run --help')." )
          (const 10.0)
      $ serves)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run n max_states =
    (* The refinement checks get a quarter of the bound, and a bound
       below one state is a caller error to the explorer. *)
    if max_states < 4 then
      die "--max-states must be at least 4, got %d" max_states;
    let section title checks =
      Format.printf "-- %s --@." title;
      List.iter (fun c -> Format.printf "%a@." Tokenring.Verify.pp_check c) checks
    in
    section "prefix property (exhaustive/bounded exploration)"
      (Tokenring.Verify.prefix_checks ~max_states ~ns:[ 2; n ] ());
    section "refinement chain (simulation check)"
      (Tokenring.Verify.refinement_checks ~max_states:(max_states / 4) ~n ());
    section "liveness (bounded AG EF + deadlock freedom)"
      (Tokenring.Verify.liveness_checks ~max_states:(max_states / 2) ~n:2 ())
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Machine-check the prefix property and the refinement chain")
    Term.(
      const run
      $ opt_arg Arg.int 3 [ "n" ] "N" "Spec instance size."
      $ opt_arg Arg.int 5000 [ "max-states" ] "K" "State-space exploration bound.")

(* ---------------- spec systems ---------------- *)

(* Every rewriting system the CLI knows, with the prefix-property check
   each of its states must pass. *)
let spec_systems =
  let open Tr_specs in
  [
    ("S", System_s.system, System_s.initial, Prefix.check_s);
    ("S1", System_s1.system, System_s1.initial, Prefix.check_s1);
    ("token", System_token.system, System_token.initial, Prefix.check_token);
    ("msgpass", System_msgpass.system, System_msgpass.initial, Prefix.check_msgpass);
    ("search", System_search.system, System_search.initial, Prefix.check_search);
    ( "binsearch",
      System_binsearch.system,
      System_binsearch.initial,
      Prefix.check_binsearch );
    ( "msgpass-faulty",
      System_msgpass.system_faulty,
      System_msgpass.initial,
      Prefix.check_msgpass );
  ]

type spec_instance = {
  name : string;
  n : int;
  budget : int;
  system : Tr_trs.System.t;
  init : Tr_trs.Term.t;
  check : Tr_trs.Term.t -> (unit, string) result;
}

(* SYSTEM, -n and --budget: one instance of a table entry. *)
let spec_instance ~default =
  let names = List.map (fun (name, _, _, _) -> name) spec_systems in
  let make which n budget =
    match List.find_opt (fun (name, _, _, _) -> name = which) spec_systems with
    | None -> die "unknown system %S; known: %s" which (String.concat ", " names)
    | Some (name, system, initial, check) ->
        if n < 1 then die "a spec instance needs at least one node (got -n %d)" n;
        let init = initial ~n ~data_budget:budget in
        { name; n; budget; system = system ~n; init; check }
  in
  Term.(
    const make
    $ Arg.(
        value & pos 0 string default
        & info [] ~docv:"SYSTEM" ~doc:(String.concat ", " names ^ "."))
    $ opt_arg Arg.int 2 [ "n" ] "N" "Instance size."
    $ opt_arg Arg.int 1 [ "budget" ] "B" "Per-node datum budget.")

(* ---------------- spec ---------------- *)

let spec_cmd =
  let run { name; system; init; _ } dot steps =
    Format.printf "%a@." Tr_trs.System.pp system;
    Format.printf "initial state:@.  %a@." Tr_trs.Term.pp init;
    (if steps > 0 then begin
       Format.printf "@.a fair reduction (%d steps):@." steps;
       let path =
         Tr_trs.System.reduce system
           ~strategy:(Tr_trs.Strategy.round_robin ())
           ~init ~steps
       in
       List.iteri
         (fun i state -> Format.printf "  %2d: %a@." i Tr_trs.Term.pp state)
         path
     end);
    match dot with
    | None -> ()
    | Some path ->
        let graph = Tr_trs.Explore.to_dot ~max_states:300 system ~init in
        let oc = open_out path in
        output_string oc graph;
        close_out oc;
        Format.printf "@.wrote %s (%s state graph, <=300 states)@." path name
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:"Print a system's rewriting rules; optionally reduce or export its state graph")
    Term.(
      const run
      $ spec_instance ~default:"binsearch"
      $ opt_arg Arg.(some string) None [ "dot" ] "FILE"
          "Write the explored state graph as Graphviz."
      $ opt_arg Arg.int 0 [ "reduce" ] "K"
          "Show a K-step fair reduction from the initial state.")

(* ---------------- explore ---------------- *)

let explore_cmd =
  let run { name; n; budget; system; init; check } max_states max_depth jobs
      json =
    if max_states < 1 then
      die "--max-states must be at least 1, got %d" max_states;
    Option.iter
      (fun d -> if d < 0 then die "--max-depth must be at least 0, got %d" d)
      max_depth;
    (* [bfs] keeps neither the BFS layers nor the visited-order list,
       which nothing here reads, so the peak RSS below is the
       exploration's own. *)
    let (s : Tr_trs.Explore.stats), violations, wall_s, domains =
      with_jobs jobs (fun pool ->
          let t0 = Unix.gettimeofday () in
          let s, violations =
            Tr_trs.Explore.bfs ~max_states ?max_depth ~check ?pool system ~init
          in
          let domains = Option.fold ~none:1 ~some:Tr_sim.Pool.domains pool in
          (s, violations, Unix.gettimeofday () -. t0, domains))
    in
    let states_per_s =
      if wall_s > 0.0 then float_of_int s.states /. wall_s else 0.0
    in
    let peak_rss_kb = Tr_trs.Explore.peak_rss_kb () in
    let nviolations = List.length violations in
    (* perf goes to stderr: stdout is deterministic across domain
       counts and runs, so CI can diff -j 1 against -j 2 output. *)
    Format.eprintf
      "explore: %.2f s, %.0f states/s, %d domain%s, peak RSS %d kB@." wall_s
      states_per_s domains
      (if domains = 1 then "" else "s")
      peak_rss_kb;
    if json then
      let open Tr_stats.Json in
      print_endline
        (obj
           [
             ("system", json_string name);
             ("n", string_of_int n);
             ("budget", string_of_int budget);
             ("states", string_of_int s.states);
             ("transitions", string_of_int s.transitions);
             ("max_depth", string_of_int s.max_depth);
             ("truncated", string_of_bool s.truncated);
             ("violations", string_of_int nviolations);
             ("wall_s", json_float wall_s);
             ("states_per_s", json_float states_per_s);
             ("domains", string_of_int domains);
             ("peak_rss_kb", string_of_int peak_rss_kb);
           ])
    else begin
      Format.printf "system: %s@.states: %d@.transitions: %d@.max-depth: \
                     %d@.truncated: %b@.violations: %d@."
        name s.states s.transitions s.max_depth s.truncated nviolations;
      List.iteri
        (fun i (v : Tr_trs.Explore.violation) ->
          if i < 10 then
            Format.printf "  violation at depth %d: %s@." v.depth v.message)
        violations;
      if nviolations > 10 then
        Format.printf "  ... (%d more)@." (nviolations - 10)
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively explore a system's state space, checking the prefix \
          property on every state (parallel with -j)")
    Term.(
      const run
      $ spec_instance ~default:"msgpass"
      $ opt_arg Arg.int 100_000 [ "max-states" ] "M" "Visited-state cap."
      $ opt_arg Arg.(some int) None [ "max-depth" ] "D" "BFS depth bound."
      $ jobs
      $ json "Emit stats+perf as JSON.")

(* ---------------- trace ---------------- *)

let trace_cmd =
  let run protocol config until =
    let outcome =
      Tokenring.Runner.run_named protocol
        { config with Tokenring.Engine.trace = true }
        ~stop:(Tokenring.Engine.At_time until)
    in
    Format.printf "%a@." Tokenring.Trace.pp outcome.Tokenring.Runner.trace
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump a full event trace of a short run")
    Term.(
      const run $ protocol $ sim_scenario mean
      $ opt_arg Arg.float 50.0 [ "until" ] "T" "Virtual time to trace up to.")

(* ---------------- live cluster ---------------- *)

module Cluster = Tr_net_rt.Cluster
module Live_export = Tr_net_rt.Live_export
module Live_transport = Tr_net_rt.Transport

(* "0-3,7" -> [0;1;2;3;7] *)
let parse_id_ranges spec =
  let id s =
    match int_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> die "bad node id %S in %S (expected e.g. \"0-3,7\")" s spec
  in
  spec
  |> String.split_on_char ','
  |> List.filter (fun s -> s <> "")
  |> List.concat_map (fun part ->
         match String.index_opt part '-' with
         | None -> [ id part ]
         | Some i ->
             let lo = id (String.sub part 0 i) in
             let hi = id (String.sub part (i + 1) (String.length part - i - 1)) in
             if lo > hi then die "inverted range %S in %S" part spec;
             List.init (hi - lo + 1) (fun k -> lo + k))

let unit_arg default =
  opt_arg Arg.float default [ "unit" ] "S" "Wall seconds per time unit."

let shards_arg =
  let check shards =
    if shards < 0 then die "--shards must be at least 0, got %d" shards;
    shards
  in
  Term.(
    const check
    $ opt_arg Arg.int 0 [ "shards" ] "J"
        "Shard domains hosting the nodes (0 = auto).")

let duration_arg =
  opt_arg Arg.float 1000.0 [ "duration" ] "T"
    "Stop after T time units (ignored when --grants is given)."

let uds_arg =
  opt_arg Arg.(some string) None [ "uds" ] "DIR"
    "Cluster over Unix-domain sockets $(docv)/node-<i>.sock."

let host_arg =
  opt_arg Arg.string "127.0.0.1" [ "host" ] "HOST" "Host for --tcp-base addresses."

(* --seed, --unit, --shards and --max-wall: a cluster config for any
   size of at least two. *)
let cluster_config ~unit_default =
  let make seed unit_s shards max_wall_s ~n =
    if n < 2 then die "a live cluster needs at least two nodes (got -n %d)" n;
    let c = { (Cluster.default_config ~n ~seed) with unit_s; max_wall_s } in
    if shards > 0 then { c with shards } else c
  in
  Term.(
    const make $ seed $ unit_arg unit_default $ shards_arg
    $ opt_arg Arg.float 60.0 [ "max-wall" ] "S"
        "Hard wall-clock safety cap in seconds.")

(* [cluster_config] plus the shard loop's knobs: --readiness, --spin
   and --inproc. *)
let tuned_cluster ~unit_default =
  let knobs config readiness spin inproc =
    let readiness =
      Option.map
        (fun s ->
          match Tr_net_rt.Readiness.backend_of_string s with
          | Ok b -> b
          | Error e -> die "--readiness: %s" e)
        readiness
    in
    fun ~n -> { (config ~n) with Cluster.readiness; spin; inproc }
  in
  Term.(
    const knobs $ cluster_config ~unit_default
    $ opt_arg Arg.(some string) None [ "readiness" ] "BACKEND"
        "Force the shards' wait backend: epoll or poll. Default is epoll \
         where available, else poll (TR_READINESS also honoured); a forced \
         epoll on a platform without it falls back loudly to poll."
    $ flag_arg [ "spin" ]
        "Adaptive spin-then-block before each shard wait: busy-poll the \
         in-process mailboxes (so it only arms with --inproc) for a window \
         sized by the recent inter-event gap; off on single-CPU hosts \
         (TR_SPIN also honoured)."
    $ flag_arg [ "inproc" ]
        "Deliver frames between co-hosted nodes through in-process \
         mailboxes instead of sockets: identical framing and ordering, zero \
         syscalls per hop (TR_INPROC also honoured).")

let resolve_backend ~n ~own ~uds ~tcp_base ~host =
  let owned =
    match own with
    | None -> List.init n Fun.id
    | Some spec -> parse_id_ranges spec
  in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        die "--own: node id %d is out of range for -n %d (ids 0-%d)" i n (n - 1))
    owned;
  match (uds, tcp_base) with
  | Some _, Some _ -> die "choose one of --uds and --tcp-base"
  | Some dir, None ->
      Some (Cluster.Sockets { owned; addrs = Live_transport.uds_addrs ~dir ~n })
  | None, Some port ->
      Some
        (Cluster.Sockets
           { owned; addrs = Live_transport.tcp_addrs ~host ~base_port:port ~n () })
  | None, None ->
      if own <> None then
        die "--own only makes sense with a socket backend (--uds or --tcp-base)";
      None

(* Everything serve and loadgen share: the cluster, which of its nodes
   this process hosts over which sockets, and when the run stops. *)
let live_cluster =
  let make config n own uds tcp_base host grants duration =
    let backend = resolve_backend ~n ~own ~uds ~tcp_base ~host in
    let stop =
      match grants with
      | Some k -> Cluster.Grants k
      | None -> Cluster.Duration duration
    in
    (backend, { (config ~n) with Cluster.stop })
  in
  Term.(
    const make
    $ tuned_cluster ~unit_default:1e-3
    $ nodes
    $ opt_arg Arg.(some string) None [ "own" ] "IDS"
        "Node ids this process hosts, as ranges (e.g. 0-3,7). Defaults to \
         all N nodes; give disjoint subsets to split one cluster across \
         processes."
    $ uds_arg
    $ opt_arg Arg.(some int) None [ "tcp-base" ] "PORT"
        "Cluster over TCP; node i listens on $(docv)+i."
    $ host_arg
    $ opt_arg Arg.(some int) None [ "grants" ] "K" "Stop after K served requests."
    $ duration_arg)

let find_packed name =
  match Tr_wire.Codecs.find name with
  | Some p -> p
  | None ->
      die "unknown protocol %S; known: %s" name
        (String.concat ", " Tr_wire.Codecs.names)

(* Transport setup reports caller errors (an unbindable --uds path, a
   bad TR_READINESS) as [Failure], and config validation as
   [Invalid_argument]: print them like any other misuse. *)
let caller_errors f =
  try f () with Failure msg | Invalid_argument msg -> die "%s" msg

let run_live ?backend config packed =
  caller_errors (fun () -> Cluster.run_packed ?backend config packed)

(* ---------------- serve / loadgen ---------------- *)

(* serve and loadgen are one command that differs in its load and in
   whether it insists on sockets. *)
let live_cmd ?(sockets_only = false) name ~doc load =
  let run protocol (backend, config) load =
    if sockets_only && Option.is_none backend then
      die "%s needs a socket backend: --uds DIR or --tcp-base PORT" name;
    let report =
      run_live ?backend { config with Cluster.load } (find_packed protocol)
    in
    print_string (Live_export.json_of_report report)
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ protocol $ live_cluster $ load)

let serve_cmd =
  live_cmd ~sockets_only:true "serve"
    ~doc:
      "Host (a subset of) a live cluster's nodes over real sockets; \
       protocol logic is the simulator's, byte-for-byte"
    (Term.const Cluster.No_load)

let loadgen_cmd =
  let load closed open_mean =
    match (closed, open_mean) with
    | Some _, Some _ -> die "choose one of --closed and --open"
    | Some depth, None -> Cluster.Closed_loop { depth }
    | None, Some mean_interarrival -> Cluster.Open_loop { mean_interarrival }
    | None, None -> Cluster.Closed_loop { depth = 1 }
  in
  live_cmd "loadgen"
    ~doc:
      "Drive a live cluster (in-process loopback by default, or this \
       process's share of a socket cluster) with open- or closed-loop \
       load; prints a stamped JSON report"
    Term.(
      const load
      $ opt_arg Arg.(some int) None [ "closed" ] "DEPTH"
          "Closed-loop load: keep DEPTH requests outstanding per node."
      $ opt_arg Arg.(some float) None [ "open" ] "MEAN"
          "Open-loop load: Poisson arrivals with MEAN interarrival units.")

(* ---------------- service / service-loadgen ---------------- *)

module Service = Tr_service.Server
module Service_client = Tr_service.Client
module Policy = Tr_service.Policy

let service_app =
  let parse = function
    | "mutex" -> Service.Mutex
    | "total-order" | "total_order" -> Service.Total_order
    | s -> die "unknown app %S (expected mutex or total-order)" s
  in
  Term.(
    const parse
    $ opt_arg Arg.string "mutex" [ "app" ] "APP"
        "Application: mutex or total-order.")

(* --ROLE-uds PATH or --ROLE-tcp PORT (with --host): the service's
   client-facing address, from the server's or the client's side. *)
let sockaddr role =
  let prefix, who, min_port, uds_doc, tcp_doc =
    match role with
    | `Listen ->
        ( "listen",
          "service",
          0,
          "Serve clients on a Unix-domain socket at $(docv).",
          "Serve clients on TCP $(docv) (0 picks a free port)." )
    | `Connect ->
        ( "connect",
          "service-loadgen",
          1,
          "Connect to a service on a Unix-domain socket at $(docv).",
          "Connect to TCP $(docv)." )
  in
  let uds_flag = prefix ^ "-uds" and tcp_flag = prefix ^ "-tcp" in
  let make uds tcp host =
    match (uds, tcp) with
    | Some _, Some _ -> die "choose one of --%s and --%s" uds_flag tcp_flag
    | Some path, None -> Unix.ADDR_UNIX path
    | None, Some port -> (
        if port < min_port || port > 65535 then
          die "bad --%s port %d" tcp_flag port;
        try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
        with Failure _ -> die "bad --host %S" host)
    | None, None -> die "%s needs --%s PATH or --%s PORT" who uds_flag tcp_flag
  in
  Term.(
    const make
    $ opt_arg Arg.(some string) None [ uds_flag ] "PATH" uds_doc
    $ opt_arg Arg.(some int) None [ tcp_flag ] "PORT" tcp_doc
    $ host_arg)

let report_every = opt_arg Arg.float 1.0 [ "report-every" ] "S"

let service_cmd =
  let run app config n duration listen cs adaptive pinned hi lo window park
      report_every quiet json =
    if cs <= 0. then die "--cs must be positive";
    if duration <= 0. then die "--duration must be positive";
    if report_every <= 0. then die "--report-every must be positive";
    Option.iter
      (fun k -> if k < 0 then die "--park must be at least 0, got %d" k)
      park;
    let cluster =
      {
        (config ~n) with
        Cluster.load = Cluster.External;
        stop = Cluster.Duration duration;
      }
    in
    let mode =
      if adaptive then begin
        (* The live cluster's hops take one time unit. *)
        let base = Policy.default_config ~n ~hop_s:1.0 in
        let cfg =
          {
            base with
            Policy.hi = Option.value hi ~default:base.Policy.hi;
            lo = Option.value lo ~default:base.Policy.lo;
            window_s = Option.value window ~default:base.Policy.window_s;
            park_after =
              (match park with Some _ -> park | None -> base.Policy.park_after);
          }
        in
        if not (cfg.Policy.hi > cfg.Policy.lo) then
          die "--hi (%g) must exceed --lo (%g)" cfg.Policy.hi cfg.Policy.lo;
        if cfg.Policy.window_s <= 0. then die "--window must be positive";
        Service.Adaptive (Policy.create cfg)
      end
      else begin
        if hi <> None || lo <> None || window <> None then
          die "--hi/--lo/--window only make sense with --adaptive";
        let m =
          match Tr_apps.Movement.mode_of_string pinned with
          | Some m -> m
          | None -> die "unknown --mode %S (expected search or rotate)" pinned
        in
        Service.Pinned { Tr_apps.Movement.mode = m; park_after = park }
      end
    in
    let config =
      {
        Service.cluster;
        listen;
        app;
        cs_duration = cs;
        mode;
        report_every_s = report_every;
        verbose = not quiet;
      }
    in
    let outcome = caller_errors (fun () -> Service.run config) in
    List.iter
      (fun (s : Policy.switch_event) ->
        Format.eprintf "[policy] t=%.1fu switch %s -> %s (per_rev=%.2f)@." s.at
          (Tr_apps.Movement.mode_to_string s.from_mode)
          (Tr_apps.Movement.mode_to_string s.to_mode)
          s.per_rev)
      outcome.switches;
    if json then begin
      print_endline (Service.stats_json ~outcome ~app ~adaptive);
      print_string (Live_export.json_of_report outcome.report)
    end
    else begin
      let st = outcome.stats in
      Format.printf
        "service %s: %d requests, %d grants, %d released, %d committed, %d \
         rejected, %d decode errors, %d switches@."
        (Service.app_name app) st.requests st.grants_sent st.released_sent
        st.committed_sent st.rejected_sent st.decode_errors
        (List.length outcome.switches)
    end
  in
  let rate_bound name doc = opt_arg Arg.(some float) None [ name ] "R" doc in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Run the mutex/total-order service: a live cluster behind a \
          client-facing socket front-end, optionally with online adaptive \
          ring/binsearch switching")
    Term.(
      const run $ service_app
      $ cluster_config ~unit_default:1e-3
      $ nodes $ duration_arg $ sockaddr `Listen
      $ opt_arg Arg.float 2.0 [ "cs" ] "T"
          "Mutex lease (critical-section) length, time units."
      $ flag_arg [ "adaptive" ]
          "Switch ring/binsearch token movement online from the observed \
           request rate per token revolution (the Figure 10 crossover as a \
           runtime policy)."
      $ opt_arg Arg.string "search" [ "mode" ] "MODE"
          "Pinned movement mode when not --adaptive: search or rotate."
      $ rate_bound "hi" "Adaptive: switch to rotation at >= R requests/revolution."
      $ rate_bound "lo" "Adaptive: switch back to search at <= R requests/revolution."
      $ opt_arg Arg.(some float) None [ "window" ] "T"
          "Adaptive rate-estimation window, time units."
      $ opt_arg Arg.(some int) None [ "park" ] "K"
          "Park an idle token after K idle hops (search mode only)."
      $ report_every "Seconds between periodic SLO/queue reports."
      $ quiet
      $ json "Emit JSON reports at the end.")

let service_loadgen_cmd =
  let run app connect clients conns closed think rate ramp duration seed
      report_every drain quiet json =
    if clients <= 0 then die "--clients must be >= 1";
    if conns <= 0 then die "--conns must be >= 1";
    if conns > clients then
      die "--conns (%d) cannot exceed --clients (%d)" conns clients;
    if duration <= 0. then die "--duration must be positive";
    if think < 0. then die "--think cannot be negative";
    (* A closed loop has no rate knob — completions set the pace. *)
    if closed && rate <> None then
      die "--closed is a closed loop; it cannot take --rate";
    if ramp <> None && (closed || rate <> None || think <> 0.) then
      die "--ramp replaces --closed/--rate/--think";
    let phase duration_s workload = { Service_client.duration_s; workload } in
    let parse_phase part =
      match String.index_opt part ':' with
      | None -> die "bad ramp phase %S (expected RATE:SECONDS)" part
      | Some i -> (
          let rate = String.sub part 0 i
          and dur = String.sub part (i + 1) (String.length part - i - 1) in
          match (float_of_string_opt rate, float_of_string_opt dur) with
          | Some r, Some d when r > 0. && d > 0. ->
              phase d (Service_client.Open { rate = r })
          | _ -> die "bad ramp phase %S (need positive RATE:SECONDS)" part)
    in
    let phases =
      match (ramp, rate) with
      | Some spec, _ -> (
          match List.filter (fun s -> s <> "") (String.split_on_char ',' spec) with
          | [] -> die "empty --ramp"
          | parts -> List.map parse_phase parts)
      | None, Some r ->
          if r <= 0. then die "--rate must be positive";
          [ phase duration (Service_client.Open { rate = r }) ]
      | None, None -> [ phase duration (Service_client.Closed { think_s = think }) ]
    in
    let config =
      {
        Service_client.connect;
        clients;
        conns;
        app;
        phases;
        seed;
        report_every_s = report_every;
        drain_s = drain;
        verbose = not quiet;
      }
    in
    let r =
      try Service_client.run config with
      | Invalid_argument msg -> die "%s" msg
      | Unix.Unix_error (e, fn, _) ->
          die "cannot connect: %s (%s)" (Unix.error_message e) fn
    in
    if json then print_endline (Service_client.result_json r)
    else begin
      let ms v = Format.asprintf "%a" Tr_service.Slo.pp_ms v in
      Format.printf
        "loadgen: sent %d, %d grants, %d released, %d committed, %d rejects, \
         %d outstanding, %d decode errors; grant latency p50=%s p99=%s \
         p999=%s@."
        r.sent r.grants r.releaseds r.committeds r.rejects r.outstanding
        r.decode_errors (ms r.slo.p50) (ms r.slo.p99) (ms r.slo.p999)
    end
  in
  Cmd.v
    (Cmd.info "service-loadgen"
       ~doc:
         "Drive a running service with thousands of concurrent logical \
          clients (closed loop, fixed-rate open loop, or an open-loop rate \
          ramp) and report grant-latency SLOs")
    Term.(
      const run $ service_app $ sockaddr `Connect
      $ opt_arg Arg.int 100 [ "clients" ] "K" "Logical clients to simulate."
      $ opt_arg Arg.int 8 [ "conns" ] "C"
          "Sockets the clients multiplex over (C <= K)."
      $ flag_arg [ "closed" ]
          "Closed loop: one request in flight per client (default)."
      $ opt_arg Arg.float 0.0 [ "think" ] "S"
          "Closed-loop think time between cycles, seconds."
      $ opt_arg Arg.(some float) None [ "rate" ] "R"
          "Open loop: aggregate Poisson arrivals at R requests/s."
      $ opt_arg Arg.(some string) None [ "ramp" ] "SPEC"
          "Open-loop rate ramp, e.g. 50:5,2000:10,50:5 (RATE:SECONDS phases)."
      $ opt_arg Arg.float 5.0 [ "duration" ] "S"
          "Single-phase run length in seconds (--ramp overrides)."
      $ seed
      $ report_every "Seconds between periodic SLO reports."
      $ opt_arg Arg.float 3.0 [ "drain" ] "S"
          "Grace period for in-flight responses after the last phase."
      $ quiet $ json_line)

(* ---------------- cluster-bench ---------------- *)

let cluster_bench_cmd =
  let run protocols ns_spec grants mean closed config json uds =
    let protocols = if protocols = [] then [ "ring"; "binsearch" ] else protocols in
    let ns = parse_id_ranges ns_spec in
    if ns = [] then die "empty -N sweep";
    List.iter (fun p -> ignore (find_packed p)) protocols;
    let load =
      match closed with
      | Some depth -> Cluster.Closed_loop { depth }
      | None -> Cluster.Open_loop { mean_interarrival = mean }
    in
    let reports = ref [] in
    (* One sweep point: its line on stderr, its mean responsiveness. *)
    let point n protocol =
      let config = { (config ~n) with Cluster.load } in
      let packed = find_packed protocol in
      let backend =
        Option.map
          (fun dir ->
            Cluster.Sockets
              {
                owned = List.init n Fun.id;
                addrs = Live_transport.uds_addrs ~dir ~n;
              })
          uds
      in
      let r =
        run_live ?backend { config with stop = Cluster.Grants grants } packed
      in
      reports := r :: !reports;
      if r.decode_errors > 0 then
        die "%s n=%d: %d decode errors" protocol n r.decode_errors;
      let resp = Tr_stats.Summary.mean (Tr_sim.Metrics.responsiveness r.metrics) in
      Format.eprintf
        "bench %-12s n=%5d %s/%s: %7d grants, %8.0f grants/s, resp %8.2f, \
         %.1fs wall, %d waits, %d fds, %.1f ready/wait, %.2f syscalls/grant@."
        protocol n r.backend r.readiness r.grants
        (float_of_int r.grants /. Float.max 1e-9 r.wall_s)
        resp r.wall_s r.wait_calls r.fds_registered r.avg_ready_per_wait
        r.syscalls_per_grant;
      resp
    in
    let rows =
      List.map (fun n -> (float_of_int n, List.map (point n) protocols)) ns
    in
    if json then
      List.iter
        (fun r -> print_string (Live_export.json_of_report r))
        (List.rev !reports)
    else begin
      let first = config ~n:(List.hd ns) in
      (* FIG9-schema CSV, stamped with provenance comment lines. *)
      Printf.printf "# live cluster-bench: mean responsiveness (time units) vs N\n";
      Printf.printf
        "# protocols=%s seed=%d grants=%d load=%s unit=%g backend=%s git=%s\n"
        (String.concat "+" protocols) first.seed grants
        (match closed with
        | Some d -> Printf.sprintf "closed:%d" d
        | None -> Printf.sprintf "open:%g" mean)
        first.unit_s
        (if uds = None then "loopback" else "unix")
        (Live_export.git_describe ());
      print_string (Live_export.csv_of_table ~x_label:"n" ~cols:protocols rows)
    end
  in
  Cmd.v
    (Cmd.info "cluster-bench"
       ~doc:
         "Sweep live clusters over N (in-process loopback by default, \
          --uds for real sockets) and emit the paper's figure-9 \
          comparison (ring O(N) vs delegated binsearch O(log N)) as \
          stamped CSV, or per-run JSON reports with --json")
    Term.(
      const run
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"PROTOCOL"
              ~doc:"Protocols to sweep (default: ring binsearch).")
      $ opt_arg Arg.string "4,8,16,32" [ "N"; "sizes" ] "LIST"
          "Cluster sizes, e.g. 4,8,16,32."
      $ opt_arg Arg.int 200 [ "grants" ] "K" "Served requests per point."
      $ opt_arg Arg.float 10.0 [ "open" ] "MEAN" "Poisson mean interarrival (units)."
      $ opt_arg Arg.(some int) None [ "closed" ] "DEPTH"
          "Closed-loop load instead of open-loop: keep DEPTH requests \
           outstanding per node (the saturation mode for high-N socket \
           sweeps)."
      $ tuned_cluster ~unit_default:5e-4
      $ json "Emit one JSON report per run instead of CSV."
      $ uds_arg)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let module C = Tr_chaos_run.Chaos_run in
  let run protocol n seed spec backend uds mean deadline unit_s shards json =
    if n < 2 then die "a chaos run needs at least two nodes (got -n %d)" n;
    (match Tr_chaos.Scenario.of_string spec with
    | Error e -> die "bad --spec: %s" e
    | Ok s -> (
        match Tr_chaos.Scenario.validate s ~n with
        | Error e -> die "bad --spec: %s" e
        | Ok () -> ()));
    let o =
      match backend with
      | "sim" ->
          if uds <> None then die "--uds needs --backend uds";
          C.run_sim ~protocol ~n ~seed ~spec ~mean ?deadline ()
      | "loopback" ->
          C.run_live ~protocol ~n ~seed ~spec ~mean ?deadline ~unit_s ~shards ()
      | "uds" ->
          let dir =
            match uds with
            | Some d -> d
            | None -> die "--backend uds needs --uds DIR"
          in
          let addrs = Live_transport.uds_addrs ~dir ~n in
          caller_errors (fun () ->
              C.run_live ~protocol ~n ~seed ~spec
                ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
                ~mean ?deadline ~unit_s ~shards ())
      | b -> die "unknown --backend %S (expected sim, loopback or uds)" b
    in
    if json then print_string (C.outcome_json o)
    else begin
      Format.printf "chaos %s on %s (%s): %d grants, %d faults injected, %s@."
        o.protocol o.backend o.spec o.grants o.total_injected
        (if o.recovered then
           Printf.sprintf "recovered %.1f units after faults cleared"
             o.recovery_time
         else
           Printf.sprintf "FLAGGED: %d nodes never recovered by t=%.0f"
             o.unrecovered_nodes o.deadline);
      List.iter
        (fun (k, v) -> if v > 0 then Format.printf "  %s=%d@." k v)
        o.injected
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Inject a declarative fault scenario (partitions, loss, \
          duplication, reordering, corruption, clock skew, churn) into a \
          protocol on the simulator or the live runtime, probe every node \
          when the faults clear, and report whether the protocol \
          self-stabilized within the deadline")
    Term.(
      const run $ protocol
      $ opt_arg Arg.int 8 [ "n"; "nodes" ] "N" "Cluster size."
      $ seed
      $ opt_arg Arg.string "partition:0-3|4-7@50-150+corrupt:0.02@20-200"
          [ "spec" ] "SPEC"
          (Printf.sprintf "Fault scenario: '+'-joined windows. Examples: %s."
             (String.concat "; "
                (List.map
                   (fun (s, d) -> Printf.sprintf "%s (%s)" s d)
                   Tr_chaos.Scenario.examples)))
      $ opt_arg Arg.string "sim" [ "backend" ] "B"
          "Backend: sim (discrete-event), loopback (live in-process) or uds \
           (live sockets, needs --uds DIR)."
      $ uds_arg
      $ opt_arg Arg.float 10.0 [ "mean" ] "T"
          "Background request interarrival while faults are open, units."
      $ opt_arg Arg.(some float) None [ "deadline" ] "T"
          "Recovery deadline after the last fault window closes, units \
           (default 40n)."
      $ unit_arg 1e-3 $ shards_arg $ json_line)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "tokenring-cli" ~version:"1.0.0"
      ~doc:"Adaptive token-passing protocols (Englert-Rudolph-Shvartsman 2001)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ list_cmd; run_cmd; compare_cmd; exp_cmd; verify_cmd; spec_cmd;
            explore_cmd; trace_cmd; serve_cmd; loadgen_cmd; cluster_bench_cmd;
            service_cmd; service_loadgen_cmd; chaos_cmd ]))
