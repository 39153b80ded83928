(* Command-line front end: run protocols, regenerate the paper's figures,
   and machine-check the specifications. *)

open Cmdliner

(* ---------------- shared options ---------------- *)

let nodes =
  Arg.(value & opt int 100 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Ring size.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let mean =
  Arg.(
    value
    & opt float 10.0
    & info [ "mean" ] ~docv:"T"
        ~doc:"Mean request interarrival time (global Poisson workload).")

let serves =
  Arg.(
    value
    & opt int 1000
    & info [ "serves" ] ~docv:"K" ~doc:"Stop after K served requests.")

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps (for smoke runs).")

let jobs =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Domains for parallel sweeps (default: all cores). Results are \
           byte-identical to -j 1 — seeded determinism survives parallelism.")

(* [0] (the default) means "all cores". A pool of 1 domain is just the
   calling domain, so only J >= 2 spawns anything. *)
let with_jobs jobs f =
  let domains = if jobs <= 0 then Tr_sim.Pool.default_domains () else jobs in
  if domains <= 1 then f None
  else Tr_sim.Pool.with_pool ~domains (fun pool -> f (Some pool))

let protocol_arg =
  let doc =
    Printf.sprintf "Protocol to run. One of: %s."
      (String.concat ", " Tokenring.Registry.names)
  in
  Arg.(value & opt string "binsearch" & info [ "p"; "protocol" ] ~docv:"NAME" ~doc)

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
  let run protocol n seed mean serves workload_spec network_spec json histogram
      profile =
    let workload =
      match workload_spec with
      | None -> Ok (Tokenring.Workload.Global_poisson { mean_interarrival = mean })
      | Some spec -> Tokenring.Scenario.workload_of_string spec
    in
    let network =
      match network_spec with
      | None -> Ok Tokenring.Network.default
      | Some spec -> Tokenring.Scenario.network_of_string spec
    in
    match (workload, network) with
    | Error e, _ | _, Error e -> Format.printf "error: %s@." e; exit 2
    | Ok workload, Ok network ->
        let config =
          { (Tokenring.Engine.default_config ~n ~seed) with workload; network }
        in
        let t0 = Unix.gettimeofday () in
        let outcome =
          Tokenring.Runner.run_named protocol config
            ~stop:
              (Tokenring.Engine.First_of
                 [ Tokenring.Engine.After_serves serves;
                   Tokenring.Engine.At_time 5e6 ])
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
  let workload_spec =
    let doc =
      Printf.sprintf "Workload spec, e.g. %s. Overrides --mean."
        (String.concat ", " Tokenring.Scenario.workload_examples)
    in
    Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"SPEC" ~doc)
  in
  let network_spec =
    let doc =
      Printf.sprintf "Network spec, e.g. %s."
        (String.concat ", " Tokenring.Scenario.network_examples)
    in
    Arg.(value & opt (some string) None & info [ "net"; "network" ] ~docv:"SPEC" ~doc)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one protocol under a configurable scenario")
    Term.(
      const run $ protocol_arg $ nodes $ seed $ mean $ serves $ workload_spec
      $ network_spec
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit the outcome as JSON.")
      $ Arg.(
          value & flag
          & info [ "histogram" ] ~doc:"Also print the responsiveness histogram.")
      $ Arg.(
          value & flag
          & info [ "profile" ]
              ~doc:"Print events processed, wall time and events/sec."))

(* ---------------- exp ---------------- *)

let exp_cmd =
  let run id quick seed csv json jobs =
    let results =
      with_jobs jobs (fun pool -> Tokenring.Experiments.all ?pool ~quick ~seed ())
    in
    let wanted r =
      String.equal id "all"
      || String.equal (String.uppercase_ascii id) r.Tokenring.Experiments.id
    in
    let matched = List.filter wanted results in
    if matched = [] then
      Format.printf "unknown experiment %S; known: %s@." id
        (String.concat ", "
           (List.map (fun r -> r.Tokenring.Experiments.id) results))
    else
      List.iter
        (fun r ->
          if json then
            print_string (Tokenring.Export.result_to_json r)
          else if csv then
            Format.printf "# %s: %s@.%s@." r.Tokenring.Experiments.id
              r.Tokenring.Experiments.title
              (Tokenring.Series.Table.to_csv r.Tokenring.Experiments.table)
          else Format.printf "%a@." Tokenring.Experiments.pp_result r)
        matched
  in
  let id =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (FIG9, FIG10, LEM4, ... or all).")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit comma-separated tables only.")
  in
  Cmd.v
    (Cmd.info "exp" ~doc:"Regenerate the paper's figures and claims as tables")
    Term.(
      const run $ id $ quick $ seed $ csv
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit results as JSON.")
      $ jobs)

(* ---------------- compare ---------------- *)

let compare_cmd =
  let run protocols n seed serves workload_spec network_spec =
    let workload =
      match workload_spec with
      | None -> Ok (Tokenring.Workload.Global_poisson { mean_interarrival = 10.0 })
      | Some spec -> Tokenring.Scenario.workload_of_string spec
    in
    let network =
      match network_spec with
      | None -> Ok Tokenring.Network.default
      | Some spec -> Tokenring.Scenario.network_of_string spec
    in
    match (workload, network) with
    | Error e, _ | _, Error e ->
        Format.printf "error: %s@." e;
        exit 2
    | Ok workload, Ok network ->
        let names =
          if protocols = [] then [ "ring"; "binsearch" ] else protocols
        in
        let config =
          { (Tokenring.Engine.default_config ~n ~seed) with workload; network }
        in
        let stop =
          Tokenring.Engine.First_of
            [ Tokenring.Engine.After_serves serves;
              Tokenring.Engine.At_time 5e6 ]
        in
        Format.printf "%-22s %10s %10s %10s %12s %12s %8s@." "protocol" "resp"
          "wait-p50" "wait-p99" "tok-msg/srv" "ctl-msg/srv" "fair";
        List.iter
          (fun name ->
            let o = Tokenring.Runner.run_named name config ~stop in
            let m = o.Tokenring.Runner.metrics in
            let serves_f =
              float_of_int (Stdlib.max 1 (Tokenring.Metrics.serves m))
            in
            Format.printf "%-22s %10.2f %10.2f %10.2f %12.1f %12.1f %8.2f@."
              name
              (Tokenring.Summary.mean (Tokenring.Metrics.responsiveness m))
              (Tr_stats.Quantile.median (Tokenring.Metrics.waiting_quantiles m))
              (Tr_stats.Quantile.p99 (Tokenring.Metrics.waiting_quantiles m))
              (float_of_int (Tokenring.Metrics.token_messages m) /. serves_f)
              (float_of_int (Tokenring.Metrics.control_messages m) /. serves_f)
              (Tokenring.Metrics.waiting_fairness m))
          names
  in
  let protocols =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PROTOCOL"
          ~doc:"Protocols to compare (default: ring binsearch; 'all' for every one).")
  in
  let expand = function
    | [ "all" ] -> Tokenring.Registry.names
    | names -> names
  in
  let workload_spec =
    Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"SPEC"
           ~doc:"Workload spec (see 'run --help').")
  in
  let network_spec =
    Arg.(value & opt (some string) None & info [ "net"; "network" ] ~docv:"SPEC"
           ~doc:"Network spec (see 'run --help').")
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run several protocols on the same scenario and tabulate them")
    Term.(
      const run
      $ (const expand $ protocols)
      $ nodes $ seed $ serves $ workload_spec $ network_spec)

(* ---------------- verify ---------------- *)

let verify_cmd =
  let run n max_states =
    Format.printf "-- prefix property (exhaustive/bounded exploration) --@.";
    List.iter
      (fun c -> Format.printf "%a@." Tokenring.Verify.pp_check c)
      (Tokenring.Verify.prefix_checks ~max_states ~ns:[ 2; n ] ());
    Format.printf "-- refinement chain (simulation check) --@.";
    List.iter
      (fun c -> Format.printf "%a@." Tokenring.Verify.pp_check c)
      (Tokenring.Verify.refinement_checks ~max_states:(max_states / 4) ~n ());
    Format.printf "-- liveness (bounded AG EF + deadlock freedom) --@.";
    List.iter
      (fun c -> Format.printf "%a@." Tokenring.Verify.pp_check c)
      (Tokenring.Verify.liveness_checks ~max_states:(max_states / 2) ~n:2 ())
  in
  let n =
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Spec instance size.")
  in
  let max_states =
    Arg.(
      value & opt int 5000
      & info [ "max-states" ] ~docv:"K" ~doc:"State-space exploration bound.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Machine-check the prefix property and the refinement chain")
    Term.(const run $ n $ max_states)

(* ---------------- spec ---------------- *)

let spec_systems n =
  [
    ("S", Tr_specs.System_s.system ~n, Tr_specs.System_s.initial ~n);
    ("S1", Tr_specs.System_s1.system ~n, Tr_specs.System_s1.initial ~n);
    ("token", Tr_specs.System_token.system ~n, Tr_specs.System_token.initial ~n);
    ( "msgpass",
      Tr_specs.System_msgpass.system ~n,
      Tr_specs.System_msgpass.initial ~n );
    ("search", Tr_specs.System_search.system ~n, Tr_specs.System_search.initial ~n);
    ( "binsearch",
      Tr_specs.System_binsearch.system ~n,
      Tr_specs.System_binsearch.initial ~n );
  ]

let spec_cmd =
  let run which n budget dot steps =
    match
      List.find_opt (fun (name, _, _) -> String.equal name which) (spec_systems n)
    with
    | None ->
        Format.printf "unknown system %S; known: %s@." which
          (String.concat ", " (List.map (fun (s, _, _) -> s) (spec_systems n)))
    | Some (name, system, initial) -> (
        let init = initial ~data_budget:budget in
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
             (fun i state ->
               Format.printf "  %2d: %a@." i Tr_trs.Term.pp state)
             path
         end);
        match dot with
        | None -> ()
        | Some path ->
            let graph =
              Tr_trs.Explore.to_dot ~max_states:300 system ~init
            in
            let oc = open_out path in
            output_string oc graph;
            close_out oc;
            Format.printf "@.wrote %s (%s state graph, <=300 states)@." path name)
  in
  let which =
    Arg.(
      value & pos 0 string "binsearch"
      & info [] ~docv:"SYSTEM" ~doc:"S, S1, token, msgpass, search, binsearch.")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Instance size.") in
  let budget =
    Arg.(value & opt int 1 & info [ "budget" ] ~docv:"B" ~doc:"Per-node datum budget.")
  in
  let dot =
    Arg.(
      value & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the explored state graph as Graphviz.")
  in
  let steps =
    Arg.(
      value & opt int 0
      & info [ "reduce" ] ~docv:"K" ~doc:"Show a K-step fair reduction from the initial state.")
  in
  Cmd.v
    (Cmd.info "spec"
       ~doc:"Print a system's rewriting rules; optionally reduce or export its state graph")
    Term.(const run $ which $ n $ budget $ dot $ steps)

(* ---------------- explore ---------------- *)

let explore_cmd =
  let run which n budget max_states max_depth jobs spill json =
    let systems =
      spec_systems n
      @ [
          ( "msgpass-faulty",
            Tr_specs.System_msgpass.system_faulty ~n,
            Tr_specs.System_msgpass.initial ~n );
        ]
    in
    match List.find_opt (fun (name, _, _) -> String.equal name which) systems with
    | None ->
        Format.printf "unknown system %S; known: %s@." which
          (String.concat ", " (List.map (fun (s, _, _) -> s) systems));
        exit 2
    | Some (name, system, initial) ->
        let check =
          match name with
          | "S" -> Tr_specs.Prefix.check_s
          | "S1" -> Tr_specs.Prefix.check_s1
          | "token" -> Tr_specs.Prefix.check_token
          | "msgpass" | "msgpass-faulty" -> Tr_specs.Prefix.check_msgpass
          | "search" -> Tr_specs.Prefix.check_search
          | "binsearch" -> Tr_specs.Prefix.check_binsearch
          | _ -> fun _ -> Ok ()
        in
        let init = initial ~data_budget:budget in
        let o =
          with_jobs jobs (fun pool ->
              Tr_trs.Explore.explore ~max_states ?max_depth ~check ?pool
                ?spill_dir:spill system ~init)
        in
        let s = o.Tr_trs.Explore.stats in
        let p = o.Tr_trs.Explore.perf in
        (* perf goes to stderr: stdout is deterministic across domain
           counts and runs, so CI can diff -j 1 against -j 2 output. *)
        Format.eprintf
          "explore: %.2f s, %.0f states/s, %d domain%s, peak RSS %d kB, %d \
           spilled layers (%d bytes)@."
          p.Tr_trs.Explore.wall_s p.Tr_trs.Explore.states_per_s
          p.Tr_trs.Explore.domains_used
          (if p.Tr_trs.Explore.domains_used = 1 then "" else "s")
          p.Tr_trs.Explore.peak_rss_kb p.Tr_trs.Explore.spilled_layers
          p.Tr_trs.Explore.spilled_bytes;
        if json then
          Format.printf
            "{\"system\": \"%s\", \"n\": %d, \"budget\": %d, \"states\": %d, \
             \"transitions\": %d, \"max_depth\": %d, \"truncated\": %b, \
             \"violations\": %d, \"wall_s\": %.4f, \"states_per_s\": %.0f, \
             \"domains\": %d, \"peak_rss_kb\": %d, \"spilled_layers\": %d, \
             \"spilled_bytes\": %d}@."
            name n budget s.Tr_trs.Explore.states s.Tr_trs.Explore.transitions
            s.Tr_trs.Explore.max_depth s.Tr_trs.Explore.truncated
            (List.length o.Tr_trs.Explore.violations) p.Tr_trs.Explore.wall_s
            p.Tr_trs.Explore.states_per_s p.Tr_trs.Explore.domains_used
            p.Tr_trs.Explore.peak_rss_kb p.Tr_trs.Explore.spilled_layers
            p.Tr_trs.Explore.spilled_bytes
        else begin
          Format.printf "system: %s@.states: %d@.transitions: %d@.max-depth: \
                         %d@.truncated: %b@.violations: %d@."
            name s.Tr_trs.Explore.states s.Tr_trs.Explore.transitions
            s.Tr_trs.Explore.max_depth s.Tr_trs.Explore.truncated
            (List.length o.Tr_trs.Explore.violations);
          List.iteri
            (fun i v ->
              if i < 10 then
                Format.printf "  violation at depth %d: %s@."
                  v.Tr_trs.Explore.depth v.Tr_trs.Explore.message)
            o.Tr_trs.Explore.violations;
          if List.length o.Tr_trs.Explore.violations > 10 then
            Format.printf "  ... (%d more)@."
              (List.length o.Tr_trs.Explore.violations - 10)
        end
  in
  let which =
    Arg.(
      value & pos 0 string "msgpass"
      & info [] ~docv:"SYSTEM"
          ~doc:"S, S1, token, msgpass, search, binsearch, msgpass-faulty.")
  in
  let n = Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Instance size.") in
  let budget =
    Arg.(value & opt int 1 & info [ "budget" ] ~docv:"B" ~doc:"Per-node datum budget.")
  in
  let max_states =
    Arg.(
      value & opt int 100_000
      & info [ "max-states" ] ~docv:"M" ~doc:"Visited-state cap.")
  in
  let max_depth =
    Arg.(
      value & opt (some int) None
      & info [ "max-depth" ] ~docv:"D" ~doc:"BFS depth bound.")
  in
  let spill =
    Arg.(
      value & opt (some string) None
      & info [ "spill" ] ~docv:"DIR"
          ~doc:
            "Spill frontier layers to temp files under $(docv) and keep only \
             marshalled visited keys in memory (bounds RSS; forgoes the \
             in-memory visited order).")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively explore a system's state space, checking the prefix \
          property on every state (parallel with -j, memory-bounded with \
          --spill)")
    Term.(
      const run $ which $ n $ budget $ max_states $ max_depth $ jobs $ spill
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit stats+perf as JSON."))

(* ---------------- trace ---------------- *)

let trace_cmd =
  let run protocol n seed mean until =
    let config =
      {
        (Tokenring.Engine.default_config ~n ~seed) with
        workload = Tokenring.Workload.Global_poisson { mean_interarrival = mean };
        trace = true;
      }
    in
    let outcome =
      Tokenring.Runner.run_named protocol config
        ~stop:(Tokenring.Engine.At_time until)
    in
    Format.printf "%a@." Tokenring.Trace.pp outcome.Tokenring.Runner.trace
  in
  let until =
    Arg.(
      value & opt float 50.0
      & info [ "until" ] ~docv:"T" ~doc:"Virtual time to trace up to.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump a full event trace of a short run")
    Term.(const run $ protocol_arg $ nodes $ seed $ mean $ until)

(* ---------------- live cluster commands ---------------- *)

module Cluster = Tr_net_rt.Cluster
module Live_export = Tr_net_rt.Live_export
module Live_transport = Tr_net_rt.Transport

let die fmt = Format.kasprintf (fun msg -> Format.eprintf "error: %s@." msg; exit 2) fmt

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

let unit_arg =
  Arg.(
    value & opt float 1e-3
    & info [ "unit" ] ~docv:"S" ~doc:"Wall seconds per time unit.")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"J" ~doc:"Shard domains hosting the nodes (0 = auto).")

let max_wall_arg =
  Arg.(
    value & opt float 60.0
    & info [ "max-wall" ] ~docv:"S" ~doc:"Hard wall-clock safety cap in seconds.")

let grants_stop_arg =
  Arg.(
    value & opt (some int) None
    & info [ "grants" ] ~docv:"K" ~doc:"Stop after K served requests.")

let duration_arg =
  Arg.(
    value & opt float 1000.0
    & info [ "duration" ] ~docv:"T"
        ~doc:"Stop after T time units (ignored when --grants is given).")

let uds_arg =
  Arg.(
    value & opt (some string) None
    & info [ "uds" ] ~docv:"DIR"
        ~doc:"Cluster over Unix-domain sockets $(docv)/node-<i>.sock.")

let tcp_base_arg =
  Arg.(
    value & opt (some int) None
    & info [ "tcp-base" ] ~docv:"PORT"
        ~doc:"Cluster over TCP; node i listens on $(docv)+i.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Host for --tcp-base addresses.")

let own_arg =
  Arg.(
    value & opt (some string) None
    & info [ "own" ] ~docv:"IDS"
        ~doc:
          "Node ids this process hosts, as ranges (e.g. 0-3,7). Defaults to \
           all N nodes; give disjoint subsets to split one cluster across \
           processes.")

let readiness_arg =
  Arg.(
    value & opt (some string) None
    & info [ "readiness" ] ~docv:"BACKEND"
        ~doc:
          "Force the socket wait backend: epoll or poll. Default is epoll \
           where available, else poll (TR_READINESS also honoured); a \
           forced epoll on a platform without it falls back loudly to \
           poll.")

let spin_arg =
  Arg.(
    value & flag
    & info [ "spin" ]
        ~doc:
          "Adaptive spin-then-block before each shard wait: busy-poll the \
           in-process mailboxes (so it only arms with --inproc) for a \
           window sized by the recent inter-event gap; off on single-CPU \
           hosts (TR_SPIN also honoured).")

let inproc_arg =
  Arg.(
    value & flag
    & info [ "inproc" ]
        ~doc:
          "Deliver frames between co-hosted nodes through in-process \
           mailboxes instead of sockets: identical framing and ordering, \
           zero syscalls per hop (TR_INPROC also honoured).")

let pin_arg =
  Arg.(
    value & flag
    & info [ "pin" ]
        ~doc:"Pin each shard domain to one CPU core (sched_setaffinity).")

let parse_readiness = function
  | None -> None
  | Some s -> (
      match Tr_net_rt.Readiness.backend_of_string s with
      | Ok b -> Some b
      | Error e -> die "--readiness: %s" e)

let live_config ?(spin = false) ?(inproc = false) ~n ~seed ~unit_s ~shards
    ~max_wall_s ~load ~grants ~duration ~readiness ~pin () =
  if n < 1 then die "need at least one node";
  let stop =
    match grants with
    | Some k -> Cluster.Grants k
    | None -> Cluster.Duration duration
  in
  let config =
    {
      (Cluster.default_config ~n ~seed) with
      unit_s;
      load;
      stop;
      max_wall_s;
      readiness = parse_readiness readiness;
      pin_cores = pin;
      spin;
      inproc;
    }
  in
  if shards > 0 then { config with shards } else config

let resolve_backend ~n ~own ~uds ~tcp_base ~host =
  let owned =
    match own with
    | None -> List.init n Fun.id
    | Some spec -> parse_id_ranges spec
  in
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

let find_packed name =
  match Tr_wire.Codecs.find name with
  | Some p -> p
  | None ->
      die "unknown protocol %S; known: %s" name
        (String.concat ", " Tr_wire.Codecs.names)

(* Transport setup reports caller errors (an unbindable --uds path, a
   bad TR_READINESS) as [Failure]: print them like any other misuse. *)
let run_live ?backend config packed =
  try Cluster.run_packed ?backend config packed
  with Failure msg -> die "%s" msg

(* ---------------- serve ---------------- *)

let serve_cmd =
  let run protocol n seed unit_s shards max_wall own uds tcp_base host grants
      duration readiness spin inproc pin =
    if uds = None && tcp_base = None then
      die "serve needs a socket backend: --uds DIR or --tcp-base PORT";
    let backend = resolve_backend ~n ~own ~uds ~tcp_base ~host in
    let config =
      live_config ~spin ~inproc ~n ~seed ~unit_s ~shards ~max_wall_s:max_wall
        ~load:Cluster.No_load ~grants ~duration ~readiness ~pin ()
    in
    let report = run_live ?backend config (find_packed protocol) in
    print_string (Live_export.json_of_report report)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Host (a subset of) a live cluster's nodes over real sockets; \
          protocol logic is the simulator's, byte-for-byte")
    Term.(
      const run $ protocol_arg $ nodes $ seed $ unit_arg $ shards_arg
      $ max_wall_arg $ own_arg $ uds_arg $ tcp_base_arg $ host_arg
      $ grants_stop_arg $ duration_arg $ readiness_arg $ spin_arg $ inproc_arg
      $ pin_arg)

(* ---------------- loadgen ---------------- *)

let loadgen_cmd =
  let run protocol n seed unit_s shards max_wall own uds tcp_base host grants
      duration closed open_mean readiness spin inproc pin =
    let load =
      match (closed, open_mean) with
      | Some _, Some _ -> die "choose one of --closed and --open"
      | Some depth, None -> Cluster.Closed_loop { depth }
      | None, Some mean_interarrival -> Cluster.Open_loop { mean_interarrival }
      | None, None -> Cluster.Closed_loop { depth = 1 }
    in
    let backend = resolve_backend ~n ~own ~uds ~tcp_base ~host in
    let config =
      live_config ~spin ~inproc ~n ~seed ~unit_s ~shards ~max_wall_s:max_wall
        ~load ~grants ~duration ~readiness ~pin ()
    in
    let report = run_live ?backend config (find_packed protocol) in
    print_string (Live_export.json_of_report report)
  in
  let closed =
    Arg.(
      value & opt (some int) None
      & info [ "closed" ] ~docv:"DEPTH"
          ~doc:"Closed-loop load: keep DEPTH requests outstanding per node.")
  in
  let open_mean =
    Arg.(
      value & opt (some float) None
      & info [ "open" ] ~docv:"MEAN"
          ~doc:"Open-loop load: Poisson arrivals with MEAN interarrival units.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a live cluster (in-process loopback by default, or this \
          process's share of a socket cluster) with open- or closed-loop \
          load; prints a stamped JSON report")
    Term.(
      const run $ protocol_arg $ nodes $ seed $ unit_arg $ shards_arg
      $ max_wall_arg $ own_arg $ uds_arg $ tcp_base_arg $ host_arg
      $ grants_stop_arg $ duration_arg $ closed $ open_mean $ readiness_arg
      $ spin_arg $ inproc_arg $ pin_arg)

(* ---------------- service / service-loadgen ---------------- *)

module Service = Tr_service.Server
module Service_client = Tr_service.Client
module Policy = Tr_service.Policy

let parse_app = function
  | "mutex" -> Service.Mutex
  | "total-order" | "total_order" -> Service.Total_order
  | s -> die "unknown app %S (expected mutex or total-order)" s

let app_arg =
  Arg.(
    value & opt string "mutex"
    & info [ "app" ] ~docv:"APP" ~doc:"Application: mutex or total-order.")

let service_cmd =
  let run app n seed unit_s shards max_wall listen_uds listen_tcp host duration
      cs adaptive pinned hi lo window park report_every quiet json =
    let app = parse_app app in
    if n < 1 then die "need at least one node";
    if cs <= 0. then die "--cs must be positive";
    if duration <= 0. then die "--duration must be positive";
    if report_every <= 0. then die "--report-every must be positive";
    let listen =
      match (listen_uds, listen_tcp) with
      | Some _, Some _ -> die "choose one of --listen-uds and --listen-tcp"
      | Some path, None -> Unix.ADDR_UNIX path
      | None, Some port -> (
          if port < 0 || port > 65535 then die "bad --listen-tcp port %d" port;
          try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
          with Failure _ -> die "bad --host %S" host)
      | None, None -> die "service needs --listen-uds PATH or --listen-tcp PORT"
    in
    let cluster =
      {
        (Cluster.default_config ~n ~seed) with
        unit_s;
        load = Cluster.External;
        stop = Cluster.Duration duration;
        max_wall_s = max_wall;
      }
    in
    let cluster = if shards > 0 then { cluster with shards } else cluster in
    let mode =
      if adaptive then begin
        let base = Policy.default_config ~n ~hop_s:cluster.Cluster.hop_delay in
        let cfg =
          {
            base with
            Policy.hi = Option.value hi ~default:base.Policy.hi;
            lo = Option.value lo ~default:base.Policy.lo;
            window_s = Option.value window ~default:base.Policy.window_s;
            park_after = (match park with Some k -> Some k | None -> base.Policy.park_after);
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
          match pinned with
          | "search" -> Tr_apps.Movement.Search
          | "rotate" -> Tr_apps.Movement.Rotate
          | s -> die "unknown --mode %S (expected search or rotate)" s
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
    let outcome = Service.run config in
    List.iter
      (fun (s : Policy.switch_event) ->
        Format.eprintf "[policy] t=%.1fu switch %s -> %s (per_rev=%.2f)@."
          s.Policy.at
          (Tr_apps.Movement.mode_to_string s.Policy.from_mode)
          (Tr_apps.Movement.mode_to_string s.Policy.to_mode)
          s.Policy.per_rev)
      outcome.Service.switches;
    if json then begin
      print_endline (Service.stats_json ~outcome ~app ~adaptive);
      print_string (Live_export.json_of_report outcome.Service.report)
    end
    else begin
      let st = outcome.Service.stats in
      Format.printf
        "service %s: %d requests, %d grants, %d released, %d committed, %d \
         rejected, %d decode errors, %d switches@."
        (Service.app_name app) st.Service.requests st.Service.grants_sent
        st.Service.released_sent st.Service.committed_sent
        st.Service.rejected_sent st.Service.decode_errors
        (List.length outcome.Service.switches)
    end
  in
  let listen_uds =
    Arg.(
      value & opt (some string) None
      & info [ "listen-uds" ] ~docv:"PATH"
          ~doc:"Serve clients on a Unix-domain socket at $(docv).")
  in
  let listen_tcp =
    Arg.(
      value & opt (some int) None
      & info [ "listen-tcp" ] ~docv:"PORT"
          ~doc:"Serve clients on TCP $(docv) (0 picks a free port).")
  in
  let cs =
    Arg.(
      value & opt float 2.0
      & info [ "cs" ] ~docv:"T"
          ~doc:"Mutex lease (critical-section) length, time units.")
  in
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Switch ring/binsearch token movement online from the observed \
             request rate per token revolution (the Figure 10 crossover as \
             a runtime policy).")
  in
  let pinned =
    Arg.(
      value & opt string "search"
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Pinned movement mode when not --adaptive: search or rotate.")
  in
  let hi =
    Arg.(
      value & opt (some float) None
      & info [ "hi" ] ~docv:"R"
          ~doc:"Adaptive: switch to rotation at >= R requests/revolution.")
  in
  let lo =
    Arg.(
      value & opt (some float) None
      & info [ "lo" ] ~docv:"R"
          ~doc:"Adaptive: switch back to search at <= R requests/revolution.")
  in
  let window =
    Arg.(
      value & opt (some float) None
      & info [ "window" ] ~docv:"T"
          ~doc:"Adaptive rate-estimation window, time units.")
  in
  let park =
    Arg.(
      value & opt (some int) None
      & info [ "park" ] ~docv:"K"
          ~doc:"Park an idle token after K idle hops (search mode only).")
  in
  let report_every =
    Arg.(
      value & opt float 1.0
      & info [ "report-every" ] ~docv:"S"
          ~doc:"Seconds between periodic SLO/queue reports.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No periodic reports.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON reports at the end.")
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Run the mutex/total-order service: a live cluster behind a \
          client-facing socket front-end, optionally with online adaptive \
          ring/binsearch switching")
    Term.(
      const run $ app_arg $ nodes $ seed $ unit_arg $ shards_arg
      $ max_wall_arg $ listen_uds $ listen_tcp $ host_arg $ duration_arg $ cs
      $ adaptive $ pinned $ hi $ lo $ window $ park $ report_every $ quiet
      $ json)

let service_loadgen_cmd =
  let run app connect_uds connect_tcp host clients conns closed think rate ramp
      duration seed report_every drain quiet json =
    let app = parse_app app in
    let connect =
      match (connect_uds, connect_tcp) with
      | Some _, Some _ -> die "choose one of --connect-uds and --connect-tcp"
      | Some path, None -> Unix.ADDR_UNIX path
      | None, Some port -> (
          if port <= 0 || port > 65535 then die "bad --connect-tcp port %d" port;
          try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
          with Failure _ -> die "bad --host %S" host)
      | None, None ->
          die "service-loadgen needs --connect-uds PATH or --connect-tcp PORT"
    in
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
    let parse_ramp spec =
      spec
      |> String.split_on_char ','
      |> List.filter (fun s -> s <> "")
      |> List.map (fun part ->
             match String.index_opt part ':' with
             | None ->
                 die "bad ramp phase %S (expected RATE:SECONDS)" part
             | Some i -> (
                 let rate_s = String.sub part 0 i
                 and dur_s =
                   String.sub part (i + 1) (String.length part - i - 1)
                 in
                 match
                   (float_of_string_opt rate_s, float_of_string_opt dur_s)
                 with
                 | Some r, Some d when r > 0. && d > 0. ->
                     {
                       Service_client.duration_s = d;
                       workload = Service_client.Open { rate = r };
                     }
                 | _ ->
                     die
                       "bad ramp phase %S (need positive RATE:SECONDS)" part))
    in
    let phases =
      match ramp with
      | Some spec -> (
          match parse_ramp spec with
          | [] -> die "empty --ramp"
          | ps -> ps)
      | None -> (
          match rate with
          | Some r ->
              if r <= 0. then die "--rate must be positive";
              [
                {
                  Service_client.duration_s = duration;
                  workload = Service_client.Open { rate = r };
                };
              ]
          | None ->
              [
                {
                  Service_client.duration_s = duration;
                  workload = Service_client.Closed { think_s = think };
                };
              ])
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
    let result =
      try Service_client.run config with
      | Invalid_argument msg -> die "%s" msg
      | Unix.Unix_error (e, fn, _) ->
          die "cannot connect: %s (%s)" (Unix.error_message e) fn
    in
    if json then print_endline (Service_client.result_json result)
    else begin
      let s = result.Service_client.slo in
      let ms v = Format.asprintf "%a" Tr_service.Slo.pp_ms v in
      Format.printf
        "loadgen: sent %d, %d grants, %d released, %d committed, %d rejects, \
         %d outstanding, %d decode errors; grant latency p50=%s p99=%s \
         p999=%s@."
        result.Service_client.sent result.Service_client.grants
        result.Service_client.releaseds result.Service_client.committeds
        result.Service_client.rejects result.Service_client.outstanding
        result.Service_client.decode_errors
        (ms s.Tr_service.Slo.p50) (ms s.Tr_service.Slo.p99)
        (ms s.Tr_service.Slo.p999)
    end
  in
  let connect_uds =
    Arg.(
      value & opt (some string) None
      & info [ "connect-uds" ] ~docv:"PATH"
          ~doc:"Connect to a service on a Unix-domain socket at $(docv).")
  in
  let connect_tcp =
    Arg.(
      value & opt (some int) None
      & info [ "connect-tcp" ] ~docv:"PORT" ~doc:"Connect to TCP $(docv).")
  in
  let clients =
    Arg.(
      value & opt int 100
      & info [ "clients" ] ~docv:"K" ~doc:"Logical clients to simulate.")
  in
  let conns =
    Arg.(
      value & opt int 8
      & info [ "conns" ] ~docv:"C"
          ~doc:"Sockets the clients multiplex over (C <= K).")
  in
  let closed =
    Arg.(
      value & flag
      & info [ "closed" ]
          ~doc:"Closed loop: one request in flight per client (default).")
  in
  let think =
    Arg.(
      value & opt float 0.0
      & info [ "think" ] ~docv:"S"
          ~doc:"Closed-loop think time between cycles, seconds.")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:"Open loop: aggregate Poisson arrivals at R requests/s.")
  in
  let ramp =
    Arg.(
      value & opt (some string) None
      & info [ "ramp" ] ~docv:"SPEC"
          ~doc:
            "Open-loop rate ramp, e.g. 50:5,2000:10,50:5 \
             (RATE:SECONDS phases).")
  in
  let lg_duration =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"S"
          ~doc:"Single-phase run length in seconds (--ramp overrides).")
  in
  let report_every =
    Arg.(
      value & opt float 1.0
      & info [ "report-every" ] ~docv:"S"
          ~doc:"Seconds between periodic SLO reports.")
  in
  let drain =
    Arg.(
      value & opt float 3.0
      & info [ "drain" ] ~docv:"S"
          ~doc:"Grace period for in-flight responses after the last phase.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No periodic reports.") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON result line.")
  in
  Cmd.v
    (Cmd.info "service-loadgen"
       ~doc:
         "Drive a running service with thousands of concurrent logical \
          clients (closed loop, fixed-rate open loop, or an open-loop rate \
          ramp) and report grant-latency SLOs")
    Term.(
      const run $ app_arg $ connect_uds $ connect_tcp $ host_arg $ clients
      $ conns $ closed $ think $ rate $ ramp $ lg_duration $ seed
      $ report_every $ drain $ quiet $ json)

(* ---------------- cluster-bench ---------------- *)

(* The fork/aggregate machinery lives in Cluster.run_fleet; the CLI only
   validates, launches and prints. *)
let run_fleet ~procs ~addrs ~config packed =
  match Cluster.run_fleet ~procs ~addrs config packed with
  | lines -> lines
  | exception Failure msg -> die "%s" msg

let cluster_bench_cmd =
  let run protocols ns_spec seed grants mean closed unit_s shards max_wall json
      uds procs readiness spin inproc pin duration =
    let protocols = if protocols = [] then [ "ring"; "binsearch" ] else protocols in
    let ns = parse_id_ranges ns_spec in
    if ns = [] then die "empty -N sweep";
    if procs < 1 then die "--procs must be >= 1";
    if procs > 1 && uds = None then die "--procs needs --uds";
    if procs > 1 && json then die "--json is per-process; not available with --procs";
    List.iter (fun p -> ignore (find_packed p)) protocols;
    let load =
      match closed with
      | Some depth -> Cluster.Closed_loop { depth }
      | None -> Cluster.Open_loop { mean_interarrival = mean }
    in
    let reports = ref [] in
    let rows =
      List.map
        (fun n ->
          let values =
            List.map
              (fun protocol ->
                let mk_config ~grants ~duration =
                  live_config ~spin ~inproc ~n ~seed ~unit_s ~shards
                    ~max_wall_s:max_wall ~load ~grants ~duration ~readiness
                    ~pin ()
                in
                let backend_desc dir =
                  Printf.sprintf "unix[%s]"
                    (match parse_readiness readiness with
                    | Some b -> Tr_net_rt.Readiness.backend_name b
                    | None -> "auto")
                  ^ if procs > 1 then Printf.sprintf " procs=%d" procs else ""
                  |> fun s -> ignore dir; s
                in
                match uds with
                | Some dir when procs > 1 ->
                    (* Fleet: fixed duration, grants summed after the fact. *)
                    let config = mk_config ~grants:None ~duration in
                    let addrs = Live_transport.uds_addrs ~dir ~n in
                    let lines =
                      run_fleet ~procs ~addrs ~config (find_packed protocol)
                    in
                    if List.length lines < procs then
                      die "%s n=%d: only %d/%d fleet children reported"
                        protocol n (List.length lines) procs;
                    let total_grants =
                      List.fold_left (fun a l -> a + l.Cluster.m_grants) 0 lines
                    in
                    let decode_errors =
                      List.fold_left
                        (fun a l -> a + l.Cluster.m_decode_errors)
                        0 lines
                    in
                    if decode_errors > 0 then
                      die "%s n=%d: %d decode errors" protocol n decode_errors;
                    let wall =
                      List.fold_left
                        (fun a l -> Float.max a l.Cluster.m_wall_s)
                        0.0 lines
                    in
                    let resp =
                      if total_grants = 0 then Float.nan
                      else
                        List.fold_left
                          (fun a l ->
                            if Float.is_nan l.Cluster.m_resp_mean then a
                            else
                              a
                              +. l.Cluster.m_resp_mean
                                 *. float_of_int l.Cluster.m_grants)
                          0.0 lines
                        /. float_of_int total_grants
                    in
                    let waits =
                      List.fold_left (fun a l -> a + l.Cluster.m_wait_calls) 0 lines
                    in
                    let fds =
                      List.fold_left
                        (fun a l -> a + l.Cluster.m_fds_registered)
                        0 lines
                    in
                    Format.eprintf
                      "bench %-12s n=%5d %s: %7d grants, %8.0f grants/s, resp \
                       %8.2f, %.1fs wall, %d waits, %d fds@."
                      protocol n (backend_desc dir) total_grants
                      (float_of_int total_grants /. Float.max 1e-9 wall)
                      resp wall waits fds;
                    resp
                | _ ->
                    let config = mk_config ~grants:(Some grants) ~duration:0.0 in
                    let backend =
                      match uds with
                      | None -> None
                      | Some dir ->
                          Some
                            (Cluster.Sockets
                               {
                                 owned = List.init n Fun.id;
                                 addrs = Live_transport.uds_addrs ~dir ~n;
                               })
                    in
                    let report = run_live ?backend config (find_packed protocol) in
                    reports := report :: !reports;
                    if report.Cluster.decode_errors > 0 then
                      die "%s n=%d: %d decode errors" protocol n
                        report.Cluster.decode_errors;
                    Format.eprintf
                      "bench %-12s n=%5d %s/%s: %7d grants, %8.0f grants/s, \
                       resp %8.2f, %.1fs wall, %d waits, %d fds, %.1f \
                       ready/wait, %.2f syscalls/grant@."
                      protocol n report.Cluster.backend
                      report.Cluster.readiness report.Cluster.grants
                      (float_of_int report.Cluster.grants
                      /. Float.max 1e-9 report.Cluster.wall_s)
                      (Tr_stats.Summary.mean
                         (Tr_sim.Metrics.responsiveness report.Cluster.metrics))
                      report.Cluster.wall_s report.Cluster.wait_calls
                      report.Cluster.fds_registered
                      report.Cluster.avg_ready_per_wait
                      report.Cluster.syscalls_per_grant;
                    Tr_stats.Summary.mean
                      (Tr_sim.Metrics.responsiveness report.Cluster.metrics))
              protocols
          in
          (float_of_int n, values))
        ns
    in
    if json then
      List.iter
        (fun r -> print_string (Live_export.json_of_report r))
        (List.rev !reports)
    else begin
      (* FIG9-schema CSV, stamped with provenance comment lines. *)
      Printf.printf "# live cluster-bench: mean responsiveness (time units) vs N\n";
      Printf.printf
        "# protocols=%s seed=%d grants=%d load=%s unit=%g backend=%s procs=%d git=%s\n"
        (String.concat "+" protocols) seed grants
        (match closed with
        | Some d -> Printf.sprintf "closed:%d" d
        | None -> Printf.sprintf "open:%g" mean)
        unit_s
        (if uds = None then "loopback" else "unix")
        procs
        (Live_export.git_describe ());
      print_string (Live_export.csv_of_table ~x_label:"n" ~cols:protocols rows)
    end
  in
  let protocols =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PROTOCOL"
          ~doc:"Protocols to sweep (default: ring binsearch).")
  in
  let ns_spec =
    Arg.(
      value & opt string "4,8,16,32"
      & info [ "N"; "sizes" ] ~docv:"LIST" ~doc:"Cluster sizes, e.g. 4,8,16,32.")
  in
  let grants =
    Arg.(
      value & opt int 200
      & info [ "grants" ] ~docv:"K" ~doc:"Served requests per point.")
  in
  let mean =
    Arg.(
      value & opt float 10.0
      & info [ "open" ] ~docv:"MEAN" ~doc:"Poisson mean interarrival (units).")
  in
  let closed =
    Arg.(
      value & opt (some int) None
      & info [ "closed" ] ~docv:"DEPTH"
          ~doc:
            "Closed-loop load instead of open-loop: keep DEPTH requests \
             outstanding per node (the saturation mode for high-N socket \
             sweeps).")
  in
  let bench_unit =
    Arg.(
      value & opt float 5e-4
      & info [ "unit" ] ~docv:"S" ~doc:"Wall seconds per time unit.")
  in
  let procs =
    Arg.(
      value & opt int 1
      & info [ "procs" ] ~docv:"P"
          ~doc:
            "Fork P processes, each hosting a contiguous slice of the \
             cluster over --uds sockets; all run --duration wall units and \
             grants are summed (needs --uds).")
  in
  let bench_duration =
    Arg.(
      value & opt float 2000.0
      & info [ "duration" ] ~docv:"T"
          ~doc:"Run length in time units for --procs fleet mode.")
  in
  Cmd.v
    (Cmd.info "cluster-bench"
       ~doc:
         "Sweep live clusters over N (in-process loopback by default, \
          --uds for real sockets, --procs for a multi-process fleet) and \
          emit the paper's figure-9 comparison (ring O(N) vs delegated \
          binsearch O(log N)) as stamped CSV, or per-run JSON reports with \
          --json")
    Term.(
      const run $ protocols $ ns_spec $ seed $ grants $ mean $ closed
      $ bench_unit $ shards_arg $ max_wall_arg
      $ Arg.(
          value & flag
          & info [ "json" ] ~doc:"Emit one JSON report per run instead of CSV.")
      $ uds_arg $ procs $ readiness_arg $ spin_arg $ inproc_arg $ pin_arg
      $ bench_duration)

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let run protocol n seed spec backend uds mean deadline unit_s shards json =
    (match Tr_chaos.Scenario.of_string spec with
    | Error e -> die "bad --spec: %s" e
    | Ok s -> (
        match Tr_chaos.Scenario.validate s ~n with
        | Error e -> die "bad --spec: %s" e
        | Ok () -> ()));
    let outcome =
      match backend with
      | "sim" ->
          if uds <> None then die "--uds needs --backend uds";
          Tr_chaos_run.Chaos_run.run_sim ~protocol ~n ~seed ~spec ~mean
            ?deadline ()
      | "loopback" ->
          Tr_chaos_run.Chaos_run.run_live ~protocol ~n ~seed ~spec ~mean
            ?deadline ~unit_s ~shards ()
      | "uds" ->
          let dir =
            match uds with
            | Some d -> d
            | None -> die "--backend uds needs --uds DIR"
          in
          (try
             Tr_chaos_run.Chaos_run.run_live ~protocol ~n ~seed ~spec
               ~backend:
                 (Cluster.Sockets
                    {
                      owned = List.init n Fun.id;
                      addrs = Live_transport.uds_addrs ~dir ~n;
                    })
               ~mean ?deadline ~unit_s ~shards ()
           with Failure msg -> die "%s" msg)
      | b -> die "unknown --backend %S (expected sim, loopback or uds)" b
    in
    if json then print_string (Tr_chaos_run.Chaos_run.outcome_json outcome)
    else begin
      let o = outcome in
      Format.printf
        "chaos %s on %s (%s): %d grants, %d faults injected, %s@."
        o.Tr_chaos_run.Chaos_run.protocol o.Tr_chaos_run.Chaos_run.backend
        o.Tr_chaos_run.Chaos_run.spec o.Tr_chaos_run.Chaos_run.grants
        o.Tr_chaos_run.Chaos_run.total_injected
        (if o.Tr_chaos_run.Chaos_run.recovered then
           Printf.sprintf "recovered %.1f units after faults cleared"
             o.Tr_chaos_run.Chaos_run.recovery_time
         else
           Printf.sprintf "FLAGGED: %d nodes never recovered by t=%.0f"
             o.Tr_chaos_run.Chaos_run.unrecovered_nodes
             o.Tr_chaos_run.Chaos_run.deadline);
      List.iter
        (fun (k, v) -> if v > 0 then Format.printf "  %s=%d@." k v)
        o.Tr_chaos_run.Chaos_run.injected
    end
  in
  let spec_arg =
    let doc =
      Printf.sprintf
        "Fault scenario: '+'-joined windows. Examples: %s."
        (String.concat "; "
           (List.map
              (fun (s, d) -> Printf.sprintf "%s (%s)" s d)
              Tr_chaos.Scenario.examples))
    in
    Arg.(
      value
      & opt string "partition:0-3|4-7@50-150+corrupt:0.02@20-200"
      & info [ "spec" ] ~docv:"SPEC" ~doc)
  in
  let backend_arg =
    Arg.(
      value & opt string "sim"
      & info [ "backend" ] ~docv:"B"
          ~doc:"Backend: sim (discrete-event), loopback (live in-process) \
                or uds (live sockets, needs --uds DIR).")
  in
  let mean_arg =
    Arg.(
      value & opt float 10.0
      & info [ "mean" ] ~docv:"T"
          ~doc:"Background request interarrival while faults are open, units.")
  in
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"T"
          ~doc:"Recovery deadline after the last fault window closes, \
                units (default 40n).")
  in
  let chaos_nodes =
    Arg.(
      value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
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
      const run $ protocol_arg $ chaos_nodes $ seed $ spec_arg $ backend_arg
      $ uds_arg $ mean_arg $ deadline_arg $ unit_arg $ shards_arg
      $ Arg.(value & flag & info [ "json" ] ~doc:"Emit a JSON result line."))

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
