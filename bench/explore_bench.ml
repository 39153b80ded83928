(* The explorer at scale -> BENCH_explore.json.

   One committed artefact answering three questions about the parallel,
   memory-bounded exploration engine:

   - throughput: states/s on a >= 10^6-state spec instance (BinarySearch
     n=3, the largest system in the refinement chain) for D in {1, 2, 4};
   - speedup: wall-clock vs the D=1 baseline (the same engine on one
     domain, run on the caller). On a 1-core container the extra domains
     only timeshare, so ~1.0x is the honest expectation there; the
     speedup column means something on multi-core hosts only;
   - memory bounding: the same instance in spill mode (frontier layers
     streamed through temp files chunk by chunk, visited keys compacted
     to 16-byte digests) against the in-memory run's peak RSS.

   Each config runs in a forked child process. OCaml's heap never
   shrinks, so in one process every run after the first would inherit
   the previous run's resident set and peak-RSS resets could never go
   below it — fork is the only way to get a true per-run high-water
   mark. The child ships a slim scalar row back through a temp file.

   Usage: dune exec bench/explore_bench.exe [-- --quick]
   --quick shrinks the cap to 20k states for CI smoke runs. *)

module E = Tr_trs.Explore

let quick = Array.exists (String.equal "--quick") Sys.argv

let system_name = "BinarySearch"
let n = 3
let data_budget = 1
let cap = if quick then 20_000 else 1_000_000

type row = {
  config : string;
  domains : int;
  states : int;
  transitions : int;
  max_depth : int;
  truncated : bool;
  wall_s : float;
  states_per_s : float;
  peak_rss_kb : int;
  rss_reset : bool;  (* peak RSS re-armed before this run? *)
  spilled_layers : int;
  spilled_bytes : int;
}

let run ~config ~domains ?spill_dir () =
  Format.eprintf "explore-bench: %s, %d domain(s), cap %d...@." config domains
    cap;
  let rss_reset = E.reset_peak_rss () in
  let system = Tr_specs.System_binsearch.system ~n in
  let init = Tr_specs.System_binsearch.initial ~n ~data_budget in
  let o = E.explore ~max_states:cap ~domains ?spill_dir system ~init in
  Format.eprintf "  %d states in %.2f s (%.0f states/s), peak RSS %d kB%s@."
    o.E.stats.E.states o.E.perf.E.wall_s o.E.perf.E.states_per_s
    o.E.perf.E.peak_rss_kb
    (if rss_reset then "" else " (cumulative: RSS reset unavailable)");
  {
    config;
    domains;
    states = o.E.stats.E.states;
    transitions = o.E.stats.E.transitions;
    max_depth = o.E.stats.E.max_depth;
    truncated = o.E.stats.E.truncated;
    wall_s = o.E.perf.E.wall_s;
    states_per_s = o.E.perf.E.states_per_s;
    peak_rss_kb = o.E.perf.E.peak_rss_kb;
    rss_reset;
    spilled_layers = o.E.perf.E.spilled_layers;
    spilled_bytes = o.E.perf.E.spilled_bytes;
  }

(* Run one config in a forked child so its peak RSS is measured against
   a fresh heap, and read the row back through a temp file. *)
let run_forked ~config ~domains ?spill_dir () =
  let path = Filename.temp_file "tr-explore-bench-" ".row" in
  match Unix.fork () with
  | 0 ->
      let code =
        match run ~config ~domains ?spill_dir () with
        | row ->
            let oc = open_out_bin path in
            Marshal.to_channel oc row [];
            close_out oc;
            0
        | exception e ->
            Format.eprintf "  bench child failed: %s@." (Printexc.to_string e);
            1
      in
      exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 ->
          let ic = open_in_bin path in
          let row = (Marshal.from_channel ic : row) in
          close_in ic;
          Sys.remove path;
          row
      | _ ->
          (try Sys.remove path with Sys_error _ -> ());
          failwith (config ^ ": bench child failed"))

let () =
  (* Explicit sequencing: list literals evaluate right-to-left, and the
     runs should execute (and narrate) in the order they are reported. *)
  let d1 = run_forked ~config:"in-memory" ~domains:1 () in
  let d2 = run_forked ~config:"in-memory" ~domains:2 () in
  let d4 = run_forked ~config:"in-memory" ~domains:4 () in
  let spill =
    run_forked ~config:"spill" ~domains:2
      ~spill_dir:(Filename.get_temp_dir_name ())
      ()
  in
  let rows = [ d1; d2; d4; spill ] in
  let base_wall = match rows with r :: _ -> r.wall_s | [] -> 1.0 in
  let row_json r =
    Printf.sprintf
      {|    { "config": %S, "domains": %d, "states": %d, "transitions": %d,
      "max_depth": %d, "truncated": %b, "wall_s": %.3f, "states_per_s": %.0f,
      "speedup_vs_1": %.2f, "peak_rss_kb": %d, "rss_reset": %b,
      "spilled_layers": %d, "spilled_bytes": %d }|}
      r.config r.domains r.states r.transitions r.max_depth r.truncated
      r.wall_s r.states_per_s (base_wall /. r.wall_s) r.peak_rss_kb r.rss_reset
      r.spilled_layers r.spilled_bytes
  in
  let json =
    Printf.sprintf
      {|{
  "host": { "cores": %d, "recommended_domains": %d, "ocaml": %S },
  "mode": %S,
  "instance": { "system": %S, "n": %d, "data_budget": %d, "max_states": %d },
  "note": "Visited sets, stats and violations are identical across all configs (deterministic layer-synchronous merge). speedup_vs_1 is wall(D=1)/wall(D): on a 1-core container the domains timeshare one core, so ~1.0x (or slightly below, from the merge and pool overhead) is the honest reading there; the column measures parallelism only on multi-core hosts. Each config runs in a forked child process so peak_rss_kb is a true per-run high-water mark (OCaml's heap never shrinks, so a shared process would carry the largest earlier run's RSS forward). Spill mode bounds term-graph residency by streaming frontier layers through disk chunk by chunk and compacting visited keys to 16-byte digests (collision odds ~1e-25 at 10^6 states); its peak_rss_kb vs the in-memory runs is the memory-bounding claim.",
  "runs": [
%s
  ]
}
|}
      (Domain.recommended_domain_count ())
      (Tr_sim.Pool.default_domains ())
      Sys.ocaml_version
      (if quick then "quick" else "full")
      system_name n data_budget cap
      (String.concat ",\n" (List.map row_json rows))
  in
  let oc = open_out "BENCH_explore.json" in
  output_string oc json;
  close_out oc;
  Format.printf "wrote BENCH_explore.json (%s mode)@."
    (if quick then "quick" else "full")
