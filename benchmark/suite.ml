(* The repository benchmark: three workloads, each run from one process,
   printing every metric by name and unit and checking the outputs.

     suite.exe [--workload W] [--seed S[,S..|A-B]] [--trace [0|1]]
               [--out FILE] [--smoke] [--seconds RUN_SECONDS]
     suite.exe compare A.json B.json

   Without --trace a pass is untraced and reports the end-to-end
   metrics. With --trace it runs the untraced pass, then the same
   workload again with spans recorded around the suite's calls into each
   layer, then the per-layer micro-benchmarks, and reports the per-layer
   metrics, one reconciliation line and the tracing overhead. Every pass
   measures for BENCHMARK.json's run_seconds (one second under --smoke).
   The last line of standard output is the JSON result of the last
   pass: its metrics are exactly those BENCHMARK.json lists for that
   mode. The suite exits 1 when a check fails and 2 on a usage error. *)

module Explore = Tr_trs.Explore

let out_dir = Filename.concat "benchmark" "out"

type sizes = {
  ring_n : int;
  ring_warm : int;
  ring_clusters : int;
  max_states : int;
  sim_scale : int;
  blocks_per_s : float;
  readiness_fds : int;
}

let full =
  {
    ring_n = 1024;
    ring_warm = 8_192;
    ring_clusters = 16;
    max_states = 100_000;
    sim_scale = 1;
    blocks_per_s = 8.;
    readiness_fds = 3074;
  }

(* Tiny sizes for the smoke alias: every code path and check, in
   seconds. *)
let smoke =
  {
    ring_n = 64;
    ring_warm = 1_000;
    ring_clusters = 2;
    max_states = 2_000;
    sim_scale = 100;
    blocks_per_s = 40.;
    readiness_fds = 256;
  }

(* Layers a workload never calls: their counters are reported as zero
   (the prediction for a bypassed layer is no change). *)
let bypassed = function
  | "svc-ramp" -> [ "sim."; "trs." ]
  | "ring-uds" -> [ "service."; "sim."; "trs." ]
  | _ -> [ "service."; "net_rt."; "wire." ]

let run_pass sizes ~workload ~seed ~seconds ~traced =
  ignore (Explore.reset_peak_rss ());
  let pid = Unix.getpid () in
  (* Socket names live in Linux's abstract namespace: no file is
     created, and the filesystem, whose metadata writes made set-up slow
     and erratic on the reference host, stays out of the measurement. *)
  let sock = Printf.sprintf "\000tokenring-bench-%d.sock" pid in
  let gen_spans (g : Loadgen.t) =
    Option.map (fun t -> t.Loadgen.spans) g.Loadgen.trace
  in
  let r, spans =
    match workload with
    | "svc-ramp" ->
        let r, g = Wl_svc.ramp ~seed ~seconds ~traced ~sock in
        (r, gen_spans g)
    | "ring-uds" ->
        let r, sp =
          Wl_ring.run ~seed ~seconds ~traced
            ~dir:(Printf.sprintf "\000tokenring-bench-%d" pid)
            ~n:sizes.ring_n ~warm:sizes.ring_warm ~clusters:sizes.ring_clusters
        in
        (r, Option.map fst sp)
    | "offline" ->
        Wl_offline.run ~seed ~seconds ~traced ~blocks_per_s:sizes.blocks_per_s
          ~max_states:sizes.max_states ~scale:sizes.sim_scale
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  Report.metric r "failed_frac" "ratio"
    (Report.ratio r.Report.failed r.Report.attempted);
  (r, spans)

(* The metric each workload is judged by when measuring the tracing
   overhead, and whether lower is better. *)
let headline = function
  | "svc-ramp" -> ("latency_p50_ms", true)
  | _ -> ("grants_per_s", false)

let reconcile ~workload ~(base : Report.t) ~(tr : Report.t) spans =
  let f = Report.find in
  match (workload, spans) with
  | "ring-uds", _ ->
      let hop = f tr "net_rt.hop_us_p50" in
      let parts =
        (f tr "wire.encode_ns" +. f tr "wire.decode_ns"
        +. f tr "net_rt.readiness_wait_ns")
        /. 1e3
      in
      Printf.sprintf
        "reconcile ring-uds: hop p50 %.2f us vs 1e6/grants_per_s.wall %.2f us; \
         encode %.3f + decode %.3f + wait %.3f = %.3f us of the %.2f us hop, \
         residual %.2f us (handler, write/read syscalls, timer heap)"
        hop (1e6 /. f tr "grants_per_s.wall") (f tr "wire.encode_ns" /. 1e3)
        (f tr "wire.decode_ns" /. 1e3)
        (f tr "net_rt.readiness_wait_ns" /. 1e3)
        parts hop (hop -. parts)
  | "svc-ramp", _ ->
      let lat = f base "latency_p50_ms" in
      let hops_ms = f base "proto.resp_p50_units" *. Wl_svc.ramp_unit_s *. 1e3 in
      Printf.sprintf
        "reconcile svc-ramp: latency p50 %.2f ms vs Definition 3 \
         responsiveness p50 x 5 ms = %.2f ms, residual %.2f ms (queueing \
         behind leases, switch timing)"
        lat hops_ms (lat -. hops_ms)
  | _, Some sp ->
      let self = Spans.self_times sp in
      let ms name = 1e3 *. Samples.median (Spans.self_samples sp self name) in
      let sum_self name =
        let s = Spans.self_samples sp self name in
        Samples.mean s *. float_of_int (Samples.count s)
      in
      let block = f tr "latency_p50_ms.wall" in
      let kernels = ms "sim.ring" +. ms "sim.binsearch" +. ms "sim.adaptive" in
      Printf.sprintf
        "reconcile offline: wall block p50 %.3f ms = ring %.3f + binsearch %.3f + \
         adaptive %.3f (self p50s, sum %.3f), residual %.3f ms; explore %.2f \
         s = prefix checks %.2f s + explorer self %.2f s"
        block (ms "sim.ring") (ms "sim.binsearch") (ms "sim.adaptive") kernels
        (block -. kernels)
        (sum_self "trs.explore" +. sum_self "specs.prefix")
        (sum_self "specs.prefix") (sum_self "trs.explore")
  | _, None -> "reconcile: no spans"

let traced_pass sizes ~workload ~seed ~seconds =
  let base, _ = run_pass sizes ~workload ~seed ~seconds ~traced:false in
  let tr, spans = run_pass sizes ~workload ~seed ~seconds ~traced:true in
  Micro.run tr ~readiness_fds:sizes.readiness_fds;
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name tr.Report.exact with
      | Some v' ->
          Report.check tr (v = v')
            (Printf.sprintf "%s differs between passes of seed %d: %d vs %d" name
               seed v v')
      | None -> ())
    base.Report.exact;
  let h, lower = headline workload in
  let b = Report.find base h and t = Report.find tr h in
  Report.metric tr "bench.trace_overhead_pct" "%"
    (100. *. if lower then (t /. b) -. 1. else (b /. t) -. 1.);
  Report.line tr "%s" (reconcile ~workload ~base ~tr spans);
  Option.iter
    (fun sp ->
      let path = Filename.concat out_dir (workload ^ ".spans.jsonl") in
      Spans.write sp path;
      Report.line tr "  spans: %d written to %s (%d dropped)" sp.Spans.n path
        sp.Spans.dropped)
    spans;
  (base, tr)

(* The declared metrics of a pass, zero-filled for bypassed layers;
   [Error] names a declared metric the pass did not measure, or measured
   as no finite number. *)
let declared (spec : Spec.t) (r : Report.t) =
  let decls = if r.Report.traced then spec.Spec.per_layer else spec.Spec.end_to_end in
  let skip = bypassed r.Report.workload in
  List.fold_right
    (fun (d : Spec.metric) acc ->
      match acc with
      | Error _ -> acc
      | Ok l -> (
          match List.assoc_opt d.Spec.name r.Report.metrics with
          | Some (v, _) when not (Float.is_finite v) ->
              Error (d.Spec.name ^ " is not a finite number")
          | Some (v, u) when u = d.Spec.unit -> Ok ((d.Spec.name, v, u) :: l)
          | Some (_, u) ->
              Error
                (Printf.sprintf "%s measured in %s, declared in %s" d.Spec.name u
                   d.Spec.unit)
          | None ->
              let bypassed p = String.starts_with ~prefix:p d.Spec.name in
              if List.exists bypassed skip then
                Ok ((d.Spec.name, 0., d.Spec.unit) :: l)
              else Error (d.Spec.name ^ " was not measured")))
    decls (Ok [])

let metrics_json l =
  Bjson.Obj
    (List.map
       (fun (k, v, u) ->
         (k, Bjson.Obj [ ("value", Bjson.Num v); ("unit", Bjson.Str u) ]))
       l)

let print_report (r : Report.t) =
  Printf.printf "== %s seed %d (%s) ==\n" r.Report.workload r.Report.seed
    (if r.Report.traced then "traced" else "untraced");
  List.iter
    (fun (k, (v, u)) -> Printf.printf "  %-34s %14.6g %s\n" k v u)
    (List.sort compare r.Report.metrics);
  List.iter print_endline (List.rev r.Report.lines);
  List.iter (Printf.printf "  CHECK FAILED: %s\n") (List.rev r.Report.failures);
  flush stdout

let run_json (r : Report.t) =
  Bjson.Obj
    [
      ("workload", Bjson.Str r.Report.workload);
      ("seed", Bjson.Num (float_of_int r.Report.seed));
      ("traced", Bjson.Bool r.Report.traced);
      ("correct", Bjson.Bool (r.Report.failures = []));
      ("attempted", Bjson.Num (float_of_int r.Report.attempted));
      ("failed", Bjson.Num (float_of_int r.Report.failed));
      ("failures", Bjson.Arr (List.map (fun s -> Bjson.Str s) r.Report.failures));
      ( "metrics",
        metrics_json
          (List.rev_map (fun (k, (v, u)) -> (k, v, u)) r.Report.metrics) );
    ]

let usage () =
  prerr_endline
    "usage: suite.exe [--workload W] [--seed S[,S..|A-B]] [--trace [0|1]]\n\
    \                 [--out FILE] [--smoke] [--seconds RUN_SECONDS]\n\
    \       suite.exe compare A.json B.json";
  exit 2

let parse_seeds s =
  match String.split_on_char '-' s with
  | [ a; b ] ->
      let a = int_of_string a and b = int_of_string b in
      List.init (b - a + 1) (fun i -> a + i)
  | _ -> List.map int_of_string (String.split_on_char ',' s)

(* One pass of one workload and seed, in this process; [true] when every
   check held. Its JSON result line is the last line it prints. *)
let run_one spec sizes ~workload ~seed ~seconds ~traced =
  let passes, shown =
    if traced then
      let base, tr = traced_pass sizes ~workload ~seed ~seconds in
      ([ base; tr ], tr)
    else
      let r, _ = run_pass sizes ~workload ~seed ~seconds ~traced:false in
      ([ r ], r)
  in
  List.iter print_report passes;
  let correct = List.for_all (fun (r : Report.t) -> r.Report.failures = []) passes in
  let metrics, correct =
    match declared spec shown with
    | Ok l -> (l, correct)
    | Error e ->
        Printf.printf "  CHECK FAILED: %s\n" e;
        ([], false)
  in
  print_endline
    (Bjson.to_json
       (Bjson.Obj
          [
            ("correct", Bjson.Bool correct);
            ("attempted", Bjson.Num (float_of_int (Stdlib.max 1 shown.Report.attempted)));
            ("failed", Bjson.Num (float_of_int shown.Report.failed));
            ("metrics", metrics_json metrics);
          ]));
  flush stdout;
  (List.map run_json passes, correct)

(* Each (workload, seed) pass runs in a fresh process of this program,
   so that its peak resident set and its heap owe nothing to the passes
   before it. The child writes its runs to a part file, merged here. *)
let run_child ~workload ~seed ~traced ~smoke =
  let part = Filename.concat out_dir (Printf.sprintf "%s-%d.part.json" workload seed) in
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed; "--out"; part ]
    @ (if traced then [ "--trace"; "1" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  flush stdout;
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let runs = try Compare.runs part with Sys_error _ | Bjson.Parse_error _ -> [] in
  (try Sys.remove part with Sys_error _ -> ());
  (runs, status = Unix.WEXITED 0 && runs <> [])

let main spec args =
  let workloads = ref [] and seeds = ref [ 1 ] in
  let traced = ref false and out = ref (Filename.concat out_dir "results.json") in
  let smoke_run = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem w spec.Spec.workloads) then usage ();
        workloads := !workloads @ [ w ];
        parse rest
    | "--seed" :: s :: rest ->
        seeds := (try parse_seeds s with Failure _ -> usage ());
        parse rest
    (* The run length is BENCHMARK.json's run_seconds, which the bounds
       were calibrated at; callers may pass it, but no other value. *)
    | "--seconds" :: s :: rest ->
        if int_of_string_opt s <> Some spec.Spec.run_seconds then begin
          Printf.eprintf "--seconds must be run_seconds from %s, %d\n" Spec.path
            spec.Spec.run_seconds;
          usage ()
        end;
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        traced := v = "1";
        parse rest
    | "--trace" :: rest ->
        traced := true;
        parse rest
    | "--out" :: f :: rest ->
        out := f;
        parse rest
    | "--smoke" :: rest ->
        smoke_run := true;
        parse rest
    | _ -> usage ()
  in
  parse args;
  let workloads = if !workloads = [] then spec.Spec.workloads else !workloads in
  let sizes, seconds =
    if !smoke_run then (smoke, 1.) else (full, float_of_int spec.Spec.run_seconds)
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let passes =
    List.concat_map (fun seed -> List.map (fun w -> (w, seed)) workloads) !seeds
  in
  let results, ok =
    match passes with
    | [ (workload, seed) ] ->
        run_one spec sizes ~workload ~seed ~seconds ~traced:!traced
    | _ ->
        List.fold_left
          (fun (runs, ok) (workload, seed) ->
            let r, ok' =
              run_child ~workload ~seed ~traced:!traced ~smoke:!smoke_run
            in
            (runs @ r, ok && ok'))
          ([], true) passes
  in
  let oc = open_out !out in
  output_string oc
    (Bjson.to_json
       (Bjson.Obj
          [
            ( "host",
              Bjson.Obj
                [
                  ("nproc", Bjson.Num (float_of_int (Tr_net_rt.Readiness.ncpus ())));
                  ("ocaml", Bjson.Str Sys.ocaml_version);
                ] );
            ("seconds", Bjson.Num seconds);
            ("runs", Bjson.Arr results);
          ]));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "results written to %s\n%!" !out;
  if ok then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let spec =
    try Spec.load ()
    with Sys_error e | Bjson.Parse_error e ->
      prerr_endline ("cannot read " ^ Spec.path ^ ": " ^ e);
      exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> exit (Compare.run spec a b)
  | args -> exit (main spec args)
