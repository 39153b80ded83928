(* One-call chaos runs: a protocol under a declarative fault scenario,
   on either backend, with the same probe-based recovery measurement.

   The shape is identical on both sides so the outcomes table cleanly:
   background load arrives every [mean] units while the fault windows
   are open; when the last window clears, every node gets one probe
   request; recovery is the instant the last probed node drains its
   queue (its probe — and any backlog the faults piled up — served).
   A run that leaves a probed node unserved past the deadline is
   flagged: the protocol did not self-stabilize out of that fault. *)

module Scenario = Tr_chaos.Scenario
module Injector = Tr_chaos.Injector
module Monitor = Tr_chaos.Monitor
module Engine = Tr_sim.Engine
module Metrics = Tr_sim.Metrics
module Cluster = Tr_net_rt.Cluster
module Codecs = Tr_wire.Codecs

type outcome = {
  protocol : string;
  backend : string;  (** ["sim"], ["loopback"] or ["unix"]. *)
  spec : string;
  seed : int;
  n : int;
  clear_time : float;
  deadline : float;  (** Absolute recovery deadline, units. *)
  duration : float;  (** Virtual time the run actually covered. *)
  grants : int;
  grant_latency_mean : float;
  grant_latency_p99 : float;
  recovered : bool;
  recovery_time : float;  (** [nan] when not recovered. *)
  flagged : bool;
  unrecovered_nodes : int;
  injected : (string * int) list;
  total_injected : int;
  digest : int;
  corrupt_frames_detected : int;  (** Live backends only; [0] in sim. *)
}

let default_deadline ~n = 40.0 *. float_of_int n

let prepare ~n ~seed ~spec ~deadline =
  let scenario = Scenario.of_string_exn spec in
  (match Scenario.validate scenario ~n with
  | Ok () -> ()
  | Error e -> invalid_arg ("Chaos_run: " ^ e));
  let clear = Scenario.clear_time scenario in
  let deadline_abs = clear +. deadline in
  ( scenario,
    clear,
    deadline_abs,
    Injector.create ~seed ~n scenario,
    Monitor.create ~n ~clear_time:clear ~deadline:deadline_abs )

let finish ~protocol ~backend ~spec ~seed ~n ~clear ~deadline_abs ~duration
    ~grants ~metrics ~corrupt_frames_detected inj monitor =
  let waiting = Metrics.waiting metrics in
  let q = Metrics.waiting_quantiles metrics in
  {
    protocol;
    backend;
    spec;
    seed;
    n;
    clear_time = clear;
    deadline = deadline_abs;
    duration;
    grants;
    grant_latency_mean = Tr_stats.Summary.mean waiting;
    grant_latency_p99 = Tr_stats.Quantile.quantile q 0.99;
    recovered = Monitor.recovered monitor;
    recovery_time =
      (match Monitor.recovery_time monitor with Some t -> t | None -> Float.nan);
    flagged = Monitor.flagged monitor ~now:duration;
    unrecovered_nodes = List.length (Monitor.pending_nodes monitor);
    injected = Injector.counts inj;
    total_injected = Injector.total_injected inj;
    digest = Injector.schedule_digest inj;
    corrupt_frames_detected;
  }

(* ---------------- simulator backend ---------------- *)

let run_sim ~protocol ~n ~seed ~spec ?(mean = 10.0) ?deadline () =
  let deadline = match deadline with Some d -> d | None -> default_deadline ~n in
  let scenario, clear, deadline_abs, inj, monitor =
    prepare ~n ~seed ~spec ~deadline
  in
  ignore scenario;
  (* Scripted pre-clear load: one request every [mean] units at a
     seed-chosen node — scripted rather than Poisson so the arrival
     stream stops exactly at [clear] and the post-clear drain is pure
     probe recovery. *)
  let rng = Tr_sim.Rng.create ((seed * 48611) + 7) in
  let arrivals =
    let rec gen t acc =
      if t >= clear then List.rev acc
      else gen (t +. mean) ((t, Tr_sim.Rng.int rng n) :: acc)
    in
    gen mean []
  in
  let config =
    {
      (Engine.default_config ~n ~seed) with
      workload = Tr_sim.Workload.Script arrivals;
      chaos = Some inj;
    }
  in
  let (Codecs.Packed ((module P), _codec)) = Codecs.find_exn protocol in
  let module E = Engine.Make (P) in
  let t = E.create config in
  E.run t ~stop:(Engine.At_time clear);
  for i = 0 to n - 1 do
    Monitor.note_probe monitor ~node:i;
    E.request_now t ~node:i
  done;
  (* Step to the deadline in unit slices, timestamping each node's drain
     as it happens (slice-sized granularity). *)
  let slice = Float.max 0.5 ((deadline_abs -. clear) /. 400.0) in
  let now = ref clear in
  while (not (Monitor.recovered monitor)) && !now < deadline_abs do
    now := Float.min deadline_abs (!now +. slice);
    E.run t ~stop:(Engine.At_time !now);
    List.iter
      (fun i ->
        if Metrics.pending (E.metrics t) ~node:i = 0 then
          Monitor.note_serve monitor ~now:!now ~node:i)
      (Monitor.pending_nodes monitor)
  done;
  finish ~protocol ~backend:"sim" ~spec ~seed ~n ~clear ~deadline_abs
    ~duration:!now
    ~grants:(Metrics.serves (E.metrics t))
    ~metrics:(E.metrics t) ~corrupt_frames_detected:0 inj monitor

(* ---------------- live backends ---------------- *)

let run_live ~protocol ~n ~seed ~spec ?backend ?(mean = 10.0) ?deadline
    ?(unit_s = 2e-4) ?(shards = 0) () =
  let deadline = match deadline with Some d -> d | None -> default_deadline ~n in
  let scenario, clear, deadline_abs, inj, monitor =
    prepare ~n ~seed ~spec ~deadline
  in
  ignore scenario;
  let config =
    {
      (Cluster.default_config ~n ~seed) with
      unit_s;
      load = Cluster.External;
      stop = Cluster.Duration (deadline_abs +. 2.0);
      max_wall_s = Float.max 60.0 ((deadline_abs +. 2.0) *. unit_s *. 20.0);
      chaos = Some inj;
    }
  in
  let config = if shards > 0 then { config with shards } else config in
  let driver = ref None in
  let attach (control : Cluster.control) =
    driver :=
      Some
        (Domain.spawn (fun () ->
             let rng = Random.State.make [| seed; 0xc4a05 |] in
             let tick = Float.max 1e-4 (unit_s /. 2.0) in
             (* Pre-clear background load, one request per [mean] units. *)
             let next = ref mean in
             while control.Cluster.live_now () < clear do
               let now = control.Cluster.live_now () in
               if now >= !next then begin
                 control.Cluster.inject (Random.State.int rng n);
                 next := !next +. mean
               end
               else Unix.sleepf tick
             done;
             (* Probes: one request per node the instant faults clear. *)
             for i = 0 to n - 1 do
               Monitor.note_probe monitor ~node:i;
               control.Cluster.inject i
             done;
             (* Poll for drain until recovery or the deadline passes. *)
             let rec poll () =
               let now = control.Cluster.live_now () in
               List.iter
                 (fun i ->
                   if control.Cluster.pending_at i = 0 then
                     Monitor.note_serve monitor ~now ~node:i)
                 (Monitor.pending_nodes monitor);
               if Monitor.recovered monitor || now >= deadline_abs then
                 control.Cluster.request_stop ()
               else begin
                 Unix.sleepf tick;
                 poll ()
               end
             in
             poll ()))
  in
  let (Codecs.Packed ((module P), codec)) = Codecs.find_exn protocol in
  let report = Cluster.run ~attach ?backend config (module P) codec in
  Option.iter Domain.join !driver;
  finish ~protocol ~backend:report.Cluster.backend ~spec ~seed ~n ~clear
    ~deadline_abs
    ~duration:report.Cluster.duration_units
    ~grants:report.Cluster.grants ~metrics:report.Cluster.metrics
    ~corrupt_frames_detected:report.Cluster.corrupt_frames_detected inj monitor

(* ---------------- export ---------------- *)

let outcome_json (o : outcome) =
  let open Tr_stats.Json in
  obj
    [
      ("kind", json_string "chaos_run");
      ("protocol", json_string o.protocol);
      ("backend", json_string o.backend);
      ("spec", json_string o.spec);
      ("seed", string_of_int o.seed);
      ("n", string_of_int o.n);
      ("clear_time", json_float o.clear_time);
      ("deadline", json_float o.deadline);
      ("duration_units", json_float o.duration);
      ("grants", string_of_int o.grants);
      ("grant_latency_mean", json_float o.grant_latency_mean);
      ("grant_latency_p99", json_float o.grant_latency_p99);
      ("recovered", if o.recovered then "true" else "false");
      ("recovery_time", json_float o.recovery_time);
      ("flagged", if o.flagged then "true" else "false");
      ("unrecovered_nodes", string_of_int o.unrecovered_nodes);
      ( "injected",
        obj (List.map (fun (k, v) -> (k, string_of_int v)) o.injected) );
      ("total_injected", string_of_int o.total_injected);
      ("schedule_digest", string_of_int o.digest);
      ("corrupt_frames_detected", string_of_int o.corrupt_frames_detected);
    ]
  ^ "\n"
