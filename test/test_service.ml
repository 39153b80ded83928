(* Service-layer tests: client wire codec round-trips and fuzz, the
   adaptive switching policy, loadgen config validation, and a live
   two-process UDS mutex run asserting the lock discipline holds across
   a node kill. *)

module Movement = Tr_apps.Movement
module Frame = Tr_wire.Frame
module Codec = Tr_wire.Codec
module Network = Tr_sim.Network
module Wire = Tr_service.Service_wire
module App_codecs = Tr_service.App_codecs
module Policy = Tr_service.Policy
module Slo = Tr_service.Slo
module Server = Tr_service.Server
module Client = Tr_service.Client

(* ---------------- generators ---------------- *)

let any_int =
  QCheck.Gen.oneof
    [
      QCheck.Gen.int_range (-1000) 1000;
      QCheck.Gen.oneofl [ min_int; min_int + 1; max_int; max_int - 1; 0; -1; 1 ];
      QCheck.Gen.map2
        (fun h l -> (h lsl 32) lxor l)
        (QCheck.Gen.int_range (-0x40000000) 0x3FFFFFFF)
        (QCheck.Gen.int_range 0 0xFFFFFFFF);
    ]

let small_nat = QCheck.Gen.int_range 0 512
let channel_gen = QCheck.Gen.oneofl [ Network.Reliable; Network.Cheap ]
let mode_gen = QCheck.Gen.oneofl [ Movement.Search; Movement.Rotate ]

let payload_gen =
  QCheck.Gen.string_size ~gen:QCheck.Gen.printable (QCheck.Gen.int_range 0 64)

let request_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun client -> Wire.Hello { client }) small_nat;
      QCheck.Gen.map2
        (fun client seq -> Wire.Acquire { client; seq })
        small_nat any_int;
      QCheck.Gen.map2
        (fun client seq -> Wire.Release { client; seq })
        small_nat any_int;
      QCheck.Gen.map3
        (fun client seq payload -> Wire.Publish { client; seq; payload })
        small_nat any_int payload_gen;
    ]

let response_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map2
        (fun client node -> Wire.Welcome { client; node })
        small_nat small_nat;
      QCheck.Gen.map2
        (fun client seq -> Wire.Grant { client; seq })
        small_nat any_int;
      QCheck.Gen.map2
        (fun client seq -> Wire.Released { client; seq })
        small_nat any_int;
      QCheck.Gen.map3
        (fun client seq global_seq -> Wire.Committed { client; seq; global_seq })
        small_nat any_int any_int;
      QCheck.Gen.map3
        (fun client seq reason -> Wire.Rejected { client; seq; reason })
        small_nat any_int payload_gen;
    ]

let mutex_gen =
  let open Tr_apps.Mutex in
  QCheck.Gen.oneof
    [
      QCheck.Gen.map3
        (fun stamp mode idle_hops -> Token { stamp; mode; idle_hops })
        any_int mode_gen small_nat;
      QCheck.Gen.map (fun stamp -> Loan { stamp }) any_int;
      QCheck.Gen.map (fun stamp -> Return { stamp }) any_int;
      QCheck.Gen.map3
        (fun requester span stamp -> Gimme { requester; span; stamp })
        small_nat small_nat any_int;
    ]

let total_order_gen =
  let open Tr_apps.Total_order in
  QCheck.Gen.oneof
    [
      QCheck.Gen.map3
        (fun (stamp, next_seq) mode idle_hops ->
          Token { stamp; next_seq; mode; idle_hops })
        (QCheck.Gen.pair any_int any_int)
        mode_gen small_nat;
      QCheck.Gen.map2
        (fun stamp next_seq -> Loan { stamp; next_seq })
        any_int any_int;
      QCheck.Gen.map2
        (fun stamp next_seq -> Return { stamp; next_seq })
        any_int any_int;
      QCheck.Gen.map3
        (fun requester span stamp -> Gimme { requester; span; stamp })
        small_nat small_nat any_int;
      QCheck.Gen.map3
        (fun seq origin origin_seq ->
          Bcast { seq; payload = { origin; origin_seq } })
        any_int small_nat any_int;
    ]

(* ---------------- round-trips through the chunked decoder ---------- *)

let roundtrip_test (type m) name (codec : m Codec.t) (msg_gen : m QCheck.Gen.t)
    =
  let case_gen =
    QCheck.Gen.quad
      (QCheck.Gen.int_range 0 10_000)
      channel_gen msg_gen
      (QCheck.Gen.int_range 1 64)
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: envelope round-trips" name)
    ~count:300 (QCheck.make case_gen)
    (fun (src, channel, msg, chunk) ->
      let frame = Codec.encode_envelope codec ~src ~channel msg in
      let dec = Frame.Decoder.create () in
      let len = String.length frame in
      let pos = ref 0 in
      let result = ref None in
      while !pos < len do
        let k = Stdlib.min chunk (len - !pos) in
        Frame.Decoder.feed dec (String.sub frame !pos k);
        pos := !pos + k;
        match Frame.Decoder.next dec with
        | Frame.Decoder.Frame payload -> result := Some payload
        | Frame.Decoder.Await | Frame.Decoder.Skip _ -> ()
      done;
      match !result with
      | None -> false
      | Some payload -> (
          match Codec.decode_envelope codec payload with
          | Ok e ->
              e.Codec.src = src && e.Codec.channel = channel && e.Codec.msg = msg
          | Error _ -> false))

(* ---------------- fuzz: decoding never raises ---------------- *)

let fuzz_codec_test (type m) name (codec : m Codec.t) (msg_gen : m QCheck.Gen.t)
    =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: truncation/garbage decode cleanly" name)
    ~count:300
    (QCheck.make
       (QCheck.Gen.triple msg_gen
          (QCheck.Gen.int_range 0 50)
          (QCheck.Gen.string_size ~gen:QCheck.Gen.char
             (QCheck.Gen.int_range 0 60))))
    (fun (msg, cut, junk) ->
      let frame = Codec.encode_envelope codec ~src:3 ~channel:Network.Reliable msg in
      (* Every strict prefix of the payload must decode to Error, never
         raise. *)
      let truncated =
        String.sub frame 0 (Stdlib.min cut (String.length frame - 1))
      in
      (match Codec.decode_envelope codec truncated with
      | Ok _ -> ()
      | Error _ -> ());
      (* Garbage through the stream decoder: skips or awaits, no raise.
         A synced leading frame always survives whatever trails it. *)
      let dec = Frame.Decoder.create () in
      Frame.Decoder.feed dec (frame ^ junk);
      let first = ref None in
      let rec drain () =
        match Frame.Decoder.next dec with
        | Frame.Decoder.Frame payload ->
            if !first = None then first := Some payload;
            drain ()
        | Frame.Decoder.Skip _ -> drain ()
        | Frame.Decoder.Await -> ()
      in
      drain ();
      match !first with
      | None -> false
      | Some payload -> (
          match Codec.decode_envelope codec payload with
          | Ok e -> e.Codec.msg = msg
          | Error _ -> false))

let wire_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      roundtrip_test "service-request" Wire.request_codec request_gen;
      roundtrip_test "service-response" Wire.response_codec response_gen;
      roundtrip_test "app-mutex" App_codecs.mutex mutex_gen;
      roundtrip_test "app-total-order" App_codecs.total_order total_order_gen;
      fuzz_codec_test "service-request" Wire.request_codec request_gen;
      fuzz_codec_test "service-response" Wire.response_codec response_gen;
      fuzz_codec_test "app-mutex" App_codecs.mutex mutex_gen;
      fuzz_codec_test "app-total-order" App_codecs.total_order total_order_gen;
    ]

let test_wire_keys_disjoint () =
  (* Client-facing keys must never collide with the protocol registry:
     a client frame hitting a cluster port has to fail loudly. *)
  let registry_keys =
    List.map (fun (Tr_wire.Codecs.Packed (_, c)) -> c.Codec.key) Tr_wire.Codecs.all
  in
  List.iter
    (fun key ->
      Alcotest.(check bool)
        (Printf.sprintf "key %d not in registry" key)
        false
        (List.mem key registry_keys))
    [
      Wire.request_codec.Codec.key;
      Wire.response_codec.Codec.key;
      App_codecs.mutex.Codec.key;
      App_codecs.total_order.Codec.key;
    ]

(* ---------------- policy ---------------- *)

let policy_cfg =
  {
    (Policy.default_config ~n:8 ~hop_s:1.0) with
    Policy.window_s = 100.;
    hi = 2.0;
    lo = 0.75;
  }

let test_policy_switches_up_and_down () =
  let p = Policy.create policy_cfg in
  Alcotest.(check string)
    "starts in search" "search"
    (Movement.mode_to_string (Policy.mode p));
  (* 10 requests per unit, fed past the window boundary so it rolls:
     per_rev = 10*8 = 80 >> hi. *)
  for i = 1 to 1100 do
    Policy.note_request p ~now:(0.1 *. float_of_int i)
  done;
  Alcotest.(check string)
    "heavy load rotates" "rotate"
    (Movement.mode_to_string (Policy.mode p));
  (* Idle ticks decay the estimate back through lo. *)
  Policy.tick p ~now:300.;
  Policy.tick p ~now:500.;
  Alcotest.(check string)
    "idle returns to search" "search"
    (Movement.mode_to_string (Policy.mode p));
  let switches = Policy.switches p in
  Alcotest.(check int) "two switches" 2 (List.length switches);
  (match switches with
  | [ up; down ] ->
      Alcotest.(check string)
        "up is search->rotate" "rotate"
        (Movement.mode_to_string up.Policy.to_mode);
      Alcotest.(check string)
        "down is rotate->search" "search"
        (Movement.mode_to_string down.Policy.to_mode);
      Alcotest.(check bool) "ordered" true (up.Policy.at < down.Policy.at)
  | _ -> Alcotest.fail "expected exactly two switch events")

let test_policy_hysteresis_band () =
  (* A rate between lo and hi must never flip the mode in either
     direction — that band is what stops thrashing at the crossover. *)
  let p = Policy.create policy_cfg in
  (* per_rev = rate * n * hop = 0.15 * 8 = 1.2, inside [0.75, 2.0]. *)
  for i = 1 to 150 do
    Policy.note_request p ~now:(float_of_int i /. 0.15)
  done;
  Alcotest.(check string)
    "stays in search inside the band" "search"
    (Movement.mode_to_string (Policy.mode p));
  Alcotest.(check int) "no switches" 0 (List.length (Policy.switches p))

let test_policy_directive () =
  let p = Policy.create { policy_cfg with Policy.park_after = Some 16 } in
  let d = Policy.directive p () in
  Alcotest.(check bool)
    "search directive parks" true
    (d.Movement.mode = Movement.Search && d.Movement.park_after = Some 16);
  for i = 1 to 1100 do
    Policy.note_request p ~now:(0.1 *. float_of_int i)
  done;
  let d = Policy.directive p () in
  Alcotest.(check bool)
    "rotate directive never parks" true
    (d.Movement.mode = Movement.Rotate && d.Movement.park_after = None)

let test_policy_rejects_inverted_band () =
  Alcotest.check_raises "hi <= lo rejected"
    (Invalid_argument "Policy.create: need hi > lo for hysteresis") (fun () ->
      ignore (Policy.create { policy_cfg with Policy.hi = 0.5; lo = 0.75 }))

(* ---------------- SLO accumulator ---------------- *)

let test_slo_percentiles () =
  let slo = Slo.create () in
  for i = 1 to 1000 do
    Slo.note_started slo;
    Slo.note_latency slo ~kind:`Grant (float_of_int i /. 1000.)
  done;
  let s = Slo.snapshot slo in
  Alcotest.(check int) "samples" 1000 s.Slo.samples;
  Alcotest.(check int) "grants" 1000 s.Slo.grants;
  Alcotest.(check bool) "p50 near 0.5" true (Float.abs (s.Slo.p50 -. 0.5) < 0.05);
  Alcotest.(check bool) "p99 near 0.99" true (Float.abs (s.Slo.p99 -. 0.99) < 0.05);
  Alcotest.(check bool) "ordered" true (s.Slo.p50 <= s.Slo.p99);
  Alcotest.(check string) "NaN renders as dash" "-"
    (Format.asprintf "%a" Slo.pp_ms Float.nan)

(* ---------------- loadgen config validation ---------------- *)

let lg_base =
  Client.default_config ~connect:(Unix.ADDR_UNIX "/tmp/nonexistent.sock")
    ~clients:10

let expect_invalid name cfg =
  match Client.validate cfg with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_loadgen_validation () =
  Client.validate lg_base;
  expect_invalid "zero clients" { lg_base with Client.clients = 0 };
  expect_invalid "conns > clients" { lg_base with Client.conns = 11 };
  expect_invalid "zero conns" { lg_base with Client.conns = 0 };
  expect_invalid "no phases" { lg_base with Client.phases = [] };
  expect_invalid "inverted duration"
    {
      lg_base with
      Client.phases =
        [ { Client.duration_s = -1.0; workload = Client.Closed { think_s = 0. } } ];
    };
  expect_invalid "negative think"
    {
      lg_base with
      Client.phases =
        [ { Client.duration_s = 1.0; workload = Client.Closed { think_s = -0.1 } } ];
    };
  expect_invalid "non-positive rate"
    {
      lg_base with
      Client.phases =
        [ { Client.duration_s = 1.0; workload = Client.Open { rate = 0. } } ];
    }

let test_server_rejects_internal_load () =
  let cfg =
    Server.default_config ~n:4 ~seed:1 ~listen:(Unix.ADDR_UNIX "/tmp/x.sock")
  in
  let cfg =
    {
      cfg with
      Server.cluster =
        {
          cfg.Server.cluster with
          Tr_net_rt.Cluster.load = Tr_net_rt.Cluster.No_load;
        };
    }
  in
  match Server.run cfg with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A config the cluster rejects must surface as the cluster's own
   exception, not leave [Server.run] waiting for a control handle that
   never comes. The run goes on its own domain so a regression fails the
   test instead of hanging it; the suite runs it after the forking live
   test, since OCaml 5 refuses [fork] while other domains run. *)
let test_server_surfaces_cluster_error () =
  let cfg =
    Server.default_config ~n:1 ~seed:1
      ~listen:(Unix.ADDR_UNIX "/tmp/tr-test-n1.sock")
  in
  let result = Atomic.make None in
  let _ : unit Domain.t =
    Domain.spawn (fun () ->
        Atomic.set result
          (Some
             (match Server.run cfg with
             | _ -> Error "Server.run returned"
             | exception Invalid_argument msg -> Ok msg
             | exception e -> Error (Printexc.to_string e))))
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec await () =
    match Atomic.get result with
    | Some r -> r
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "Server.run with n=1 still running after 5 s";
        Unix.sleepf 0.01;
        await ()
  in
  match await () with
  | Ok msg -> Alcotest.(check string) "cluster's message" "Cluster.run: n < 2" msg
  | Error e -> Alcotest.fail e

(* ---------------- live: lock discipline across a node kill ---------- *)

(* The child process drives [clients] closed-loop mutex clients over ONE
   connection. Responses on one connection arrive in server send order,
   so the lock discipline is directly observable as an alternation
   property of the stream: a Grant may only arrive when nobody holds the
   lease, and a Released must match the current holder. *)
let mutex_discipline_child ~sock_path ~clients ~run_s ~out_fd =
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.05;
        connect (tries - 1)
  in
  let fd = connect 100 in
  let scratch = Codec.scratch () in
  let send client msg =
    let buf =
      Codec.encode_frame scratch Wire.request_codec ~src:client
        ~channel:Network.Reliable msg
    in
    let s = Buffer.contents buf in
    let n = Unix.write_substring fd s 0 (String.length s) in
    assert (n = String.length s)
  in
  for client = 0 to clients - 1 do
    send client (Wire.Acquire { client; seq = 0 })
  done;
  let next_seq = Array.make clients 1 in
  let dec = Frame.Decoder.create () in
  let buf = Bytes.create 65536 in
  let holder = ref None in
  let grants = ref 0 and violations = ref 0 in
  let deadline = Unix.gettimeofday () +. run_s in
  (try
     while Unix.gettimeofday () < deadline do
       let readable, _, _ =
         Unix.select [ fd ] [] [] (Float.max 0.05 (deadline -. Unix.gettimeofday ()))
       in
       if readable <> [] then begin
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> raise Exit
         | len ->
             Frame.Decoder.feed_sub dec buf ~pos:0 ~len;
             let continue = ref true in
             while !continue do
               match Frame.Decoder.next_view dec with
               | Frame.Decoder.Await_view -> continue := false
               | Frame.Decoder.Skip_view _ -> incr violations
               | Frame.Decoder.View v -> (
                   match Codec.decode_view Wire.response_codec v with
                   | Error _ -> incr violations
                   | Ok env -> (
                       match env.Codec.msg with
                       | Wire.Grant { client; seq } ->
                           incr grants;
                           if !holder <> None then incr violations;
                           holder := Some (client, seq)
                       | Wire.Released { client; seq } ->
                           if !holder <> Some (client, seq) then incr violations;
                           holder := None;
                           let seq' = next_seq.(client) in
                           next_seq.(client) <- seq' + 1;
                           send client (Wire.Acquire { client; seq = seq' })
                       | Wire.Welcome _ | Wire.Committed _ | Wire.Rejected _ ->
                           ()))
             done
       end
     done
   with Exit -> ());
  let line = Printf.sprintf "grants=%d violations=%d\n" !grants !violations in
  ignore (Unix.write_substring out_fd line 0 (String.length line));
  Unix.close out_fd;
  Unix.close fd

let test_live_mutex_discipline_across_kill () =
  let sock_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tr-service-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let r, w = Unix.pipe () in
  (* Fork before any domain exists — the server spawns domains, and
     fork and domains don't mix. *)
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      (try mutex_discipline_child ~sock_path ~clients:8 ~run_s:3.0 ~out_fd:w
       with _ -> ());
      Stdlib.exit 0
  | child ->
      Unix.close w;
      let n = 4 in
      let cfg =
        {
          (Server.default_config ~n ~seed:5 ~listen:(Unix.ADDR_UNIX sock_path)) with
          Server.app = Server.Mutex;
          (* 10 ms leases with 2 ms hops: the gap between one node's
             exit and the next node's entry is wide enough that the
             server relays the events in order across shards. *)
          cs_duration = 5.0;
          cluster =
            {
              (Tr_net_rt.Cluster.default_config ~n ~seed:5) with
              Tr_net_rt.Cluster.load = Tr_net_rt.Cluster.External;
              unit_s = 0.002;
              stop = Tr_net_rt.Cluster.Duration 1_000_000.;
              max_wall_s = 30.;
            };
        }
      in
      let control_slot = Atomic.make None in
      let server =
        Domain.spawn (fun () ->
            Server.run
              ~on_ready:(fun ~addr:_ ~control ->
                Atomic.set control_slot (Some control))
              cfg)
      in
      let rec await_control tries =
        match Atomic.get control_slot with
        | Some c -> c
        | None ->
            if tries = 0 then failwith "server never became ready";
            Unix.sleepf 0.05;
            await_control (tries - 1)
      in
      let control = await_control 100 in
      (* Let grants flow, then crash a node mid-run. Safety must hold
         through the kill; liveness is allowed to degrade (the apps have
         no token regeneration). *)
      Unix.sleepf 1.2;
      control.Tr_net_rt.Cluster.kill (n - 1);
      let line =
        let ic = Unix.in_channel_of_descr r in
        let l = input_line ic in
        close_in ic;
        l
      in
      let _, status = Unix.waitpid [] child in
      Alcotest.(check bool) "child exited cleanly" true
        (status = Unix.WEXITED 0);
      control.Tr_net_rt.Cluster.request_stop ();
      let outcome = Domain.join server in
      let grants, violations =
        Scanf.sscanf line "grants=%d violations=%d" (fun g v -> (g, v))
      in
      Alcotest.(check bool)
        (Printf.sprintf "clients were granted the lock (%d grants)" grants)
        true (grants > 0);
      Alcotest.(check int) "no concurrent lease holders" 0 violations;
      Alcotest.(check int) "no decode errors at the server" 0
        outcome.Server.stats.Server.decode_errors

let () =
  Alcotest.run "service"
    [
      ( "wire",
        wire_tests
        @ [
            Alcotest.test_case "service keys disjoint from registry" `Quick
              test_wire_keys_disjoint;
          ] );
      ( "policy",
        [
          Alcotest.test_case "switches up under load, down when idle" `Quick
            test_policy_switches_up_and_down;
          Alcotest.test_case "hysteresis band does not thrash" `Quick
            test_policy_hysteresis_band;
          Alcotest.test_case "directive carries mode and parking" `Quick
            test_policy_directive;
          Alcotest.test_case "inverted band rejected" `Quick
            test_policy_rejects_inverted_band;
        ] );
      ( "slo",
        [ Alcotest.test_case "P2 percentiles stream" `Quick test_slo_percentiles ] );
      ( "validation",
        [
          Alcotest.test_case "loadgen rejects nonsense configs" `Quick
            test_loadgen_validation;
          Alcotest.test_case "server rejects internal load modes" `Quick
            test_server_rejects_internal_load;
        ] );
      ( "live",
        [
          Alcotest.test_case "mutex lock discipline across a node kill" `Slow
            test_live_mutex_discipline_across_kill;
        ] );
      ( "errors",
        [
          Alcotest.test_case "server surfaces the cluster's error" `Quick
            test_server_surfaces_cluster_error;
        ] );
    ]
