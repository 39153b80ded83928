(* Live-I/O throughput benchmark -> BENCH_net.json.

   Three angles on the wire path, mirroring BENCH_sim.json's policy
   (wall-clock best of 3, committed baseline measured at the pre-refactor
   commit on the same host):

   - loopback_frames: encode->send->wait->poll->decode pipeline through
     the in-process loopback transport, zero delay, batched pump on an
     adopted shard. Measures the allocation discipline of the
     codec/frame layers plus the mailbox/heap hop.

   - uds_frames: the same pump over a real Unix-domain stream socket
     pair hosted in one process. Measures syscall batching: the
     pre-refactor path paid one write(2) per frame; the batched path
     coalesces a whole pump iteration into one write.

   - grants_per_s: end-to-end live loopback clusters (closed-loop
     binsearch/ring) at small unit scale — the protocol-visible number
     the wire path ultimately serves.

   Allocation rates come from Gc.quick_stat deltas around the timed
   section (minor+major words per frame). *)

module Clock = Tr_net_rt.Clock
module Transport = Tr_net_rt.Transport
module Cluster = Tr_net_rt.Cluster
module Readiness = Tr_net_rt.Readiness
module Stream_io = Tr_net_rt.Stream_io
module Codec = Tr_wire.Codec
module Codecs = Tr_wire.Codecs
module Metrics = Tr_sim.Metrics
module Quantile = Tr_stats.Quantile

let quick = Array.exists (String.equal "--quick") Sys.argv

let best_of reps f =
  let rec go best left =
    if left = 0 then best
    else begin
      let t0 = Unix.gettimeofday () in
      f ();
      go (Stdlib.min best (Unix.gettimeofday () -. t0)) (left - 1)
    end
  in
  go infinity reps

(* Words allocated by [f ()] (minor + major), and its result. *)
let alloc_words f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.minor_words -. s0.Gc.minor_words
    +. (s1.Gc.major_words -. s0.Gc.major_words)
  in
  (r, words)

(* ------------------------------------------------------------------ *)
(* Frame pumps                                                         *)
(* ------------------------------------------------------------------ *)

(* One pump iteration sends [batch] envelope frames 0 -> 1 and drains
   the receiver; [total] frames flow end to end. The message is a ring
   token — the smallest real protocol payload, so the numbers bound the
   per-frame overhead rather than payload memcpy. *)
let batch = 64

let pump_loopback ~total () =
  let clock = Clock.create ~unit_s:1e-3 () in
  let t = Transport.loopback ~clock ~n:2 () in
  let scratch = Codec.scratch () in
  let received = ref 0 in
  let sent = ref 0 in
  let on_frame view =
    match Codec.decode_view Codecs.ring view with
    | Ok _ -> incr received
    | Error _ -> failwith "net_bench: loopback decode error"
  in
  let shard = Transport.adopt t ~owners:[ 0; 1 ] in
  while !received < total do
    let k = Stdlib.min batch (total - !sent) in
    for _ = 1 to k do
      Codec.encode_payload scratch Codecs.ring ~src:0
        ~channel:Tr_sim.Network.Reliable
        (Tr_proto.Ring.Token { stamp = !sent })
      |> Transport.send_payload t ~src:0 ~dst:1 ~delay:0.0;
      incr sent
    done;
    (* The wait settles the batch and reports node 1's due frames;
       with a zero timeout it never sleeps. *)
    Transport.wait t shard ~timeout_s:0.0 ();
    Transport.poll t ~owner:1 on_frame
  done;
  Transport.close t;
  let s = Transport.snapshot t in
  (s.Transport.snap_frames_sent, s.Transport.snap_bytes_sent)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tr-net-bench-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Unix.unlink (Filename.concat dir f) with _ -> ())
        (try Sys.readdir dir with _ -> [||]);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

(* Same pump over a Unix-domain stream socket (both ends hosted in this
   process: node 0 writes, node 1 reads). One shard adopts both nodes
   before the first poll; then each batch is flushed by
   poll 0, reported readable by a zero-timeout wait, and drained by
   poll 1. Returns (frames_sent, bytes_sent, write_syscalls,
   read_syscalls) — one poll flushes a whole batch with a single
   write(2), where the pre-refactor path paid one write(2) per frame. *)
let pump_uds ~total () =
  with_temp_dir (fun dir ->
      let clock = Clock.create ~unit_s:1e-3 () in
      let addrs = Transport.uds_addrs ~dir ~n:2 in
      let t = Transport.sockets ~clock ~n:2 ~owned:[ 0; 1 ] ~addrs () in
      let scratch = Codec.scratch () in
      let received = ref 0 in
      let sent = ref 0 in
      let on_frame view =
        match Codec.decode_view Codecs.ring view with
        | Ok _ -> incr received
        | Error _ -> failwith "net_bench: uds decode error"
      in
      let shard = Transport.adopt t ~owners:[ 0; 1 ] in
      while !received < total do
        let k = Stdlib.min batch (total - !sent) in
        for _ = 1 to k do
          Codec.encode_payload scratch Codecs.ring ~src:0
            ~channel:Tr_sim.Network.Reliable
            (Tr_proto.Ring.Token { stamp = !sent })
          |> Transport.send_payload t ~src:0 ~dst:1 ~delay:0.0;
          incr sent
        done;
        (* Flush node 0's coalesced buffer, let the wait report node 1's
           socket, then drain it. *)
        Transport.poll t ~owner:0 (fun _ -> ());
        Transport.wait t shard ~timeout_s:0.0 ();
        Transport.poll t ~owner:1 on_frame
      done;
      let s = Transport.snapshot t in
      let counters =
        ( s.Transport.snap_frames_sent,
          s.Transport.snap_bytes_sent,
          s.Transport.snap_write_syscalls,
          s.Transport.snap_read_syscalls )
      in
      Transport.close t;
      counters)

(* ------------------------------------------------------------------ *)
(* End-to-end live clusters: grants/s vs N                             *)
(* ------------------------------------------------------------------ *)

let grants_case ~protocol ~n ~grants =
  let config =
    {
      (Cluster.default_config ~n ~seed:42) with
      unit_s = 1e-4;
      load = Cluster.Closed_loop { depth = 2 };
      stop = Cluster.Grants grants;
      max_wall_s = 60.0;
    }
  in
  let report = Cluster.run_packed config (Codecs.find_exn protocol) in
  if report.Cluster.decode_errors > 0 then
    failwith
      (Printf.sprintf "net_bench: %s n=%d live decode errors" protocol n);
  report

(* ------------------------------------------------------------------ *)
(* Live scaling: UDS grants/s vs N per readiness backend               *)
(* ------------------------------------------------------------------ *)

(* One socket ring hosted in this process (every node owned, one shard),
   closed-loop depth 1, under a forced readiness backend. These rows are
   single-shot, not best-of-3: a run is seconds long and its throughput
   is an average over ~10^4..10^6 grants already. *)
let scaling_config ~n ~readiness ~stop ~max_wall_s =
  {
    (Cluster.default_config ~n ~seed:42) with
    unit_s = 1e-4;
    shards = 1;
    load = Cluster.Closed_loop { depth = 1 };
    stop;
    max_wall_s;
    readiness;
  }

let scaling_row ~readiness ~n ~grants ~wall_s ~resp_p99 ~wait_calls
    ~fds_registered ~avg_ready =
  Printf.sprintf
    {|    { "protocol": "ring", "n": %d, "readiness": %S,
      "load": "closed:1", "grants": %d, "wall_s": %.3f, "grants_per_s": %.0f,
      "resp_p99_units": %.3f, "wait_calls": %d, "fds_registered": %d,
      "avg_ready_per_wait": %.2f }|}
    n readiness grants wall_s
    (float_of_int grants /. Float.max 1e-9 wall_s)
    resp_p99 wait_calls fds_registered avg_ready

let scaling_case ~backend ~n ~grants =
  with_temp_dir (fun dir ->
      Format.eprintf "live uds ring n=%d %s (%d grants)...@." n
        (Readiness.backend_name backend)
        grants;
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        scaling_config ~n ~readiness:(Some backend)
          ~stop:(Cluster.Grants grants)
          ~max_wall_s:300.0
      in
      let r =
        Cluster.run_packed
          ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
          config (Codecs.find_exn "ring")
      in
      if r.Cluster.decode_errors > 0 then
        failwith (Printf.sprintf "net_bench: uds n=%d live decode errors" n);
      scaling_row
        ~readiness:r.Cluster.readiness ~n ~grants:r.Cluster.grants
        ~wall_s:r.Cluster.wall_s
        ~resp_p99:
          (Quantile.quantile (Metrics.responsiveness_quantiles r.Cluster.metrics) 0.99)
        ~wait_calls:r.Cluster.wait_calls
        ~fds_registered:r.Cluster.fds_registered
        ~avg_ready:r.Cluster.avg_ready_per_wait)

(* ------------------------------------------------------------------ *)
(* Syscall floor: the in-process path against the socket hop          *)
(* ------------------------------------------------------------------ *)

(* The epoll transport pays ~3 syscalls per grant on a closed ring (one
   write, one read, one epoll_wait per hop). These rows measure how far
   the in-process delivery path (co-hosted hops bypass the kernel, and a
   wait with work already in hand elides the kernel visit entirely)
   pushes below that floor, against an epoll baseline from the same
   harness. One shard, all nodes self-hosted, like the live_scaling
   rows. Best of 2 runs per config: single-shot grants/s on a shared
   host carries ~10-20% scheduling noise, which would swamp the
   baseline comparison. The epoll row is the denominator for
   [reduction_vs_baseline]. *)
let floor_case ~label ~inproc ~n ~grants =
  with_temp_dir (fun dir ->
      Format.eprintf "syscall floor n=%d %s (%d grants, best of 2)...@." n
        label grants;
      let addrs = Transport.uds_addrs ~dir ~n in
      let config =
        {
          (scaling_config ~n ~readiness:(Some Readiness.Epoll)
             ~stop:(Cluster.Grants grants)
             ~max_wall_s:300.0)
          with
          inproc;
        }
      in
      let one () =
        let r =
          Cluster.run_packed
            ~backend:(Cluster.Sockets { owned = List.init n Fun.id; addrs })
            config (Codecs.find_exn "ring")
        in
        if r.Cluster.decode_errors > 0 then
          failwith
            (Printf.sprintf "net_bench: syscall floor %s n=%d decode errors"
               label n);
        r
      in
      let a = one () in
      let b = one () in
      let best = if a.Cluster.wall_s <= b.Cluster.wall_s then a else b in
      (label, inproc, best))

let floor_rows ~n ~grants =
  (* The epoll baseline must come first: it is every row's denominator. *)
  let runs =
    List.map
      (fun (label, inproc) -> floor_case ~label ~inproc ~n ~grants)
      [ ("epoll", false); ("epoll+inproc", true) ]
  in
  let _, _, base = List.hd runs in
  let base_spg = base.Cluster.syscalls_per_grant in
  let base_gps =
    float_of_int base.Cluster.grants /. Float.max 1e-9 base.Cluster.wall_s
  in
  List.map
    (fun (label, inproc, (r : Cluster.report)) ->
      let gps =
        float_of_int r.Cluster.grants /. Float.max 1e-9 r.Cluster.wall_s
      in
      Printf.sprintf
        {|    { "config": %S, "n": %d, "readiness": %S, "inproc": %b,
      "grants": %d, "wall_s": %.3f, "grants_per_s": %.0f,
      "syscalls_per_grant": %.3f, "wait_calls": %d, "inproc_frames": %d,
      "reduction_vs_baseline": %.2f, "grants_per_s_vs_baseline": %.3f }|}
        label n r.Cluster.readiness inproc r.Cluster.grants
        r.Cluster.wall_s gps r.Cluster.syscalls_per_grant
        r.Cluster.wait_calls r.Cluster.inproc_frames
        (base_spg /. Float.max 1e-9 r.Cluster.syscalls_per_grant)
        (gps /. Float.max 1e-9 base_gps))
    runs

(* ------------------------------------------------------------------ *)
(* Readiness wait cost: K idle registered fds + one hot one            *)
(* ------------------------------------------------------------------ *)

(* ns per wait with [k] idle socketpair read-ends registered plus one
   holding an unread byte (level-triggered, so every wait reports
   exactly that fd). Isolates what one poll costs as the registration
   count grows — the number that separates O(registered) poll from
   O(ready) epoll. *)
let wait_cost_ns ~backend ~k =
  let rd = Readiness.create ~backend () in
  let pairs =
    Array.init (k + 1) (fun _ ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Array.iter (fun (r, _) -> Readiness.set rd r ~read:true ~write:false) pairs;
  let hot_r, hot_w = pairs.(k) in
  ignore (Unix.write_substring hot_w "x" 0 1);
  let ready = ref 0 in
  let cb ~fd:_ ~readable:_ ~writable:_ = incr ready in
  let one () = ignore (Readiness.wait rd ~timeout_s:0.0 cb) in
  one ();
  if !ready = 0 then failwith "net_bench: wait_cost hot fd not ready";
  (* Time-boxed batches: poll at K=4096 is ~100x costlier per wait than
     epoll, so a fixed iteration count would either starve the fast
     backends of resolution or stall the bench. *)
  let box = if quick then 0.05 else 0.25 in
  let measure () =
    let t0 = Unix.gettimeofday () in
    let iters = ref 0 in
    while Unix.gettimeofday () -. t0 < box do
      for _ = 1 to 500 do
        one ()
      done;
      iters := !iters + 500
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int !iters *. 1e9
  in
  let reps = if quick then 1 else 3 in
  let rec best b left = if left = 0 then b else best (Float.min b (measure ())) (left - 1) in
  let ns = best infinity reps in
  ignore hot_r;
  Array.iter
    (fun (r, w) ->
      Readiness.remove rd r;
      Unix.close r;
      Unix.close w)
    pairs;
  Readiness.close rd;
  ns

let wait_cost_rows () =
  let ks = if quick then [ 64 ] else [ 64; 256; 448; 1024; 4096 ] in
  let combos =
    List.concat_map
      (fun b -> if Readiness.available b then List.map (fun k -> (b, k)) ks else [])
      [ Readiness.Epoll; Readiness.Poll ]
  in
  List.map
    (fun (b, k) ->
      Format.eprintf "wait cost %s K=%d...@." (Readiness.backend_name b) k;
      let ns = wait_cost_ns ~backend:b ~k in
      Printf.sprintf
        {|    { "backend": %S, "fds_registered": %d, "fds_ready": 1, "ns_per_wait": %.0f }|}
        (Readiness.backend_name b)
        (k + 1) ns)
    combos

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

(* Pre-refactor numbers, measured on this host at commit a628964 with
   this harness (same totals, same best-of-3 policy, same container).
   The old socket path issued one write(2) per frame by construction. *)
type baseline = { frames_per_s : float; syscalls_per_frame : float option }

let loopback_baseline =
  Some { frames_per_s = 2_398_786.0; syscalls_per_frame = None }

let uds_baseline = Some { frames_per_s = 992_474.0; syscalls_per_frame = Some 1.0 }

let case_json ~name ~frames ~bytes ~wall_s ~words_per_frame ~syscalls
    ~(baseline : baseline option) =
  let fps = float_of_int frames /. wall_s in
  let base =
    match baseline with
    | None -> {|"baseline_frames_per_s": null, "speedup": null|}
    | Some b ->
        Printf.sprintf
          {|"baseline_frames_per_s": %.0f, "speedup": %.2f%s|} b.frames_per_s
          (fps /. b.frames_per_s)
          (match b.syscalls_per_frame with
          | None -> ""
          | Some s ->
              Printf.sprintf {|, "baseline_write_syscalls_per_frame": %.2f|} s)
  in
  let sys =
    match syscalls with
    | None -> {|"write_syscalls_per_frame": null|}
    | Some (w, r) ->
        Printf.sprintf
          {|"write_syscalls_per_frame": %.4f, "read_syscalls_per_frame": %.4f|}
          (float_of_int w /. float_of_int frames)
          (float_of_int r /. float_of_int frames)
  in
  Printf.sprintf
    {|    { "case": %S, "frames": %d, "bytes": %d, "wall_s": %.4f,
      "frames_per_s": %.0f, "alloc_words_per_frame": %.1f,
      %s, %s }|}
    name frames bytes wall_s fps words_per_frame sys base

(* Per-stage breakdown of the loopback pipeline — run with --micro to
   see where a frame's nanoseconds go before reaching for a profiler. *)
let micro () =
  let iters = 1_000_000 in
  let stage name f =
    let s0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    let s1 = Gc.quick_stat () in
    let words =
      s1.Gc.minor_words -. s0.Gc.minor_words
      +. (s1.Gc.major_words -. s0.Gc.major_words)
    in
    Printf.printf "%-24s %8.1f ns/op %8.1f words/op\n%!" name
      (dt /. float_of_int iters *. 1e9)
      (words /. float_of_int iters)
  in
  let clock = Clock.create ~unit_s:1e-3 () in
  stage "clock_now" (fun () ->
      for _ = 1 to iters do
        ignore (Clock.now clock)
      done);
  let scratch = Codec.scratch () in
  let chan = Tr_sim.Network.Reliable in
  stage "encode_frame" (fun () ->
      for i = 1 to iters do
        ignore
          (Codec.encode_frame scratch Codecs.ring ~src:0 ~channel:chan
             (Tr_proto.Ring.Token { stamp = i }))
      done);
  let frame =
    Codec.encode_envelope Codecs.ring ~src:0 ~channel:chan
      (Tr_proto.Ring.Token { stamp = 123456 })
  in
  stage "decode_exact" (fun () ->
      for _ = 1 to iters do
        match Tr_wire.Frame.decode_exact frame with
        | Ok _ -> ()
        | Error _ -> assert false
      done);
  stage "decode_exact+view" (fun () ->
      for _ = 1 to iters do
        match Tr_wire.Frame.decode_exact frame with
        | Ok v -> (
            match Codec.decode_view Codecs.ring v with
            | Ok _ -> ()
            | Error _ -> assert false)
        | Error _ -> assert false
      done);
  let mb = Tr_net_rt.Mailbox.create () in
  stage "mailbox_push_drain" (fun () ->
      for _ = 1 to iters / 64 do
        for _ = 1 to 64 do
          Tr_net_rt.Mailbox.push mb (0.0, frame)
        done;
        ignore (Tr_net_rt.Mailbox.drain mb)
      done);
  (* The socket hop's floor: what a ring-uds hop costs the kernel
     alone. One 12-byte frame written into one of 1024 Unix-domain
     socket pairs and read out at the other end, the next pair each
     time, as the ring's token goes round; no decode, no handler. *)
  ignore (Readiness.raise_nofile ());
  let pairs =
    Array.init 1024 (fun _ ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock a;
        Unix.set_nonblock b;
        (a, b))
  in
  let hop = Bytes.make 12 '\000' and into = Bytes.create 65536 in
  stage "socket_hop_floor" (fun () ->
      for i = 1 to iters do
        let a, b = pairs.(i land 1023) in
        if Stream_io.write a hop 0 12 <> 12 then failwith "short write";
        if Stream_io.read b into 0 65536 <> 12 then failwith "short read"
      done);
  Array.iter
    (fun (a, b) ->
      Unix.close a;
      Unix.close b)
    pairs;
  let pq = Tr_sim.Pqueue.create () in
  stage "pqueue_push_pop" (fun () ->
      for _ = 1 to iters / 64 do
        for i = 1 to 64 do
          Tr_sim.Pqueue.push pq ~time:(float_of_int i) frame
        done;
        for _ = 1 to 64 do
          ignore (Tr_sim.Pqueue.pop_exn pq)
        done
      done)

let () =
  if Array.exists (String.equal "--micro") Sys.argv then begin
    micro ();
    exit 0
  end;
  let reps = if quick then 1 else 3 in
  let total = if quick then 20_000 else 2_000_000 in
  ignore (Readiness.raise_nofile ());
  Format.eprintf "timing loopback pump (%d frames)...@." total;
  let loop_wall = best_of reps (fun () -> ignore (pump_loopback ~total ())) in
  let (loop_frames, loop_bytes), loop_words =
    alloc_words (fun () -> pump_loopback ~total ())
  in
  Format.eprintf "timing uds pump (%d frames)...@." total;
  let uds_total = if quick then 20_000 else 1_000_000 in
  let uds_wall = best_of reps (fun () -> ignore (pump_uds ~total:uds_total ())) in
  let (uds_frames, uds_bytes, uds_writes, uds_reads), uds_words =
    alloc_words (fun () -> pump_uds ~total:uds_total ())
  in
  let ns = if quick then [ 4 ] else [ 4; 8; 16 ] in
  let grants = if quick then 200 else 2000 in
  let grant_rows =
    List.concat_map
      (fun protocol ->
        List.map
          (fun n ->
            Format.eprintf "live %s n=%d (%d grants)...@." protocol n grants;
            let r = grants_case ~protocol ~n ~grants in
            Printf.sprintf
              {|    { "protocol": %S, "n": %d, "grants": %d, "wall_s": %.3f,
      "grants_per_s": %.0f, "frames_per_grant": %.2f }|}
              protocol n r.Cluster.grants r.Cluster.wall_s
              (float_of_int r.Cluster.grants /. r.Cluster.wall_s)
              (float_of_int r.Cluster.frames_sent
              /. float_of_int (Stdlib.max 1 r.Cluster.grants)))
          ns)
      [ "ring"; "binsearch" ]
  in
  (* Live scaling sweep: each available backend. The N=4096 epoll row
     is the million-grant acceptance run. *)
  let scaling_rows =
    if quick then
      List.filter_map
        (fun b ->
          if Readiness.available b then
            Some (scaling_case ~backend:b ~n:64 ~grants:2_000)
          else None)
        [ Readiness.Epoll; Readiness.Poll ]
    else
      List.map
        (fun (b, n, grants) -> scaling_case ~backend:b ~n ~grants)
        ([ (Readiness.Epoll, 64, 50_000);
           (Readiness.Epoll, 256, 50_000);
           (Readiness.Epoll, 1024, 50_000);
           (Readiness.Epoll, 4096, 1_000_000);
           (Readiness.Poll, 64, 50_000);
           (Readiness.Poll, 256, 50_000);
           (Readiness.Poll, 1024, 20_000);
         ]
        |> List.filter (fun (b, _, _) -> Readiness.available b))
  in
  let syscall_floor_rows =
    if quick then floor_rows ~n:64 ~grants:2_000
    else floor_rows ~n:1024 ~grants:50_000
  in
  let wait_rows = wait_cost_rows () in
  let json =
    Printf.sprintf
      {|{
  "host": { "cores": %d, "ocaml": %S },
  "mode": %S,
  "policy": "wall-clock best of %d; %d-frame loopback pump, %d-frame uds pump, batch %d; alloc from Gc.quick_stat deltas; live_scaling rows single-shot (seconds-long runs averaging 1e4..1e6 grants); wait_cost best of %d time-boxed batches",
  "cases": [
%s
  ],
  "grants_vs_n": [
%s
  ],
  "live_scaling": [
%s
  ],
  "syscall_floor": [
%s
  ],
  "wait_cost": [
%s
  ]
}
|}
      (Domain.recommended_domain_count ())
      Sys.ocaml_version
      (if quick then "quick" else "full")
      reps total uds_total batch reps
      (String.concat ",\n"
         [
           case_json ~name:"loopback_frames" ~frames:loop_frames
             ~bytes:loop_bytes ~wall_s:loop_wall
             ~words_per_frame:(loop_words /. float_of_int loop_frames)
             ~syscalls:None ~baseline:loopback_baseline;
           case_json ~name:"uds_frames" ~frames:uds_frames ~bytes:uds_bytes
             ~wall_s:uds_wall
             ~words_per_frame:(uds_words /. float_of_int uds_frames)
             ~syscalls:(Some (uds_writes, uds_reads)) ~baseline:uds_baseline;
         ])
      (String.concat ",\n" grant_rows)
      (String.concat ",\n" scaling_rows)
      (String.concat ",\n" syscall_floor_rows)
      (String.concat ",\n" wait_rows)
  in
  let oc = open_out "BENCH_net.json" in
  output_string oc json;
  close_out oc;
  Format.printf "wrote BENCH_net.json (%s mode)@."
    (if quick then "quick" else "full")
