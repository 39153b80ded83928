(* Per-layer micro-benchmarks, run in every traced pass. Each times one
   layer primitive in isolation through its public interface; the
   reconciliation lines compare their sum with the gaps the workloads
   measure end to end. Every figure is the median of seven time-boxed
   batches. *)

module Codec = Tr_wire.Codec
module Codecs = Tr_wire.Codecs
module Frame = Tr_wire.Frame
module Wire = Tr_service.Service_wire
module Readiness = Tr_net_rt.Readiness
module Mailbox = Tr_net_rt.Mailbox
module Pqueue = Tr_sim.Pqueue
module Policy = Tr_service.Policy

let now = Mono.now

(* ns per call of [f], which runs the primitive [batch] times, over
   seven batches of 20 ms each. *)
let ns_per_op ~batch f =
  let s = Samples.create 7 in
  for _ = 1 to 7 do
    let t0 = now () in
    let iters = ref 0 in
    while now () -. t0 < 0.02 do
      f batch;
      iters := !iters + batch
    done;
    Samples.add s ((now () -. t0) /. float_of_int !iters *. 1e9)
  done;
  Samples.median s

let token stamp = Tr_proto.Ring.Token { stamp }

let wire_encode () =
  let scratch = Codec.scratch () in
  ns_per_op ~batch:256 (fun k ->
      for i = 1 to k do
        ignore
          (Codec.encode_frame scratch Codecs.ring ~src:3
             ~channel:Tr_sim.Network.Reliable (token i))
      done)

let token_view () =
  let frame =
    Codec.encode_envelope Codecs.ring ~src:3 ~channel:Tr_sim.Network.Reliable
      (token 123_456)
  in
  match Frame.decode_exact frame with
  | Ok v -> v
  | Error e -> failwith ("micro: token frame does not decode: " ^ e)

let wire_decode () =
  let v = token_view () in
  ns_per_op ~batch:256 (fun k ->
      for _ = 1 to k do
        match Codec.decode_view Codecs.ring v with
        | Ok _ -> ()
        | Error _ -> failwith "micro: token decode failed"
      done)

(* Words allocated per encode + decode of one token frame. *)
let wire_alloc () =
  let scratch = Codec.scratch () and v = token_view () in
  let k = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to k do
    ignore
      (Codec.encode_frame scratch Codecs.ring ~src:3 ~channel:Tr_sim.Network.Reliable
         (token i));
    ignore (Codec.decode_view Codecs.ring v)
  done;
  (Gc.minor_words () -. w0) /. float_of_int k

let service_encode () =
  let scratch = Codec.scratch () in
  ns_per_op ~batch:256 (fun k ->
      for i = 1 to k do
        ignore
          (Codec.encode_frame scratch Wire.request_codec ~src:(i land 511)
             ~channel:Tr_sim.Network.Reliable
             (Wire.Acquire { client = i land 511; seq = i }))
      done)

(* One wait over [fds] registered descriptors of which exactly one is
   readable: both ends of [fds / 2] socket pairs, one byte in flight. *)
let readiness_wait ~fds =
  ignore (Readiness.raise_nofile ());
  let rd = Readiness.create () in
  let pairs =
    Array.init (fds / 2) (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (a, b) ->
          Readiness.remove rd a;
          Readiness.remove rd b;
          Unix.close a;
          Unix.close b)
        pairs;
      Readiness.close rd)
    (fun () ->
      Array.iter
        (fun (a, b) ->
          Readiness.set rd a ~read:true ~write:false;
          Readiness.set rd b ~read:true ~write:false)
        pairs;
      ignore (Unix.write_substring (snd pairs.(0)) "x" 0 1);
      let ready = ref 0 in
      let cb ~fd:_ ~readable:_ ~writable:_ = incr ready in
      ignore (Readiness.wait rd ~timeout_s:0. cb);
      if !ready <> 1 then failwith "micro: readiness reported the wrong fd count";
      ns_per_op ~batch:64 (fun k ->
          for _ = 1 to k do
            ignore (Readiness.wait rd ~timeout_s:0. cb)
          done))

(* Per item, pushing a batch of 64 then draining it. *)
let mailbox_push_drain () =
  let mb = Mailbox.create () in
  ns_per_op ~batch:64 (fun k ->
      for i = 1 to k do
        Mailbox.push mb i
      done;
      ignore (Mailbox.drain mb))

(* One push and one pop on a heap holding 1024 timers. *)
let pqueue_push_pop () =
  let q = Pqueue.create () in
  let rng = Random.State.make [| 7 |] in
  for i = 1 to 1024 do
    Pqueue.push q ~time:(Random.State.float rng 1000.) i
  done;
  ns_per_op ~batch:256 (fun k ->
      for _ = 1 to k do
        let t = Pqueue.top_time_exn q in
        let v = Pqueue.pop_exn q in
        Pqueue.push q ~time:(t +. Random.State.float rng 1000.) v
      done)

let policy () =
  let p = Policy.create (Policy.default_config ~n:8 ~hop_s:1.0) in
  let clock = ref 0. in
  let note =
    ns_per_op ~batch:256 (fun k ->
        for _ = 1 to k do
          clock := !clock +. 0.5;
          Policy.note_request p ~now:!clock
        done)
  in
  let directive =
    ns_per_op ~batch:256 (fun k ->
        for _ = 1 to k do
          ignore (Policy.directive p ())
        done)
  in
  (note, directive)

let run r ~readiness_fds =
  let metric = Report.metric r in
  metric "wire.encode_ns" "ns" (wire_encode ());
  metric "wire.decode_ns" "ns" (wire_decode ());
  metric "wire.alloc_words_per_frame" "words/frame" (wire_alloc ());
  metric "wire.service_encode_ns" "ns" (service_encode ());
  metric "net_rt.readiness_wait_ns" "ns" (readiness_wait ~fds:readiness_fds);
  metric "net_rt.mailbox_push_drain_ns" "ns" (mailbox_push_drain ());
  metric "sim.pqueue_push_pop_ns" "ns" (pqueue_push_pop ());
  let note, directive = policy () in
  metric "service.policy_note_ns" "ns" note;
  metric "service.policy_directive_ns" "ns" directive
