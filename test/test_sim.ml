(* Unit and property tests for Tr_sim: RNG, priority queue, network
   model, workloads, metrics semantics, traces, and the event engine. *)

open Tr_sim

let check_float = Alcotest.(check (float 1e-9))

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 20 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_int_invalid () =
  let r = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_exponential_mean () =
  let r = Rng.create 7 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:5.0 in
    if x <= 0.0 then Alcotest.fail "exponential must be positive";
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~ 5" true (mean > 4.7 && mean < 5.3)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let a = Rng.create 11 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "split streams differ" false (Int64.equal xa xb)

(* The first outputs of each draw for seeds 0, 1 and 123, recorded from
   the generator when its state was a boxed [int64] field. The state's
   storage may change; its stream may not: every simulated run is a
   function of these numbers. Floats are written in hex so they compare
   bit for bit. *)
type rng_pin = {
  seed : int;
  bits : int64 list;
  ints : int list;  (** [Rng.int t 1000] *)
  floats : float list;  (** [Rng.float t 1.0] *)
  exps : float list;  (** [Rng.exponential t ~mean:10.] *)
  split_child : int64;  (** First [bits64] of [Rng.split] of a fresh stream. *)
  split_parent : int64;  (** The parent's next [bits64] after that split. *)
  after_copy : int64;
      (** First [bits64] of a copy taken after one draw; the original's
          next draw must equal it. *)
}

let rng_pins =
  [
    {
      seed = 0;
      bits = [
        0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
        0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL;
        0x2c829abe1f4532e1L; 0xc584133ac916ab3cL; 0x3ee5789041c98ac3L;
        0xf3b8488c368cb0a6L; 0x657eecdd3cb13d09L; 0xc2d326e0055bdef6L;
        0x8621a03fe0bbdb7bL; 0x8e1f7555983aa92fL; 0xb54e0f1600cc4d19L;
        0x84bb3f97971d80abL;
      ];
      ints =
        [
          823; 796; 679; 732; 747; 186; 913; 228;
          299; 678; 297; 14; 875; 623; 9; 99;
        ];
      floats = [
        0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
        0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
        0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1; 0x1.f72bc4820e4c4p-3;
        0x1.e77091186d196p-1; 0x1.95fbb374f2c4ep-2; 0x1.85a64dc00ab7bp-1;
        0x1.0c43407fc177bp-1; 0x1.1c3eeaab30755p-1; 0x1.6a9c1e2c01989p-1;
        0x1.09767f2f2e3bp-1;
      ];
      exps = [
        0x1.57b7f750f28adp+4; 0x1.69795bce7f0d7p+2; 0x1.1252def4e24bap-2;
        0x1.1ae96e49f6eabp+5; 0x1.1fd6f5a305bd4p+0; 0x1.fb8330ffff23ap+1;
        0x1.e8f61ec81027fp+0; 0x1.d8748f0e223e9p+3; 0x1.68e586f4eb122p+1;
        0x1.e5f3760ed96b2p+4; 0x1.432c051099b85p+2; 0x1.ca0f37b09c892p+3;
        0x1.db078ee0d79p+2; 0x1.0337e93d44e17p+3; 0x1.8a2a0a502b7f2p+3;
        0x1.d3b83eee5e472p+2;
      ];
      split_child = 0xa706dd2f4d197e6fL;
      split_parent = 0x6e789e6aa1b965f4L;
      after_copy = 0x6e789e6aa1b965f4L;
    };
    {
      seed = 1;
      bits = [
        0xbfef8030ddc2d772L; 0x5f552ce482f2aa47L; 0x70335fc3daf3d8a7L;
        0xf440fe3b62c79d2cL; 0x33ba2f29e7c168bbL; 0x98843f48a94b7866L;
        0x74ad4c24d41a25f8L; 0x2f9a1f13648eab6eL; 0x509a840d44beedbdL;
        0xe1d9d25350c18b44L; 0x83db02da19918686L; 0x889af42f2e548689L;
        0xec3add8a85bfa5eeL; 0x33ab0c5babe05527L; 0x27a774aeba5ef45bL;
        0x8bcb0ba992bb02deL;
      ];
      ints =
        [
          162; 791; 623; 292; 515; 782; 240; 294;
          669; 148; 110; 169; 158; 959; 691; 526;
        ];
      floats = [
        0x1.7fdf0061bb85ap-1; 0x1.7d54b3920bcaap-2; 0x1.c0cd7f0f6bcf6p-2;
        0x1.e881fc76c58f3p-1; 0x1.9dd1794f3e0b4p-3; 0x1.31087e915296fp-1;
        0x1.d2b5309350688p-2; 0x1.7cd0f89b24754p-3; 0x1.426a103512fbap-2;
        0x1.c3b3a4a6a1831p-1; 0x1.07b605b43323p-1; 0x1.1135e85e5ca9p-1;
        0x1.d875bb150b7f4p-1; 0x1.9d5862dd5f028p-3; 0x1.3d3ba575d2f78p-3;
        0x1.179617532576p-1;
      ];
      exps = [
        0x1.bb4ac7804ed3ep+3; 0x1.2a23845823d5dp+2; 0x1.71202666b33cp+2;
        0x1.ed109089ba508p+4; 0x1.20ec6b132089cp+1; 0x1.21d85cbbae18p+3;
        0x1.855d50fbb395ap+2; 0x1.0754ebb6962c9p+1; 0x1.e4013b7893b02p+1;
        0x1.563e4f414f904p+4; 0x1.cf302445efce3p+2; 0x1.e827bcb722942p+2;
        0x1.99c2ece8ccacep+4; 0x1.208d968a7bfddp+1; 0x1.aed8758ef9e3fp+0;
        0x1.f979c0da370f4p+2;
      ];
      split_child = 0x55c55969ed403149L;
      split_parent = 0x5f552ce482f2aa47L;
      after_copy = 0x5f552ce482f2aa47L;
    };
    {
      seed = 123;
      bits = [
        0x45d0750597b28c19L; 0xaa04291bf3bb76bbL; 0xed0bb5598c736455L;
        0x72a4c7154a47d6b0L; 0x6d76f9cca6e2c933L; 0x070724a9f167273eL;
        0xdefec2c9f51c1f84L; 0x67b18a229bb0f0ebL; 0x11e1bd5bab3685abL;
        0x6ed4ec770a2c28a3L; 0x3c4dc0d9064c8583L; 0x8f3b8270d99e4374L;
        0x383d126c88e8a88cL; 0xd47ad46b38e0121fL; 0x5399d52da1731c5bL;
        0xe2dcf4956c60aec4L;
      ];
      ints =
        [
          289; 859; 701; 24; 635; 414; 740; 259;
          211; 635; 107; 604; 244; 735; 435; 116;
        ];
      floats = [
        0x1.1741d4165eca2p-2; 0x1.54085237e776ep-1; 0x1.da176ab318e6cp-1;
        0x1.ca931c55291f4p-2; 0x1.b5dbe7329b8b2p-2; 0x1.c1c92a7c59c8p-6;
        0x1.bdfd8593ea383p-1; 0x1.9ec6288a6ec3cp-2; 0x1.1e1bd5bab368p-4;
        0x1.bb53b1dc28b0ap-2; 0x1.e26e06c83264p-3; 0x1.1e7704e1b33c8p-1;
        0x1.c1e8936447454p-3; 0x1.a8f5a8d671c02p-1; 0x1.4e6754b685cc6p-2;
        0x1.c5b9e92ad8c15p-1;
      ];
      exps = [
        0x1.97980fb55e178p+1; 0x1.5d2049d775451p+3; 0x1.a080f6a37ae2fp+4;
        0x1.7c1783fd3a326p+2; 0x1.651035344d20ep+2; 0x1.1d0c04517adcfp-2;
        0x1.47c382d501858p+4; 0x1.4c5742ce82429p+2; 0x1.72bd8bc1adbc9p-1;
        0x1.6b0fcbe5287dp+2; 0x1.57d34dd52cf29p+1; 0x1.065a05b526412p+3;
        0x1.3d8234489a3e8p+1; 0x1.1b832ae42a7b2p+4; 0x1.fa11522b5ec65p+1;
        0x1.5bb522e84af08p+4;
      ];
      split_child = 0x7e6423ff8c622611L;
      split_parent = 0xaa04291bf3bb76bbL;
      after_copy = 0xaa04291bf3bb76bbL;
    };
  ]

let test_rng_pinned_streams () =
  let bits =
    Alcotest.testable (fun ppf x -> Fmt.pf ppf "0x%016Lx" x) Int64.equal
  in
  let bit_float =
    Alcotest.testable
      (fun ppf x -> Fmt.pf ppf "%h" x)
      (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
  in
  let draws f seed =
    let t = Rng.create seed in
    List.init 16 (fun _ -> f t)
  in
  List.iter
    (fun p ->
      let name what = Printf.sprintf "seed %d %s" p.seed what in
      Alcotest.(check (list bits))
        (name "bits64") p.bits
        (draws Rng.bits64 p.seed);
      Alcotest.(check (list int))
        (name "int 1000") p.ints
        (draws (fun t -> Rng.int t 1000) p.seed);
      Alcotest.(check (list bit_float))
        (name "float 1.0") p.floats
        (draws (fun t -> Rng.float t 1.0) p.seed);
      Alcotest.(check (list bit_float))
        (name "exponential 10") p.exps
        (draws (fun t -> Rng.exponential t ~mean:10.) p.seed);
      let t = Rng.create p.seed in
      let child = Rng.split t in
      Alcotest.check bits (name "split child") p.split_child (Rng.bits64 child);
      Alcotest.check bits (name "split parent") p.split_parent (Rng.bits64 t);
      let t = Rng.create p.seed in
      ignore (Rng.bits64 t);
      let c = Rng.copy t in
      Alcotest.check bits (name "copy") p.after_copy (Rng.bits64 c);
      Alcotest.check bits
        (name "original after copy")
        p.after_copy (Rng.bits64 t))
    rng_pins

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int within [0,bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float within [0,bound)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.float r bound in
      x >= 0.0 && x < bound)

(* ---------------- Pqueue ---------------- *)

let test_pqueue_ordering () =
  let q = Pqueue.create () in
  List.iter (fun t -> Pqueue.push q ~time:t t) [ 3.0; 1.0; 2.0; 0.5 ];
  let order = List.init 4 (fun _ -> Option.get (Pqueue.pop q)) in
  Alcotest.(check (list (float 1e-9)))
    "sorted" [ 0.5; 1.0; 2.0; 3.0 ]
    (List.map fst order);
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~time:1.0 p) [ "a"; "b"; "c" ];
  let payloads = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "insertion order on equal keys"
    [ "a"; "b"; "c" ] payloads

let test_pqueue_peek_clear () =
  let q = Pqueue.create () in
  Alcotest.(check (option (float 1e-9))) "peek empty" None (Pqueue.peek_time q);
  Pqueue.push q ~time:2.0 ();
  Alcotest.(check (option (float 1e-9))) "peek" (Some 2.0) (Pqueue.peek_time q);
  Pqueue.clear q;
  Alcotest.(check int) "cleared" 0 (Pqueue.length q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pops come out sorted" ~count:200
    QCheck.(list_of_size Gen.(0 -- 100) (float_bound_exclusive 1000.0))
    (fun times ->
      let q = Pqueue.create () in
      List.iter (fun t -> Pqueue.push q ~time:t ()) times;
      let rec drain acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      let out = drain [] in
      List.sort Float.compare times = out)

(* Reference model: a stable sorted association list. Times are drawn
   from a tiny grid so equal keys are common and the FIFO tie-break is
   exercised on every run, interleaved with pops, peeks and rare clears.
   Pushes outnumber pops three to one, so a long run grows the queue
   past 16, 32 and 64 entries; clears and pops hand handles back and
   later pushes reuse them. *)
type pq_op = Push of int | Pop | Clear

let pq_op =
  QCheck.Gen.(
    frequency
      [
        (150, map (fun grid -> Push grid) (int_range 0 5));
        (49, return Pop);
        (1, return Clear);
      ])

let print_pq_op = function
  | Push grid -> Printf.sprintf "push %d" grid
  | Pop -> "pop"
  | Clear -> "clear"

let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue matches sorted-list model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_pq_op)
       QCheck.Gen.(list_size (0 -- 600) pq_op))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Push grid ->
              let time = float_of_int grid in
              Pqueue.push q ~time !next_id;
              let rec ins = function
                | (t', id') :: rest when t' <= time -> (t', id') :: ins rest
                | rest -> (time, !next_id) :: rest
              in
              model := ins !model;
              incr next_id
          | Clear ->
              Pqueue.clear q;
              model := []
          | Pop -> (
              match (Pqueue.pop q, !model) with
              | None, [] -> ()
              | Some (t, id), (t', id') :: rest when t = t' && id = id' ->
                  model := rest
              | _ -> ok := false));
          match (Pqueue.peek_time q, !model) with
          | None, [] -> ()
          | Some t, (t', _) :: _ when t = t' -> ()
          | _ -> ok := false)
        ops;
      !ok && Pqueue.length q = List.length !model)

(* The int-valued heap the engine queues its event handles on, against
   the same stable sorted-list model: pushes carry distinct int values,
   pops must return the model's head value after [peek_time] agreed on
   its time, and the sequence counter must count every push, clears
   included, since [clear] keeps it. Runs reach 600 operations, three
   pushes to a pop, so the heap grows past 16, 32 and 64 entries. *)
let prop_int_heap_model =
  QCheck.Test.make ~name:"int heap matches sorted-list model" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list print_pq_op)
       QCheck.Gen.(list_size (0 -- 600) pq_op))
    (fun ops ->
      let q = Int_heap.create () in
      let model = ref [] in
      let pushes = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Push grid ->
              let time = float_of_int grid in
              (* Distinct values, negative ones included. *)
              let v = (!pushes * 7919) - 1_000_000 in
              Int_heap.push q ~time v;
              let rec ins = function
                | (t', v') :: rest when t' <= time -> (t', v') :: ins rest
                | rest -> (time, v) :: rest
              in
              model := ins !model;
              incr pushes
          | Clear ->
              Int_heap.clear q;
              model := []
          | Pop -> (
              match (Int_heap.peek_time q, !model) with
              | None, [] -> ()
              | Some t, (t', v') :: rest when t = t' ->
                  if Int_heap.pop_exn q <> v' then ok := false;
                  model := rest
              | _ -> ok := false));
          if
            Int_heap.length q <> List.length !model
            || q.Int_heap.next_seq <> !pushes
          then
            ok := false)
        ops;
      !ok)

(* Popping must blank the vacated slot: a queue that stays alive (here
   via its keeper entry) must not pin payloads it already handed out. *)
let test_pqueue_popped_slot_released () =
  let q = Pqueue.create () in
  Pqueue.push q ~time:2.0 "keeper";
  let w = Weak.create 1 in
  let () =
    let payload = String.init 32 (fun i -> Char.chr (65 + (i mod 26))) in
    Weak.set w 0 (Some payload);
    Pqueue.push q ~time:1.0 payload
  in
  (match Pqueue.pop q with
  | Some (t, _) -> check_float "popped the early entry" 1.0 t
  | None -> Alcotest.fail "queue was non-empty");
  ignore (Sys.opaque_identity (Array.make 64 0));
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" true (Weak.get w 0 = None);
  Alcotest.(check int) "keeper still queued" 1 (Pqueue.length q)

(* [clear] must blank every slot it frees, as [pop] does: the queue
   stays alive and regrows, but pins none of the dropped payloads. *)
let[@inline never] push_tracked q w i =
  let payload = String.init 32 (fun j -> Char.chr (65 + ((i + j) mod 26))) in
  Weak.set w i (Some payload);
  Pqueue.push q ~time:(float_of_int (i mod 3)) payload

let test_pqueue_clear_releases () =
  let q = Pqueue.create () in
  let w = Weak.create 20 in
  for i = 0 to 19 do
    push_tracked q w i
  done;
  Pqueue.clear q;
  ignore (Sys.opaque_identity (Array.make 64 0));
  Gc.full_major ();
  Gc.full_major ();
  for i = 0 to 19 do
    Alcotest.(check bool)
      (Printf.sprintf "cleared payload %d collected" i)
      true
      (Weak.get w i = None)
  done;
  Pqueue.push q ~time:1.0 "after";
  Alcotest.(check (option (pair (float 1e-9) string)))
    "usable after clear" (Some (1.0, "after")) (Pqueue.pop q)

(* [clear] empties the queue but deliberately does NOT reset the
   sequence counter (per-run numbering comes from a fresh queue, as
   Engine.create makes one); FIFO tie order must survive a clear. *)
let test_pqueue_clear_keeps_fifo () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q ~time:1.0 p) [ "old1"; "old2" ];
  Pqueue.clear q;
  Alcotest.(check bool) "empty after clear" true (Pqueue.is_empty q);
  List.iter (fun p -> Pqueue.push q ~time:1.0 p) [ "x"; "y"; "z" ];
  let payloads = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
  Alcotest.(check (list string)) "ties still FIFO after clear"
    [ "x"; "y"; "z" ] payloads

(* ---------------- Network ---------------- *)

let test_network_constant_delay () =
  let net = Network.create ~reliable_delay:(Network.Constant 2.5) () in
  let rng = Rng.create 0 in
  check_float "constant" 2.5
    (Network.sample_delay net rng Network.Reliable ~src:0 ~dst:1)

let test_network_uniform_delay_bounds () =
  let net = Network.create ~cheap_delay:(Network.Uniform (1.0, 3.0)) () in
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let d = Network.sample_delay net rng Network.Cheap ~src:0 ~dst:1 in
    if d < 1.0 || d > 3.0 then Alcotest.failf "delay %g out of range" d
  done

let test_network_per_link_delay () =
  let net =
    Network.create
      ~reliable_delay:
        (Network.Per_link (fun ~src ~dst -> if src = 0 && dst = 1 then 7.0 else 1.0))
      ()
  in
  let rng = Rng.create 0 in
  check_float "slow link" 7.0
    (Network.sample_delay net rng Network.Reliable ~src:0 ~dst:1);
  check_float "normal link" 1.0
    (Network.sample_delay net rng Network.Reliable ~src:1 ~dst:0)

let test_network_drop_probability () =
  let never = Network.create ~cheap_drop_probability:0.0 () in
  let always = Network.create ~cheap_drop_probability:1.0 () in
  let rng = Rng.create 1 in
  Alcotest.(check bool) "never drops" false
    (Network.dropped never rng Network.Cheap ~src:0 ~dst:1);
  Alcotest.(check bool) "always drops cheap" true
    (Network.dropped always rng Network.Cheap ~src:0 ~dst:1);
  Alcotest.(check bool) "reliable immune to loss" false
    (Network.dropped always rng Network.Reliable ~src:0 ~dst:1)

let test_network_partition () =
  let net = Network.create ~partitioned:(fun s d -> s = 0 && d = 1) () in
  let rng = Rng.create 1 in
  Alcotest.(check bool) "partitioned link drops reliable" true
    (Network.dropped net rng Network.Reliable ~src:0 ~dst:1);
  Alcotest.(check bool) "other links fine" false
    (Network.dropped net rng Network.Reliable ~src:1 ~dst:0)

(* Which channels the engine may queue without asking the network: a
   [Constant] delay, floored like a sample, and nothing that can lose a
   message. A partition predicate makes every channel sampled, even one
   that never fires. *)
let test_network_fixed_delay () =
  let fixed = Alcotest.(option (float 0.0)) in
  let reliable net = Network.fixed_delay net Network.Reliable in
  let cheap net = Network.fixed_delay net Network.Cheap in
  Alcotest.check fixed "default reliable" (Some 1.0) (reliable Network.default);
  Alcotest.check fixed "default cheap" (Some 1.0) (cheap Network.default);
  let zero = Network.create ~reliable_delay:(Network.Constant 0.0) () in
  Alcotest.check fixed "zero floored" (Some 1e-9) (reliable zero);
  let lossy = Network.create ~cheap_drop_probability:0.1 () in
  Alcotest.check fixed "lossy cheap" None (cheap lossy);
  Alcotest.check fixed "reliable immune to loss" (Some 1.0) (reliable lossy);
  let cut = Network.create ~partitioned:(fun _ _ -> false) () in
  Alcotest.check fixed "partition predicate, reliable" None (reliable cut);
  Alcotest.check fixed "partition predicate, cheap" None (cheap cut);
  let spread = Network.create ~cheap_delay:(Network.Uniform (1.0, 1.0)) () in
  Alcotest.check fixed "uniform" None (cheap spread);
  let link =
    Network.create
      ~reliable_delay:(Network.Per_link (fun ~src:_ ~dst:_ -> 1.0))
      ()
  in
  Alcotest.check fixed "per link" None (reliable link)

let test_network_invalid () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Network.create: drop probability outside [0,1]")
    (fun () -> ignore (Network.create ~cheap_drop_probability:1.5 ()))

(* ---------------- Workload ---------------- *)

let test_workload_validation () =
  let rng = Rng.create 0 in
  let expect_invalid name spec =
    Alcotest.(check bool)
      name true
      (try
         ignore (Workload.make spec ~n:4 ~rng);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "bad mean" (Workload.Global_poisson { mean_interarrival = 0.0 });
  expect_invalid "bad node" (Workload.Continuous { node = 9 });
  expect_invalid "bad burst" (Workload.Burst { period = 1.0; size = 9 });
  expect_invalid "bad bias"
    (Workload.Hotspot { mean_interarrival = 1.0; hot = 0; bias = 2.0 });
  expect_invalid "unsorted script" (Workload.Script [ (2.0, 1); (1.0, 0) ])

let test_workload_script_batches () =
  let rng = Rng.create 0 in
  let w =
    Workload.make (Workload.Script [ (1.0, 0); (1.0, 2); (5.0, 1) ]) ~n:4 ~rng
  in
  (match Workload.first w with
  | Some (t, nodes) ->
      check_float "time" 1.0 t;
      Alcotest.(check (list int)) "simultaneous batch" [ 0; 2 ] nodes
  | None -> Alcotest.fail "expected first batch");
  (match Workload.next w ~after:1.0 with
  | Some (t, nodes) ->
      check_float "second" 5.0 t;
      Alcotest.(check (list int)) "single" [ 1 ] nodes
  | None -> Alcotest.fail "expected second batch");
  Alcotest.(check bool) "exhausted" true (Workload.next w ~after:5.0 = None)

let test_workload_poisson_monotone () =
  let rng = Rng.create 9 in
  let w =
    Workload.make (Workload.Global_poisson { mean_interarrival = 2.0 }) ~n:8 ~rng
  in
  let rec walk last remaining =
    if remaining = 0 then ()
    else
      match Workload.next w ~after:last with
      | Some (t, [ node ]) ->
          if t <= last then Alcotest.fail "time must advance";
          if node < 0 || node >= 8 then Alcotest.fail "node out of range";
          walk t (remaining - 1)
      | Some _ -> Alcotest.fail "poisson emits single nodes"
      | None -> Alcotest.fail "poisson is endless"
  in
  let t0, _ = Option.get (Workload.first w) in
  walk t0 50

let test_workload_burst_distinct () =
  let rng = Rng.create 4 in
  let w = Workload.make (Workload.Burst { period = 3.0; size = 4 }) ~n:6 ~rng in
  match Workload.first w with
  | Some (t, nodes) ->
      check_float "period" 3.0 t;
      Alcotest.(check int) "size" 4 (List.length nodes);
      Alcotest.(check int) "distinct" 4
        (List.length (List.sort_uniq compare nodes))
  | None -> Alcotest.fail "burst has arrivals"

let test_workload_hotspot_bias () =
  let rng = Rng.create 2 in
  let w =
    Workload.make
      (Workload.Hotspot { mean_interarrival = 1.0; hot = 3; bias = 0.8 })
      ~n:8 ~rng
  in
  let hot = ref 0 and total = 500 in
  let last = ref 0.0 in
  for _ = 1 to total do
    match Workload.next w ~after:!last with
    | Some (t, [ node ]) ->
        if node = 3 then incr hot;
        last := t
    | _ -> Alcotest.fail "hotspot emits single nodes"
  done;
  let share = float_of_int !hot /. float_of_int total in
  Alcotest.(check bool) "hot node gets ~80%+" true (share > 0.7)

let test_workload_per_node_poisson () =
  let rng = Rng.create 6 in
  let w =
    Workload.make (Workload.Per_node_poisson { mean_interarrival = 5.0 }) ~n:3
      ~rng
  in
  let counts = Array.make 3 0 in
  let last = ref (-1.0) in
  for _ = 1 to 300 do
    match Workload.next w ~after:!last with
    | Some (t, [ node ]) ->
        if t < !last then Alcotest.fail "time went backwards";
        counts.(node) <- counts.(node) + 1;
        last := t
    | _ -> Alcotest.fail "per-node poisson emits single nodes"
  done;
  Array.iter
    (fun c -> if c < 60 then Alcotest.failf "node starved: %d arrivals" c)
    counts

let test_workload_continuous () =
  let rng = Rng.create 1 in
  let w = Workload.make (Workload.Continuous { node = 2 }) ~n:4 ~rng in
  Alcotest.(check bool) "single initial arrival" true
    (Workload.first w = Some (0.0, [ 2 ]));
  Alcotest.(check bool) "no scheduled repeats" true
    (Workload.next w ~after:0.0 = None);
  Alcotest.(check bool) "rerequest flag" true
    (Workload.wants_immediate_rerequest w 2);
  Alcotest.(check bool) "only that node" false
    (Workload.wants_immediate_rerequest w 1)

(* ---------------- Metrics ---------------- *)

let test_metrics_responsiveness_semantics () =
  let m = Metrics.create ~n:4 in
  (* Busy window: r1 at t=1, r2 at t=2; serves at t=5 and t=9. The first
     sample measures from the window opening (t=1); the second from the
     previous service (t=5), because demand never drained. *)
  Metrics.on_request m ~time:1.0 ~node:0;
  Metrics.on_request m ~time:2.0 ~node:1;
  Metrics.on_serve m ~time:5.0 ~node:0;
  Metrics.on_serve m ~time:9.0 ~node:1;
  let q = Metrics.responsiveness_quantiles m in
  check_float "first sample" 4.0 (Tr_stats.Quantile.quantile q 0.0);
  check_float "second sample" 4.0 (Tr_stats.Quantile.quantile q 1.0);
  check_float "mean waiting" 5.5 (Tr_stats.Summary.mean (Metrics.waiting m))

let test_metrics_idle_gap_resets_window () =
  let m = Metrics.create ~n:2 in
  Metrics.on_request m ~time:1.0 ~node:0;
  Metrics.on_serve m ~time:2.0 ~node:0;
  (* System idle in (2, 10): the next window opens at the request. *)
  Metrics.on_request m ~time:10.0 ~node:1;
  Metrics.on_serve m ~time:12.0 ~node:1;
  let q = Metrics.responsiveness_quantiles m in
  check_float "second window" 2.0 (Tr_stats.Quantile.quantile q 1.0)

(* Arrivals recorded out of time order across nodes, as a cluster's
   shards record them: the window opens at the earliest outstanding one,
   not at the oldest entry by recording order. Node 2 is served first,
   while node 1 (t=3) is older than node 0 (t=5), recorded before it. *)
let test_metrics_late_arrival_across_nodes () =
  let m = Metrics.create ~n:3 in
  Metrics.on_request m ~time:5.0 ~node:0;
  Metrics.on_request m ~time:3.0 ~node:1;
  Metrics.on_request m ~time:4.0 ~node:2;
  Metrics.on_serve m ~time:6.0 ~node:2;
  Metrics.on_serve m ~time:7.0 ~node:1;
  Metrics.on_serve m ~time:9.0 ~node:0;
  let q = Metrics.responsiveness_quantiles m in
  Alcotest.(check (array (float 0.0)))
    "samples" [| 1.0; 2.0; 3.0 |]
    (Tr_stats.Quantile.to_sorted_array q);
  check_float "mean" 2.0
    (Tr_stats.Summary.mean (Metrics.responsiveness m))

let test_metrics_serve_without_request () =
  let m = Metrics.create ~n:2 in
  Alcotest.(check bool) "raises" true
    (try
       Metrics.on_serve m ~time:1.0 ~node:0;
       false
     with Invalid_argument _ -> true)

let test_metrics_fifo_waiting () =
  let m = Metrics.create ~n:1 in
  Metrics.on_request m ~time:1.0 ~node:0;
  Metrics.on_request m ~time:5.0 ~node:0;
  Metrics.on_serve m ~time:6.0 ~node:0;
  (* served the t=1 request: waited 5; t=5 request still queued *)
  check_float "oldest first" 5.0 (Tr_stats.Summary.last (Metrics.waiting m));
  Alcotest.(check (option (float 1e-9)))
    "next oldest" (Some 5.0)
    (Metrics.oldest_arrival m ~node:0)

let test_metrics_messages_and_possessions () =
  let m = Metrics.create ~n:3 in
  Metrics.on_message m Network.Reliable Metrics.Token_msg;
  Metrics.on_message m Network.Cheap Metrics.Control_msg;
  Metrics.on_message m Network.Cheap Metrics.Token_msg;
  Alcotest.(check int) "token" 2 (Metrics.token_messages m);
  Alcotest.(check int) "control" 1 (Metrics.control_messages m);
  Alcotest.(check int) "cheap channel" 2 (Metrics.cheap_messages m);
  Metrics.on_token_possession m ~node:1;
  Metrics.on_token_possession m ~node:1;
  Metrics.on_token_possession m ~node:2;
  Alcotest.(check int) "max possessions" 2 (Metrics.max_possessions m);
  check_float "imbalance" 2.0 (Metrics.possession_imbalance m)

let test_metrics_waiting_fairness () =
  let m = Metrics.create ~n:3 in
  Alcotest.(check bool) "nan before serves" true
    (Float.is_nan (Metrics.waiting_fairness m));
  (* Two nodes wait equally -> index 1. *)
  Metrics.on_request m ~time:0.0 ~node:0;
  Metrics.on_serve m ~time:2.0 ~node:0;
  Metrics.on_request m ~time:10.0 ~node:1;
  Metrics.on_serve m ~time:12.0 ~node:1;
  check_float "equal waits" 1.0 (Metrics.waiting_fairness m);
  (* A third node waiting much longer drags the index below 1. *)
  Metrics.on_request m ~time:20.0 ~node:2;
  Metrics.on_serve m ~time:40.0 ~node:2;
  Alcotest.(check bool) "skew detected" true (Metrics.waiting_fairness m < 0.7);
  check_float "per-node summary" 20.0
    (Tr_stats.Summary.mean (Metrics.waiting_by_node m ~node:2))

(* Model check of the request bookkeeping against a plain-list reading
   of Definition 3: per-node FIFO lists of arrival times; a node needs
   the token from its oldest queued request on, so a grant's window
   opens at the earliest such head (the served request included), but
   never before the previous serve. Ops are abstract: a
   serve names its node by index among the nodes that have something
   pending, so every generated sequence is legal. *)
type metrics_op =
  | Req of int * float * float (* node, clock step, look-back *)
  | Serve of int * int * float (* node selector, how many, clock step *)

let pp_metrics_op = function
  | Req (node, dt, back) -> Printf.sprintf "Req(%d,%g,-%g)" node dt back
  | Serve (sel, k, dt) -> Printf.sprintf "Serve(%d,%d,%g)" sel k dt

(* Quarter-unit times keep the arithmetic exact and ties common. *)
let quarter bound = QCheck.Gen.map (fun k -> 0.25 *. float_of_int k) (QCheck.Gen.int_bound bound)

(* Three shapes matter beyond random interleavings: requests that go
   back in time (the O(n) scan fallback), bursts to one node after a
   partial drain (a per-node ring that wraps and then grows while
   wrapped) and long runs of arrivals while the log's front has moved
   on (the log growing while wrapped). Bursts and drains supply the
   last two; [back] supplies the first. *)
let gen_metrics_case =
  let open QCheck.Gen in
  let* n = int_range 1 8 in
  let* back = oneofl [ 0; 0; 40; 400 ] in
  let node = int_bound (n - 1) in
  let req = map2 (fun node dt -> [ Req (node, dt, 0.0) ]) node (quarter 8) in
  let burst =
    let* node = node and* k = int_range 2 40 in
    map (List.map (fun dt -> Req (node, dt, 0.0))) (list_repeat k (quarter 4))
  in
  let serve = map2 (fun sel dt -> [ Serve (sel, 1, dt) ]) nat (quarter 8) in
  let drain =
    map3 (fun sel k dt -> [ Serve (sel, k, dt) ]) nat (int_range 2 30) (quarter 4)
  in
  let* segments =
    list_size (1 -- 120)
      (frequency [ (4, req); (2, burst); (4, serve); (2, drain) ])
  in
  let* backs = list_repeat (List.length segments) (quarter back) in
  (* A request arrives at the clock minus a random look-back when
     [back > 0]: the arrivals then go out of order. *)
  let ops =
    List.concat
      (List.map2
         (fun seg b ->
           List.map (function Req (v, dt, _) -> Req (v, dt, b) | op -> op) seg)
         segments backs)
  in
  return (n, ops)

let arb_metrics_case =
  QCheck.make gen_metrics_case ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d [%s]" n (String.concat "; " (List.map pp_metrics_op ops)))

let prop_metrics_model =
  QCheck.Test.make ~name:"bookkeeping matches model" ~count:400
    arb_metrics_case (fun (n, ops) ->
      let m = Metrics.create ~n in
      let pend = Array.make n [] in
      (* arrival lists, oldest first *)
      let clock = ref 0.0 and last_serve = ref neg_infinity in
      let resp = ref [] and wait = ref [] and serves = ref 0 in
      let ok = ref true in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let check () =
        let total = ref 0 in
        Array.iteri
          (fun node arrivals ->
            total := !total + List.length arrivals;
            if Metrics.pending m ~node <> List.length arrivals then ok := false;
            match (Metrics.oldest_arrival m ~node, arrivals) with
            | None, [] -> ()
            | Some a, a' :: _ when same a a' -> ()
            | _ -> ok := false)
          pend;
        if Metrics.total_pending m <> !total || Metrics.serves m <> !serves then
          ok := false
      in
      let serve_one node =
        match pend.(node) with
        | [] -> assert false
        | arrival :: rest ->
            pend.(node) <- rest;
            let earliest =
              Array.fold_left
                (fun acc -> function [] -> acc | head :: _ -> Stdlib.min acc head)
                arrival pend
            in
            let window_open = Stdlib.max earliest !last_serve in
            resp := (!clock -. window_open) :: !resp;
            wait := (!clock -. arrival) :: !wait;
            incr serves;
            last_serve := !clock;
            Metrics.on_serve m ~time:!clock ~node
      in
      List.iter
        (fun op ->
          (match op with
          | Req (node, dt, back) ->
              clock := !clock +. dt;
              let time = !clock -. back in
              pend.(node) <- pend.(node) @ [ time ];
              Metrics.on_request m ~time ~node
          | Serve (sel, k, dt) -> (
              clock := !clock +. dt;
              let ready =
                List.filter (fun v -> pend.(v) <> []) (List.init n Fun.id)
              in
              match ready with
              | [] -> ()
              | _ ->
                  let node = List.nth ready (sel mod List.length ready) in
                  for _ = 1 to Stdlib.min k (List.length pend.(node)) do
                    serve_one node
                  done));
          check ())
        ops;
      let sorted xs = Array.of_list (List.sort Float.compare xs) in
      let same_samples model q =
        let got = Tr_stats.Quantile.to_sorted_array q in
        Array.length got = Array.length model && Array.for_all2 same got model
      in
      !ok
      && same_samples (sorted !resp) (Metrics.responsiveness_quantiles m)
      && same_samples (sorted !wait) (Metrics.waiting_quantiles m))

(* The grant path keeps no per-request heap objects: once the rings
   and quantile arrays have grown, a closed-loop serve + re-request
   (every node holding one request, as a ring runs) allocates only the
   two samples it hands to [Tr_stats]. A float passed to a function
   that is not inlined is boxed at the call, and [Metrics] hands each
   sample to both of its consumers through one out-of-line function:
   each sample is boxed once, with or without cross-module inlining,
   and dies young. Times come from a prebuilt list, so the loop itself
   boxes nothing. *)
let test_metrics_steady_state_alloc () =
  let n = 8 in
  let m = Metrics.create ~n in
  for node = 0 to n - 1 do
    Metrics.on_request m ~time:(float_of_int node) ~node
  done;
  let times from = List.init 4096 (fun i -> float_of_int (from + i)) in
  let rec cycle node = function
    | time :: rest ->
        Metrics.on_serve m ~time ~node;
        Metrics.on_request m ~time ~node;
        cycle ((node + 1) mod n) rest
    | [] -> ()
  in
  cycle 0 (times n);
  let window = times (n + 4096) in
  let before = Gc.minor_words () in
  cycle 0 window;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "serves" 8192 (Metrics.serves m);
  let boxed_float = 1 + (64 / Sys.word_size) in
  let allowed = float_of_int (List.length window * 2 * boxed_float) in
  if words > allowed then
    Alcotest.failf "%.0f minor words for %d pairs; at most %.0f" words
      (List.length window) allowed

(* ---------------- Trace ---------------- *)

let test_trace_possessions () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 (Trace.Token_at { node = 0 });
  Trace.record t ~time:2.0 (Trace.Request { node = 1 });
  Trace.record t ~time:3.0 (Trace.Token_at { node = 1 });
  Alcotest.(check (list (pair (float 1e-9) int)))
    "possessions"
    [ (1.0, 0); (3.0, 1) ]
    (Trace.token_possessions t)

let test_trace_series () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 (Trace.Request { node = 0 });
  Trace.record t ~time:2.0 (Trace.Request { node = 1 });
  Trace.record t ~time:3.0 (Trace.Served { node = 0; waited = 2.0 });
  Trace.record t ~time:5.0 (Trace.Served { node = 1; waited = 3.0 });
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "running mean (window 2)"
    [ (3.0, 2.0); (5.0, 2.5) ]
    (Trace.running_mean_waiting t ~window:2)

let test_trace_running_mean_window_slides () =
  let t = Trace.create () in
  List.iteri
    (fun i w ->
      Trace.record t ~time:(float_of_int i) (Trace.Served { node = 0; waited = w }))
    [ 10.0; 20.0; 30.0; 40.0 ];
  let last = List.nth (Trace.running_mean_waiting t ~window:2) 3 in
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "last two only" (3.0, 35.0) last

(* Accessors must not rebuild the entry list on every call (the old list
   representation re-reversed it each time): repeated [events] calls
   return the memoized list itself, and recording invalidates it. *)
let test_trace_events_memoized () =
  let t = Trace.create () in
  for i = 1 to 100 do
    Trace.record t ~time:(float_of_int i) (Trace.Request { node = i })
  done;
  let first = Trace.events t in
  Alcotest.(check bool) "second call returns the memoized list" true
    (Trace.events t == first);
  let bytes_before = Gc.allocated_bytes () in
  for _ = 1 to 50 do
    ignore (Sys.opaque_identity (Trace.events t))
  done;
  let per_call = (Gc.allocated_bytes () -. bytes_before) /. 50.0 in
  Alcotest.(check bool) "memoized calls allocate ~nothing" true
    (per_call < 128.0);
  Trace.record t ~time:101.0 (Trace.Request { node = 0 });
  Alcotest.(check bool) "recording invalidates the memo" true
    (Trace.events t != first);
  Alcotest.(check int) "still complete" 101 (List.length (Trace.events t))

(* ---------------- Engine ---------------- *)

(* A minimal ping protocol: node 0 sends Ping around the ring forever;
   each node serves local requests on receipt. *)
module Ping = struct
  type state = { seen : int }
  type msg = Ping of int

  let name = "ping"
  let describe = "test protocol"
  let classify (Ping _) = Metrics.Token_msg
  let label (Ping k) = Printf.sprintf "ping%d" k

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n 0) (Ping 1);
    { seen = 0 }

  let on_message (ctx : msg Node_intf.ctx) state ~src:_ (Ping k) =
    ctx.possession ();
    while ctx.pending () > 0 do
      ctx.serve ()
    done;
    ctx.send ~dst:(Node_intf.succ_node ~n:ctx.n ctx.self) (Ping (k + 1));
    { seen = state.seen + 1 }

  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

module E = Engine.Make (Ping)

(* A run records a trace only when its config asks for one: the trace is
   an observer the engine attaches, not a flag that each event tests. *)
let test_trace_disabled () =
  let run trace =
    let t = E.create { (Engine.default_config ~n:4 ~seed:0) with trace } in
    E.run t ~stop:(Engine.At_time 5.0);
    Trace.length (E.trace t)
  in
  Alcotest.(check int) "nothing recorded" 0 (run false);
  Alcotest.(check bool) "recorded when asked" true (run true > 0)

let test_engine_unit_delay_rotation () =
  let t = E.create (Engine.default_config ~n:4 ~seed:0) in
  E.run t ~stop:(Engine.At_time 10.0);
  (* One hop per unit: the init send plus one per delivery through t=10. *)
  Alcotest.(check int) "token messages" 11 (Metrics.token_messages (E.metrics t));
  Alcotest.(check bool) "clock within bound" true (E.now t <= 10.0)

let test_engine_serves_and_stops () =
  let config =
    {
      (Engine.default_config ~n:4 ~seed:0) with
      workload = Workload.Script [ (2.5, 2); (3.5, 3) ];
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.After_serves 2);
  Alcotest.(check int) "both served" 2 (Metrics.serves (E.metrics t));
  let w = Metrics.waiting (E.metrics t) in
  (* Each request waits at most one full revolution of the ping. *)
  Alcotest.(check bool) "waited for next visit" true
    (Tr_stats.Summary.max w <= 4.0)

let test_engine_determinism () =
  let run seed =
    let config =
      {
        (Engine.default_config ~n:5 ~seed) with
        workload = Workload.Global_poisson { mean_interarrival = 3.0 };
      }
    in
    let t = E.create config in
    E.run t ~stop:(Engine.After_serves 50);
    (E.now t, Metrics.token_messages (E.metrics t))
  in
  Alcotest.(check (pair (float 1e-9) int)) "same seed same run" (run 5) (run 5);
  Alcotest.(check bool) "different seed differs" true (run 5 <> run 6)

let test_engine_crash_blackholes () =
  let config =
    { (Engine.default_config ~n:3 ~seed:0) with crashes = [ (4.5, 2) ] }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.At_time 20.0);
  Alcotest.(check bool) "crashed flag" true (E.crashed t 2);
  (* The ping dies when it hits the crashed node. *)
  Alcotest.(check bool) "rotation stopped" true
    (Metrics.token_messages (E.metrics t) < 8)

let test_engine_request_now () =
  let t = E.create (Engine.default_config ~n:4 ~seed:0) in
  E.run t ~stop:(Engine.At_time 1.5);
  E.request_now t ~node:3;
  E.run t ~stop:(Engine.After_serves 1);
  Alcotest.(check int) "served the manual request" 1 (Metrics.serves (E.metrics t))

module Timers = struct
  type state = { fired : int list }
  type msg = Never [@warning "-37"] (* the protocol never sends *)

  let name = "timers"
  let describe = "timer test protocol"
  let classify Never = Metrics.Control_msg
  let label Never = "never"

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      ctx.set_timer ~delay:1.0 ~key:1;
      ctx.set_timer ~delay:2.0 ~key:2;
      ctx.set_timer ~delay:3.0 ~key:1
    end;
    { fired = [] }

  let on_message _ctx state ~src:_ Never = state

  let on_timer (ctx : msg Node_intf.ctx) state ~key =
    (* Cancelling inside a handler voids the later key-1 timer. *)
    if key = 2 then ctx.cancel_timers ~key:1;
    { fired = key :: state.fired }

  let on_request _ctx state = state
end

let test_engine_n_too_small () =
  Alcotest.(check bool) "n < 2 rejected" true
    (try
       ignore (E.create (Engine.default_config ~n:1 ~seed:0));
       false
     with Invalid_argument _ -> true)

let test_engine_timer_cancellation () =
  let module ET = Engine.Make (Timers) in
  let t = ET.create (Engine.default_config ~n:2 ~seed:0) in
  ET.run t ~stop:(Engine.At_time 10.0);
  Alcotest.(check (list int)) "t=3 key-1 cancelled by key-2 at t=2" [ 2; 1 ]
    (ET.state t 0).Timers.fired

let test_engine_events_counter () =
  let t = E.create (Engine.default_config ~n:4 ~seed:0) in
  Alcotest.(check int) "no events before run" 0 (E.events_processed t);
  E.run t ~stop:(Engine.At_time 10.0);
  (* Unit-delay rotation: exactly one delivery per time unit. *)
  Alcotest.(check int) "ten deliveries" 10 (E.events_processed t);
  E.run t ~stop:(Engine.At_time 15.0);
  Alcotest.(check int) "counter accumulates across runs" 15
    (E.events_processed t)

(* The engine must not pin what it has dispatched. Node 0 sends one
   fresh string to node 1, which drops it; [sent] watches it. *)
module Oneshot = struct
  type state = unit
  type msg = string

  let sent = Weak.create 1
  let name = "oneshot"
  let describe = "sends one heap message"
  let classify _ = Metrics.Control_msg
  let label _ = "oneshot"

  let[@inline never] send_fresh (ctx : msg Node_intf.ctx) =
    let msg = String.init 64 (fun i -> Char.chr (97 + (i mod 26))) in
    Weak.set sent 0 (Some msg);
    ctx.send ~dst:1 msg

  let init (ctx : msg Node_intf.ctx) = if ctx.self = 0 then send_fresh ctx
  let on_message _ctx state ~src:_ _msg = state
  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

(* A delivered message is collectable once dispatched. An Arrival's node
   list is never handed to the test, so it is weighed instead: after a
   batch of all [n] nodes, one more single-node arrival reuses the freed
   event handle. Every node but 0 and 1 has crashed, so neither arrival
   touches the metrics and the engine should reach exactly as many words
   after the second arrival as before it. If the dispatch left the
   batch's list in its slot, it would reach 3n words more before. *)
let test_engine_dispatch_releases () =
  let module EO = Engine.Make (Oneshot) in
  let n = 512 in
  let t =
    EO.create
      {
        (Engine.default_config ~n ~seed:0) with
        workload = Workload.Script (List.init n (fun node -> (1.0, node)));
        crashes = List.init (n - 2) (fun i -> (0.5, i + 2));
      }
  in
  EO.run t ~stop:(Engine.At_time 2.0);
  Alcotest.(check int) "crashes, delivery and batch dispatched" n
    (EO.events_processed t);
  ignore (Sys.opaque_identity (Array.make 64 0));
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "delivered message collected" true
    (Weak.get Oneshot.sent 0 = None);
  let before = Obj.reachable_words (Obj.repr t) in
  EO.request_now t ~node:2;
  EO.run t ~stop:(Engine.At_time 3.0);
  let after = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check int) "arrival dispatched" (n + 1) (EO.events_processed t);
  Alcotest.(check int) "words reachable from the engine" before after

(* More outstanding events than the engine's initial event arena holds:
   node 0 sets [burst] timers and sends as many messages to node 1, all
   at once. Timer delays repeat on a small grid, so ties are common. *)
module Burst = struct
  type state = { log : (float * int) list }
  type msg = Item of int

  let burst = ref 0
  let name = "burst"
  let describe = "sets many timers and sends many messages at init"
  let classify (Item _) = Metrics.Control_msg
  let label (Item i) = string_of_int i

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then
      for i = 0 to !burst - 1 do
        ctx.set_timer ~delay:(float_of_int (i * 7 mod 13)) ~key:i;
        ctx.send ~dst:1 (Item i)
      done;
    { log = [] }

  let on_message (ctx : msg Node_intf.ctx) state ~src:_ (Item i) =
    { log = (ctx.now (), i) :: state.log }

  let on_timer (ctx : msg Node_intf.ctx) state ~key =
    { log = (ctx.now (), key) :: state.log }

  let on_request _ctx state = state
end

(* A burst of 200 grows the arena; a burst of 20 does not. The first 20
   events of the big burst must come out exactly as the small run's. *)
let test_engine_arena_growth () =
  let module EB = Engine.Make (Burst) in
  let logs burst =
    Burst.burst := burst;
    let t = EB.create (Engine.default_config ~n:2 ~seed:0) in
    EB.run t ~stop:(Engine.At_time 20.0);
    Alcotest.(check int)
      (Printf.sprintf "burst %d: every event fired" burst)
      (2 * burst) (EB.events_processed t);
    List.map (fun node -> List.rev (EB.state t node).Burst.log) [ 0; 1 ]
  in
  let small = logs 20 and big = logs 200 in
  let first_20 = List.map (List.filter (fun (_, i) -> i < 20)) big in
  Alcotest.(check (list (list (pair (float 1e-9) int))))
    "grown run matches the small run" small first_20

(* A delivered message's event handle goes back on the free stack before
   its handler runs, so the handler's first new event takes it again.
   The next three protocols check every way that can go. *)

(* The handler sends nothing but arms a timer, so the freed handle
   becomes a Timer: the message slot it leaves behind must not pin the
   delivered message. *)
module Quiet = struct
  type state = unit
  type msg = string

  let sent = Weak.create 1
  let name = "quiet"
  let describe = "receives one heap message and only arms a timer"
  let classify _ = Metrics.Control_msg
  let label _ = "quiet"

  let[@inline never] send_fresh (ctx : msg Node_intf.ctx) =
    let msg = String.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
    Weak.set sent 0 (Some msg);
    ctx.send ~dst:1 msg

  let init (ctx : msg Node_intf.ctx) = if ctx.self = 0 then send_fresh ctx

  let on_message (ctx : msg Node_intf.ctx) state ~src:_ _msg =
    ctx.set_timer ~delay:100.0 ~key:1;
    state

  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

let test_engine_quiet_handler_releases () =
  let module EQ = Engine.Make (Quiet) in
  let t = EQ.create (Engine.default_config ~n:2 ~seed:0) in
  EQ.run t ~stop:(Engine.At_time 10.0);
  Alcotest.(check int) "the delivery dispatched" 1 (EQ.events_processed t);
  ignore (Sys.opaque_identity (Array.make 64 0));
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) "delivered message collected" true
    (Weak.get Quiet.sent 0 = None);
  EQ.run t ~stop:(Engine.At_time 200.0);
  Alcotest.(check int) "the timer still fires" 2 (EQ.events_processed t)

(* Each delivery forwards the very message it received, so the send
   queues the same value in the handle it was delivered from. *)
module Forward = struct
  type state = { received : int; last : string option }
  type msg = string

  let hops = 50
  let original = ref ""
  let name = "forward"
  let describe = "bounces one heap message between two nodes"
  let classify _ = Metrics.Control_msg
  let label _ = "forward"

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      original := String.init 48 (fun i -> Char.chr (97 + (i mod 26)));
      ctx.send ~dst:1 !original
    end;
    { received = 0; last = None }

  let on_message (ctx : msg Node_intf.ctx) state ~src msg =
    let received = state.received + 1 in
    if received <= hops then ctx.send ~dst:src msg;
    { received; last = Some msg }

  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

let test_engine_forwarded_message_intact () =
  let module EF = Engine.Make (Forward) in
  let t = EF.create (Engine.default_config ~n:2 ~seed:0) in
  EF.run t ~stop:(Engine.At_time 1000.0);
  let s0 = EF.state t 0 and s1 = EF.state t 1 in
  Alcotest.(check int) "every hop delivered" ((2 * Forward.hops) + 1)
    (EF.events_processed t);
  List.iter
    (fun (node, (s : Forward.state)) ->
      match s.last with
      | Some m ->
          Alcotest.(check string)
            (Printf.sprintf "node %d got the message intact" node)
            !Forward.original m;
          Alcotest.(check bool)
            (Printf.sprintf "node %d got the same value" node)
            true (m == !Forward.original)
      | None -> Alcotest.failf "node %d got nothing" node)
    [ (0, s0); (1, s1) ]

(* Node 0 arms [armed] timers that never fire before the stop and sends
   one message; node 1 answers it with two fresh messages. Over the
   range of [armed] below, the two answers sometimes exhaust the event
   arena, so the second one grows it after the first has taken the
   delivered message's handle. Both answers must arrive intact. *)
module Answer_two = struct
  type state = { got : string list }
  type msg = string

  let armed = ref 0
  let name = "answer-two"
  let describe = "answers one message with two while timers fill the arena"
  let classify _ = Metrics.Control_msg
  let label m = m

  let init (ctx : msg Node_intf.ctx) =
    if ctx.self = 0 then begin
      for key = 1 to !armed do
        ctx.set_timer ~delay:1000.0 ~key
      done;
      ctx.send ~dst:1 (String.make 40 'q')
    end;
    { got = [] }

  let on_message (ctx : msg Node_intf.ctx) state ~src:_ msg =
    if ctx.self = 1 then begin
      ctx.send ~dst:0 (String.init 40 (fun i -> Char.chr (97 + (i mod 26))));
      ctx.send ~dst:0 (String.init 40 (fun i -> Char.chr (65 + (i mod 26))))
    end;
    { got = msg :: state.got }

  let on_timer _ctx state ~key:_ = state
  let on_request _ctx state = state
end

let test_engine_two_sends_grow_arena () =
  let module EA = Engine.Make (Answer_two) in
  let lower = String.init 40 (fun i -> Char.chr (97 + (i mod 26))) in
  let upper = String.init 40 (fun i -> Char.chr (65 + (i mod 26))) in
  for armed = 50 to 140 do
    Answer_two.armed := armed;
    let t = EA.create (Engine.default_config ~n:2 ~seed:0) in
    EA.run t ~stop:(Engine.At_time 10.0);
    Alcotest.(check int)
      (Printf.sprintf "%d timers armed: three deliveries" armed)
      3 (EA.events_processed t);
    Alcotest.(check (list string))
      (Printf.sprintf "%d timers armed: both answers intact" armed)
      [ upper; lower ] (EA.state t 0).Answer_two.got;
    Alcotest.(check (list string))
      (Printf.sprintf "%d timers armed: the request intact" armed)
      [ String.make 40 'q' ] (EA.state t 1).Answer_two.got
  done

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ---------------- Ctx misuse, both runtimes ---------------- *)

(* One table of ctx misuse, run through the simulator and through a
   two-shard loopback cluster alike: both build their contexts through
   [Node_host]. Node 0 misbehaves from a zero-delay timer, so on the
   cluster the exception rises on a shard and [Cluster.run] re-raises it,
   or, with [at_init], from [init], which the cluster runs before any
   shard starts. *)
let misuse ?(at_init = false) act :
    (module Node_intf.PROTOCOL with type msg = unit) =
  (module struct
    type state = unit
    type msg = unit

    let name = "misuse"
    let describe = "misuses its context"
    let classify () = Metrics.Control_msg
    let label () = "unit"

    let init (ctx : msg Node_intf.ctx) =
      if ctx.self = 0 then
        if at_init then act ctx else ctx.set_timer ~delay:0.0 ~key:1

    let on_message _ctx () ~src:_ () = ()
    let on_timer ctx () ~key = if key = 1 then act ctx
    let on_request _ctx () = ()
  end)

exception Fired of int list

(* Every node sets two timers on a key past the epoch table's initial
   row and one on key 2; the first key-97 firing cancels the second.
   The first key-2 firing reports its node's firings: on two shards,
   the nodes of both grow their epoch rows at about the same time. *)
module BigKey = struct
  type state = int list (* keys fired, newest first *)
  type msg = unit

  let name = "big-key"
  let describe = "uses a timer key past the initial keyspace"
  let classify () = Metrics.Control_msg
  let label () = "unit"

  let init (ctx : msg Node_intf.ctx) =
    ctx.set_timer ~delay:1.0 ~key:97;
    ctx.set_timer ~delay:2.0 ~key:97;
    ctx.set_timer ~delay:3.0 ~key:2;
    []

  let on_message _ctx state ~src:_ () = state

  let on_timer (ctx : msg Node_intf.ctx) state ~key =
    if key = 97 && state = [] then ctx.cancel_timers ~key:97;
    if key = 2 then raise (Fired (List.rev (key :: state)));
    key :: state

  let on_request _ctx state = state
end

let unit_codec : unit Tr_wire.Codec.t =
  {
    name = "unit";
    key = 250;
    version = 1;
    encode_msg = (fun _ () -> ());
    decode_msg = (fun _ -> Ok ());
  }

(* The host's own check, not an index error further down. *)
let invalid = function
  | Invalid_argument m -> String.starts_with ~prefix:"Node_host: " m
  | _ -> false

(* name, protocol, the exception the run must end with *)
let misuse_table =
  [
    ( "rejects bad send",
      misuse (fun (ctx : unit Node_intf.ctx) -> ctx.send ~dst:99 ()),
      invalid );
    ( "rejects bad send from init",
      misuse ~at_init:true (fun ctx -> ctx.send ~dst:99 ()),
      invalid );
    ( "rejects negative timer",
      misuse (fun ctx -> ctx.set_timer ~delay:(-1.0) ~key:2),
      invalid );
    ( "rejects negative timer key",
      misuse (fun ctx -> ctx.set_timer ~delay:1.0 ~key:(-1)),
      invalid );
    ( "rejects negative cancel key",
      misuse (fun ctx -> ctx.cancel_timers ~key:(-1)),
      invalid );
    ( "rejects serve with no request",
      misuse (fun ctx -> ctx.serve ()),
      invalid );
    ( "large timer key",
      (module BigKey),
      function Fired [ 97; 2 ] -> true | _ -> false );
  ]

let run_engine (module P : Node_intf.PROTOCOL with type msg = unit) =
  let module EP = Engine.Make (P) in
  let t = EP.create (Engine.default_config ~n:4 ~seed:0) in
  EP.run t ~stop:(Engine.At_time 10.0)

let run_cluster proto =
  ignore
    (Tr_net_rt.Cluster.run
       {
         (Tr_net_rt.Cluster.default_config ~n:4 ~seed:0) with
         shards = 2;
         stop = Tr_net_rt.Cluster.Duration 10.0;
         max_wall_s = 10.0;
       }
       proto unit_codec)

(* A cluster whose start fails closes its transport: each shard's
   readiness set and wake pipe, 6 fds a run at n = 4 on 2 shards. *)
let test_failed_start_closes_transport () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let proto = misuse ~at_init:true (fun ctx -> ctx.send ~dst:99 ()) in
    let before = fds () in
    for _ = 1 to 5 do
      match run_cluster proto with
      | () -> Alcotest.fail "the run ended without an exception"
      | exception e when invalid e -> ()
    done;
    Alcotest.(check int) "open fds after 5 failed starts" before (fds ())
  end

let misuse_cases run =
  List.map
    (fun (name, proto, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          match run proto with
          | () -> Alcotest.fail "the run ended without an exception"
          | exception e ->
              if not (expected e) then
                Alcotest.failf "unexpected exception %s" (Printexc.to_string e)))
    misuse_table

let () =
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_changes_stream;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        ]
        @ qsuite [ prop_rng_int_bounds; prop_rng_float_bounds ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek/clear" `Quick test_pqueue_peek_clear;
          Alcotest.test_case "popped slot released" `Quick
            test_pqueue_popped_slot_released;
          Alcotest.test_case "clear keeps fifo" `Quick
            test_pqueue_clear_keeps_fifo;
          Alcotest.test_case "cleared slots released" `Quick
            test_pqueue_clear_releases;
        ]
        @ qsuite [ prop_pqueue_sorted; prop_pqueue_model; prop_int_heap_model ]
      );
      ( "network",
        [
          Alcotest.test_case "constant delay" `Quick test_network_constant_delay;
          Alcotest.test_case "uniform bounds" `Quick test_network_uniform_delay_bounds;
          Alcotest.test_case "per-link delay" `Quick test_network_per_link_delay;
          Alcotest.test_case "drop probability" `Quick test_network_drop_probability;
          Alcotest.test_case "partition" `Quick test_network_partition;
          Alcotest.test_case "fixed delay" `Quick test_network_fixed_delay;
          Alcotest.test_case "invalid" `Quick test_network_invalid;
        ] );
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "script batches" `Quick test_workload_script_batches;
          Alcotest.test_case "poisson monotone" `Quick test_workload_poisson_monotone;
          Alcotest.test_case "burst distinct" `Quick test_workload_burst_distinct;
          Alcotest.test_case "hotspot bias" `Quick test_workload_hotspot_bias;
          Alcotest.test_case "per-node poisson" `Quick test_workload_per_node_poisson;
          Alcotest.test_case "continuous" `Quick test_workload_continuous;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "responsiveness semantics" `Quick
            test_metrics_responsiveness_semantics;
          Alcotest.test_case "idle gap resets window" `Quick
            test_metrics_idle_gap_resets_window;
          Alcotest.test_case "serve without request" `Quick
            test_metrics_serve_without_request;
          Alcotest.test_case "fifo waiting" `Quick test_metrics_fifo_waiting;
          Alcotest.test_case "late arrival across nodes" `Quick
            test_metrics_late_arrival_across_nodes;
          Alcotest.test_case "messages/possessions" `Quick
            test_metrics_messages_and_possessions;
          Alcotest.test_case "waiting fairness" `Quick test_metrics_waiting_fairness;
          Alcotest.test_case "steady-state alloc" `Quick
            test_metrics_steady_state_alloc;
        ]
        @ qsuite [ prop_metrics_model ] );
      ( "trace",
        [
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "possessions" `Quick test_trace_possessions;
          Alcotest.test_case "series" `Quick test_trace_series;
          Alcotest.test_case "running-mean window" `Quick
            test_trace_running_mean_window_slides;
          Alcotest.test_case "events memoized" `Quick test_trace_events_memoized;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unit delay rotation" `Quick
            test_engine_unit_delay_rotation;
          Alcotest.test_case "serves and stops" `Quick test_engine_serves_and_stops;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "crash blackholes" `Quick test_engine_crash_blackholes;
          Alcotest.test_case "request_now" `Quick test_engine_request_now;
          Alcotest.test_case "timer cancellation" `Quick
            test_engine_timer_cancellation;
          Alcotest.test_case "n too small" `Quick test_engine_n_too_small;
          Alcotest.test_case "events counter" `Quick test_engine_events_counter;
          Alcotest.test_case "dispatch releases payloads" `Quick
            test_engine_dispatch_releases;
          Alcotest.test_case "event arena growth" `Quick
            test_engine_arena_growth;
          Alcotest.test_case "quiet handler releases message" `Quick
            test_engine_quiet_handler_releases;
          Alcotest.test_case "forwarded message intact" `Quick
            test_engine_forwarded_message_intact;
          Alcotest.test_case "two sends grow the arena" `Quick
            test_engine_two_sends_grow_arena;
        ]
        @ misuse_cases run_engine );
      ( "cluster",
        misuse_cases run_cluster
        @ [
            Alcotest.test_case "failed start closes the transport" `Quick
              test_failed_start_closes_transport;
          ] );
    ]
