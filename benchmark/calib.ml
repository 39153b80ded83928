(* The host's speed for allocating OCaml code, read with a fixed
   reference job between the pieces of work of the two CPU-bound
   workloads, and the scale that takes their times to the reference
   host.

   The reference host is a shared VM. Its speed for this kind of code
   drifts with what the other guests on the machine do: over a few
   minutes the same simulator block took 82 ms of CPU time, then 145 ms,
   and a 1024-node socket ring slowed alike. CPU time already leaves out
   the spells in which another guest holds the vCPU; this drift is in
   the speed of the vCPU while it runs (shared caches and cores), which
   no clock of the guest can subtract. The reference job slows with it:
   over two sets of ten runs of each workload, its time and theirs rose
   and fell together with correlations of 0.83 to 0.97, where a pointer
   chase through the last-level cache tracked them at 0.14 to 0.72, and
   in three sets of ten runs scaling by the job cut the spread of the
   simulator's block time from 10-20 % to 2-9 %.

   The job is the benchmark's own code and calls nothing in the library,
   so a change to the program cannot speed it up or slow it down: it
   replaces values in a 4096-slot [Hashtbl] with freshly allocated lists
   and looks others up, so it allocates, promotes and collects as the
   simulator and the cluster do. *)

let iterations = 200_000

(* The job's CPU nanoseconds per iteration that define the reference
   host: a scaled time is the time the work would have taken had the
   job read this. *)
let nominal_ns = 125.

type t = { samples : Samples.t }

let create () = { samples = Samples.create 64 }

(* Where the job's lookups go, so that none is dead code. *)
let sink = ref 0

(* Run the job once on this thread and keep its CPU nanoseconds per
   iteration. *)
let probe t =
  let c0 = Mono.thread_cpu () in
  let tbl = Hashtbl.create 4096 in
  for i = 1 to iterations do
    Hashtbl.replace tbl (i land 4095) ([ i; i + 1; i + 2 ], float_of_int i);
    match Hashtbl.find_opt tbl ((i * 7) land 4095) with
    | Some (l, _) -> sink := !sink + List.length l
    | None -> ()
  done;
  let dt = Mono.thread_cpu () -. c0 in
  Samples.add t.samples (dt *. 1e9 /. float_of_int iterations)

let count t = Samples.count t.samples

(* The scale for work done between probes [i] and [j]: multiply a time
   by it, divide a rate by it. *)
let scale t i j =
  let s = t.samples.Samples.a in
  nominal_ns /. (0.5 *. (s.(i) +. s.(j)))

let median_ns t = Samples.median t.samples
