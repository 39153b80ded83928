(* Monotonic wall clock for every timing the suite takes, and the CPU
   clocks the CPU-bound workloads are timed on. *)

external ns : unit -> int = "bench_clock_ns" [@@noalloc]
external cpu_ns : bool -> int = "bench_cpu_ns" [@@noalloc]

(* Seconds since an arbitrary origin. *)
let now () = float_of_int (ns ()) *. 1e-9

(* CPU seconds the calling thread has run. *)
let thread_cpu () = float_of_int (cpu_ns false) *. 1e-9

(* CPU seconds every thread of this process has run. *)
let process_cpu () = float_of_int (cpu_ns true) *. 1e-9
