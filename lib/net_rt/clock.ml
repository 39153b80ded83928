(* CLOCK_MONOTONIC, read without allocating (io_stubs.c). *)
external monotonic_ns : unit -> int = "tr_clock_monotonic_ns" [@@noalloc]

type t = { epoch_ns : int; unit_s : float; last_ns : int Atomic.t }

let create ?(unit_s = 1e-3) () =
  if not (Float.is_finite unit_s) || unit_s <= 0.0 then
    invalid_arg "Clock.create: unit_s must be positive and finite";
  { epoch_ns = monotonic_ns (); unit_s; last_ns = Atomic.make 0 }

let unit_s t = t.unit_s

(* CLOCK_MONOTONIC never steps backwards, but the runner's due-time
   ordering of timers and frame deliveries across domains rests on reads
   being non-decreasing, so that stays a checked invariant rather than a
   trusted one: every read is clamped to the latest any domain saw. The
   clamp works on int nanoseconds, which an [Atomic] holds unboxed. *)
let now_ns t =
  let v = monotonic_ns () - t.epoch_ns in
  let rec bump () =
    let prev = Atomic.get t.last_ns in
    if v <= prev then prev
    else if Atomic.compare_and_set t.last_ns prev v then v
    else bump ()
  in
  bump ()

let now t = float_of_int (now_ns t) *. 1e-9 /. t.unit_s
let elapsed_wall t = float_of_int (now_ns t) *. 1e-9
