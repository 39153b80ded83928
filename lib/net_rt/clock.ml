type t = { epoch : float; unit_s : float; last : float Atomic.t }

let create ?(unit_s = 1e-3) () =
  if not (Float.is_finite unit_s) || unit_s <= 0.0 then
    invalid_arg "Clock.create: unit_s must be positive and finite";
  { epoch = Unix.gettimeofday (); unit_s; last = Atomic.make 0.0 }

let unit_s t = t.unit_s

(* [Unix.gettimeofday] is the only timing source the container exposes
   and it is not monotonic: an NTP step backwards would reorder timer due
   times and frame delivery. Clamp reads to be non-decreasing across all
   domains so the runner's due-time ordering survives wall-clock steps. *)
let now t =
  let v = (Unix.gettimeofday () -. t.epoch) /. t.unit_s in
  let rec bump () =
    let prev = Atomic.get t.last in
    if v <= prev then prev
    else if Atomic.compare_and_set t.last prev v then v
    else bump ()
  in
  bump ()

let elapsed_wall t = now t *. t.unit_s
