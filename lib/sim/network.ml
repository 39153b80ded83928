type channel = Reliable | Cheap

type delay_model =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Per_link of (src:int -> dst:int -> float)

type t = {
  reliable_delay : delay_model;
  cheap_delay : delay_model;
  cheap_drop_probability : float;
  partitioned : (int -> int -> bool) option;
}

(* Delay models are validated when the network is configured, not when
   the first bad sample is drawn mid-run: a [Uniform] with inverted or
   negative bounds and a non-finite [Constant]/[Exponential] are config
   errors. [Per_link] functions can't be enumerated here, so they are
   wrapped with a guard that turns a non-positive or non-finite sample
   into a descriptive [Invalid_argument] naming the link. *)
let validate_model ~what = function
  | Constant d ->
      if not (Float.is_finite d) || d < 0.0 then
        invalid_arg
          (Printf.sprintf
             "Network.create: %s Constant delay %g must be finite and \
              non-negative"
             what d)
  | Uniform (lo, hi) ->
      if not (Float.is_finite lo && Float.is_finite hi) then
        invalid_arg
          (Printf.sprintf "Network.create: %s Uniform bounds must be finite"
             what)
      else if lo < 0.0 || hi < lo then
        invalid_arg
          (Printf.sprintf
             "Network.create: %s Uniform (%g, %g) needs 0 <= lo <= hi" what lo
             hi)
  | Exponential mean ->
      if not (Float.is_finite mean) || mean <= 0.0 then
        invalid_arg
          (Printf.sprintf
             "Network.create: %s Exponential mean %g must be positive and \
              finite"
             what mean)
  | Per_link _ -> ()

let guard_per_link ~what = function
  | Per_link f ->
      Per_link
        (fun ~src ~dst ->
          let d = f ~src ~dst in
          if not (Float.is_finite d) || d <= 0.0 then
            invalid_arg
              (Printf.sprintf
                 "Network: %s Per_link delay %g on link %d->%d must be \
                  positive and finite"
                 what d src dst);
          d)
  | model -> model

let create ?(reliable_delay = Constant 1.0) ?(cheap_delay = Constant 1.0)
    ?(cheap_drop_probability = 0.0) ?partitioned () =
  if
    (not (Float.is_finite cheap_drop_probability))
    || cheap_drop_probability < 0.0
    || cheap_drop_probability > 1.0
  then invalid_arg "Network.create: drop probability outside [0,1]";
  validate_model ~what:"reliable" reliable_delay;
  validate_model ~what:"cheap" cheap_delay;
  {
    reliable_delay = guard_per_link ~what:"reliable" reliable_delay;
    cheap_delay = guard_per_link ~what:"cheap" cheap_delay;
    cheap_drop_probability;
    partitioned;
  }

let default = create ()

let epsilon_delay = 1e-9

(* The polymorphic [max epsilon_delay raw], spelled out: the call would
   go through [compare_val] on every send. *)
let floor_delay raw = if epsilon_delay >= raw then epsilon_delay else raw

let sample model rng ~src ~dst =
  floor_delay
    (match model with
    | Constant d -> d
    | Uniform (lo, hi) -> Rng.uniform_range rng ~lo ~hi
    | Exponential mean -> Rng.exponential rng ~mean
    | Per_link f -> f ~src ~dst)

let sample_delay t rng channel ~src ~dst =
  match channel with
  | Reliable -> sample t.reliable_delay rng ~src ~dst
  | Cheap -> sample t.cheap_delay rng ~src ~dst

let dropped t rng channel ~src ~dst =
  (match t.partitioned with Some p -> p src dst | None -> false)
  ||
  match channel with
  | Reliable -> false
  | Cheap ->
      t.cheap_drop_probability > 0.0
      && Rng.float rng 1.0 < t.cheap_drop_probability

(* A channel is fixed when sending on it draws nothing and loses
   nothing: a [Constant] delay, no partition and, on [Cheap], no random
   loss. Its delay goes through the same floor as {!sample}'s. *)
let fixed_delay t channel =
  match (t.partitioned, channel) with
  | Some _, _ -> None
  | None, Reliable -> (
      match t.reliable_delay with
      | Constant d -> Some (floor_delay d)
      | Uniform _ | Exponential _ | Per_link _ -> None)
  | None, Cheap -> (
      match t.cheap_delay with
      | Constant d when t.cheap_drop_probability = 0.0 ->
          Some (floor_delay d)
      | Constant _ | Uniform _ | Exponential _ | Per_link _ -> None)

let pp_channel ppf = function
  | Reliable -> Format.pp_print_string ppf "reliable"
  | Cheap -> Format.pp_print_string ppf "cheap"
