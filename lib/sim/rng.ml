(* The 64-bit state lives unboxed in an 8-byte buffer, read and written
   with [Bytes.get/set_int64_ne]. A [mutable int64] field would box a
   fresh [Int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* The SplitMix64 output mix (Steele, Lea & Flood, OOPSLA 2014). *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t = of_state (bits64 t)
let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling on the top 62 bits to stay unbiased. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFFL in
  let rec draw () =
    let r = Int64.to_int (Int64.logand (bits64 t) mask) in
    let v = r mod bound in
    if r - v > (1 lsl 62) - bound then draw () else v
  in
  draw ()

let float t bound =
  (* 53 random bits scaled to [0, 1), then stretched. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Rng.exponential: mean <= 0";
  (* 1 - u is in (0, 1], so log never sees 0. *)
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let uniform_range t ~lo ~hi = lo +. float t (hi -. lo)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
