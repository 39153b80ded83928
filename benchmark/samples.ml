(* Every sample kept in a flat float array, percentiles read exactly.
   Callers size the array up front from the workload's schedule, so the
   measured loop never allocates; [add] only grows the array when an
   estimate was short. Samples stay in arrival order; quantiles read a
   sorted copy. *)

type t = {
  mutable a : float array;
  mutable n : int;
  mutable sorted : float array option;
}

let create cap = { a = Array.create_float (Stdlib.max 16 cap); n = 0; sorted = None }

let add t x =
  if t.n = Array.length t.a then begin
    let grown = Array.create_float (2 * t.n) in
    Array.blit t.a 0 grown 0 t.n;
    t.a <- grown
  end;
  Array.unsafe_set t.a t.n x;
  t.n <- t.n + 1;
  t.sorted <- None

let count t = t.n

let sorted t =
  match t.sorted with
  | Some s -> s
  | None ->
      let s = Array.sub t.a 0 t.n in
      Array.sort Float.compare s;
      t.sorted <- Some s;
      s

(* Linear interpolation between closest ranks (R's type 7), the same
   estimator as [Tr_stats.Quantile]. [nan] when empty. A rank that lands
   on a sample, or between equal samples, reads that sample without
   arithmetic, so samples of [infinity] (requests never answered) give
   [infinity] and never [0 * inf] or [inf - inf]. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = h -. float_of_int lo in
    if frac = 0. || s.(lo) = s.(hi) then s.(lo)
    else s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let quantile t q = quantile_sorted (sorted t) q
let median t = quantile t 0.5

(* How many samples are at most [x]. *)
let count_le t x =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if t.a.(i) <= x then incr k
  done;
  !k

let mean t =
  if t.n = 0 then Float.nan
  else begin
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s /. float_of_int t.n
  end

let of_list l =
  let t = create (List.length l) in
  List.iter (add t) l;
  t

(* Python's [statistics.quantiles(values, n=4)] with its default
   'exclusive' method: the quartiles the benchmark's acceptance rule is
   computed with, so [compare] and the calibration agree with it. *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let n = Array.length d in
  if n < 2 then invalid_arg "Samples.quartiles: need at least two values";
  let m = n + 1 in
  let q i =
    let j = Stdlib.max 1 (Stdlib.min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)
