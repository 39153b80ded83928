(* Every field is a float, so OCaml stores the record flat (as a float
   array): [add] writes each field in place, where a record mixing int
   and float fields boxes every float it stores. Counts are held as
   floats; they stay exact below 2^53. *)
type t = {
  mutable count : float;
  mutable nan_count : float;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations from the running mean *)
  mutable total : float;
  mutable min : float;
  mutable max : float;
  mutable last : float;
}

let create () =
  {
    count = 0.0;
    nan_count = 0.0;
    mean = 0.0;
    m2 = 0.0;
    total = 0.0;
    min = infinity;
    max = neg_infinity;
    last = nan;
  }

let copy t = { t with count = t.count }

let add t x =
  if Float.is_nan x then t.nan_count <- t.nan_count +. 1.0
  else begin
    t.count <- t.count +. 1.0;
    t.total <- t.total +. x;
    t.last <- x;
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. t.count);
    let delta2 = x -. t.mean in
    t.m2 <- t.m2 +. (delta *. delta2)
  end

let add_many t xs = List.iter (add t) xs

let merge a b =
  if a.count = 0.0 then copy b
  else if b.count = 0.0 then copy a
  else begin
    let n_a = a.count and n_b = b.count in
    let n = n_a +. n_b in
    let delta = b.mean -. a.mean in
    {
      count = n;
      nan_count = a.nan_count +. b.nan_count;
      mean = a.mean +. (delta *. n_b /. n);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. n_a *. n_b /. n);
      total = a.total +. b.total;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
      last = b.last;
    }
  end

let count t = int_of_float t.count
let nan_count t = int_of_float t.nan_count
let total t = t.total
let mean t = if t.count = 0.0 then nan else t.mean

let variance t = if t.count < 2.0 then nan else t.m2 /. (t.count -. 1.0)

let stddev t = sqrt (variance t)
let min t = if t.count = 0.0 then nan else t.min
let max t = if t.count = 0.0 then nan else t.max
let last t = t.last

let ci95_halfwidth t =
  if t.count < 2.0 then nan else 1.96 *. stddev t /. sqrt t.count

let pp ppf t =
  if t.count = 0.0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" (count t)
      (mean t) (stddev t) (min t) (max t)
