(* Samples live in chunks. The first chunk grows by doubling from 16
   floats up to [chunk_size], exactly as a single array would, so short
   streams keep that layout. Past it, every further chunk is allocated
   at full size: growth never copies a sample or discards an array, and
   capacity exceeds the count by less than one chunk. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type t = {
  mutable chunks : float array array;  (* unused slots hold [||] *)
  mutable len : int;
  mutable sorted : bool;
}

let create () = { chunks = [| Array.make 16 0.0 |]; len = 0; sorted = true }

let add t x =
  let i = t.len in
  let c = i lsr chunk_bits in
  if c = 0 then begin
    let first = t.chunks.(0) in
    if i = Array.length first then begin
      let bigger = Array.make (2 * i) 0.0 in
      Array.blit first 0 bigger 0 i;
      t.chunks.(0) <- bigger
    end
  end
  else if i land chunk_mask = 0 then begin
    if c = Array.length t.chunks then begin
      let spine = Array.make (2 * c) [||] in
      Array.blit t.chunks 0 spine 0 c;
      t.chunks <- spine
    end;
    t.chunks.(c) <- Array.make chunk_size 0.0
  end;
  t.chunks.(c).(i land chunk_mask) <- x;
  t.len <- i + 1;
  t.sorted <- false

let add_many t xs = List.iter (add t) xs
let count t = t.len
let get t i = t.chunks.(i lsr chunk_bits).(i land chunk_mask)

(* Visit the samples chunk by chunk as [(chunk, offset of its first
   sample, samples in it)]. *)
let iter_chunks t f =
  let c = ref 0 in
  while !c lsl chunk_bits < t.len do
    let base = !c lsl chunk_bits in
    f t.chunks.(!c) base (Stdlib.min chunk_size (t.len - base));
    incr c
  done

let gather t =
  let all = Array.create_float t.len in
  iter_chunks t (fun chunk base n -> Array.blit chunk 0 all base n);
  all

(* One transient array of [len] floats. It is gathered in insertion
   order, so the result is that of sorting the samples as they arrived,
   down to which of two equal keys (0.0 and -0.0) lands first. *)
let sort_in_place t =
  if not t.sorted then begin
    let all = gather t in
    Array.sort Float.compare all;
    iter_chunks t (fun chunk base n -> Array.blit all base chunk 0 n);
    t.sorted <- true
  end

let quantile t q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Quantile.quantile: q outside [0,1]";
  if t.len = 0 then nan
  else begin
    sort_in_place t;
    (* Type-7: h = (n-1) q; interpolate between floor(h) and ceil(h). *)
    let h = float_of_int (t.len - 1) *. q in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (t.len - 1) in
    let frac = h -. Float.floor h in
    get t lo +. (frac *. (get t hi -. get t lo))
  end

let median t = quantile t 0.5
let p90 t = quantile t 0.9
let p99 t = quantile t 0.99
let iqr t = quantile t 0.75 -. quantile t 0.25

let to_sorted_array t =
  sort_in_place t;
  gather t

let pp ppf t =
  if t.len = 0 then Format.fprintf ppf "quantiles(n=0)"
  else
    Format.fprintf ppf "quantiles(n=%d p50=%.4g p90=%.4g p99=%.4g)" t.len
      (median t) (p90 t) (p99 t)
