(* Samples live in [first] while a stream holds at most [chunk_size] of
   them: an ordinary float array that grows by doubling from 16, so
   short streams cost no more than one array. The sample that overflows
   it moves the stream off the OCaml heap, into float64 Bigarray chunks
   of [chunk_size] each. Their floats are malloc'd, so the major heap
   keeps only a small header per chunk, and its size, which the GC sets
   from its live data, does not follow the samples. From then on growth
   allocates one chunk per [chunk_size] samples, copies no sample, and
   leaves less than one chunk of slack. *)
let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

module A1 = Bigarray.Array1

type chunk = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

type t = {
  mutable first : float array;  (* the samples while [len <= chunk_size] *)
  mutable chunks : chunk array;
      (* the samples once [len > chunk_size]; unused slots hold [no_chunk] *)
  mutable len : int;
  mutable sorted : bool;
}

let no_chunk : chunk = A1.create Bigarray.Float64 Bigarray.C_layout 0

(* Filled on creation: [A1.create] leaves the memory as malloc returned
   it, and a polymorphic comparison, hash or [Marshal] of a [t] reads
   every slot. *)
let new_chunk () =
  let c = A1.create Bigarray.Float64 Bigarray.C_layout chunk_size in
  A1.fill c 0.0;
  c

let create () =
  { first = Array.make 16 0.0; chunks = [||]; len = 0; sorted = true }

let on_heap t = t.len <= chunk_size

(* Runs once per [chunk_size] samples, when sample [t.len] starts a
   chunk. The first time, the full [first] array becomes chunk 0. *)
let[@inline never] add_chunk t =
  let c = t.len lsr chunk_bits in
  if c = 1 then begin
    let c0 = new_chunk () in
    for i = 0 to chunk_size - 1 do
      A1.unsafe_set c0 i t.first.(i)
    done;
    t.first <- [||];
    t.chunks <- Array.make 2 no_chunk;
    t.chunks.(0) <- c0
  end
  else if c = Array.length t.chunks then begin
    let spine = Array.make (2 * c) no_chunk in
    Array.blit t.chunks 0 spine 0 c;
    t.chunks <- spine
  end;
  t.chunks.(c) <- new_chunk ()

let add t x =
  let i = t.len in
  if i < chunk_size then begin
    if i = Array.length t.first then begin
      let bigger = Array.make (2 * i) 0.0 in
      Array.blit t.first 0 bigger 0 i;
      t.first <- bigger
    end;
    t.first.(i) <- x
  end
  else begin
    if i land chunk_mask = 0 then add_chunk t;
    A1.unsafe_set t.chunks.(i lsr chunk_bits) (i land chunk_mask) x
  end;
  t.len <- i + 1;
  t.sorted <- false

let add_many t xs = List.iter (add t) xs
let count t = t.len

(* Sample [i], for [i] in [0, len): every caller's index is, so the
   accesses skip the bounds checks. *)
let[@inline] get t i =
  if on_heap t then Array.unsafe_get t.first i
  else
    A1.unsafe_get
      (Array.unsafe_get t.chunks (i lsr chunk_bits))
      (i land chunk_mask)

let[@inline] set t i x =
  if on_heap t then Array.unsafe_set t.first i x
  else
    A1.unsafe_set
      (Array.unsafe_get t.chunks (i lsr chunk_bits))
      (i land chunk_mask) x

(* One transient array of [len] floats, in insertion order. *)
let gather t =
  let all = Array.create_float t.len in
  for i = 0 to t.len - 1 do
    all.(i) <- get t i
  done;
  all

(* The samples' order: [Float.compare]'s (NaN first), with -0.0 before
   0.0, which [Float.compare] calls equal. A total order leaves a sort
   no ties to place, so the sorted samples depend on the multiset
   alone, not on the sort. *)
let[@inline] before a b =
  if a < b then true
  else if b < a then false
  else
    (* Equal, or a NaN: the rare case. *)
    let c = Float.compare a b in
    c < 0 || (c = 0 && Float.sign_bit a && not (Float.sign_bit b))

let[@inline] swap t i j =
  let x = get t i in
  set t i (get t j);
  set t j x

(* [lo, hi) by insertion: the short ranges the partitions leave. *)
let insertion t lo hi =
  for i = lo + 1 to hi - 1 do
    let x = get t i in
    let j = ref (i - 1) in
    while !j >= lo && before x (get t !j) do
      set t (!j + 1) (get t !j);
      decr j
    done;
    set t (!j + 1) x
  done

(* [lo, hi) by a binary heap rooted at [lo]: the fallback that bounds
   the worst case at O(n log n) when partitions keep coming out
   lopsided. *)
let heap_sort t lo hi =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c =
        if l + 1 < len && before (get t (lo + l)) (get t (lo + l + 1)) then
          l + 1
        else l
      in
      if before (get t (lo + i)) (get t (lo + c)) then begin
        swap t (lo + i) (lo + c);
        sift c len
      end
    end
  in
  let len = hi - lo in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    swap t lo (lo + last);
    sift 0 last
  done

(* Introsort on the samples where they are stored: median-of-three
   quicksort with Hoare partitions, insertion below 16 samples, and a
   heap sort once the depth passes twice the log of the length. It
   moves floats without boxing them and allocates nothing. Quicksort
   scans its range in order, which suits the chunked storage and the
   cache; a heap sort alone jumps across the whole stream on every
   sift. *)
let rec intro t lo hi depth =
  if hi - lo <= 16 then insertion t lo hi
  else if depth = 0 then heap_sort t lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
    if before (get t mid) (get t lo) then swap t mid lo;
    if before (get t last) (get t mid) then begin
      swap t last mid;
      if before (get t mid) (get t lo) then swap t mid lo
    end;
    (* [lo] and [last] now bound the scans: neither index runs off. *)
    let p = get t mid in
    let i = ref lo and j = ref last and go = ref true in
    while !go do
      incr i;
      while before (get t !i) p do
        incr i
      done;
      decr j;
      while before p (get t !j) do
        decr j
      done;
      if !i < !j then swap t !i !j else go := false
    done;
    intro t lo (!j + 1) (depth - 1);
    intro t (!j + 1) hi (depth - 1)
  end

let sort_in_place t =
  if not t.sorted then begin
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    intro t 0 t.len (2 * log2 t.len);
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
    let hi = Int.min (lo + 1) (t.len - 1) in
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
