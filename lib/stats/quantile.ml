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

let[@inline] get t i =
  if on_heap t then t.first.(i)
  else A1.get t.chunks.(i lsr chunk_bits) (i land chunk_mask)

let[@inline] set t i x =
  if on_heap t then t.first.(i) <- x
  else A1.set t.chunks.(i lsr chunk_bits) (i land chunk_mask) x

(* One transient array of [len] floats, in insertion order. *)
let gather t =
  let all = Array.create_float t.len in
  for i = 0 to t.len - 1 do
    all.(i) <- get t i
  done;
  all

(* Stdlib's [Array.sort] (a ternary heap sort) step for step, run on
   the samples where they are stored. Its comparator is [Float.compare]
   on unboxed floats, its recursion and its [Bottom] exception become
   loops and a -1 child, and no float is boxed, so the sort allocates
   one closure. The same comparisons on the same elements make the same
   moves: the samples come out exactly as [Array.sort Float.compare]
   leaves them, down to which of two equal keys (0.0 and -0.0) lands
   first. *)
let sort_in_place t =
  if not t.sorted then begin
    (* The larger child of [i] in a heap of [l] samples; -1 at a leaf. *)
    let maxson l i =
      let i31 = i + i + i + 1 in
      if i31 + 2 < l then begin
        let x =
          if Float.compare (get t i31) (get t (i31 + 1)) < 0 then i31 + 1
          else i31
        in
        if Float.compare (get t x) (get t (i31 + 2)) < 0 then i31 + 2 else x
      end
      else if i31 + 1 < l && Float.compare (get t i31) (get t (i31 + 1)) < 0
      then i31 + 1
      else if i31 < l then i31
      else -1
    in
    let l = t.len in
    (* Heapify: sift each inner node's sample down. *)
    for i0 = ((l + 1) / 3) - 1 downto 0 do
      let e = get t i0 in
      let i = ref i0 and sifting = ref true in
      while !sifting do
        let j = maxson l !i in
        if j >= 0 && Float.compare (get t j) e > 0 then begin
          set t !i (get t j);
          i := j
        end
        else begin
          set t !i e;
          sifting := false
        end
      done
    done;
    (* Move the root to the end, walk the hole down to a leaf along the
       larger children, then sift the displaced sample up from there. *)
    for last = l - 1 downto 2 do
      let e = get t last in
      set t last (get t 0);
      let i = ref 0 and j = ref (maxson last 0) in
      while !j >= 0 do
        set t !i (get t !j);
        i := !j;
        j := maxson last !i
      done;
      let sifting = ref true in
      while !sifting do
        let father = (!i - 1) / 3 in
        if Float.compare (get t father) e < 0 then begin
          set t !i (get t father);
          if father > 0 then i := father
          else begin
            set t 0 e;
            sifting := false
          end
        end
        else begin
          set t !i e;
          sifting := false
        end
      done
    done;
    if l > 1 then begin
      let e = get t 1 in
      set t 1 (get t 0);
      set t 0 e
    end;
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
