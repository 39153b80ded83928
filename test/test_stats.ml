(* Unit and property tests for Tr_stats: summaries, quantiles,
   histograms, series tables. *)

module Summary = Tr_stats.Summary
module Quantile = Tr_stats.Quantile
module Histogram = Tr_stats.Histogram
module Series = Tr_stats.Series

let check_float = Alcotest.(check (float 1e-9))
let check_close msg expected got = Alcotest.(check (float 1e-6)) msg expected got

(* ---------------- Summary ---------------- *)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check int) "count" 0 (Summary.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check bool) "min nan" true (Float.is_nan (Summary.min s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Summary.variance s))

let test_summary_single () =
  let s = Summary.create () in
  Summary.add s 42.0;
  check_float "mean" 42.0 (Summary.mean s);
  check_float "min" 42.0 (Summary.min s);
  check_float "max" 42.0 (Summary.max s);
  check_float "total" 42.0 (Summary.total s);
  Alcotest.(check bool) "variance of 1 sample is nan" true
    (Float.is_nan (Summary.variance s))

let test_summary_known_values () =
  let s = Summary.create () in
  Summary.add_many s [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_close "mean" 5.0 (Summary.mean s);
  (* Sample variance with n-1: sum of squared devs = 32, 32/7. *)
  check_close "variance" (32.0 /. 7.0) (Summary.variance s);
  check_float "min" 2.0 (Summary.min s);
  check_float "max" 9.0 (Summary.max s);
  check_float "last" 9.0 (Summary.last s)

let test_summary_nan_excluded () =
  let s = Summary.create () in
  Summary.add s 1.0;
  Summary.add s nan;
  Summary.add s 3.0;
  Alcotest.(check int) "count" 2 (Summary.count s);
  Alcotest.(check int) "nan_count" 1 (Summary.nan_count s);
  check_close "mean" 2.0 (Summary.mean s)

let test_summary_merge () =
  let a = Summary.create () and b = Summary.create () in
  Summary.add_many a [ 1.0; 2.0; 3.0 ];
  Summary.add_many b [ 10.0; 20.0 ];
  let m = Summary.merge a b in
  let direct = Summary.create () in
  Summary.add_many direct [ 1.0; 2.0; 3.0; 10.0; 20.0 ];
  Alcotest.(check int) "count" (Summary.count direct) (Summary.count m);
  check_close "mean" (Summary.mean direct) (Summary.mean m);
  check_close "variance" (Summary.variance direct) (Summary.variance m);
  check_float "min" 1.0 (Summary.min m);
  check_float "max" 20.0 (Summary.max m);
  (* merge must not mutate its arguments *)
  Alcotest.(check int) "a untouched" 3 (Summary.count a)

let test_summary_merge_empty () =
  let a = Summary.create () and b = Summary.create () in
  Summary.add b 5.0;
  check_close "empty+b" 5.0 (Summary.mean (Summary.merge a b));
  check_close "b+empty" 5.0 (Summary.mean (Summary.merge b a))

let test_summary_copy_independent () =
  let a = Summary.create () in
  Summary.add a 1.0;
  let b = Summary.copy a in
  Summary.add b 100.0;
  Alcotest.(check int) "a unchanged" 1 (Summary.count a);
  Alcotest.(check int) "b extended" 2 (Summary.count b)

let prop_welford_matches_two_pass =
  QCheck.Test.make ~name:"welford variance = two-pass variance" ~count:200
    QCheck.(list_of_size Gen.(2 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      QCheck.assume (List.length xs >= 2);
      let s = Summary.create () in
      Summary.add_many s xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      Float.abs (Summary.variance s -. var) < 1e-6 *. (1.0 +. var))

let prop_mean_bounded =
  QCheck.Test.make ~name:"mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Summary.create () in
      Summary.add_many s xs;
      Summary.mean s >= Summary.min s -. 1e-9
      && Summary.mean s <= Summary.max s +. 1e-9)

(* A plain Welford accumulator with int counts: whatever layout
   [Summary] stores its state in, every accessor must agree with this
   one bit for bit. *)
module Ref_welford = struct
  type t = {
    mutable count : int;
    mutable nan_count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable total : float;
    mutable min : float;
    mutable max : float;
    mutable last : float;
  }

  let create () =
    {
      count = 0;
      nan_count = 0;
      mean = 0.0;
      m2 = 0.0;
      total = 0.0;
      min = infinity;
      max = neg_infinity;
      last = nan;
    }

  let add t x =
    if Float.is_nan x then t.nan_count <- t.nan_count + 1
    else begin
      t.count <- t.count + 1;
      t.total <- t.total +. x;
      t.last <- x;
      if x < t.min then t.min <- x;
      if x > t.max then t.max <- x;
      let delta = x -. t.mean in
      t.mean <- t.mean +. (delta /. float_of_int t.count);
      t.m2 <- t.m2 +. (delta *. (x -. t.mean))
    end

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else
      let n_a = float_of_int a.count and n_b = float_of_int b.count in
      let n = n_a +. n_b in
      let delta = b.mean -. a.mean in
      {
        count = a.count + b.count;
        nan_count = a.nan_count + b.nan_count;
        mean = a.mean +. (delta *. n_b /. n);
        m2 = a.m2 +. b.m2 +. (delta *. delta *. n_a *. n_b /. n);
        total = a.total +. b.total;
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
        last = b.last;
      }

  let mean t = if t.count = 0 then nan else t.mean

  let variance t =
    if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)
  let min t = if t.count = 0 then nan else t.min
  let max t = if t.count = 0 then nan else t.max

  let ci95_halfwidth t =
    if t.count < 2 then nan
    else 1.96 *. stddev t /. sqrt (float_of_int t.count)

  let pp t =
    if t.count = 0 then "n=0"
    else
      Printf.sprintf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" t.count
        (mean t) (stddev t) (min t) (max t)
end

(* Every accessor of [s] against the reference [r], floats by bits. *)
let summary_matches s (r : Ref_welford.t) =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  Summary.count s = r.count
  && Summary.nan_count s = r.nan_count
  && same (Summary.total s) r.total
  && same (Summary.mean s) (Ref_welford.mean r)
  && same (Summary.variance s) (Ref_welford.variance r)
  && same (Summary.stddev s) (Ref_welford.stddev r)
  && same (Summary.min s) (Ref_welford.min r)
  && same (Summary.max s) (Ref_welford.max r)
  && same (Summary.last s) r.last
  && same (Summary.ci95_halfwidth s) (Ref_welford.ci95_halfwidth r)
  && Format.asprintf "%a" Summary.pp s = Ref_welford.pp r

(* Streams mix NaN (counted apart), infinities, exact small values and
   arbitrary doubles, so counts, extrema and the moments all move. *)
let summary_stream =
  let open QCheck.Gen in
  list_size (0 -- 60)
    (frequency
       [
         (1, return nan);
         (1, oneofl [ infinity; neg_infinity; 0.0; -0.0 ]);
         (4, map float_of_int (-20 -- 20));
         (6, float_range (-1e6) 1e6);
       ])

let prop_summary_matches_reference =
  QCheck.Test.make ~name:"bits match reference Welford" ~count:500
    QCheck.(
      make
        ~print:Print.(pair (list float) (list float))
        Gen.(pair summary_stream summary_stream))
    (fun (xs, ys) ->
      let build zs =
        let s = Summary.create () and r = Ref_welford.create () in
        List.iter (fun z -> Summary.add s z; Ref_welford.add r z) zs;
        (s, r)
      in
      let sa, ra = build xs and sb, rb = build ys in
      let copy = Summary.copy sa in
      Summary.add copy 1.0;
      summary_matches sa ra && summary_matches sb rb
      && summary_matches (Summary.merge sa sb) (Ref_welford.merge ra rb)
      && summary_matches (Summary.merge sb sa) (Ref_welford.merge rb ra)
      && summary_matches (Summary.copy sb) rb
      && summary_matches sa ra)

(* [add] updates the accumulator in place: after the first call it
   allocates nothing on the minor heap. The observations come from a
   prebuilt list, so the loop itself boxes nothing. *)
let test_summary_add_alloc () =
  let s = Summary.create () in
  let xs = List.init 1000 (fun i -> if i mod 97 = 0 then nan else float_of_int i) in
  let rec feed = function
    | x :: rest ->
        Summary.add s x;
        feed rest
    | [] -> ()
  in
  feed xs;
  let before = Gc.minor_words () in
  feed xs;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "count" 1978 (Summary.count s);
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

(* ---------------- Quantile ---------------- *)

let test_quantile_empty () =
  let q = Quantile.create () in
  Alcotest.(check bool) "nan" true (Float.is_nan (Quantile.median q))

let test_quantile_extremes () =
  let q = Quantile.create () in
  Quantile.add_many q [ 5.0; 1.0; 3.0 ];
  check_float "q0 = min" 1.0 (Quantile.quantile q 0.0);
  check_float "q1 = max" 5.0 (Quantile.quantile q 1.0);
  check_float "median" 3.0 (Quantile.median q)

let test_quantile_interpolation () =
  let q = Quantile.create () in
  Quantile.add_many q [ 0.0; 10.0 ];
  check_float "q0.25 interpolates" 2.5 (Quantile.quantile q 0.25)

let test_quantile_invalid () =
  let q = Quantile.create () in
  Quantile.add q 1.0;
  Alcotest.check_raises "q > 1" (Invalid_argument "Quantile.quantile: q outside [0,1]")
    (fun () -> ignore (Quantile.quantile q 1.5));
  (* NaN fails every comparison, so it must fail the in-range test. *)
  Alcotest.check_raises "q = nan" (Invalid_argument "Quantile.quantile: q outside [0,1]")
    (fun () -> ignore (Quantile.quantile q nan))

let test_quantile_add_after_query () =
  let q = Quantile.create () in
  Quantile.add_many q [ 1.0; 2.0; 3.0 ];
  ignore (Quantile.median q);
  Quantile.add q 100.0;
  check_float "max updated" 100.0 (Quantile.quantile q 1.0)

(* Type-7 on a sorted array, written out again so the property below
   compares against an independent copy. *)
let reference_quantile sorted q =
  let n = Array.length sorted in
  let h = float_of_int (n - 1) *. q in
  let lo = int_of_float (Float.floor h) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = h -. Float.floor h in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

(* Streams straddle 2^16 and 2^17 samples and are queried part way, so
   adds land after a sort, on both sides of a storage boundary. Every
   answer must equal the sorted reference bit for bit. Samples are
   non-negative, so -0.0 never ties with 0.0 and the sorted order is
   unique. *)
let prop_quantile_matches_sorted_reference =
  let gen =
    let open QCheck.Gen in
    let* base = oneofl [ 1 lsl 16; 1 lsl 17 ] in
    let* len = map (fun d -> base + d) (-2 -- 2) in
    let* seed = int_bound 1_000_000 in
    let+ stops = list_size (0 -- 2) (1 -- len) in
    (len, seed, List.sort_uniq Int.compare stops)
  in
  QCheck.Test.make ~name:"answers match a sorted reference by bits" ~count:5
    (QCheck.make
       ~print:(fun (len, seed, stops) ->
         Printf.sprintf "len=%d seed=%d stops=[%s]" len seed
           (String.concat ";" (List.map string_of_int stops)))
       gen)
    (fun (len, seed, stops) ->
      let rng = Random.State.make [| seed |] in
      let xs =
        Array.init len (fun _ ->
            if Random.State.int rng 4 = 0 then
              float_of_int (Random.State.int rng 50)
            else Random.State.float rng 1e3)
      in
      let bits x = Int64.bits_of_float x in
      let same a b = Int64.equal (bits a) (bits b) in
      let t = Quantile.create () in
      let agrees k =
        let sorted = Array.sub xs 0 k |> Array.to_list in
        let sorted = Array.of_list (List.sort Float.compare sorted) in
        let at q = same (Quantile.quantile t q) (reference_quantile sorted q) in
        Quantile.count t = k
        && List.for_all at [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]
        && at (Random.State.float rng 1.0)
        && same (Quantile.iqr t)
             (reference_quantile sorted 0.75 -. reference_quantile sorted 0.25)
        && Array.for_all2 same (Quantile.to_sorted_array t) sorted
      in
      let added = ref 0 in
      List.for_all
        (fun k ->
          while !added < k do
            Quantile.add t xs.(!added);
            incr added
          done;
          agrees k)
        (stops @ [ len ]))

(* The sort against [Array.sort Float.compare]: samples with many
   duplicates, both zeros, NaNs and negatives, in short streams and in
   streams just past the 2^16-sample chunk edge. [Float.compare] calls
   -0.0 and 0.0 equal, and the reference's heap sort places such ties
   wherever its moves leave them; the sort puts -0.0 first. So the two
   must agree by [Float.compare] everywhere and by bits wherever the
   sample is neither a zero nor a NaN, and no 0.0 may precede a -0.0.
   Quantiles must agree by [Float.compare]. *)
let prop_sort_matches_array_sort =
  let gen =
    let open QCheck.Gen in
    let* len =
      oneof [ 0 -- 300; map (fun d -> (1 lsl 16) + d) (-3 -- 3000) ]
    in
    let+ seed = int_bound 1_000_000 in
    (len, seed)
  in
  QCheck.Test.make ~name:"the sort matches Array.sort Float.compare" ~count:8
    (QCheck.make
       ~print:(fun (len, seed) -> Printf.sprintf "len=%d seed=%d" len seed)
       gen)
    (fun (len, seed) ->
      let rng = Random.State.make [| seed |] in
      let xs =
        Array.init len (fun _ ->
            match Random.State.int rng 8 with
            | 0 -> 0.0
            | 1 -> -0.0
            | 2 -> nan
            | 3 | 4 -> float_of_int (Random.State.int rng 20 - 10)
            | _ -> Random.State.float rng 2e3 -. 1e3)
      in
      let t = Quantile.create () in
      Array.iter (Quantile.add t) xs;
      let reference = Array.copy xs in
      Array.sort Float.compare reference;
      let got = Quantile.to_sorted_array t in
      let bits x = Int64.bits_of_float x in
      let agree a b =
        Float.compare a b = 0
        && (a = 0.0 || Float.is_nan a || Int64.equal (bits a) (bits b))
      in
      let zeros_in_order = ref true in
      for i = 0 to len - 2 do
        if
          got.(i) = 0.0
          && (not (Float.sign_bit got.(i)))
          && got.(i + 1) = 0.0
          && Float.sign_bit got.(i + 1)
        then zeros_in_order := false
      done;
      let quantiles_agree =
        len = 0
        || List.for_all
             (fun q ->
               Float.compare (Quantile.quantile t q)
                 (reference_quantile reference q)
               = 0)
             [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ]
      in
      Array.length got = len
      && Array.for_all2 agree got reference
      && !zeros_in_order && quantiles_agree)

(* OCaml-heap storage stays within one 2^16-float chunk of the samples.
   After 2^18 + 1 adds, what [t] keeps on the heap is a few words of
   chunk headers and spine (the chunks' floats are malloc'd, and
   neither counter sees them); what was allocated on the way is the
   first chunk's doubling up to 2^16 floats, before it moved off the
   heap. Doubling one heap array to 2^19 would keep 2^19 words and
   allocate about 2^20; the next test reads the heap's size. The
   added constant is boxed statically, so the loop allocates nothing
   itself. The counters read exactly only from an empty minor heap:
   data already there when the count starts is otherwise tallied again
   as it is promoted. *)
let test_quantile_footprint () =
  let n = (1 lsl 18) + 1 and chunk = 1 lsl 16 and spine = 64 in
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  Gc.minor ();
  let before = words () in
  let t = Quantile.create () in
  for _ = 1 to n do
    Quantile.add t 0.5
  done;
  let allocated = int_of_float (words () -. before) in
  let kept = Obj.reachable_words (Obj.repr t) in
  if kept > n + chunk + spine then
    Alcotest.failf "kept %d words for %d samples (bound %d)" kept n
      (n + chunk + spine);
  if allocated > n + (2 * chunk) + spine then
    Alcotest.failf "allocated %d words for %d samples (bound %d)" allocated n
      (n + (2 * chunk) + spine);
  check_float "median" 0.5 (Quantile.median t)

(* Past the first 2^16, samples live off the OCaml heap. 1M adds (8 MB
   of floats) must grow [heap_words] by less than one 2^16-float chunk:
   the heap keeps a small header per chunk and the spine. It is read
   after a full major, so the first chunk's doubling arrays, garbage
   once it moved off, are freed whatever the GC's pace. Reads +4,096
   words (one pool) on OCaml 5.1.1, with or without that collection;
   keeping the chunks on the heap read +1,052,720. Samples come from a
   formula, so no array of them sits on the heap while it is read; the
   sorted reference is built after. *)
let test_quantile_off_heap () =
  let n = 1_000_000 and chunk = 1 lsl 16 in
  let x i = float_of_int ((i * 2654435761) land 0xFFFFF) /. 7. in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).heap_words in
  let t = Quantile.create () in
  for i = 0 to n - 1 do
    Quantile.add t (x i)
  done;
  Gc.full_major ();
  let grown = (Gc.quick_stat ()).heap_words - before in
  if grown >= chunk then
    Alcotest.failf "heap grew %d words for %d samples (budget < %d)" grown n
      chunk;
  let sorted = Array.init n x in
  Array.sort Float.compare sorted;
  let bits x = Int64.bits_of_float x in
  List.iter
    (fun q ->
      Alcotest.(check int64)
        (Printf.sprintf "p%g bits" (100. *. q))
        (bits (reference_quantile sorted q))
        (bits (Quantile.quantile t q)))
    [ 0.5; 0.99 ]

(* The first query sorts the samples where they are stored: over 1M
   samples it boxes no float and copies no sample out, so the first
   [p99] allocates less than one word per sample; sorting through
   [Array.sort Float.compare], which boxes both operands of every
   comparison, read about 130. The samples mix 0.0 with -0.0 and hold
   NaNs, so the sorted order of keys [Float.compare] calls equal is
   pinned too: it must match [Array.sort] under [Float.compare] with
   -0.0 before 0.0, bit for bit. *)
let test_quantile_sort_alloc () =
  let n = 1_000_000 in
  let x i =
    match i mod 1009 with
    | 0 -> 0.0
    | 1 -> -0.0
    | 2 -> nan
    | _ -> float_of_int ((i * 2654435761) land 0xFFFFF) /. 7.
  in
  let t = Quantile.create () in
  for i = 0 to n - 1 do
    Quantile.add t (x i)
  done;
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  Gc.minor ();
  let before = words () in
  let p99 = Quantile.p99 t in
  let allocated = words () -. before in
  if allocated >= float_of_int n then
    Alcotest.failf "first p99 allocated %.0f words for %d samples" allocated n;
  let sorted = Array.init n x in
  Array.sort
    (fun a b ->
      match Float.compare a b with
      | 0 -> Bool.compare (Float.sign_bit b) (Float.sign_bit a)
      | c -> c)
    sorted;
  let bits x = Int64.bits_of_float x in
  Alcotest.(check int64)
    "p99 bits" (bits (reference_quantile sorted 0.99)) (bits p99);
  let mine = Quantile.to_sorted_array t in
  for i = 0 to n - 1 do
    if not (Int64.equal (bits mine.(i)) (bits sorted.(i))) then
      Alcotest.failf "sample %d: %h sorted, %h expected" i mine.(i) sorted.(i)
  done

(* ---------------- P2 (streaming quantiles) ---------------- *)

module P2 = Tr_stats.P2

let test_p2_empty_and_exact_prefix () =
  let s = P2.create ~p:0.5 in
  Alcotest.(check bool) "nan before data" true (Float.is_nan (P2.estimate s));
  List.iter (P2.add s) [ 5.0; 1.0; 3.0 ];
  (* <= 5 samples: exact interpolated quantile of {1,3,5}. *)
  check_float "exact median" 3.0 (P2.estimate s);
  Alcotest.(check int) "count" 3 (P2.count s);
  check_float "probability" 0.5 (P2.probability s)

let test_p2_invalid_p () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p = %g rejected" p)
        true
        (try
           ignore (P2.create ~p);
           false
         with Invalid_argument _ -> true))
    [ 0.0; 1.0; -0.5; 1.5; nan ]

(* Accuracy against the exact (sample-retaining) estimator on a smooth
   stream: P² should land within a few percent of the true quantile. *)
let test_p2_tracks_exact () =
  let rng = Tr_sim.Rng.create 99 in
  List.iter
    (fun p ->
      let sketch = P2.create ~p in
      let exact = Quantile.create () in
      for _ = 1 to 10_000 do
        let x = Tr_sim.Rng.exponential rng ~mean:7.0 in
        P2.add sketch x;
        Quantile.add exact x
      done;
      let truth = Quantile.quantile exact p in
      let err = Float.abs (P2.estimate sketch -. truth) /. truth in
      if err > 0.05 then
        Alcotest.failf "p=%g: sketch %.4f vs exact %.4f (err %.1f%%)" p
          (P2.estimate sketch) truth (100.0 *. err))
    [ 0.5; 0.9; 0.99 ]

let prop_p2_within_sample_range =
  QCheck.Test.make ~name:"P2 estimate stays within [min,max]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 60) (float_bound_exclusive 100.0))
        (float_range 0.01 0.99))
    (fun (xs, p) ->
      let s = P2.create ~p in
      List.iter (P2.add s) xs;
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      let est = P2.estimate s in
      est >= lo -. 1e-9 && est <= hi +. 1e-9)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantile is monotone in q" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)))
    (fun (xs, (q1, q2)) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let t = Quantile.create () in
      Quantile.add_many t xs;
      Quantile.quantile t lo <= Quantile.quantile t hi +. 1e-9)

let prop_iqr_nonnegative =
  QCheck.Test.make ~name:"IQR >= 0" ~count:100
    QCheck.(list_of_size Gen.(1 -- 40) (float_bound_exclusive 100.0))
    (fun xs ->
      let t = Quantile.create () in
      Quantile.add_many t xs;
      Quantile.iqr t >= -1e-9)

(* ---------------- Histogram ---------------- *)

let test_histogram_basic () =
  let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:5 in
  Histogram.add_many h [ 0.5; 1.5; 2.5; 9.9; -1.0; 10.0; 11.0 ];
  Alcotest.(check int) "count includes flows" 7 (Histogram.count h);
  Alcotest.(check int) "bin 0" 2 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 1 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 4" 1 (Histogram.bin_count h 4);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow (hi inclusive above)" 2 (Histogram.overflow h)

let test_histogram_bounds () =
  let h = Histogram.create ~lo:0.0 ~hi:1.0 ~bins:4 in
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin 1 lo" 0.25 lo;
  check_float "bin 1 hi" 0.5 hi

let test_histogram_invalid () =
  Alcotest.check_raises "hi<=lo" (Invalid_argument "Histogram.create: hi <= lo")
    (fun () -> ignore (Histogram.create ~lo:1.0 ~hi:1.0 ~bins:3));
  Alcotest.check_raises "bins<1" (Invalid_argument "Histogram.create: bins < 1")
    (fun () -> ignore (Histogram.create ~lo:0.0 ~hi:1.0 ~bins:0))

let test_histogram_mode () =
  let h = Histogram.create ~lo:0.0 ~hi:4.0 ~bins:4 in
  Alcotest.(check int) "empty mode" (-1) (Histogram.mode_bin h);
  Histogram.add_many h [ 2.1; 2.2; 0.5 ];
  Alcotest.(check int) "mode" 2 (Histogram.mode_bin h)

let prop_histogram_conserves_count =
  QCheck.Test.make ~name:"bins + flows = count" ~count:100
    QCheck.(list_of_size Gen.(0 -- 60) (float_range (-5.0) 15.0))
    (fun xs ->
      let h = Histogram.create ~lo:0.0 ~hi:10.0 ~bins:7 in
      Histogram.add_many h xs;
      let bins = List.init 7 (fun i -> Histogram.bin_count h i) in
      List.fold_left ( + ) 0 bins + Histogram.underflow h + Histogram.overflow h
      = Histogram.count h)

(* ---------------- Series ---------------- *)

let test_series_basic () =
  let s = Series.create ~name:"s" in
  Series.add s ~x:1.0 ~y:10.0;
  Series.add s ~x:2.0 ~y:20.0;
  Alcotest.(check int) "length" 2 (Series.length s);
  Alcotest.(check (option (float 1e-9))) "y_at 2" (Some 20.0) (Series.y_at s 2.0);
  Alcotest.(check (option (float 1e-9))) "y_at missing" None (Series.y_at s 3.0)

let test_series_last_wins () =
  let s = Series.create ~name:"s" in
  Series.add s ~x:1.0 ~y:10.0;
  Series.add s ~x:1.0 ~y:99.0;
  Alcotest.(check (option (float 1e-9))) "last value" (Some 99.0) (Series.y_at s 1.0)

let test_series_map_y () =
  let s = Series.create ~name:"s" in
  Series.add s ~x:1.0 ~y:10.0;
  let doubled = Series.map_y s ~f:(fun y -> 2.0 *. y) in
  Alcotest.(check (option (float 1e-9))) "doubled" (Some 20.0) (Series.y_at doubled 1.0);
  Alcotest.(check (option (float 1e-9))) "original intact" (Some 10.0) (Series.y_at s 1.0)

let test_table_union_and_missing () =
  let a = Series.create ~name:"a" and b = Series.create ~name:"b" in
  Series.add a ~x:1.0 ~y:1.0;
  Series.add a ~x:2.0 ~y:2.0;
  Series.add b ~x:2.0 ~y:20.0;
  Series.add b ~x:3.0 ~y:30.0;
  let table = Series.Table.of_series ~x_label:"x" [ a; b ] in
  let text = Format.asprintf "%a" Series.Table.pp table in
  Alcotest.(check bool) "header has names" true
    (Astring.String.is_infix ~affix:"a" text && Astring.String.is_infix ~affix:"b" text);
  let csv = Series.Table.to_csv table in
  (* x = 1 has no b value; x = 3 has no a value *)
  Alcotest.(check bool) "missing cells rendered" true
    (Astring.String.is_infix ~affix:"1,1,-" csv
    && Astring.String.is_infix ~affix:"3,-,30" csv)

(* ---------------- Plot ---------------- *)

let test_plot_empty () =
  Alcotest.(check string) "placeholder" "(empty plot)\n" (Tr_stats.Plot.render [])

let test_plot_contains_glyphs_and_legend () =
  let a = Series.create ~name:"alpha" and b = Series.create ~name:"beta" in
  List.iter (fun x -> Series.add a ~x ~y:x) [ 1.0; 2.0; 3.0 ];
  List.iter (fun x -> Series.add b ~x ~y:(10.0 -. x)) [ 1.0; 2.0; 3.0 ];
  let out = Tr_stats.Plot.render ~width:30 ~height:8 [ a; b ] in
  Alcotest.(check bool) "legend names" true
    (Astring.String.is_infix ~affix:"alpha" out
    && Astring.String.is_infix ~affix:"beta" out);
  Alcotest.(check bool) "both glyphs plotted" true
    (String.contains out '*' && String.contains out '+')

let test_plot_log_scale_skips_nonpositive () =
  let s = Series.create ~name:"s" in
  Series.add s ~x:1.0 ~y:(-5.0);
  Series.add s ~x:2.0 ~y:100.0;
  let out = Tr_stats.Plot.render ~y_scale:Tr_stats.Plot.Log [ s ] in
  (* The negative point is dropped; the plot still renders. *)
  Alcotest.(check bool) "renders" true (String.length out > 20)

let test_plot_single_point () =
  let s = Series.create ~name:"s" in
  Series.add s ~x:5.0 ~y:5.0;
  let out = Tr_stats.Plot.render [ s ] in
  Alcotest.(check bool) "single point ok" true (String.contains out '*')

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "known values" `Quick test_summary_known_values;
          Alcotest.test_case "nan excluded" `Quick test_summary_nan_excluded;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          Alcotest.test_case "merge empty" `Quick test_summary_merge_empty;
          Alcotest.test_case "copy independent" `Quick test_summary_copy_independent;
          Alcotest.test_case "add allocates nothing" `Quick test_summary_add_alloc;
        ]
        @ qsuite
            [
              prop_welford_matches_two_pass;
              prop_mean_bounded;
              prop_summary_matches_reference;
            ] );
      ( "quantile",
        [
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "extremes" `Quick test_quantile_extremes;
          Alcotest.test_case "interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "invalid q" `Quick test_quantile_invalid;
          Alcotest.test_case "add after query" `Quick test_quantile_add_after_query;
          Alcotest.test_case "footprint" `Quick test_quantile_footprint;
          Alcotest.test_case "samples off the heap" `Quick test_quantile_off_heap;
          Alcotest.test_case "first sort allocates nothing per sample" `Quick
            test_quantile_sort_alloc;
        ]
        @ qsuite
            [
              prop_quantile_monotone;
              prop_iqr_nonnegative;
              prop_quantile_matches_sorted_reference;
              prop_sort_matches_array_sort;
            ] );
      ( "p2",
        [
          Alcotest.test_case "empty/exact prefix" `Quick
            test_p2_empty_and_exact_prefix;
          Alcotest.test_case "invalid p" `Quick test_p2_invalid_p;
          Alcotest.test_case "tracks exact estimator" `Quick
            test_p2_tracks_exact;
        ]
        @ qsuite [ prop_p2_within_sample_range ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
          Alcotest.test_case "invalid" `Quick test_histogram_invalid;
          Alcotest.test_case "mode" `Quick test_histogram_mode;
        ]
        @ qsuite [ prop_histogram_conserves_count ] );
      ( "series",
        [
          Alcotest.test_case "basic" `Quick test_series_basic;
          Alcotest.test_case "last wins" `Quick test_series_last_wins;
          Alcotest.test_case "map_y" `Quick test_series_map_y;
          Alcotest.test_case "table union/missing" `Quick test_table_union_and_missing;
        ] );
      ( "plot",
        [
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "glyphs and legend" `Quick
            test_plot_contains_glyphs_and_legend;
          Alcotest.test_case "log scale" `Quick test_plot_log_scale_skips_nonpositive;
          Alcotest.test_case "single point" `Quick test_plot_single_point;
        ] );
    ]
