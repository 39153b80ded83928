(* The P-squared algorithm (Jain & Chlamtac, CACM 1985): a streaming
   quantile estimate from five markers, O(1) memory and O(1) per
   observation. Marker heights track [min, p/2-ish, p, (1+p)/2-ish, max]
   and are nudged toward their desired positions with parabolic
   (piecewise-quadratic) interpolation, falling back to linear when the
   parabola would break monotonicity. *)

type t = {
  p : float;
  heights : float array; (* q.(0..4), ascending *)
  positions : float array; (* n.(0..4), 1-based marker positions *)
  desired : float array; (* n'.(0..4) *)
  increments : float array; (* dn'.(0..4) *)
  mutable count : int;
}

let create ~p =
  if not (p > 0.0 && p < 1.0) then invalid_arg "P2.create: p outside (0,1)";
  {
    p;
    heights = Array.make 5 0.0;
    positions = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
    desired = [| 1.0; 1.0 +. (2.0 *. p); 1.0 +. (4.0 *. p); 3.0 +. (2.0 *. p); 5.0 |];
    increments = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
    count = 0;
  }

let probability t = t.p
let count t = t.count

(* Parabolic prediction of marker [i] moved by [d] (+1.0 or -1.0).
   This and [linear] are inlined into [add]: called out of line, each
   would box its float argument and its result. *)
let[@inline] parabolic t i d =
  let q = t.heights and n = t.positions in
  q.(i)
  +. d
     /. (n.(i + 1) -. n.(i - 1))
     *. (((n.(i) -. n.(i - 1) +. d) *. (q.(i + 1) -. q.(i)) /. (n.(i + 1) -. n.(i)))
        +. ((n.(i + 1) -. n.(i) -. d) *. (q.(i) -. q.(i - 1)) /. (n.(i) -. n.(i - 1))))

let[@inline] linear t i d =
  let q = t.heights and n = t.positions in
  let j = i + int_of_float d in
  q.(i) +. (d *. (q.(j) -. q.(i)) /. (n.(j) -. n.(i)))

let add t x =
  t.count <- t.count + 1;
  if t.count <= 5 then begin
    (* Bootstrap: insert into the sorted prefix of [heights]. *)
    let k = t.count - 1 in
    t.heights.(k) <- x;
    let i = ref k in
    while !i > 0 && t.heights.(!i - 1) > t.heights.(!i) do
      let tmp = t.heights.(!i - 1) in
      t.heights.(!i - 1) <- t.heights.(!i);
      t.heights.(!i) <- tmp;
      decr i
    done
  end
  else begin
    let q = t.heights and n = t.positions in
    (* Cell index and extreme adjustment. *)
    let k =
      if x < q.(0) then begin
        q.(0) <- x;
        0
      end
      else if x >= q.(4) then begin
        q.(4) <- x;
        3
      end
      else begin
        let k = ref 0 in
        for i = 1 to 3 do
          if x >= q.(i) then k := i
        done;
        !k
      end
    in
    for i = k + 1 to 4 do
      n.(i) <- n.(i) +. 1.0
    done;
    for i = 0 to 4 do
      t.desired.(i) <- t.desired.(i) +. t.increments.(i)
    done;
    (* Nudge the three interior markers toward their desired positions. *)
    for i = 1 to 3 do
      let d = t.desired.(i) -. n.(i) in
      if
        (d >= 1.0 && n.(i + 1) -. n.(i) > 1.0)
        || (d <= -1.0 && n.(i - 1) -. n.(i) < -1.0)
      then begin
        let d = if d >= 0.0 then 1.0 else -1.0 in
        let candidate = parabolic t i d in
        let candidate =
          if q.(i - 1) < candidate && candidate < q.(i + 1) then candidate
          else linear t i d
        in
        q.(i) <- candidate;
        n.(i) <- n.(i) +. d
      end
    done
  end

let estimate t =
  if t.count = 0 then nan
  else if t.count <= 5 then begin
    (* Exact from the sorted bootstrap prefix (type-7 interpolation). *)
    let len = t.count in
    let h = float_of_int (len - 1) *. t.p in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (len - 1) in
    let frac = h -. Float.floor h in
    t.heights.(lo) +. (frac *. (t.heights.(hi) -. t.heights.(lo)))
  end
  else t.heights.(2)

let pp ppf t =
  Format.fprintf ppf "p2(p=%g n=%d est=%.4g)" t.p t.count (estimate t)
