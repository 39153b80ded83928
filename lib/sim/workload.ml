type spec =
  | Nothing
  | Global_poisson of { mean_interarrival : float }
  | Per_node_poisson of { mean_interarrival : float }
  | Burst of { period : float; size : int }
  | Hotspot of { mean_interarrival : float; hot : int; bias : float }
  | Continuous of { node : int }
  | Script of (float * int) list

type t = {
  spec : spec;
  n : int;
  rng : Rng.t;
  (* Per_node_poisson keeps one next-arrival time per node so that the
     per-node streams are genuinely independent. *)
  mutable per_node_next : float array;
  mutable script_rest : (float * int) list;
}

let validate spec n =
  let check_mean mean =
    if mean <= 0.0 then invalid_arg "Workload.make: non-positive mean"
  in
  let check_node node =
    if node < 0 || node >= n then invalid_arg "Workload.make: node id out of range"
  in
  match spec with
  | Nothing -> ()
  | Global_poisson { mean_interarrival } -> check_mean mean_interarrival
  | Per_node_poisson { mean_interarrival } -> check_mean mean_interarrival
  | Burst { period; size } ->
      if period <= 0.0 then invalid_arg "Workload.make: non-positive period";
      if size < 1 || size > n then invalid_arg "Workload.make: burst size outside [1,n]"
  | Hotspot { mean_interarrival; hot; bias } ->
      check_mean mean_interarrival;
      check_node hot;
      if bias < 0.0 || bias > 1.0 then invalid_arg "Workload.make: bias outside [0,1]"
  | Continuous { node } -> check_node node
  | Script arrivals ->
      List.iter (fun (_, node) -> check_node node) arrivals;
      let rec sorted = function
        | [] | [ _ ] -> true
        | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
      in
      if not (sorted arrivals) then invalid_arg "Workload.make: unsorted script"

let make spec ~n ~rng =
  validate spec n;
  let script_rest = match spec with Script arrivals -> arrivals | _ -> [] in
  { spec; n; rng; per_node_next = [||]; script_rest }

let draw_uniform_node t = Rng.int t.rng t.n

let draw_hotspot_node t ~hot ~bias =
  if Rng.float t.rng 1.0 < bias then hot else draw_uniform_node t

let burst_nodes t size =
  let all = Array.init t.n (fun i -> i) in
  Rng.shuffle t.rng all;
  Array.to_list (Array.sub all 0 size)

let per_node_min t =
  let best = ref 0 in
  Array.iteri (fun i v -> if v < t.per_node_next.(!best) then best := i) t.per_node_next;
  !best

(* The polymorphic [max after 0.0] without its [compare_val] call; NaN
   and [-0.0] come out as they would from it. *)
let[@inline] clamp_start after = if after >= 0.0 then after else 0.0

let next_from t ~after =
  match t.spec with
  | Nothing -> None
  | Continuous { node } ->
      (* One initial arrival at time 0; re-requests are handled by the
         engine through [wants_immediate_rerequest]. *)
      if after < 0.0 then Some (0.0, [ node ]) else None
  | Global_poisson { mean_interarrival } ->
      let base = clamp_start after in
      let time = base +. Rng.exponential t.rng ~mean:mean_interarrival in
      Some (time, [ draw_uniform_node t ])
  | Hotspot { mean_interarrival; hot; bias } ->
      let base = clamp_start after in
      let time = base +. Rng.exponential t.rng ~mean:mean_interarrival in
      Some (time, [ draw_hotspot_node t ~hot ~bias ])
  | Burst { period; size } ->
      let base = clamp_start after in
      Some (base +. period, burst_nodes t size)
  | Per_node_poisson { mean_interarrival } ->
      if Array.length t.per_node_next = 0 then
        t.per_node_next <-
          Array.init t.n (fun _ -> Rng.exponential t.rng ~mean:mean_interarrival);
      let i = per_node_min t in
      let time = t.per_node_next.(i) in
      t.per_node_next.(i) <- time +. Rng.exponential t.rng ~mean:mean_interarrival;
      Some (time, [ i ])
  | Script _ -> (
      match t.script_rest with
      | [] -> None
      | (time, node) :: rest ->
          (* Group simultaneous arrivals into one batch. *)
          let rec take_same acc = function
            | (t2, node2) :: rest2 when t2 = time -> take_same (node2 :: acc) rest2
            | rest2 -> (List.rev acc, rest2)
          in
          let nodes, rest = take_same [ node ] rest in
          t.script_rest <- rest;
          Some (time, nodes))

let first t = next_from t ~after:(-1.0)
let next t ~after = next_from t ~after

let wants_immediate_rerequest t node =
  match t.spec with Continuous { node = c } -> c = node | _ -> false

let spec t = t.spec
