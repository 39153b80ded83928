(* Bounded breadth-first exploration, one layer at a time, by one engine
   for every domain count.

   Each BFS layer is expanded by [D] workers running on [Tr_sim.Pool]
   domains; worker [w] expands a contiguous slab of the layer. Nothing
   writes the visited table while a layer expands, so the workers probe
   it without locks, and a worker drops a successor as soon as it
   generates it if the table or the worker's own buffer already holds
   it. The merge then walks the workers' novel successors in slab
   order, which is (state index, instance index) order, drops those an
   earlier worker found first, applies the [max_states] cap and inserts
   the rest. So the visited order, stats, rule counts, edge list and
   violation list are the same for every domain count.

   Every layer is one resident array, and the visited table holds the
   states themselves. A worker interns each novel successor through the
   [Term.Intern] pool of its slab index, kept for the whole call, so the
   retained states share their proper subterms instead of each holding
   the bag spines the rewrite built for it. *)

module Pool = Tr_sim.Pool

(* Visited sets are hashtables keyed on terms with their structural hash
   cached at insertion time (Term.Hashed) — membership is a cached-int
   comparison plus, on collision, one structural equality, instead of the
   O(log n) full-term comparisons a [Set.Make(Term)] pays per step. *)
type hset = unit Term.Tbl.t

type stats = {
  states : int;
  transitions : int;
  max_depth : int;
  truncated : bool;
}

type violation = { state : Term.t; depth : int; message : string }

(* ---------------- process introspection ---------------- *)

(* VmHWM from /proc/self/status, in kB; 0 where /proc is unavailable. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception _ -> 0
  | ic ->
      let parse line =
        (* "VmHWM:     12345 kB" *)
        let rest = String.trim (String.sub line 6 (String.length line - 6)) in
        let digits =
          match String.index_opt rest ' ' with
          | Some i -> String.sub rest 0 i
          | None -> rest
        in
        Option.value (int_of_string_opt digits) ~default:0
      in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:"
            then parse line
            else scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Writing "5" to /proc/self/clear_refs resets the peak-RSS water mark so
   successive measurements in one process are independent. Privileged or
   non-Linux environments refuse it; callers get [false] and should treat
   subsequent readings as a monotone high-water mark. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception _ -> false
  | oc -> (
      try
        output_string oc "5";
        close_out oc;
        true
      with _ ->
        close_out_noerr oc;
        false)

(* ---------------- the engine ---------------- *)

let default_max_states = 100_000

(* [a] with room for index [len], grown by doubling ([x] fills). *)
let ensure a len x =
  if len < Array.length a then a
  else begin
    let b = Array.make (Int.max 16 (2 * len)) x in
    Array.blit a 0 b 0 len;
    b
  end

(* One worker's novel successors in a layer, in the order it generated
   them: (state index, instance index) order. [slots] is an
   open-addressing index over [cands] (0 empty, else position + 1), at
   most half full, so a successor the worker already holds is dropped
   at once. The bookkeeping is flat arrays, a few words per successor,
   kept for the whole call and cleared after each layer's merge. *)
type fresh = {
  mutable cands : Term.Hashed.t array;
  mutable len : int;
  mutable slots : int array;
}

let fresh_make () = { cands = [||]; len = 0; slots = Array.make 256 0 }

let no_cand = Term.Hashed.make Term.Wild

(* Empty the buffer for the next layer: clear its index, and drop its
   successors so those the merge refused do not stay alive until they
   are overwritten. *)
let fresh_clear f =
  Array.fill f.cands 0 f.len no_cand;
  Array.fill f.slots 0 (Array.length f.slots) 0;
  f.len <- 0

(* The slot holding a successor equal to [h], else the free slot where
   it belongs. *)
let rec find_slot f h i =
  let s = f.slots.(i) in
  if s = 0 || Term.Hashed.equal f.cands.(s - 1) h then i
  else find_slot f h ((i + 1) land (Array.length f.slots - 1))

let slot_of f h =
  find_slot f h (Term.Hashed.hash h land (Array.length f.slots - 1))

let fresh_push f slot h =
  f.cands <- ensure f.cands f.len h;
  f.cands.(f.len) <- h;
  f.len <- f.len + 1;
  f.slots.(slot) <- f.len;
  if 2 * f.len > Array.length f.slots then begin
    f.slots <- Array.make (2 * Array.length f.slots) 0;
    for k = 0 to f.len - 1 do
      f.slots.(slot_of f f.cands.(k)) <- k + 1
    done
  end

let run ~max_states ~max_depth ~check ~want_order ~want_edges ~pool ~domains:d
    system ~init =
  let pmap f xs =
    match pool with Some p -> Pool.map p f xs | None -> List.map f xs
  in
  let visited : hset = Term.Tbl.create 1024 in
  (* States share their proper subterms through one pool per slab index,
     so each pool has one writer at a time. *)
  let interned = Array.init d (fun _ -> Term.Intern.create ()) in
  let fresh = Array.init d (fun _ -> fresh_make ()) in
  let hinit = Term.Intern.make interned.(0) (Term.canonicalize init) in
  let init = Term.Hashed.term hinit in
  Term.Tbl.add visited hinit ();
  let visited_count = ref 1 in
  (* Layers, newest first: the visited order, kept only when wanted. *)
  let layers = ref [] in
  let edge_chunks = ref [] in
  let violations = ref [] in
  let transitions = ref 0 in
  let deepest = ref 0 in
  let truncated = ref false in
  let within_depth depth =
    match max_depth with None -> true | Some dm -> depth < dm
  in
  (match check with
  | None -> ()
  | Some f -> (
      match f init with
      | Ok () -> ()
      | Error message -> violations := [ { state = init; depth = 0; message } ]));
  (* Split [0, len) into at most [d] contiguous non-empty slabs, each
     with its index. *)
  let slabs len =
    let k = Int.min d len in
    List.init k (fun w -> (w, len * w / k, len * (w + 1) / k))
  in
  (* Expand one layer. Worker [w] drops a successor the visited table or
     its own [fresh] already holds, and interns a novel one through pool
     [w]. Nothing writes [visited] until [merge], so the workers read it
     without locks. A worker that already holds as many novel states as
     the cap leaves room for keeps no more: each later one would be
     refused (at least that many distinct states precede it), so it only
     notes the truncation. *)
  let expand (layer : Term.t array) =
    let room = max_states - !visited_count in
    pmap
      (fun (w, lo, hi) ->
        let f = fresh.(w) in
        let full = ref false in
        let trans = ref 0 in
        let rev_edges = ref [] in
        for i = lo to hi - 1 do
          let state = layer.(i) in
          List.iter
            (fun (rule, _subst, next) ->
              incr trans;
              if want_edges then
                rev_edges := (state, Rule.name rule, next) :: !rev_edges;
              let h = Term.Hashed.make next in
              let slot = slot_of f h in
              if f.slots.(slot) = 0 && not (Term.Tbl.mem visited h) then
                if f.len = room then full := true
                else fresh_push f slot (Term.Intern.make interned.(w) next))
            (System.instances system state)
        done;
        (!trans, List.rev !rev_edges, !full, f))
      (slabs (Array.length layer))
  in
  (* Walk the workers' novel successors in slab order — the global
     (state index, instance index) order — keep the first occurrence of
     each until the state cap, and verify the kept states. Returns them,
     in that order. *)
  let merge depth results =
    let total =
      List.fold_left (fun acc (_, _, _, f) -> acc + f.len) 0 results
    in
    let kept = Array.make total Term.Wild in
    let n = ref 0 in
    List.iter
      (fun (t, edges, full, f) ->
        transitions := !transitions + t;
        if full then truncated := true;
        if want_edges && edges <> [] then
          edge_chunks := edges :: !edge_chunks;
        for k = 0 to f.len - 1 do
          let h = f.cands.(k) in
          if not (Term.Tbl.mem visited h) then
            if !visited_count < max_states then begin
              Term.Tbl.add visited h ();
              incr visited_count;
              kept.(!n) <- Term.Hashed.term h;
              incr n
            end
            else truncated := true
        done;
        fresh_clear f)
      results;
    let kept = if !n = total then kept else Array.sub kept 0 !n in
    (match check with
    | None -> ()
    | Some f ->
        let found =
          pmap
            (fun (_, lo, hi) ->
              let out = ref [] in
              for i = hi - 1 downto lo do
                match f kept.(i) with
                | Ok () -> ()
                | Error message -> out := (i, message) :: !out
              done;
              !out)
            (slabs !n)
        in
        List.iter
          (List.iter (fun (i, message) ->
               violations :=
                 { state = kept.(i); depth = depth + 1; message }
                 :: !violations))
          found);
    kept
  in
  let rec rounds layer depth =
    if Array.length layer > 0 then begin
      if want_order then layers := layer :: !layers;
      deepest := depth;
      if within_depth depth then rounds (merge depth (expand layer)) (depth + 1)
      else truncated := true
    end
  in
  rounds [| init |] 0;
  ( List.fold_left
      (fun acc layer -> Array.fold_right List.cons layer acc)
      [] !layers,
    List.concat (List.rev !edge_chunks),
    {
      states = !visited_count;
      transitions = !transitions;
      max_depth = !deepest;
      truncated = !truncated;
    },
    List.rev !violations )

(* Validate the bounds, lend or make the pool, and run. [want_order]
   and [want_edges] choose what [run] keeps beside the stats and
   violations: the visited order (the layers, 3 words a state) and the
   edge list. *)
let search ~want_order ~want_edges ?(max_states = default_max_states)
    ?max_depth ?check ?pool ?domains system ~init =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Explore: domains < 1";
        d
    | None -> ( match pool with Some p -> Pool.domains p | None -> 1)
  in
  if max_states < 1 then invalid_arg "Explore: max_states < 1";
  (match max_depth with
  | Some dm when dm < 0 -> invalid_arg "Explore: max_depth < 0"
  | _ -> ());
  let go pool =
    run ~max_states ~max_depth ~check ~want_order ~want_edges ~pool ~domains
      system ~init
  in
  match pool with
  | Some _ -> go pool
  | None when domains > 1 -> Pool.with_pool ~domains (fun p -> go (Some p))
  | None -> go None

let bfs ?max_states ?max_depth ?check ?pool ?domains system ~init =
  let _, _, stats, violations =
    search ~want_order:false ~want_edges:false ?max_states ?max_depth ?check
      ?pool ?domains system ~init
  in
  (stats, violations)

let reachable ?max_states ?max_depth ?pool ?domains system ~init =
  let order, _, _, _ =
    search ~want_order:true ~want_edges:false ?max_states ?max_depth ?pool
      ?domains system ~init
  in
  order

let edges ?max_states ?max_depth ?pool ?domains system ~init =
  let _, edges, _, _ =
    search ~want_order:false ~want_edges:true ?max_states ?max_depth ?pool
      ?domains system ~init
  in
  edges

(* Alphabetical by rule name; ties (impossible for distinct registry
   names, but explicit anyway) break on the count. Deliberately not the
   polymorphic [Stdlib.compare] so the sort order is pinned by type. *)
let compare_rule_count (name_a, count_a) (name_b, count_b) =
  let c = String.compare name_a name_b in
  if c <> 0 then c else Int.compare count_a count_b

let rule_counts ?max_states ?max_depth ?pool ?domains system ~init =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (_, rule, _) ->
      Hashtbl.replace counts rule
        (1 + Option.value (Hashtbl.find_opt counts rule) ~default:0))
    (edges ?max_states ?max_depth ?pool ?domains system ~init);
  List.sort compare_rule_count
    (Hashtbl.fold (fun rule c acc -> (rule, c) :: acc) counts [])

type liveness_report = {
  explored : int;
  goal_states : int;
  can_reach : int;
  cannot_reach : Term.t list;
  undecided : int;
}

let hset_of_list states =
  let set : hset = Term.Tbl.create 256 in
  List.iter (fun s -> Term.Tbl.replace set (Term.Hashed.make s) ()) states;
  set

(* Backward closure of [seeds] over the (reversed) edge relation.
   Mutates and returns [seeds]. *)
let backward_closure ~edges ~seeds =
  let predecessors = Term.Tbl.create 256 in
  List.iter
    (fun (src, _, dst) ->
      let dst = Term.Hashed.make dst in
      let existing =
        Option.value (Term.Tbl.find_opt predecessors dst) ~default:[]
      in
      Term.Tbl.replace predecessors dst (src :: existing))
    edges;
  let closure : hset = seeds in
  let queue = Queue.create () in
  Term.Tbl.iter (fun s () -> Queue.push s queue) closure;
  while not (Queue.is_empty queue) do
    let state = Queue.pop queue in
    List.iter
      (fun pred ->
        let pred = Term.Hashed.make pred in
        if not (Term.Tbl.mem closure pred) then begin
          Term.Tbl.replace closure pred ();
          Queue.push pred queue
        end)
      (Option.value (Term.Tbl.find_opt predecessors state) ~default:[])
  done;
  closure

let eventually ?max_states ?max_depth ?pool ?domains ~goal system ~init =
  let visited_order, edge_list, _, _ =
    search ~want_order:true ~want_edges:true ?max_states ?max_depth ?pool
      ?domains system ~init
  in
  let visited = hset_of_list visited_order in
  let goals = hset_of_list (List.filter goal visited_order) in
  let goal_count = Term.Tbl.length goals in
  (* States whose forward cone may leave the explored set: any state with
     an edge to an unexplored target, plus everything that can reach such
     a state. For those no verdict is possible. *)
  let leaky : hset = Term.Tbl.create 64 in
  List.iter
    (fun (src, _, dst) ->
      if not (Term.Tbl.mem visited (Term.Hashed.make dst)) then
        Term.Tbl.replace leaky (Term.Hashed.make src) ())
    edge_list;
  let can = backward_closure ~edges:edge_list ~seeds:goals in
  let may_escape = backward_closure ~edges:edge_list ~seeds:leaky in
  let cannot =
    List.filter
      (fun s ->
        let h = Term.Hashed.make s in
        (not (Term.Tbl.mem can h)) && not (Term.Tbl.mem may_escape h))
      visited_order
  in
  let undecided =
    Term.Tbl.fold
      (fun s () acc -> if Term.Tbl.mem can s then acc else acc + 1)
      may_escape 0
  in
  {
    explored = Term.Tbl.length visited;
    goal_states = goal_count;
    can_reach = Term.Tbl.length can;
    (* Sorted, as the previous [Set.Make(Term)]-based implementation
       returned them — callers and tests may rely on the order. *)
    cannot_reach = List.sort Term.compare cannot;
    undecided;
  }

let deadlocks ?max_states ?max_depth ?pool ?domains system ~init =
  List.filter
    (fun state -> System.is_normal_form system state)
    (reachable ?max_states ?max_depth ?pool ?domains system ~init)

let escape s =
  String.concat ""
    (List.map
       (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot ?max_states ?max_depth ?(node_label = Term.to_string) system ~init =
  let init = Term.canonicalize init in
  let visited_order, edge_list, _, _ =
    search ~want_order:true ~want_edges:true ?max_states ?max_depth system
      ~init
  in
  let id_table = Term.Tbl.create 64 in
  let next_id = ref 0 in
  let id_of state =
    let state = Term.Hashed.make state in
    match Term.Tbl.find_opt id_table state with
    | Some i -> i
    | None ->
        let i = !next_id in
        incr next_id;
        Term.Tbl.add id_table state i;
        i
  in
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "digraph states {\n  rankdir=LR;\n";
  List.iter
    (fun state ->
      let i = id_of state in
      Buffer.add_string buffer
        (Printf.sprintf "  s%d [label=\"%s\"%s];\n" i
           (escape (node_label state))
           (if Term.equal state init then " peripheries=2" else "")))
    visited_order;
  List.iter
    (fun (src, rule, dst) ->
      (* Only draw edges between visited states (the frontier may have
         been truncated). *)
      if
        Term.Tbl.mem id_table (Term.Hashed.make src)
        && Term.Tbl.mem id_table (Term.Hashed.make dst)
      then
        Buffer.add_string buffer
          (Printf.sprintf "  s%d -> s%d [label=\"%s\"];\n" (id_of src)
             (id_of dst) (escape rule)))
    edge_list;
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer
