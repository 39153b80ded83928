(* Bounded breadth-first exploration, one layer at a time, by one engine
   for every domain count.

   Each BFS layer is expanded by [D] workers running on [Tr_sim.Pool]
   domains; worker [w] expands a contiguous slab of the layer. Nothing
   writes the visited table while a layer expands, so the workers probe
   it without locks, and a worker drops a successor as soon as it
   generates it if the table or the worker's own chunk buffer already
   holds it. The merge then walks the workers' novel successors in slab
   order, which is (state index, instance index) order, drops those an
   earlier worker found first, applies the [max_states] cap and inserts
   the rest. So the visited order, stats, rule counts, edge list and
   violation list are the same for every domain count.

   A spill mode bounds resident memory for explorations far past the
   in-memory comfort zone: frontier layers are streamed to temp files as
   back-to-back [Marshal] frames and read back chunk-by-chunk, and the
   visited table stores only a 16-byte digest of the marshalled canonical
   bytes per state (hash compaction — see [Bkey] below for the collision
   arithmetic), so no term graphs survive a round.

   Outside spill mode a worker interns each novel successor through the
   [Term.Intern] pool of its slab index, kept for the whole call, so the
   retained states share their proper subterms instead of each holding
   the bag spines the rewrite built for it. *)

module Pool = Tr_sim.Pool

(* Visited sets are hashtables keyed on terms with their structural hash
   cached at insertion time (Term.Hashed) — membership is a cached-int
   comparison plus, on collision, one structural equality, instead of the
   O(log n) full-term comparisons a [Set.Make(Term)] pays per step. *)
type hset = unit Term.Tbl.t

let hset_mem (set : hset) h = Term.Tbl.mem set h
let hset_add (set : hset) h = Term.Tbl.replace set h ()

type stats = {
  states : int;
  transitions : int;
  max_depth : int;
  truncated : bool;
}

type violation = { state : Term.t; depth : int; message : string }

type perf = {
  wall_s : float;
  states_per_s : float;
  domains_used : int;
  peak_rss_kb : int;
  spilled_layers : int;
  spilled_bytes : int;
}

type outcome = {
  visited_order : Term.t list;
  edge_list : (Term.t * string * Term.t) list;
  stats : stats;
  violations : violation list;
  perf : perf;
}

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

(* Spill-mode visited tables key on a 16-byte digest of the canonical
   term plus its structural hash: flat fixed-size strings, no retained
   term graphs. The digest is taken over an injective flat encoding
   (tag byte per constructor, length-prefixed strings and lists,
   fixed-width ints), so digest equality coincides with structural
   equality up to digest collisions — hash compaction in the
   model-checking sense, with a collision probability around 1e-25 at
   10^6 states (128-bit digests), far below any hardware error rate. *)
module Bkey = struct
  type t = { kh : int; kb : string }

  let equal a b = a.kh = b.kh && String.equal a.kb b.kb
  let hash k = k.kh
end

module Btbl = Hashtbl.Make (Bkey)

type visited = Terms of hset | Compact of unit Btbl.t

(* [key] is the state's digest in spill mode and [""] otherwise. *)
let visited_mem visited h key =
  match visited with
  | Terms t -> Term.Tbl.mem t h
  | Compact t -> Btbl.mem t { Bkey.kh = Term.Hashed.hash h; kb = key }

let visited_add visited h key =
  match visited with
  | Terms t -> Term.Tbl.add t h ()
  | Compact t -> Btbl.add t { Bkey.kh = Term.Hashed.hash h; kb = key } ()

(* The encoder writes into a reused per-worker scratch buffer and the
   digest is taken in place: expansion computes millions of digests per
   run, and going through [Marshal.to_string] allocated a fresh
   unshared-size buffer for each — enough transient garbage to balloon
   the heap past the in-memory engine's and defeat spill mode's
   purpose. *)
type scratch = { mutable buf : Bytes.t; mutable len : int }

let scratch_make () = { buf = Bytes.create 4096; len = 0 }

let scratch_reserve s n =
  let need = s.len + n in
  if need > Bytes.length s.buf then begin
    let cap = ref (Bytes.length s.buf * 2) in
    while need > !cap do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end

let put_byte s v =
  scratch_reserve s 1;
  Bytes.unsafe_set s.buf s.len (Char.unsafe_chr v);
  s.len <- s.len + 1

let put_int s v =
  scratch_reserve s 8;
  Bytes.set_int64_le s.buf s.len (Int64.of_int v);
  s.len <- s.len + 8

let put_string s str =
  let n = String.length str in
  put_int s n;
  scratch_reserve s n;
  Bytes.blit_string str 0 s.buf s.len n;
  s.len <- s.len + n

let rec put_term s (t : Term.t) =
  match t with
  | Term.Const c ->
      put_byte s 0;
      put_string s c
  | Term.Int i ->
      put_byte s 1;
      put_int s i
  | Term.Var v ->
      put_byte s 2;
      put_string s v
  | Term.Wild -> put_byte s 3
  | Term.App (f, xs) ->
      put_byte s 4;
      put_string s f;
      put_list s xs
  | Term.Bag xs ->
      put_byte s 5;
      put_list s xs
  | Term.Seq xs ->
      put_byte s 6;
      put_list s xs

and put_list s xs =
  put_int s (List.length xs);
  List.iter (put_term s) xs

let digest_term_into s (t : Term.t) =
  s.len <- 0;
  put_term s t;
  Digest.subbytes s.buf 0 s.len

(* [a] with room for index [len], grown by doubling ([x] fills). *)
let ensure a len x =
  if len < Array.length a then a
  else begin
    let b = Array.make (Int.max 16 (2 * len)) x in
    Array.blit a 0 b 0 len;
    b
  end

(* One worker's novel successors in a chunk, in the order it generated
   them: (state index, instance index) order. [slots] is an
   open-addressing index over [cands] (0 empty, else position + 1), at
   most half full, so a successor the worker already holds is dropped
   at once. The bookkeeping is flat arrays, a few words per successor,
   kept for the whole call and cleared after each chunk's merge. *)
type fresh = {
  mutable cands : Term.Hashed.t array;
  mutable keys : string array;  (* spill mode: digests, parallel to [cands] *)
  mutable len : int;
  mutable slots : int array;
  digest : scratch;  (* spill mode: the digest encoder's buffer *)
}

let fresh_make () =
  {
    cands = [||];
    keys = [||];
    len = 0;
    slots = Array.make 256 0;
    digest = scratch_make ();
  }

let no_cand = Term.Hashed.make Term.Wild

(* Drop the chunk's successors, so a spilled chunk's terms do not
   outlive its merge. *)
let fresh_clear f =
  Array.fill f.cands 0 f.len no_cand;
  if Array.length f.keys > 0 then Array.fill f.keys 0 f.len "";
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

let fresh_push f slot h key =
  f.cands <- ensure f.cands f.len h;
  f.cands.(f.len) <- h;
  if key <> "" then begin
    f.keys <- ensure f.keys f.len key;
    f.keys.(f.len) <- key
  end;
  f.len <- f.len + 1;
  f.slots.(slot) <- f.len;
  if 2 * f.len > Array.length f.slots then begin
    f.slots <- Array.make (2 * Array.length f.slots) 0;
    for k = 0 to f.len - 1 do
      f.slots.(slot_of f f.cands.(k)) <- k + 1
    done
  end

(* A frontier layer: resident, or a temp file of back-to-back marshal
   frames (spill mode). Zero-count layers are never written to disk. *)
type layer = L_mem of Term.t array | L_file of { path : string; count : int }

let layer_count = function
  | L_mem a -> Array.length a
  | L_file { count; _ } -> count

let layer_free = function
  | L_mem _ -> ()
  | L_file { path; _ } -> ( try Sys.remove path with Sys_error _ -> ())

let run ~max_states ~max_depth ~check ~want_edges ~pool ~domains:d ~spill_dir
    ~spill_chunk ~spilled_layers ~spilled_bytes system ~init =
  let spilling = spill_dir <> None in
  let pmap f xs =
    match pool with Some p -> Pool.map p f xs | None -> List.map f xs
  in
  let visited =
    if spilling then Compact (Btbl.create 1024)
    else Terms (Term.Tbl.create 1024)
  in
  (* Resident states share their proper subterms through one pool per
     slab index, so each pool has one writer at a time. *)
  let interned =
    if spilling then [||] else Array.init d (fun _ -> Term.Intern.create ())
  in
  let fresh = Array.init d (fun _ -> fresh_make ()) in
  let init = Term.canonicalize init in
  let init_key =
    if spilling then digest_term_into fresh.(0).digest init else ""
  in
  let hinit =
    if spilling then Term.Hashed.make init
    else Term.Intern.make interned.(0) init
  in
  let init = Term.Hashed.term hinit in
  visited_add visited hinit init_key;
  let visited_count = ref 1 in
  (* Resident layers, newest first: the visited order. *)
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
  let write_states oc states =
    Array.iter (fun t -> Marshal.to_channel oc t [ Marshal.No_sharing ]) states
  in
  let close_layer path oc count =
    spilled_bytes := !spilled_bytes + pos_out oc;
    close_out oc;
    incr spilled_layers;
    L_file { path; count }
  in
  let open_layer () =
    let path =
      Filename.temp_file ~temp_dir:(Option.get spill_dir) "tr-explore-"
        ".layer"
    in
    (path, open_out_bin path)
  in
  (* Split [0, len) into at most [d] contiguous non-empty slabs, each
     with its index. *)
  let slabs len =
    let k = Int.min d len in
    List.init k (fun w -> (w, len * w / k, len * (w + 1) / k))
  in
  (* Expand one resident chunk of the current layer. Worker [w] drops a
     successor the visited table or its own [fresh] already holds, and
     interns a novel one through pool [w]. Nothing writes [visited]
     until [merge], so the workers read it without locks. A worker that
     already holds as many novel states as the cap leaves room for keeps
     no more: each later one would be refused (at least that many
     distinct states precede it), so it only notes the truncation. *)
  let expand (chunk : Term.t array) =
    let room = max_states - !visited_count in
    pmap
      (fun (w, lo, hi) ->
        let f = fresh.(w) in
        let full = ref false in
        let trans = ref 0 in
        let rev_edges = ref [] in
        for i = lo to hi - 1 do
          let state = chunk.(i) in
          List.iter
            (fun (rule, _subst, next) ->
              incr trans;
              if want_edges then
                rev_edges := (state, Rule.name rule, next) :: !rev_edges;
              let h = Term.Hashed.make next in
              let slot = slot_of f h in
              if f.slots.(slot) = 0 then begin
                let key =
                  if spilling then digest_term_into f.digest next else ""
                in
                if visited_mem visited h key then ()
                else if f.len = room then full := true
                else
                  fresh_push f slot
                    (if spilling then h else Term.Intern.make interned.(w) next)
                    key
              end)
            (System.instances system state)
        done;
        (!trans, List.rev !rev_edges, !full, f))
      (slabs (Array.length chunk))
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
          let key = if spilling then f.keys.(k) else "" in
          if not (visited_mem visited h key) then
            if !visited_count < max_states then begin
              visited_add visited h key;
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
  (* One layer. A resident layer is one chunk. A spilled one is read back
     [spill_chunk] states at a time, and each chunk's kept states go to
     the next layer's file before the next chunk is read, so at most one
     chunk's successor graphs are resident. *)
  let process_layer layer depth =
    match layer with
    | L_mem states ->
        let next = merge depth (expand states) in
        layers := next :: !layers;
        L_mem next
    | L_file { path; count } ->
        let sink = ref None in
        let next_count = ref 0 in
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let base = ref 0 in
            while !base < count do
              let k = Int.min spill_chunk (count - !base) in
              let chunk =
                Array.init k (fun _ -> (Marshal.from_channel ic : Term.t))
              in
              let next = merge depth (expand chunk) in
              if Array.length next > 0 then begin
                if Option.is_none !sink then sink := Some (open_layer ());
                write_states (snd (Option.get !sink)) next;
                next_count := !next_count + Array.length next
              end;
              base := !base + k
            done);
        layer_free layer;
        (match !sink with
        | None -> L_mem [||]
        | Some (path, oc) -> close_layer path oc !next_count)
  in
  let rec rounds layer depth =
    if layer_count layer = 0 then layer_free layer
    else begin
      if depth > !deepest then deepest := depth;
      if within_depth depth then rounds (process_layer layer depth) (depth + 1)
      else begin
        truncated := true;
        layer_free layer
      end
    end
  in
  let first =
    if spilling then begin
      let path, oc = open_layer () in
      write_states oc [| init |];
      close_layer path oc 1
    end
    else begin
      let first = [| init |] in
      layers := [ first ];
      L_mem first
    end
  in
  rounds first 0;
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

let explore ?(max_states = default_max_states) ?max_depth ?check
    ?(want_edges = false) ?pool ?domains ?spill_dir ?(spill_chunk = 8192)
    system ~init =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Explore.explore: domains < 1";
        d
    | None -> ( match pool with Some p -> Pool.domains p | None -> 1)
  in
  if max_states < 1 then invalid_arg "Explore.explore: max_states < 1";
  (match max_depth with
  | Some dm when dm < 0 -> invalid_arg "Explore.explore: max_depth < 0"
  | _ -> ());
  if spill_chunk < 1 then invalid_arg "Explore.explore: spill_chunk < 1";
  if spill_dir <> None && want_edges then
    invalid_arg "Explore.explore: want_edges is unavailable in spill mode";
  let t0 = Unix.gettimeofday () in
  let spilled_layers = ref 0 in
  let spilled_bytes = ref 0 in
  let go pool =
    let visited_order, edge_list, stats, violations =
      run ~max_states ~max_depth ~check ~want_edges ~pool ~domains ~spill_dir
        ~spill_chunk ~spilled_layers ~spilled_bytes system ~init
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    {
      visited_order;
      edge_list;
      stats;
      violations;
      perf =
        {
          wall_s;
          states_per_s =
            (if wall_s > 0.0 then float_of_int stats.states /. wall_s else 0.0);
          domains_used = domains;
          peak_rss_kb = peak_rss_kb ();
          spilled_layers = !spilled_layers;
          spilled_bytes = !spilled_bytes;
        };
    }
  in
  match pool with
  | Some _ -> go pool
  | None when domains > 1 -> Pool.with_pool ~domains (fun p -> go (Some p))
  | None -> go None

let bfs ?max_states ?max_depth ?check ?pool ?domains ?spill_dir system ~init =
  let outcome =
    explore ?max_states ?max_depth ?check ?pool ?domains ?spill_dir system ~init
  in
  (outcome.stats, outcome.violations)

let reachable ?max_states ?max_depth ?pool ?domains system ~init =
  (explore ?max_states ?max_depth ?pool ?domains system ~init).visited_order

let edges ?max_states ?max_depth ?pool ?domains system ~init =
  (explore ?max_states ?max_depth ?pool ?domains ~want_edges:true system ~init)
    .edge_list

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
  List.iter (fun s -> hset_add set (Term.Hashed.make s)) states;
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
        if not (hset_mem closure pred) then begin
          hset_add closure pred;
          Queue.push pred queue
        end)
      (Option.value (Term.Tbl.find_opt predecessors state) ~default:[])
  done;
  closure

let eventually ?max_states ?max_depth ?pool ?domains ~goal system ~init =
  let outcome =
    explore ?max_states ?max_depth ?pool ?domains ~want_edges:true system ~init
  in
  let visited = hset_of_list outcome.visited_order in
  let goals = hset_of_list (List.filter goal outcome.visited_order) in
  let goal_count = Term.Tbl.length goals in
  (* States whose forward cone may leave the explored set: any state with
     an edge to an unexplored target, plus everything that can reach such
     a state. For those no verdict is possible. *)
  let leaky : hset = Term.Tbl.create 64 in
  List.iter
    (fun (src, _, dst) ->
      if not (hset_mem visited (Term.Hashed.make dst)) then
        hset_add leaky (Term.Hashed.make src))
    outcome.edge_list;
  let can = backward_closure ~edges:outcome.edge_list ~seeds:goals in
  let may_escape = backward_closure ~edges:outcome.edge_list ~seeds:leaky in
  let cannot =
    List.filter
      (fun s ->
        let h = Term.Hashed.make s in
        (not (hset_mem can h)) && not (hset_mem may_escape h))
      outcome.visited_order
  in
  let undecided =
    Term.Tbl.fold
      (fun s () acc -> if hset_mem can s then acc else acc + 1)
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
  let outcome = explore ?max_states ?max_depth ~want_edges:true system ~init in
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
    outcome.visited_order;
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
    outcome.edge_list;
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer
