(* Bounded breadth-first exploration, in two engines that agree bit for bit:

   - A sequential fast path (the original implementation): one FIFO queue,
     one visited hashtable keyed on hash-cached terms.

   - A sharded layer-synchronous engine: the visited set is partitioned
     into [D] shards by the cached structural hash, and each BFS layer is
     expanded by [D] workers running on [Tr_sim.Pool] domains. Worker [w]
     expands a contiguous slab of the layer and routes every successor to
     its owner shard through a per-(worker, shard) exchange cell — each
     cell has exactly one writer (the expanding worker) and one reader
     (the owning shard), handed over at the layer barrier, so no locks are
     needed anywhere on the hot path. Candidates carry their (state index,
     instance index) position, which makes the merge that applies the
     [max_states] cap a deterministic total order: the visited order,
     stats, rule counts, edge list and violation list come out identical
     to the sequential engine for every domain count.

   A spill mode bounds resident memory for explorations far past the
   in-memory comfort zone: frontier layers are streamed to temp files as
   back-to-back [Marshal] frames and read back chunk-by-chunk, and the
   visited shards store only a 16-byte digest of the marshalled canonical
   bytes per state (hash compaction — see [Bkey] below for the collision
   arithmetic), so no term graphs survive a round.

   Outside spill mode both engines intern every state they keep through
   one [Term.Intern] pool per call, so the retained states share their
   proper subterms instead of each holding the bag spines the rewrite
   built for it. *)

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

(* ---------------- sequential engine ---------------- *)

let default_max_states = 100_000

let explore_seq ~max_states ?max_depth ~check ~want_edges system ~init =
  let interned = Term.Intern.create () in
  let hinit = Term.Intern.make interned (Term.canonicalize init) in
  let init = Term.Hashed.term hinit in
  let queue = Queue.create () in
  Queue.push (init, 0) queue;
  let visited : hset = Term.Tbl.create 1024 in
  hset_add visited hinit;
  let rev_order = ref [ init ] in
  let rev_edges = ref [] in
  let violations = ref [] in
  let transitions = ref 0 in
  let deepest = ref 0 in
  let truncated = ref false in
  let within_depth depth =
    match max_depth with None -> true | Some d -> depth < d
  in
  let verify state depth =
    match check with
    | None -> ()
    | Some f -> (
        match f state with
        | Ok () -> ()
        | Error message -> violations := { state; depth; message } :: !violations)
  in
  verify init 0;
  while not (Queue.is_empty queue) do
    let state, depth = Queue.pop queue in
    if depth > !deepest then deepest := depth;
    if within_depth depth then
      List.iter
        (fun (rule, _subst, next) ->
          incr transitions;
          if want_edges then
            rev_edges := (state, Rule.name rule, next) :: !rev_edges;
          let hnext = Term.Hashed.make next in
          if not (hset_mem visited hnext) then
            if Term.Tbl.length visited >= max_states then truncated := true
            else begin
              let hnext = Term.Intern.make interned next in
              let next = Term.Hashed.term hnext in
              hset_add visited hnext;
              rev_order := next :: !rev_order;
              verify next (depth + 1);
              Queue.push (next, depth + 1) queue
            end)
        (System.instances system state)
    else truncated := true
  done;
  ( List.rev !rev_order,
    List.rev !rev_edges,
    {
      states = Term.Tbl.length visited;
      transitions = !transitions;
      max_depth = !deepest;
      truncated = !truncated;
    },
    List.rev !violations )

(* ---------------- sharded layer-synchronous engine ---------------- *)

(* Spill-mode visited shards key on a 16-byte digest of the canonical
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

type shard = Terms of hset | Compact of unit Btbl.t

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

let digest_term t = digest_term_into (scratch_make ()) t

(* A successor routed from an expanding worker to its owner shard. The
   (ci, cj) position — source-state index in the layer, instance index
   within that state — is the key of the deterministic merge order. *)
type candidate = {
  ci : int;
  cj : int;
  ch : Term.Hashed.t;  (* canonical successor, hash cached *)
  cb : string;  (* spill mode: digest of the canonical term; else "" *)
}

let cand_compare a b =
  let c = Int.compare a.ci b.ci in
  if c <> 0 then c else Int.compare a.cj b.cj

let shard_key c = { Bkey.kh = Term.Hashed.hash c.ch; kb = c.cb }

let shard_mem shard c =
  match shard with
  | Terms t -> Term.Tbl.mem t c.ch
  | Compact t -> Btbl.mem t (shard_key c)

let shard_add shard c =
  match shard with
  | Terms t -> Term.Tbl.replace t c.ch ()
  | Compact t -> Btbl.replace t (shard_key c) ()

let shard_remove shard c =
  match shard with
  | Terms t -> Term.Tbl.remove t c.ch
  | Compact t -> Btbl.remove t (shard_key c)

(* A frontier layer: resident, or a temp file of back-to-back marshal
   frames (spill mode). Zero-count layers are never written to disk. *)
type layer = L_mem of Term.t array | L_file of { path : string; count : int }

let layer_count = function
  | L_mem a -> Array.length a
  | L_file { count; _ } -> count

let layer_free = function
  | L_mem _ -> ()
  | L_file { path; _ } -> ( try Sys.remove path with Sys_error _ -> ())

let explore_par ~max_states ?max_depth ~check ~want_edges ~pool ~domains:d
    ~spill_dir ~spill_chunk ~spilled_layers ~spilled_bytes system ~init =
  let spilling = spill_dir <> None in
  let pmap f xs =
    match pool with Some p -> Pool.map p f xs | None -> List.map f xs
  in
  let shards =
    Array.init d (fun _ ->
        if spilling then Compact (Btbl.create 1024)
        else Terms (Term.Tbl.create 1024))
  in
  let owner h = Term.Hashed.hash h mod d in
  (* Resident states share their proper subterms through one pool,
     used only by the sequential merge ([consume_chunk]). *)
  let interned = Term.Intern.create () in
  let init = Term.canonicalize init in
  let init_cand =
    if spilling then
      { ci = 0; cj = 0; ch = Term.Hashed.make init; cb = digest_term init }
    else { ci = 0; cj = 0; ch = Term.Intern.make interned init; cb = "" }
  in
  let init = Term.Hashed.term init_cand.ch in
  shard_add shards.(owner init_cand.ch) init_cand;
  let visited_count = ref 1 in
  let rev_order = ref (if spilling then [] else [ init ]) in
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
  let make_layer accepted =
    match spill_dir with
    | None -> L_mem (Array.map Term.Hashed.term accepted)
    | Some dir ->
        if Array.length accepted = 0 then L_mem [||]
        else begin
          let path = Filename.temp_file ~temp_dir:dir "tr-explore-" ".layer" in
          let oc = open_out_bin path in
          Array.iter
            (fun h ->
              Marshal.to_channel oc (Term.Hashed.term h)
                [ Marshal.No_sharing ])
            accepted;
          spilled_bytes := !spilled_bytes + pos_out oc;
          close_out oc;
          incr spilled_layers;
          L_file { path; count = Array.length accepted }
        end
  in
  (* Split [0, len) into at most [d] contiguous non-empty slabs. *)
  let slabs len =
    let k = Int.min d len in
    List.init k (fun i -> (len * i / k, len * (i + 1) / k))
  in
  (* Expand one resident slice of the current layer; [base] is the global
     layer index of [slice.(0)]. Returns per-shard fresh-candidate lists
     (in (ci, cj) order), with fresh candidates provisionally inserted
     into their shard. *)
  let expand_chunk ~base (slice : Term.t array) =
    let len = Array.length slice in
    let results =
      pmap
        (fun (lo, hi) ->
          let trans = ref 0 in
          let rev_edges = ref [] in
          let buckets = Array.make d [] in
          let s = scratch_make () in
          for i = lo to hi - 1 do
            let state = slice.(i) in
            let gi = base + i in
            List.iteri
              (fun j (rule, _subst, next) ->
                incr trans;
                if want_edges then
                  rev_edges := (state, Rule.name rule, next) :: !rev_edges;
                let ch = Term.Hashed.make next in
                let cb = if spilling then digest_term_into s next else "" in
                let o = owner ch in
                buckets.(o) <- { ci = gi; cj = j; ch; cb } :: buckets.(o))
              (System.instances system state)
          done;
          (!trans, List.rev !rev_edges, buckets))
        (slabs len)
    in
    List.iter
      (fun (t, edges, _) ->
        transitions := !transitions + t;
        if want_edges && edges <> [] then edge_chunks := edges :: !edge_chunks)
      results;
    (* Dedup: shard [o] drains its exchange cells in worker order (slabs
       are contiguous, so concatenation preserves the (ci, cj) order) and
       provisionally claims every first occurrence. Shards are disjoint
       tables, so the jobs are data-race-free. *)
    pmap
      (fun o ->
        let fresh = ref [] in
        List.iter
          (fun (_, _, buckets) ->
            List.iter
              (fun c ->
                if not (shard_mem shards.(o) c) then begin
                  shard_add shards.(o) c;
                  fresh := c :: !fresh
                end)
              (List.rev buckets.(o)))
          results;
        List.rev !fresh)
      (List.init d Fun.id)
  in
  (* One layer: expand (possibly chunked from disk), merge each chunk's
     per-shard fresh lists into the global (ci, cj) order, apply the
     state cap, verify the accepted states, and stream them into the
     next layer. Chunks are fed in ascending layer position and each
     shard's fresh list is (ci, cj)-sorted, so merging per chunk and
     concatenating in feed order IS the global merge — and in spill
     mode it means a chunk's term graphs can be dropped as soon as its
     accepted states hit the next layer's file, bounding residency at
     O(spill_chunk) successor graphs instead of the whole layer's. *)
  let process_layer layer depth =
    (* Next-layer sink: resident accumulation, or a lazily opened temp
       file (never created when nothing gets accepted). *)
    let next_rev = ref [] in
    let next_count = ref 0 in
    let sink_file = ref None in
    let sink_oc () =
      match !sink_file with
      | Some (_, oc) -> oc
      | None ->
          let dir = Option.get spill_dir in
          let path = Filename.temp_file ~temp_dir:dir "tr-explore-" ".layer" in
          let oc = open_out_bin path in
          sink_file := Some (path, oc);
          oc
    in
    let budget = ref (max_states - !visited_count) in
    let consume_chunk fresh_by_shard =
      let merged =
        List.fold_left
          (fun acc fresh -> List.merge cand_compare acc fresh)
          [] fresh_by_shard
      in
      let accepted_rev = ref [] in
      let accepted_count = ref 0 in
      List.iter
        (fun c ->
          if !budget > 0 then begin
            decr budget;
            incr accepted_count;
            accepted_rev := c :: !accepted_rev
          end
          else begin
            truncated := true;
            shard_remove shards.(owner c.ch) c
          end)
        merged;
      visited_count := !visited_count + !accepted_count;
      let accepted = Array.of_list (List.rev !accepted_rev) in
      (* A resident state is kept interned. [shard_add] replaces the
         shard's key with the interned copy, so the rewritten graph the
         candidate carried is not retained. *)
      let accepted =
        if spilling then Array.map (fun c -> c.ch) accepted
        else
          Array.map
            (fun c ->
              let ch = Term.Intern.make interned (Term.Hashed.term c.ch) in
              shard_add shards.(owner ch) { c with ch };
              ch)
            accepted
      in
      let n = Array.length accepted in
      (match check with
      | None -> ()
      | Some f ->
          if n > 0 then begin
            let found =
              pmap
                (fun (lo, hi) ->
                  let out = ref [] in
                  for i = hi - 1 downto lo do
                    match f (Term.Hashed.term accepted.(i)) with
                    | Ok () -> ()
                    | Error message -> out := (i, message) :: !out
                  done;
                  !out)
                (slabs n)
            in
            List.iter
              (List.iter (fun (i, message) ->
                   violations :=
                     {
                       state = Term.Hashed.term accepted.(i);
                       depth = depth + 1;
                       message;
                     }
                     :: !violations))
              found
          end);
      if spilling then
        Array.iter
          (fun h ->
            Marshal.to_channel (sink_oc ()) (Term.Hashed.term h)
              [ Marshal.No_sharing ])
          accepted
      else
        Array.iter
          (fun h ->
            next_rev := h :: !next_rev;
            rev_order := Term.Hashed.term h :: !rev_order)
          accepted;
      next_count := !next_count + n
    in
    let feed base slice = consume_chunk (expand_chunk ~base slice) in
    (match layer with
    | L_mem arr -> if Array.length arr > 0 then feed 0 arr
    | L_file { path; count } ->
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let base = ref 0 in
            while !base < count do
              let k = Int.min spill_chunk (count - !base) in
              let slice =
                Array.init k (fun _ -> (Marshal.from_channel ic : Term.t))
              in
              feed !base slice;
              base := !base + k
            done);
        layer_free layer);
    if spilling then
      match !sink_file with
      | None -> L_mem [||]
      | Some (path, oc) ->
          spilled_bytes := !spilled_bytes + pos_out oc;
          close_out oc;
          incr spilled_layers;
          L_file { path; count = !next_count }
    else
      L_mem
        (Array.of_list (List.rev_map (fun h -> Term.Hashed.term h) !next_rev))
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
  rounds (make_layer [| init_cand.ch |]) 0;
  ( List.rev !rev_order,
    List.concat (List.rev !edge_chunks),
    {
      states = !visited_count;
      transitions = !transitions;
      max_depth = !deepest;
      truncated = !truncated;
    },
    List.rev !violations )

(* ---------------- dispatch ---------------- *)

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
  if spill_chunk < 1 then invalid_arg "Explore.explore: spill_chunk < 1";
  if spill_dir <> None && want_edges then
    invalid_arg "Explore.explore: want_edges is unavailable in spill mode";
  let t0 = Unix.gettimeofday () in
  let spilled_layers = ref 0 in
  let spilled_bytes = ref 0 in
  let finish (visited_order, edge_list, stats, violations) =
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
  let par pool =
    explore_par ~max_states ?max_depth ~check ~want_edges ~pool ~domains
      ~spill_dir ~spill_chunk ~spilled_layers ~spilled_bytes system ~init
  in
  match (spill_dir, domains, pool) with
  | None, 1, _ ->
      finish (explore_seq ~max_states ?max_depth ~check ~want_edges system ~init)
  | _, _, Some p -> finish (par (Some p))
  | _, d, None when d > 1 ->
      Pool.with_pool ~domains:d (fun p -> finish (par (Some p)))
  | _, _, None -> finish (par None)

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
