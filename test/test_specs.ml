(* Tests for Tr_specs: the paper's systems encoded as rewriting systems,
   the prefix-property checker, and the machine-checked refinement chain
   (Lemmas 1-3, Theorem 1). Bounds are kept small so the suite stays
   fast; the bench/CLI run the same checks at larger bounds. *)

open Tr_trs
open Tr_specs

let term = Alcotest.testable Term.pp Term.equal

let explore_ok ?(max_states = 3000) name system initial checker =
  let stats, violations = Explore.bfs ~max_states system ~init:initial ~check:checker in
  (match violations with
  | [] -> ()
  | { Explore.message; state; _ } :: _ ->
      Alcotest.failf "%s: %s in state %s" name message (Term.to_string state));
  stats

(* ---------------- System S ---------------- *)

let test_s_initial_shape () =
  let init = System_s.initial ~n:3 ~data_budget:2 in
  Alcotest.check term "empty global history" (Term.seq [])
    (System_s.global_history init);
  Alcotest.(check int) "three queue entries" 3
    (List.length (System_s.pending_data init))

let test_s_rules_applicable () =
  let init = System_s.initial ~n:2 ~data_budget:1 in
  let succs = System.successors (System_s.system ~n:2) init in
  (* rule new at either node, rule broadcast of empty data (stutter,
     dedups to the initial state itself). *)
  Alcotest.(check bool) "has successors" true (List.length succs >= 2)

let test_s_prefix_exhaustive () =
  let stats =
    explore_ok "S" (System_s.system ~n:2)
      (System_s.initial ~n:2 ~data_budget:2)
      Prefix.check_s
  in
  Alcotest.(check bool) "exhaustive" false stats.Explore.truncated

let test_s_history_grows () =
  (* Drive: new at node 0, then broadcast; H must gain datum(0,_). *)
  let system = System_s.system ~n:2 in
  let init = System_s.initial ~n:2 ~data_budget:1 in
  let after_new =
    List.find
      (fun s -> not (Term.equal s init))
      (System.successors system init)
  in
  let broadcasted =
    List.filter
      (fun s ->
        match System_s.global_history s with
        | Term.Seq (_ :: _) -> true
        | _ -> false)
      (System.successors system after_new)
  in
  Alcotest.(check bool) "broadcast appends" true (broadcasted <> [])

(* ---------------- System S1 ---------------- *)

let test_s1_prefix_exhaustive () =
  let stats =
    explore_ok "S1" (System_s1.system ~n:2)
      (System_s1.initial ~n:2 ~data_budget:2)
      Prefix.check_s1
  in
  Alcotest.(check bool) "exhaustive" false stats.Explore.truncated

let test_s1_copy_rule () =
  (* After a broadcast, the copy rule can bring a node's local history up
     to the global one. *)
  let system = System_s1.system ~n:2 in
  let reachable =
    Explore.reachable ~max_states:2000 system
      ~init:(System_s1.initial ~n:2 ~data_budget:1)
  in
  let some_caught_up =
    List.exists
      (fun s ->
        let global = System_s1.global_history s in
        match global with
        | Term.Seq (_ :: _) ->
            List.exists
              (fun (_, h) -> Term.equal h global)
              (System_s1.local_histories s)
        | _ -> false)
      reachable
  in
  Alcotest.(check bool) "a node catches up" true some_caught_up

(* ---------------- System Token ---------------- *)

let test_token_prefix_exhaustive () =
  let stats =
    explore_ok "Token" (System_token.system ~n:2)
      (System_token.initial ~n:2 ~data_budget:2)
      Prefix.check_token
  in
  Alcotest.(check bool) "exhaustive" false stats.Explore.truncated

let test_token_only_holder_broadcasts () =
  (* In every reachable transition labelled "broadcast", the source
     state's holder is the broadcasting node: check via edge inspection —
     broadcasting changes H, and the new H's last datum names the
     holder. *)
  let edges =
    Explore.edges ~max_states:1500 (System_token.system ~n:2)
      ~init:(System_token.initial ~n:2 ~data_budget:1)
  in
  List.iter
    (fun (src, rule, dst) ->
      if rule = "broadcast" then begin
        let h_src = System_token.global_history src in
        let h_dst = System_token.global_history dst in
        if not (Term.equal h_src h_dst) then
          match h_dst with
          | Term.Seq items ->
              let holder = System_token.holder src in
              let last = List.nth items (List.length items - 1) in
              (match last with
              | Term.App ("datum", [ Term.Int x; _ ]) ->
                  if x <> holder then
                    Alcotest.failf "node %d broadcast while %d held the token"
                      x holder
              | _ -> ())
          | _ -> ()
      end)
    edges

let test_token_initial_holder () =
  Alcotest.(check int) "node 0 starts with the token" 0
    (System_token.holder (System_token.initial ~n:3 ~data_budget:1))

(* ---------------- System Message-Passing ---------------- *)

let test_msgpass_prefix_exhaustive () =
  let stats =
    explore_ok "MP" (System_msgpass.system ~n:2)
      (System_msgpass.initial ~n:2 ~data_budget:1)
      Prefix.check_msgpass
  in
  Alcotest.(check bool) "exhaustive" false stats.Explore.truncated

let test_msgpass_ring_restricts () =
  (* Rule 3' restricts rule 3: the ring variant's reachable set is a
     subset of the arbitrary-send variant's. *)
  let free =
    Explore.reachable ~max_states:5000 (System_msgpass.system ~n:3)
      ~init:(System_msgpass.initial ~n:3 ~data_budget:1)
  in
  let ring =
    Explore.reachable ~max_states:5000 (System_msgpass.system_ring ~n:3)
      ~init:(System_msgpass.initial ~n:3 ~data_budget:1)
  in
  let module TSet = Set.Make (Term) in
  let free_set = TSet.of_list free in
  Alcotest.(check bool) "ring ⊆ free" true
    (List.for_all (fun s -> TSet.mem s free_set) ring);
  Alcotest.(check bool) "strictly smaller here" true
    (List.length ring < List.length free)

let test_msgpass_token_in_transit () =
  (* From the initial state, the holder can send; then T = ⊥ and exactly
     one token is in flight. *)
  let init = System_msgpass.initial ~n:2 ~data_budget:1 in
  let sent =
    List.filter
      (fun s -> System_msgpass.holder s = None)
      (System.successors (System_msgpass.system ~n:2) init)
  in
  Alcotest.(check bool) "send reachable" true (sent <> []);
  List.iter
    (fun s ->
      Alcotest.(check int) "one token in flight" 1
        (List.length (System_msgpass.in_flight_tokens s)))
    sent

(* ---------------- System Search ---------------- *)

let test_search_prefix_bounded () =
  ignore
    (explore_ok ~max_states:4000 "Search" (System_search.system ~n:2)
       (System_search.initial ~n:2 ~data_budget:1)
       Prefix.check_search)

let test_search_traps_appear () =
  let reachable =
    Explore.reachable ~max_states:3000 (System_search.system ~n:2)
      ~init:(System_search.initial ~n:2 ~data_budget:1)
  in
  Alcotest.(check bool) "a trap is set somewhere" true
    (List.exists (fun s -> System_search.traps s <> []) reachable)

let test_search_cyclic_restricts () =
  (* Lemma 5's cyclic system only removes behaviours: its reachable set
     is contained in the unrestricted Search system's. *)
  (* The free space at n=2, budget 1 has ~10.5k states; explore it fully
     so the inclusion test is meaningful. *)
  let free =
    Explore.reachable ~max_states:12000 (System_search.system ~n:2)
      ~init:(System_search.initial ~n:2 ~data_budget:1)
  in
  let cyclic =
    Explore.reachable ~max_states:12000 (System_search.system_cyclic ~n:2)
      ~init:(System_search.initial ~n:2 ~data_budget:1)
  in
  let module TSet = Set.Make (Term) in
  let free_set = TSet.of_list free in
  Alcotest.(check bool) "cyclic ⊆ free" true
    (List.for_all (fun s -> TSet.mem s free_set) cyclic)

let test_search_cyclic_prefix () =
  ignore
    (explore_ok ~max_states:3000 "Search-cyclic"
       (System_search.system_cyclic ~n:3)
       (System_search.initial ~n:3 ~data_budget:1)
       Prefix.check_search)

(* ---------------- System BinarySearch ---------------- *)

let test_binsearch_prefix_bounded () =
  ignore
    (explore_ok ~max_states:4000 "BinarySearch" (System_binsearch.system ~n:2)
       (System_binsearch.initial ~n:2 ~data_budget:1)
       Prefix.check_binsearch)

let test_binsearch_prefix_bounded_n4 () =
  ignore
    (explore_ok ~max_states:3000 "BinarySearch n=4"
       (System_binsearch.system ~n:4)
       (System_binsearch.initial ~n:4 ~data_budget:1)
       Prefix.check_binsearch)

let test_binsearch_token_unique_everywhere () =
  let reachable =
    Explore.reachable ~max_states:3000 (System_binsearch.system ~n:3)
      ~init:(System_binsearch.initial ~n:3 ~data_budget:1)
  in
  List.iter
    (fun s ->
      if System_binsearch.token_count s <> 1 then
        Alcotest.failf "token count %d in %s"
          (System_binsearch.token_count s)
          (Term.to_string s))
    reachable

let test_binsearch_loan_occurs () =
  (* The serve rule (loan) must actually fire somewhere in the bounded
     exploration of a 4-ring. *)
  let edges =
    Explore.edges ~max_states:4000 (System_binsearch.system ~n:4)
      ~init:(System_binsearch.initial ~n:4 ~data_budget:1)
  in
  Alcotest.(check bool) "serve fires" true
    (List.exists (fun (_, rule, _) -> rule = "serve") edges);
  Alcotest.(check bool) "use_return fires" true
    (List.exists (fun (_, rule, _) -> rule = "use_return") edges);
  Alcotest.(check bool) "forward fires" true
    (List.exists (fun (_, rule, _) -> rule = "forward") edges)

let test_binsearch_stamp_order_equals_projection_order () =
  (* Deviation #4 discharged: the executable protocols replace the ⊂_C
     history comparison by a hop-stamp comparison. That is sound exactly
     when, in every reachable state, the rot-projections of any two local
     histories are prefix-ordered BY LENGTH — then "who saw the token
     later" (the stamp order) and "whose projection is a prefix of
     whose" (⊂_C) coincide. Check it over a bounded exploration. *)
  let reachable =
    Explore.reachable ~max_states:4000 (System_binsearch.system ~n:4)
      ~init:(System_binsearch.initial ~n:4 ~data_budget:1)
  in
  List.iter
    (fun state ->
      let projections =
        List.map
          (fun (x, h) -> (x, Notation.rot_projection h))
          (System_binsearch.local_histories state)
      in
      let len h = match h with Term.Seq items -> List.length items | _ -> -1 in
      List.iter
        (fun (x, hx) ->
          List.iter
            (fun (z, hz) ->
              if x < z then begin
                let by_prefix =
                  if Term.seq_is_prefix hx hz then `Le
                  else if Term.seq_is_prefix hz hx then `Ge
                  else `Incomparable
                in
                let by_length = if len hx <= len hz then `Le else `Ge in
                match by_prefix with
                | `Incomparable ->
                    Alcotest.failf
                      "projections incomparable in %s" (Term.to_string state)
                | `Le when by_length <> `Le ->
                    Alcotest.fail "prefix order disagrees with length order"
                | `Ge when len hx < len hz ->
                    Alcotest.fail "prefix order disagrees with length order"
                | `Le | `Ge -> ()
              end)
            projections)
        projections)
    reachable

(* ---------------- rule coverage ---------------- *)

let test_every_rule_fires () =
  (* A rule that never fires in a bounded exploration of a 4-ring is a
     dead rule — an encoding bug. Check full coverage for each system. *)
  let check name system initial max_states =
    let fired = List.map fst (Explore.rule_counts ~max_states system ~init:initial) in
    List.iter
      (fun rule ->
        if not (List.mem (Rule.name rule) fired) then
          Alcotest.failf "%s: rule %s never fires" name (Rule.name rule))
      (System.rules system)
  in
  check "S" (System_s.system ~n:2) (System_s.initial ~n:2 ~data_budget:1) 500;
  check "S1" (System_s1.system ~n:2) (System_s1.initial ~n:2 ~data_budget:1) 500;
  check "Token" (System_token.system ~n:2)
    (System_token.initial ~n:2 ~data_budget:1)
    500;
  check "Message-Passing" (System_msgpass.system ~n:2)
    (System_msgpass.initial ~n:2 ~data_budget:1)
    500;
  check "Search" (System_search.system ~n:2)
    (System_search.initial ~n:2 ~data_budget:1)
    3000;
  check "BinarySearch" (System_binsearch.system ~n:4)
    (System_binsearch.initial ~n:4 ~data_budget:1)
    5000

(* ---------------- liveness ---------------- *)

let test_token_liveness () =
  (* From every reachable Token state, node 1 can always still get the
     token: exhaustively checked at n=2 (the space is finite). *)
  let report =
    Explore.eventually
      ~goal:(fun s -> System_token.holder s = 1)
      (System_token.system ~n:2)
      ~init:(System_token.initial ~n:2 ~data_budget:1)
  in
  Alcotest.(check (list (Alcotest.testable Term.pp Term.equal)))
    "no state locks node 1 out" [] report.Explore.cannot_reach;
  Alcotest.(check bool) "exhaustive (no undecided)" true
    (report.undecided = 0)

let test_msgpass_ring_liveness () =
  (* The ring variant (rule 3') keeps circulating: node 1 always
     eventually holds the token. *)
  let report =
    Explore.eventually
      ~goal:(fun s -> System_msgpass.holder s = Some 1)
      (System_msgpass.system_ring ~n:3)
      ~init:(System_msgpass.initial ~n:3 ~data_budget:1)
  in
  Alcotest.(check int) "no livelocks" 0 (List.length report.Explore.cannot_reach)

let test_specs_no_deadlock () =
  (* The budget-exhausted systems still rotate: broadcasting the empty
     datum is always possible, so no reachable state is stuck. *)
  List.iter
    (fun (name, deadlocked) ->
      if deadlocked <> [] then Alcotest.failf "%s has a deadlock" name)
    [
      ( "Token",
        Explore.deadlocks ~max_states:2000 (System_token.system ~n:2)
          ~init:(System_token.initial ~n:2 ~data_budget:1) );
      ( "Message-Passing",
        Explore.deadlocks ~max_states:2000 (System_msgpass.system ~n:2)
          ~init:(System_msgpass.initial ~n:2 ~data_budget:1) );
      ( "BinarySearch",
        Explore.deadlocks ~max_states:2000 (System_binsearch.system ~n:2)
          ~init:(System_binsearch.initial ~n:2 ~data_budget:1) );
    ]

(* ---------------- Prefix checker self-test ---------------- *)

let test_prefix_checker_catches_violation () =
  (* A deliberately broken system: broadcast appends the datum twice.
     The duplicate-delivery check must flag it. *)
  let open Notation in
  let wrap q h = Term.App ("S", [ q; h ]) in
  let broken_broadcast =
    Rule.make ~name:"broadcast2"
      ~lhs:
        (wrap
           (Term.Bag
              [ Term.Var "Q"; qent (Term.Var "x") (Term.Var "d") (Term.Var "b") ])
           (Term.Var "H"))
      ~rhs:
        (wrap
           (Term.Bag
              [ Term.Var "Q"; qent (Term.Var "x") empty_history (Term.Var "b") ])
           (Term.App
              ("append", [ Term.App ("append", [ Term.Var "H"; Term.Var "d" ]); Term.Var "d" ])))
      ()
  in
  let sys = System.make ~name:"broken" ~rules:[ broken_broadcast ] in
  (* Seed node 0 with one pending datum so the double-append shows. *)
  let init =
    wrap
      (Term.bag
         [ qent (node 0) (Term.seq [ Term.datum 0 1 ]) (Term.Int 0);
           qent (node 1) empty_history (Term.Int 0) ])
      empty_history
  in
  let _, violations =
    Explore.bfs ~max_states:50 sys ~init ~check:Prefix.check_s
  in
  Alcotest.(check bool) "violation detected" true (violations <> [])

let test_chain_detects_incomparable () =
  let a = Term.seq [ Term.Int 1; Term.Int 2 ] in
  let b = Term.seq [ Term.Int 1; Term.Int 3 ] in
  Alcotest.(check bool) "incomparable flagged" true
    (match Prefix.chain [ a; b ] with Error _ -> true | Ok () -> false);
  Alcotest.(check bool) "comparable ok" true
    (match Prefix.chain [ a; Term.seq [ Term.Int 1 ] ] with
    | Ok () -> true
    | Error _ -> false)

(* ---------------- Refinement chain ---------------- *)

let check_refinement name ~abstraction ~abstract_system ~concrete ~initial
    ~max_states =
  let edges = Explore.edges ~max_states concrete ~init:initial in
  let report = Refine.check_simulation ~abstraction ~abstract_system ~edges () in
  if not (Refine.holds report) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Refine.pp_report report);
  Alcotest.(check bool) (name ^ " checked some edges") true (report.Refine.edges > 0)

let test_refine_s1_to_s () =
  check_refinement "S1→S" ~abstraction:System_s1.to_s
    ~abstract_system:(System_s.system ~n:2)
    ~concrete:(System_s1.system ~n:2)
    ~initial:(System_s1.initial ~n:2 ~data_budget:2)
    ~max_states:800

let test_refine_token_to_s1 () =
  check_refinement "Token→S1" ~abstraction:System_token.to_s1
    ~abstract_system:(System_s1.system ~n:2)
    ~concrete:(System_token.system ~n:2)
    ~initial:(System_token.initial ~n:2 ~data_budget:2)
    ~max_states:800

let test_refine_msgpass_to_s1 () =
  check_refinement "MP→S1" ~abstraction:System_msgpass.to_s1
    ~abstract_system:(System_s1.system ~n:2)
    ~concrete:(System_msgpass.system ~n:2)
    ~initial:(System_msgpass.initial ~n:2 ~data_budget:1)
    ~max_states:800

let test_refine_search_to_msgpass () =
  check_refinement "Search→MP+pass" ~abstraction:System_search.to_msgpass
    ~abstract_system:(System_msgpass.system_with_pass ~n:2)
    ~concrete:(System_search.system ~n:2)
    ~initial:(System_search.initial ~n:2 ~data_budget:1)
    ~max_states:600

let test_refine_binsearch_to_msgpass () =
  check_refinement "BinarySearch→MP+pass"
    ~abstraction:System_binsearch.to_msgpass
    ~abstract_system:(System_msgpass.system_with_pass ~n:2)
    ~concrete:(System_binsearch.system ~n:2)
    ~initial:(System_binsearch.initial ~n:2 ~data_budget:1)
    ~max_states:600

let test_refine_binsearch_n3 () =
  check_refinement "BinarySearch→MP+pass (n=3)"
    ~abstraction:System_binsearch.to_msgpass
    ~abstract_system:(System_msgpass.system_with_pass ~n:3)
    ~concrete:(System_binsearch.system ~n:3)
    ~initial:(System_binsearch.initial ~n:3 ~data_budget:1)
    ~max_states:400

let test_refine_detects_broken_abstraction () =
  (* Sanity: a nonsense abstraction must be rejected. Map every
     Message-Passing state to a FIXED non-initial abstract state; steps
     whose image should move then stutter, but transitions out of the
     initial image are unreachable... build instead an abstraction that
     swaps histories, breaking broadcast edges. *)
  let bogus state =
    match System_msgpass.to_s1 state with
    | Term.App ("S1", [ q; _; p ]) ->
        (* Claim the global history is always the non-empty sentinel. *)
        Term.App ("S1", [ q; Term.seq [ Term.Int 999 ]; p ])
    | other -> other
  in
  let edges =
    Explore.edges ~max_states:300 (System_msgpass.system ~n:2)
      ~init:(System_msgpass.initial ~n:2 ~data_budget:1)
  in
  let report =
    Refine.check_simulation ~abstraction:bogus
      ~abstract_system:(System_s1.system ~n:2)
      ~edges ()
  in
  Alcotest.(check bool) "bogus abstraction fails" false (Refine.holds report)

(* ---------------- Verify facade ---------------- *)

let test_verify_facade () =
  let checks = Tokenring.Verify.prefix_checks ~max_states:800 ~ns:[ 2 ] () in
  Alcotest.(check int) "six systems" 6 (List.length checks);
  List.iter
    (fun c ->
      if not c.Tokenring.Verify.ok then
        Alcotest.failf "verify failed: %s (%s)" c.Tokenring.Verify.name c.detail)
    checks;
  let refinements = Tokenring.Verify.refinement_checks ~max_states:300 ~n:2 () in
  Alcotest.(check int) "seven refinements" 7 (List.length refinements);
  List.iter
    (fun c ->
      if not c.Tokenring.Verify.ok then
        Alcotest.failf "refinement failed: %s (%s)" c.Tokenring.Verify.name
          c.detail)
    refinements;
  let liveness = Tokenring.Verify.liveness_checks ~max_states:500 ~n:2 () in
  Alcotest.(check int) "six liveness checks" 6 (List.length liveness);
  List.iter
    (fun c ->
      if not c.Tokenring.Verify.ok then
        Alcotest.failf "liveness failed: %s (%s)" c.Tokenring.Verify.name
          c.detail)
    liveness

(* ---------------- exploration parity across domain counts ---------------- *)

(* The explorer's output must not depend on the domain count: same
   visited states in the same order, same stats, same rule counts, same
   edges, same violations. Each system's output is pinned by digests
   recorded from the sequential engine the explorer once had beside the
   sharded one, and every domain count must reproduce them. *)

let parity_systems =
  [
    ( "S",
      System_s.system ~n:2,
      System_s.initial ~n:2 ~data_budget:2,
      Prefix.check_s );
    ( "S1",
      System_s1.system ~n:2,
      System_s1.initial ~n:2 ~data_budget:2,
      Prefix.check_s1 );
    ( "Token",
      System_token.system ~n:2,
      System_token.initial ~n:2 ~data_budget:2,
      Prefix.check_token );
    ( "MsgPass",
      System_msgpass.system ~n:2,
      System_msgpass.initial ~n:2 ~data_budget:1,
      Prefix.check_msgpass );
    ( "MsgPass+faults",
      System_msgpass.system_faulty ~n:2,
      System_msgpass.initial ~n:2 ~data_budget:1,
      Prefix.check_msgpass );
    ( "Search",
      System_search.system ~n:2,
      System_search.initial ~n:2 ~data_budget:1,
      Prefix.check_search );
    ( "BinSearch",
      System_binsearch.system ~n:2,
      System_binsearch.initial ~n:2 ~data_budget:1,
      Prefix.check_binsearch );
  ]

type reference = {
  name : string;
  cap700 : string;
  cap3000 : string;
  depth4 : string;  (** max_depth 4, no state cap *)
  counts1200 : string;  (** rule counts at cap 1200 *)
}

let references =
  [
    { name = "S";
      cap700 = "b72fab3c35c40c2cf4baa187f3ee98b0";
      cap3000 = "b72fab3c35c40c2cf4baa187f3ee98b0";
      depth4 = "14f0606a3f53fc3e9b184db78f0cc8cc";
      counts1200 = "b985e2813f7811e996f5710834c07960";
    };
    { name = "S1";
      cap700 = "db1aefa1d318383e1bef1f7efff70ff9";
      cap3000 = "db1aefa1d318383e1bef1f7efff70ff9";
      depth4 = "53cd63b255ca1db6ce1c289b888d5da3";
      counts1200 = "fdd0ed21093ef91453ee1185920676fc";
    };
    { name = "Token";
      cap700 = "6f6f4229c14fd89d604eb6711eb8e24e";
      cap3000 = "6f6f4229c14fd89d604eb6711eb8e24e";
      depth4 = "cd2eba0c8c19abb94208726f977091dc";
      counts1200 = "0173304b8cec58c309e3298558b58221";
    };
    { name = "MsgPass";
      cap700 = "449b6c1edea3015d804e47a8bd139d18";
      cap3000 = "449b6c1edea3015d804e47a8bd139d18";
      depth4 = "e2ca69b5974dd123848dee0497fdd4a5";
      counts1200 = "ad8a9f324326802a436b1f05d6db4fe5";
    };
    { name = "MsgPass+faults";
      cap700 = "c09cc02e3991e5f5f3b9dc529f639a14";
      cap3000 = "6d355711ae03df812a9b4a6a45ea250d";
      depth4 = "e38155cf86477c8ae39676b5d1ebf95d";
      counts1200 = "5f181ded5b916aab59deaa1ccc460c7d";
    };
    { name = "Search";
      cap700 = "3e11c6c02f25e5728132f7062f5aa78d";
      cap3000 = "c5fb623102d4e9e45ac2537262086d65";
      depth4 = "e039e2c964eaec6ef0412c91d6be7ce4";
      counts1200 = "6145cf7797854e94eb3482c56f0284c2";
    };
    { name = "BinSearch";
      cap700 = "4bdc1849cc7befefe8a43209de63e2f1";
      cap3000 = "1c29fc0d159bf3e4c125e88966d98be1";
      depth4 = "eb37446221a7cd79c4ebe7952e65c1a8";
      counts1200 = "eb42db027a567454e6e026ea12e49aec";
    };
  ]

let reference name = List.find (fun r -> String.equal r.name name) references
let domain_counts = [ 1; 2; 4 ]

let add_stats b (s : Explore.stats) =
  Printf.bprintf b "states %d transitions %d max_depth %d truncated %b\n"
    s.Explore.states s.Explore.transitions s.Explore.max_depth
    s.Explore.truncated

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

(* One exploration's stats, visited order, edges and violations, each
   from the function that reports it, at the same bounds. *)
type outcome = {
  stats : Explore.stats;
  order : Term.t list;
  edges : (Term.t * string * Term.t) list;
  violations : Explore.violation list;
}

let outcome ?max_states ?max_depth ~check ~domains system ~init =
  let stats, violations =
    Explore.bfs ?max_states ?max_depth ~check ~domains system ~init
  in
  {
    stats;
    order = Explore.reachable ?max_states ?max_depth ~domains system ~init;
    edges = Explore.edges ?max_states ?max_depth ~domains system ~init;
    violations;
  }

(* Stats, visited order, edges and violations, terms printed. *)
let outcome_digest o =
  let b = Buffer.create 65536 in
  add_stats b o.stats;
  List.iter (fun t -> Printf.bprintf b "%s\n" (Term.to_string t)) o.order;
  List.iter
    (fun (s, r, t) ->
      Printf.bprintf b "%s -%s-> %s\n" (Term.to_string s) r (Term.to_string t))
    o.edges;
  List.iter
    (fun (v : Explore.violation) ->
      Printf.bprintf b "%d %s %s\n" v.Explore.depth v.Explore.message
        (Term.to_string v.Explore.state))
    o.violations;
  md5 b

let counts_digest counts =
  let b = Buffer.create 256 in
  List.iter (fun (r, c) -> Printf.bprintf b "%s %d\n" r c) counts;
  md5 b

(* Every (system, domain count) pair against its recorded digest. *)
let check_digests what digest want =
  List.iter
    (fun (name, system, init, checker) ->
      List.iter
        (fun domains ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s D=%d" name what domains)
            (want (reference name))
            (digest ~domains ~system ~init ~checker))
        domain_counts)
    parity_systems

(* Caps chosen to also exercise mid-layer truncation (the 700 cap cuts a
   BFS layer of the bigger systems in half). *)
let test_parity_all_systems () =
  List.iter
    (fun (max_states, want) ->
      check_digests
        (Printf.sprintf "cap=%d" max_states)
        (fun ~domains ~system ~init ~checker ->
          outcome_digest
            (outcome ~max_states ~check:checker ~domains system ~init))
        want)
    [ (700, fun r -> r.cap700); (3000, fun r -> r.cap3000) ]

let test_parity_rule_counts () =
  check_digests "rule counts"
    (fun ~domains ~system ~init ~checker:_ ->
      counts_digest (Explore.rule_counts ~max_states:1200 ~domains system ~init))
    (fun r -> r.counts1200)

let test_parity_max_depth () =
  check_digests "depth=4"
    (fun ~domains ~system ~init ~checker ->
      outcome_digest
        (outcome ~max_depth:4 ~check:checker ~domains system ~init))
    (fun r -> r.depth4)

(* Explored states share their proper subterms: at 20,000 BinarySearch
   states the visited list, cons cells included, stays within 32 words a
   state at D = 1 and D = 2. Unshared, each state holds the bag spines
   its rewrite built, about 73 words. The two workers run on a
   one-domain pool: each still interns through its own slab's pool, and
   the test leaves the second CPU to the wall-clock tests that run
   beside it. *)
let test_parity_shared_states () =
  let system = System_binsearch.system ~n:3
  and init = System_binsearch.initial ~n:3 ~data_budget:1 in
  let states = 20_000 in
  Tr_sim.Pool.with_pool ~domains:1 @@ fun pool ->
  List.iter
    (fun domains ->
      let order =
        Explore.reachable ~max_states:states ~domains ~pool system ~init
      in
      Alcotest.(check int) "states" states (List.length order);
      let words = Obj.reachable_words (Obj.repr order) in
      let per_state = float_of_int words /. float_of_int states in
      if per_state > 32.0 then
        Alcotest.failf "D=%d: %.1f words per retained state (bound 32)" domains
          per_state)
    [ 1; 2 ]

(* A worker drops a duplicate successor as soon as it generates it, so
   a layer promotes little more than the states it keeps. At 20,000
   BinarySearch states the explorer promotes at most 62 words a state at
   D = 1 and D = 2; the sequential engine it replaced read 61.7 here,
   and buffering every successor until a dedup pass promoted about 440.
   One-domain pool, as above. *)
let test_parity_promoted_words () =
  let system = System_binsearch.system ~n:3
  and init = System_binsearch.initial ~n:3 ~data_budget:1 in
  let states = 20_000 in
  Tr_sim.Pool.with_pool ~domains:1 @@ fun pool ->
  List.iter
    (fun domains ->
      let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
      let before = promoted () in
      let order =
        Explore.reachable ~max_states:states ~domains ~pool system ~init
      in
      let per_state = (promoted () -. before) /. float_of_int states in
      Alcotest.(check int) "states" states (List.length order);
      if per_state > 62.0 then
        Alcotest.failf "D=%d: %.1f words promoted per state (bound 62)" domains
          per_state)
    [ 1; 2 ]

(* Rule order determines candidate order inside a state's expansion; the
   output must not depend on the domain count for {e any} declaration
   order, not just the shipped one. *)
let test_parity_random_rule_orders =
  let arbitrary_perm =
    QCheck.make
      ~print:(fun (which, perm) -> Printf.sprintf "%s %s" which
                (String.concat "," (List.map string_of_int perm)))
      QCheck.Gen.(
        let* which = oneofl [ "MsgPass+faults"; "BinSearch" ] in
        let rules =
          match which with
          | "MsgPass+faults" ->
              System.rules (System_msgpass.system_faulty ~n:2)
          | _ -> System.rules (System_binsearch.system ~n:2)
        in
        let+ perm = shuffle_l (List.init (List.length rules) Fun.id) in
        (which, perm))
  in
  QCheck.Test.make ~name:"parallel parity under random rule orders" ~count:12
    arbitrary_perm (fun (which, perm) ->
      let system, init, checker =
        match which with
        | "MsgPass+faults" ->
            ( System_msgpass.system_faulty ~n:2,
              System_msgpass.initial ~n:2 ~data_budget:1,
              Prefix.check_msgpass )
        | _ ->
            ( System_binsearch.system ~n:2,
              System_binsearch.initial ~n:2 ~data_budget:1,
              Prefix.check_binsearch )
      in
      let rules = System.rules system in
      let shuffled =
        System.make ~name:"shuffled"
          ~rules:(List.map (List.nth rules) perm)
      in
      let run domains =
        outcome ~max_states:600 ~check:checker ~domains shuffled ~init
      in
      run 1 = run 3)

(* ---------------- fault transitions ---------------- *)

let test_faulty_msgpass_violates () =
  (* The opt-in lose/dup-token rules must make the explorer surface
     prefix-property violations (token uniqueness breaks both ways),
     while the fault-free system stays clean on the same bounds. *)
  let init = System_msgpass.initial ~n:2 ~data_budget:1 in
  let clean, no_violations =
    Explore.bfs ~max_states:4000 ~check:Prefix.check_msgpass
      (System_msgpass.system ~n:2) ~init
  in
  Alcotest.(check bool) "fault-free exhaustive" false
    clean.Explore.truncated;
  Alcotest.(check int) "fault-free clean" 0 (List.length no_violations);
  let _, violations =
    Explore.bfs ~max_states:4000 ~max_depth:6 ~check:Prefix.check_msgpass
      (System_msgpass.system_faulty ~n:2)
      ~init
  in
  let messages =
    List.sort_uniq String.compare
      (List.map (fun v -> v.Explore.message) violations)
  in
  Alcotest.(check bool) "violations surfaced" true (violations <> []);
  Alcotest.(check bool) "token loss detected" true
    (List.exists
       (fun m -> m = "token uniqueness violated: 0 tokens")
       messages);
  Alcotest.(check bool) "token duplication detected" true
    (List.exists
       (fun m -> m = "token uniqueness violated: 2 tokens")
       messages)

let test_faulty_rules_fire () =
  let fired =
    List.map fst
      (Explore.rule_counts ~max_states:2000 ~max_depth:5
         (System_msgpass.system_faulty ~n:2)
         ~init:(System_msgpass.initial ~n:2 ~data_budget:1))
  in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " fires") true (List.mem rule fired))
    [
      "lose-token"; "dup-token"; "stale-gimme"; "gimme-regenerate";
      "crash-holder";
    ]

let () =
  Alcotest.run "specs"
    [
      ( "system-s",
        [
          Alcotest.test_case "initial shape" `Quick test_s_initial_shape;
          Alcotest.test_case "rules applicable" `Quick test_s_rules_applicable;
          Alcotest.test_case "prefix exhaustive" `Quick test_s_prefix_exhaustive;
          Alcotest.test_case "history grows" `Quick test_s_history_grows;
        ] );
      ( "system-s1",
        [
          Alcotest.test_case "prefix exhaustive" `Quick test_s1_prefix_exhaustive;
          Alcotest.test_case "copy rule" `Quick test_s1_copy_rule;
        ] );
      ( "system-token",
        [
          Alcotest.test_case "prefix exhaustive" `Quick test_token_prefix_exhaustive;
          Alcotest.test_case "only holder broadcasts" `Quick
            test_token_only_holder_broadcasts;
          Alcotest.test_case "initial holder" `Quick test_token_initial_holder;
        ] );
      ( "system-msgpass",
        [
          Alcotest.test_case "prefix exhaustive" `Quick test_msgpass_prefix_exhaustive;
          Alcotest.test_case "ring restricts" `Quick test_msgpass_ring_restricts;
          Alcotest.test_case "token in transit" `Quick test_msgpass_token_in_transit;
        ] );
      ( "system-search",
        [
          Alcotest.test_case "prefix bounded" `Quick test_search_prefix_bounded;
          Alcotest.test_case "traps appear" `Quick test_search_traps_appear;
          Alcotest.test_case "cyclic restricts (Lemma 5)" `Quick
            test_search_cyclic_restricts;
          Alcotest.test_case "cyclic prefix" `Quick test_search_cyclic_prefix;
        ] );
      ( "system-binsearch",
        [
          Alcotest.test_case "prefix bounded" `Quick test_binsearch_prefix_bounded;
          Alcotest.test_case "prefix bounded n=4" `Quick
            test_binsearch_prefix_bounded_n4;
          Alcotest.test_case "token unique" `Quick
            test_binsearch_token_unique_everywhere;
          Alcotest.test_case "loan occurs" `Quick test_binsearch_loan_occurs;
        ] );
      ( "stamp-order",
        [
          Alcotest.test_case "stamps agree with ⊂_C" `Quick
            test_binsearch_stamp_order_equals_projection_order;
        ] );
      ( "rule-coverage",
        [ Alcotest.test_case "every rule fires" `Quick test_every_rule_fires ] );
      ( "liveness",
        [
          Alcotest.test_case "token: node 1 always reachable" `Quick
            test_token_liveness;
          Alcotest.test_case "ring circulation" `Quick test_msgpass_ring_liveness;
          Alcotest.test_case "no deadlocks" `Quick test_specs_no_deadlock;
        ] );
      ( "prefix-checker",
        [
          Alcotest.test_case "catches violation" `Quick
            test_prefix_checker_catches_violation;
          Alcotest.test_case "chain comparability" `Quick
            test_chain_detects_incomparable;
        ] );
      ( "refinement",
        [
          Alcotest.test_case "S1 -> S" `Quick test_refine_s1_to_s;
          Alcotest.test_case "Token -> S1" `Quick test_refine_token_to_s1;
          Alcotest.test_case "MP -> S1" `Quick test_refine_msgpass_to_s1;
          Alcotest.test_case "Search -> MP+pass" `Quick test_refine_search_to_msgpass;
          Alcotest.test_case "BinarySearch -> MP+pass" `Quick
            test_refine_binsearch_to_msgpass;
          Alcotest.test_case "BinarySearch n=3" `Slow test_refine_binsearch_n3;
          Alcotest.test_case "broken abstraction rejected" `Quick
            test_refine_detects_broken_abstraction;
        ] );
      ("verify-facade", [ Alcotest.test_case "facade" `Quick test_verify_facade ]);
      ( "explore-parity",
        [
          Alcotest.test_case "all systems, D in {1,2,4}" `Quick
            test_parity_all_systems;
          Alcotest.test_case "rule counts" `Quick test_parity_rule_counts;
          Alcotest.test_case "depth bound" `Quick test_parity_max_depth;
          Alcotest.test_case "states share subterms" `Quick
            test_parity_shared_states;
          Alcotest.test_case "promoted words per state" `Quick
            test_parity_promoted_words;
          QCheck_alcotest.to_alcotest test_parity_random_rule_orders;
        ] );
      ( "faults",
        [
          Alcotest.test_case "faulty msgpass violates prefix" `Quick
            test_faulty_msgpass_violates;
          Alcotest.test_case "fault rules fire" `Quick test_faulty_rules_fire;
        ] );
    ]
