(* Unit and property tests for Tr_trs: terms, substitutions, AC pattern
   matching, rules, systems, strategies, and the explorer. *)

open Tr_trs

let term = Alcotest.testable Term.pp Term.equal

(* Random ground-term generator for property tests. *)
let ground_term_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self size ->
      if size <= 1 then
        oneof [ map (fun i -> Term.Int i) (int_bound 5);
                map (fun c -> Term.Const (Printf.sprintf "c%d" c)) (int_bound 3) ]
      else
        let smaller = self (size / 3) in
        oneof
          [
            map (fun i -> Term.Int i) (int_bound 5);
            map (fun xs -> Term.App ("f", xs)) (list_size (1 -- 3) smaller);
            map (fun xs -> Term.Bag xs) (list_size (0 -- 3) smaller);
            map (fun xs -> Term.Seq xs) (list_size (0 -- 3) smaller);
          ])

let arbitrary_ground = QCheck.make ~print:Term.to_string ground_term_gen

(* ---------------- Term ---------------- *)

let test_term_bag_ac_equal () =
  let a = Term.bag [ Term.Int 1; Term.Int 2; Term.Int 3 ] in
  let b = Term.bag [ Term.Int 3; Term.Int 1; Term.Int 2 ] in
  Alcotest.check term "bags equal modulo order" a b

let test_term_bag_flattening () =
  let nested = Term.bag [ Term.Bag [ Term.Int 1; Term.Int 2 ]; Term.Int 3 ] in
  let flat = Term.bag [ Term.Int 1; Term.Int 2; Term.Int 3 ] in
  Alcotest.check term "nested bags flatten" flat nested

let test_term_seq_ordered () =
  let a = Term.seq [ Term.Int 1; Term.Int 2 ] in
  let b = Term.seq [ Term.Int 2; Term.Int 1 ] in
  Alcotest.(check bool) "sequences keep order" false (Term.equal a b)

let test_term_append () =
  let h = Term.seq [ Term.Int 1 ] in
  Alcotest.check term "append item"
    (Term.seq [ Term.Int 1; Term.Int 2 ])
    (Term.seq_append h (Term.Int 2));
  Alcotest.check term "append phi is identity" h (Term.seq_append h (Term.phi 0));
  Alcotest.check term "append empty seq is identity" h
    (Term.seq_append h (Term.seq []));
  Alcotest.check term "append seq concatenates"
    (Term.seq [ Term.Int 1; Term.Int 2; Term.Int 3 ])
    (Term.seq_append h (Term.seq [ Term.Int 2; Term.Int 3 ]))

let test_term_append_invalid () =
  Alcotest.(check bool) "append to non-seq raises" true
    (try
       ignore (Term.seq_append (Term.Int 1) (Term.Int 2));
       false
     with Invalid_argument _ -> true)

let test_term_prefix () =
  let short = Term.seq [ Term.Int 1; Term.Int 2 ] in
  let long = Term.seq [ Term.Int 1; Term.Int 2; Term.Int 3 ] in
  Alcotest.(check bool) "prefix" true (Term.seq_is_prefix short long);
  Alcotest.(check bool) "not prefix" false (Term.seq_is_prefix long short);
  Alcotest.(check bool) "reflexive" true (Term.seq_is_prefix long long);
  Alcotest.(check bool) "diverging" false
    (Term.seq_is_prefix (Term.seq [ Term.Int 9 ]) long)

let test_term_project () =
  let h = Term.seq [ Term.rot 0; Term.datum 1 1; Term.rot 2 ] in
  let rots =
    Term.seq_project ~keep:(function Term.App ("rot", _) -> true | _ -> false) h
  in
  Alcotest.check term "projection" (Term.seq [ Term.rot 0; Term.rot 2 ]) rots

let test_term_vars_and_ground () =
  let t = Term.App ("f", [ Term.Var "X"; Term.Bag [ Term.Var "Y"; Term.Var "X" ] ]) in
  Alcotest.(check (list string)) "vars in first-occurrence order" [ "X"; "Y" ]
    (Term.vars t);
  Alcotest.(check bool) "not ground" false (Term.is_ground t);
  Alcotest.(check bool) "ground" true (Term.is_ground (Term.Int 3))

let prop_canonicalize_idempotent =
  QCheck.Test.make ~name:"canonicalize idempotent" ~count:300 arbitrary_ground
    (fun t ->
      let once = Term.canonicalize t in
      Term.equal once (Term.canonicalize once))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:300
    (QCheck.pair arbitrary_ground arbitrary_ground) (fun (a, b) ->
      let a = Term.canonicalize a and b = Term.canonicalize b in
      let c1 = Term.compare a b and c2 = Term.compare b a in
      (c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0))

let prop_canonicalize_sharing =
  (* Idempotence, strengthened to physical equality: re-canonicalising a
     canonical term must return it unchanged (the allocation-free fast
     path the explorer's hot loop relies on). *)
  QCheck.Test.make ~name:"canonicalize shares canonical terms" ~count:300
    arbitrary_ground (fun t ->
      let c = Term.canonicalize t in
      Term.canonicalize c == c && Term.is_canonical c)

let prop_hash_stable_under_canonicalize =
  QCheck.Test.make ~name:"hash t = hash (canonicalize t) for canonical t"
    ~count:300 arbitrary_ground (fun t ->
      let c = Term.canonicalize t in
      Term.hash c = Term.hash (Term.canonicalize c) && Term.hash c >= 0)

let prop_hash_respects_ac_equality =
  QCheck.Test.make ~name:"AC-equal bags hash alike after canonicalize"
    ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 5) arbitrary_ground)
    (fun items ->
      let a = Term.canonicalize (Term.Bag items) in
      let b = Term.canonicalize (Term.Bag (List.rev items)) in
      Term.equal a b && Term.hash a = Term.hash b)

let test_term_hashed_tbl () =
  let a = Term.bag [ Term.Int 1; Term.Int 2 ] in
  let b = Term.bag [ Term.Int 2; Term.Int 1 ] in
  let tbl = Term.Tbl.create 16 in
  Term.Tbl.replace tbl (Term.Hashed.make a) ();
  Alcotest.(check bool) "AC-equal key found" true
    (Term.Tbl.mem tbl (Term.Hashed.make b));
  Alcotest.(check bool) "distinct term absent" false
    (Term.Tbl.mem tbl (Term.Hashed.make (Term.Int 3)));
  let h = Term.Hashed.make a in
  Alcotest.(check int) "cached hash is the structural hash" (Term.hash a)
    (Term.Hashed.hash h);
  Alcotest.check term "round-trips the term" a (Term.Hashed.term h)

(* A fresh copy of [t]: structurally equal, sharing no node with it. *)
let rec copy_term = function
  | Term.Const c -> Term.Const (String.init (String.length c) (String.get c))
  | Term.Int i -> Term.Int i
  | Term.Var v -> Term.Var v
  | Term.Wild -> Term.Wild
  | Term.App (f, xs) -> Term.App (f, List.map copy_term xs)
  | Term.Bag xs -> Term.Bag (List.map copy_term xs)
  | Term.Seq xs -> Term.Seq (List.map copy_term xs)

let children = function
  | Term.App (_, xs) | Term.Bag xs | Term.Seq xs -> xs
  | Term.Const _ | Term.Int _ | Term.Var _ | Term.Wild -> []

let prop_intern_shares =
  QCheck.Test.make ~name:"interning keeps the term and shares children"
    ~count:300
    arbitrary_ground (fun t ->
      let pool = Term.Intern.create () in
      let a = Term.Intern.make pool t in
      let b = Term.Intern.make pool (copy_term t) in
      let ta = Term.Hashed.term a and tb = Term.Hashed.term b in
      Term.equal ta t && Term.equal tb t
      && Term.Hashed.hash a = Term.hash t
      && Term.Hashed.hash b = Term.hash t
      && List.length (children ta) = List.length (children tb)
      && List.for_all2 ( == ) (children ta) (children tb))

(* ---------------- Subst ---------------- *)

let test_subst_basics () =
  let s = Subst.bind Subst.empty "X" (Term.Int 1) in
  Alcotest.(check (option term)) "find" (Some (Term.Int 1)) (Subst.find s "X");
  Alcotest.(check bool) "mem" true (Subst.mem s "X");
  Alcotest.(check int) "find_int" 1 (Subst.find_int s "X")

let test_subst_merge () =
  let a = Subst.bind Subst.empty "X" (Term.Int 1) in
  let b = Subst.bind Subst.empty "Y" (Term.Int 2) in
  let conflicting = Subst.bind Subst.empty "X" (Term.Int 9) in
  Alcotest.(check bool) "consistent merge" true
    (Option.is_some (Subst.merge_consistent a b));
  Alcotest.(check bool) "conflict detected" true
    (Option.is_none (Subst.merge_consistent a conflicting))

let test_subst_apply_append () =
  let s =
    Subst.bind
      (Subst.bind Subst.empty "H" (Term.seq [ Term.Int 1 ]))
      "d" (Term.Int 2)
  in
  let rhs = Term.App ("append", [ Term.Var "H"; Term.Var "d" ]) in
  Alcotest.check term "append evaluated"
    (Term.seq [ Term.Int 1; Term.Int 2 ])
    (Subst.apply s rhs)

let test_subst_apply_leaves_unbound () =
  let out = Subst.apply Subst.empty (Term.Var "Z") in
  Alcotest.check term "unbound stays" (Term.Var "Z") out

(* ---------------- Matching ---------------- *)

let test_match_constants () =
  Alcotest.(check bool) "same const" true
    (Matching.is_instance ~pattern:(Term.Const "a") (Term.Const "a"));
  Alcotest.(check bool) "diff const" false
    (Matching.is_instance ~pattern:(Term.Const "a") (Term.Const "b"))

let test_match_var_binding () =
  match Matching.matches ~pattern:(Term.Var "X") (Term.Int 7) with
  | Some s -> Alcotest.(check int) "bound" 7 (Subst.find_int s "X")
  | None -> Alcotest.fail "expected match"

let test_match_repeated_var () =
  let pattern = Term.App ("f", [ Term.Var "X"; Term.Var "X" ]) in
  Alcotest.(check bool) "equal args" true
    (Matching.is_instance ~pattern (Term.App ("f", [ Term.Int 1; Term.Int 1 ])));
  Alcotest.(check bool) "unequal args" false
    (Matching.is_instance ~pattern (Term.App ("f", [ Term.Int 1; Term.Int 2 ])))

let test_match_wildcard () =
  Alcotest.(check bool) "wild matches anything" true
    (Matching.is_instance ~pattern:Term.Wild (Term.App ("f", [ Term.Int 1 ])));
  match Matching.matches ~pattern:Term.Wild (Term.Int 1) with
  | Some s -> Alcotest.(check bool) "binds nothing" true (Subst.is_empty s)
  | None -> Alcotest.fail "wild must match"

let test_match_bag_rest () =
  let pattern = Term.Bag [ Term.Var "Q"; Term.Int 1 ] in
  let subject = Term.bag [ Term.Int 1; Term.Int 2; Term.Int 3 ] in
  match Matching.matches ~pattern subject with
  | Some s ->
      Alcotest.check term "rest bound to remainder"
        (Term.bag [ Term.Int 2; Term.Int 3 ])
        (Option.get (Subst.find s "Q"))
  | None -> Alcotest.fail "expected match"

let test_match_bag_rest_empty () =
  let pattern = Term.Bag [ Term.Var "Q"; Term.Int 1 ] in
  match Matching.matches ~pattern (Term.bag [ Term.Int 1 ]) with
  | Some s ->
      Alcotest.check term "rest empty" (Term.bag [])
        (Option.get (Subst.find s "Q"))
  | None -> Alcotest.fail "expected match"

let test_match_bag_enumerates_choices () =
  (* (x, d) against a bag of two pairs: two ways to choose x. *)
  let pattern =
    Term.Bag [ Term.Var "Q"; Term.pair (Term.Var "x") (Term.Var "d") ]
  in
  let subject =
    Term.bag [ Term.pair (Term.Int 0) (Term.Int 10); Term.pair (Term.Int 1) (Term.Int 11) ]
  in
  let matches = Matching.all_matches ~pattern subject in
  Alcotest.(check int) "two matches" 2 (List.length matches);
  let xs =
    List.sort compare (List.map (fun s -> Subst.find_int s "x") matches)
  in
  Alcotest.(check (list int)) "both elements tried" [ 0; 1 ] xs

let test_match_bag_distinct_members () =
  (* Two element patterns must match two distinct members. *)
  let e v = Term.App ("e", [ v ]) in
  let pattern = Term.Bag [ e (Term.Var "X"); e (Term.Var "Y") ] in
  Alcotest.(check bool) "needs two members" false
    (Matching.is_instance ~pattern (Term.bag [ e (Term.Int 1) ]));
  Alcotest.(check bool) "two members match" true
    (Matching.is_instance ~pattern (Term.bag [ e (Term.Int 1); e (Term.Int 2) ]))

let test_match_two_rest_vars_invalid () =
  let pattern = Term.Bag [ Term.Var "A"; Term.Var "B"; Term.Int 1 ] in
  ignore pattern;
  (* A and B are both rest candidates only if both are bare... here the
     elements are [Int 1] and rests A, B: invalid. *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Matching.all_matches ~pattern (Term.bag [ Term.Int 1; Term.Int 2 ]));
       false
     with Invalid_argument _ -> true)

let test_match_requires_ground_subject () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Matching.all_matches ~pattern:Term.Wild (Term.Var "X"));
       false
     with Invalid_argument _ -> true)

let test_match_seq_lengths () =
  let pattern = Term.Seq [ Term.Var "A"; Term.Var "B" ] in
  Alcotest.(check bool) "same length" true
    (Matching.is_instance ~pattern (Term.seq [ Term.Int 1; Term.Int 2 ]));
  Alcotest.(check bool) "different length" false
    (Matching.is_instance ~pattern (Term.seq [ Term.Int 1 ]))

let prop_match_self =
  QCheck.Test.make ~name:"every ground term matches itself" ~count:300
    arbitrary_ground (fun t ->
      let t = Term.canonicalize t in
      Matching.is_instance ~pattern:t t)

let prop_match_instance_roundtrip =
  QCheck.Test.make ~name:"substitution applied to pattern gives subject"
    ~count:200 arbitrary_ground (fun t ->
      let t = Term.canonicalize t in
      (* Pattern (Var X) against t: applying the substitution to the
         pattern must reproduce t. *)
      match Matching.matches ~pattern:(Term.Var "X") t with
      | Some s -> Term.equal (Term.canonicalize (Subst.apply s (Term.Var "X"))) t
      | None -> false)

(* ---------------- Rule ---------------- *)

let test_rule_wildcard_pairing () =
  (* (X, -) -> (inc X, -): the second field passes through unchanged. *)
  let rule =
    Rule.make ~name:"inc"
      ~lhs:(Term.App ("s", [ Term.Var "X"; Term.Wild ]))
      ~rhs:(Term.App ("s", [ Term.App ("inc", [ Term.Var "X" ]); Term.Wild ]))
      ()
  in
  let state = Term.App ("s", [ Term.Int 1; Term.Const "payload" ]) in
  match Rule.instances rule state with
  | [ (_, out) ] ->
      Alcotest.check term "payload preserved"
        (Term.App ("s", [ Term.App ("inc", [ Term.Int 1 ]); Term.Const "payload" ]))
        out
  | other -> Alcotest.failf "expected 1 instance, got %d" (List.length other)

let test_rule_unpaired_rhs_wild_rejected () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Rule.make ~name:"bad" ~lhs:(Term.Var "X")
            ~rhs:(Term.App ("f", [ Term.Wild ]))
            ());
       false
     with Invalid_argument _ -> true)

let test_rule_guard () =
  let rule =
    Rule.make ~name:"guarded" ~lhs:(Term.Var "X") ~rhs:(Term.Const "fired")
      ~guard:(fun s -> Subst.find_int s "X" > 0)
      ()
  in
  Alcotest.(check int) "guard true" 1 (List.length (Rule.instances rule (Term.Int 5)));
  Alcotest.(check int) "guard false" 0 (List.length (Rule.instances rule (Term.Int 0)))

let test_rule_extend_enumerates () =
  let rule =
    Rule.make ~name:"choose" ~lhs:(Term.Var "X") ~rhs:(Term.Var "Y")
      ~extend:(fun s ->
        List.map (fun k -> Subst.bind s "Y" (Term.Int k)) [ 1; 2; 3 ])
      ()
  in
  let outs = List.map snd (Rule.instances rule (Term.Int 0)) in
  Alcotest.(check (list term)) "three results"
    [ Term.Int 1; Term.Int 2; Term.Int 3 ]
    outs

let test_rule_nonground_rhs_rejected () =
  let rule = Rule.make ~name:"oops" ~lhs:(Term.Var "X") ~rhs:(Term.Var "Y") () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rule.instances rule (Term.Int 1));
       false
     with Invalid_argument _ -> true)

(* ---------------- System / Strategy / Explore ---------------- *)

(* A bounded counter: inc until 3, or reset to 0 from anywhere. *)
let counter_system =
  (* Guards are total: non-integer states are normal forms, not errors. *)
  let as_int s = match Subst.find_exn s "X" with Term.Int i -> Some i | _ -> None in
  let inc =
    Rule.make ~name:"inc" ~lhs:(Term.Var "X")
      ~rhs:(Term.Var "X'")
      ~guard:(fun s -> match as_int s with Some i -> i < 3 | None -> false)
      ~extend:(fun s ->
        match as_int s with
        | Some i -> [ Subst.bind s "X'" (Term.Int (i + 1)) ]
        | None -> [])
      ()
  in
  let reset =
    Rule.make ~name:"reset" ~lhs:(Term.Var "X") ~rhs:(Term.Int 0)
      ~guard:(fun s -> match as_int s with Some i -> i > 0 | None -> false)
      ()
  in
  System.make ~name:"counter" ~rules:[ inc; reset ]

let test_system_successors () =
  Alcotest.(check (list term)) "from 1: 0 and 2"
    [ Term.Int 0; Term.Int 2 ]
    (System.successors counter_system (Term.Int 1));
  Alcotest.(check (list term)) "from 0: only 1" [ Term.Int 1 ]
    (System.successors counter_system (Term.Int 0))

let test_system_normal_form () =
  Alcotest.(check bool) "const is stuck" true
    (System.is_normal_form counter_system (Term.Const "stuck"));
  Alcotest.(check bool) "int 1 is live" false
    (System.is_normal_form counter_system (Term.Int 1))

let test_system_reduce_first () =
  let path =
    System.reduce counter_system ~strategy:Strategy.first ~init:(Term.Int 0)
      ~steps:4
  in
  (* "first" always picks inc until 3, then reset. *)
  Alcotest.(check (list term)) "path"
    [ Term.Int 0; Term.Int 1; Term.Int 2; Term.Int 3; Term.Int 0 ]
    path

let test_system_reduce_round_robin () =
  let path =
    System.reduce counter_system
      ~strategy:(Strategy.round_robin ())
      ~init:(Term.Int 0) ~steps:3
  in
  Alcotest.(check int) "path length" 4 (List.length path)

let test_strategy_custom_out_of_range () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Strategy.choose (Strategy.custom (fun ~count -> count)) ~count:2);
       false
     with Invalid_argument _ -> true)

let test_explore_counts () =
  let stats, violations =
    Explore.bfs counter_system ~init:(Term.Int 0)
  in
  Alcotest.(check int) "4 states" 4 stats.Explore.states;
  Alcotest.(check bool) "not truncated" false stats.truncated;
  Alcotest.(check int) "no violations" 0 (List.length violations)

let test_explore_detects_violation () =
  let check t =
    match t with
    | Term.Int 2 -> Error "two is illegal"
    | _ -> Ok ()
  in
  let _, violations = Explore.bfs ~check counter_system ~init:(Term.Int 0) in
  Alcotest.(check int) "one violation" 1 (List.length violations);
  let v = List.hd violations in
  Alcotest.check term "at state 2" (Term.Int 2) v.Explore.state;
  Alcotest.(check int) "depth 2" 2 v.depth

let test_explore_max_states_truncates () =
  let stats, _ = Explore.bfs ~max_states:2 counter_system ~init:(Term.Int 0) in
  Alcotest.(check bool) "truncated" true stats.Explore.truncated;
  Alcotest.(check int) "bounded" 2 stats.states

let test_explore_max_depth () =
  let stats, _ = Explore.bfs ~max_depth:1 counter_system ~init:(Term.Int 0) in
  (* Depth 1: init and its successors only. *)
  Alcotest.(check int) "two states" 2 stats.Explore.states

let test_explore_edges () =
  let edges = Explore.edges counter_system ~init:(Term.Int 0) in
  Alcotest.(check bool) "inc edge present" true
    (List.exists
       (fun (s, r, t) ->
         Term.equal s (Term.Int 0) && r = "inc" && Term.equal t (Term.Int 1))
       edges);
  Alcotest.(check bool) "reset edge present" true
    (List.exists
       (fun (s, r, t) ->
         Term.equal s (Term.Int 3) && r = "reset" && Term.equal t (Term.Int 0))
       edges)

let test_explore_eventually_holds () =
  (* In the counter, 0 is always eventually reachable (reset). *)
  let report =
    Explore.eventually ~goal:(Term.equal (Term.Int 0)) counter_system
      ~init:(Term.Int 0)
  in
  Alcotest.(check int) "all states can reach 0" report.Explore.explored
    report.can_reach;
  Alcotest.(check (list term)) "no livelocks" [] report.cannot_reach;
  Alcotest.(check int) "no frontier" 0 report.undecided

let test_explore_eventually_detects_livelock () =
  (* A one-way counter: inc only. From 3 (a normal form, not the goal) the
     goal 0 is unreachable. *)
  let inc_only =
    System.make ~name:"inc-only"
      ~rules:[ Option.get (System.find_rule counter_system "inc") ]
  in
  let report =
    Explore.eventually ~goal:(Term.equal (Term.Int 0)) inc_only
      ~init:(Term.Int 1)
  in
  (* 1,2,3 are explored; none can come back to 0. *)
  Alcotest.(check int) "goal unreachable anywhere" 0 report.Explore.can_reach;
  Alcotest.(check int) "three livelocked states" 3
    (List.length report.cannot_reach)

let test_explore_eventually_undecided_on_truncation () =
  let report =
    Explore.eventually ~max_states:2 ~goal:(Term.equal (Term.Int 3))
      counter_system ~init:(Term.Int 0)
  in
  (* Exploration is cut before the goal: nothing should be declared a
     definite livelock. *)
  Alcotest.(check (list term)) "no false livelocks" [] report.Explore.cannot_reach;
  Alcotest.(check bool) "some states undecided" true (report.undecided > 0)

let test_explore_deadlocks () =
  let inc_only =
    System.make ~name:"inc-only"
      ~rules:[ Option.get (System.find_rule counter_system "inc") ]
  in
  Alcotest.(check (list term)) "3 is stuck" [ Term.Int 3 ]
    (Explore.deadlocks inc_only ~init:(Term.Int 0));
  Alcotest.(check (list term)) "full counter never deadlocks" []
    (Explore.deadlocks counter_system ~init:(Term.Int 0))

let test_explore_rule_counts_sorted () =
  (* Pins both the counts and the sort order: alphabetical by rule name
     (explicit comparator, not polymorphic compare). *)
  Alcotest.(check (list (pair string int)))
    "alphabetical by rule name"
    [ ("inc", 3); ("reset", 3) ]
    (Explore.rule_counts counter_system ~init:(Term.Int 0))

let test_explore_shared_pool () =
  (* A caller-supplied pool is borrowed, not consumed: several
     explorations can share it, and results match a one-domain run. *)
  Tr_sim.Pool.with_pool ~domains:2 (fun pool ->
      let a = Explore.reachable ~pool counter_system ~init:(Term.Int 0) in
      let b, _ = Explore.bfs ~pool counter_system ~init:(Term.Int 1) in
      let edges = Explore.edges ~pool counter_system ~init:(Term.Int 0) in
      let one = Explore.reachable counter_system ~init:(Term.Int 0) in
      Alcotest.(check (list term)) "same order" one a;
      Alcotest.(check bool) "same edges" true
        (edges = Explore.edges counter_system ~init:(Term.Int 0));
      Alcotest.(check int) "second exploration" 4 b.Explore.states)

(* Process introspection: the peak resident set is read from /proc,
   which the platforms we test on have. *)
let test_explore_peak_rss () =
  ignore (Explore.reachable counter_system ~init:(Term.Int 0) : Term.t list);
  Alcotest.(check bool) "rss sampled" true (Explore.peak_rss_kb () > 0)

let test_explore_invalid_args () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "domains < 1 rejected" true
    (raises (fun () ->
         Explore.bfs ~domains:0 counter_system ~init:(Term.Int 0)));
  List.iter
    (fun max_states ->
      Alcotest.(check bool)
        (Printf.sprintf "max_states = %d rejected" max_states)
        true
        (raises (fun () ->
             Explore.reachable ~max_states counter_system ~init:(Term.Int 0))))
    [ 0; -5 ];
  Alcotest.(check bool) "max_depth < 0 rejected" true
    (raises (fun () ->
         Explore.edges ~max_depth:(-3) counter_system ~init:(Term.Int 0)))

(* ---------------- Parse ---------------- *)

let test_parse_atoms () =
  Alcotest.check term "int" (Term.Int 42) (Parse.term "42");
  Alcotest.check term "negative int" (Term.Int (-3)) (Parse.term "-3");
  Alcotest.check term "constant" (Term.Const "bot") (Parse.term "bot");
  Alcotest.check term "variable" (Term.Var "Q") (Parse.term "Q");
  Alcotest.check term "wild" Term.Wild (Parse.term "_")

let test_parse_structures () =
  Alcotest.check term "application"
    (Term.App ("phi", [ Term.Int 0 ]))
    (Parse.term "phi(0)");
  Alcotest.check term "bag"
    (Term.bag [ Term.Int 1; Term.Int 2 ])
    (Parse.term "{ 2 | 1 }");
  Alcotest.check term "empty bag" (Term.bag []) (Parse.term "{}");
  Alcotest.check term "sequence"
    (Term.seq [ Term.Int 1; Term.Int 2 ])
    (Parse.term "<1, 2>");
  Alcotest.check term "empty sequence" (Term.seq []) (Parse.term "<>");
  Alcotest.check term "tuple"
    (Term.tuple [ Term.Int 1; Term.Const "a" ])
    (Parse.term "(1, a)");
  Alcotest.check term "grouping is transparent" (Term.Int 5) (Parse.term "((5))")

let test_parse_nested () =
  Alcotest.check term "message"
    (Term.App
       ("msg", [ Term.Int 0; Term.Int 1; Term.App ("tok", [ Term.Seq [] ]) ]))
    (Parse.term "msg(0, 1, tok(<>))");
  (* Lower-case identifiers are constants (the §2 convention). *)
  Alcotest.check term "pattern with rest variable"
    (Term.bag
       [ Term.Var "Q";
         Term.App ("qent", [ Term.Const "x"; Term.Const "d"; Term.Const "b" ]) ])
    (Parse.term "{Q | qent(x, d, b)}");
  Alcotest.check term "uppercase arguments are variables"
    (Term.bag
       [ Term.Var "Q";
         Term.App ("qent", [ Term.Var "X"; Term.Var "D"; Term.Var "B" ]) ])
    (Parse.term "{Q | qent(X, D, B)}")

let test_parse_pattern_matches_spec_state () =
  (* The parsed pattern must match the real initial state of System S. *)
  let pattern = Parse.term "S({Q | qent(X, D, B)}, H)" in
  let subject =
    Term.App
      ( "S",
        [ Term.bag
            [ Term.App ("qent", [ Term.Int 0; Term.Seq []; Term.Int 1 ]);
              Term.App ("qent", [ Term.Int 1; Term.Seq []; Term.Int 1 ]) ];
          Term.Seq [] ] )
  in
  Alcotest.(check int) "two ways to pick the entry" 2
    (List.length (Matching.all_matches ~pattern subject))

let test_parse_errors () =
  let expect_error input =
    match Parse.term_opt input with
    | None -> ()
    | Some t -> Alcotest.failf "%S parsed to %s" input (Term.to_string t)
  in
  expect_error "";
  expect_error "(";
  expect_error "()";
  expect_error "f()";
  expect_error "1 2";
  expect_error "{1 , 2}";
  expect_error "<1 | 2>"

let test_parse_error_position () =
  match Parse.term "{1 , 2}" with
  | exception Parse.Parse_error { position; _ } ->
      Alcotest.(check int) "points at the comma" 3 position
  | t -> Alcotest.failf "parsed to %s" (Term.to_string t)

let test_explore_to_dot () =
  let dot = Explore.to_dot counter_system ~init:(Term.Int 0) in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "has inc edges" true
    (Astring.String.is_infix ~affix:"label=\"inc\"" dot);
  Alcotest.(check bool) "initial state doubled" true
    (Astring.String.is_infix ~affix:"peripheries=2" dot)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "trs"
    [
      ( "term",
        [
          Alcotest.test_case "bag AC equality" `Quick test_term_bag_ac_equal;
          Alcotest.test_case "bag flattening" `Quick test_term_bag_flattening;
          Alcotest.test_case "seq ordered" `Quick test_term_seq_ordered;
          Alcotest.test_case "append" `Quick test_term_append;
          Alcotest.test_case "append invalid" `Quick test_term_append_invalid;
          Alcotest.test_case "prefix" `Quick test_term_prefix;
          Alcotest.test_case "project" `Quick test_term_project;
          Alcotest.test_case "vars/ground" `Quick test_term_vars_and_ground;
          Alcotest.test_case "hashed table" `Quick test_term_hashed_tbl;
        ]
        @ qsuite
            [
              prop_canonicalize_idempotent;
              prop_compare_total_order;
              prop_canonicalize_sharing;
              prop_hash_stable_under_canonicalize;
              prop_hash_respects_ac_equality;
              prop_intern_shares;
            ] );
      ( "subst",
        [
          Alcotest.test_case "basics" `Quick test_subst_basics;
          Alcotest.test_case "merge" `Quick test_subst_merge;
          Alcotest.test_case "apply append" `Quick test_subst_apply_append;
          Alcotest.test_case "unbound stays" `Quick test_subst_apply_leaves_unbound;
        ] );
      ( "matching",
        [
          Alcotest.test_case "constants" `Quick test_match_constants;
          Alcotest.test_case "var binding" `Quick test_match_var_binding;
          Alcotest.test_case "repeated var" `Quick test_match_repeated_var;
          Alcotest.test_case "wildcard" `Quick test_match_wildcard;
          Alcotest.test_case "bag rest" `Quick test_match_bag_rest;
          Alcotest.test_case "bag rest empty" `Quick test_match_bag_rest_empty;
          Alcotest.test_case "bag enumerates" `Quick test_match_bag_enumerates_choices;
          Alcotest.test_case "bag distinct members" `Quick
            test_match_bag_distinct_members;
          Alcotest.test_case "two rest vars invalid" `Quick
            test_match_two_rest_vars_invalid;
          Alcotest.test_case "ground subject required" `Quick
            test_match_requires_ground_subject;
          Alcotest.test_case "seq lengths" `Quick test_match_seq_lengths;
        ]
        @ qsuite [ prop_match_self; prop_match_instance_roundtrip ] );
      ( "rule",
        [
          Alcotest.test_case "wildcard pairing" `Quick test_rule_wildcard_pairing;
          Alcotest.test_case "unpaired rhs wild" `Quick
            test_rule_unpaired_rhs_wild_rejected;
          Alcotest.test_case "guard" `Quick test_rule_guard;
          Alcotest.test_case "extend enumerates" `Quick test_rule_extend_enumerates;
          Alcotest.test_case "nonground rhs" `Quick test_rule_nonground_rhs_rejected;
        ] );
      ( "system",
        [
          Alcotest.test_case "successors" `Quick test_system_successors;
          Alcotest.test_case "normal form" `Quick test_system_normal_form;
          Alcotest.test_case "reduce first" `Quick test_system_reduce_first;
          Alcotest.test_case "reduce round-robin" `Quick test_system_reduce_round_robin;
          Alcotest.test_case "custom strategy range" `Quick
            test_strategy_custom_out_of_range;
        ] );
      ( "explore",
        [
          Alcotest.test_case "counts" `Quick test_explore_counts;
          Alcotest.test_case "detects violation" `Quick test_explore_detects_violation;
          Alcotest.test_case "max states truncates" `Quick
            test_explore_max_states_truncates;
          Alcotest.test_case "max depth" `Quick test_explore_max_depth;
          Alcotest.test_case "edges" `Quick test_explore_edges;
          Alcotest.test_case "to_dot" `Quick test_explore_to_dot;
          Alcotest.test_case "eventually holds" `Quick test_explore_eventually_holds;
          Alcotest.test_case "eventually detects livelock" `Quick
            test_explore_eventually_detects_livelock;
          Alcotest.test_case "eventually undecided on truncation" `Quick
            test_explore_eventually_undecided_on_truncation;
          Alcotest.test_case "deadlocks" `Quick test_explore_deadlocks;
          Alcotest.test_case "shared pool" `Quick test_explore_shared_pool;
          Alcotest.test_case "peak rss" `Quick test_explore_peak_rss;
          Alcotest.test_case "invalid args" `Quick test_explore_invalid_args;
          Alcotest.test_case "rule counts sorted" `Quick
            test_explore_rule_counts_sorted;
        ] );
      ( "parse",
        [
          Alcotest.test_case "atoms" `Quick test_parse_atoms;
          Alcotest.test_case "structures" `Quick test_parse_structures;
          Alcotest.test_case "nested" `Quick test_parse_nested;
          Alcotest.test_case "pattern vs spec state" `Quick
            test_parse_pattern_matches_spec_state;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error position" `Quick test_parse_error_position;
        ] );
    ]
