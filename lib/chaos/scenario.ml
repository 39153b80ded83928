(* Declarative fault scenarios. A scenario is a list of fault clauses,
   each active inside a [from, until) window measured in clock units —
   the same unit the simulator's virtual clock and the live runtime's
   scaled clock both count in, so one spec string drives both backends.

   Spec grammar (clauses joined by '+', windows as '@from-until'):

     partition:0-3|4-7@10-40        two groups, cross-traffic dropped
     loss:2>5,0.3@5-30              drop 30% of frames on link 2->5
     loss:*>5,0.3@5-30              ... into node 5 from anywhere
     dup:0.1@5-30                   duplicate 10% of deliveries
     reorder:0.2,4@5-30             delay 20% of deliveries by up to 4 units
     corrupt:0.05@5-30              flip bytes in 5% of encoded frames
     skew:3,2.0@10-50               node 3's timers run 2x slow
     churn:3@20-60                  node 3 leaves at 20, rejoins at 60 *)

type window = { from_ : float; until : float }

type fault =
  | Partition of { groups : int list list; window : window }
  | Link_loss of { src : int option; dst : int option; p : float; window : window }
  | Duplicate of { p : float; window : window }
  | Reorder of { p : float; max_delay : float; window : window }
  | Corrupt of { p : float; window : window }
  | Clock_skew of { node : int option; factor : float; window : window }
  | Churn of { node : int; window : window }

type t = { spec : string; faults : fault list }

let spec t = t.spec
let faults t = t.faults
let empty = { spec = ""; faults = [] }

let window_of = function
  | Partition { window; _ }
  | Link_loss { window; _ }
  | Duplicate { window; _ }
  | Reorder { window; _ }
  | Corrupt { window; _ }
  | Clock_skew { window; _ }
  | Churn { window; _ } ->
      window

let active window ~now = now >= window.from_ && now < window.until

(* The instant every fault window has closed — recovery clocks start
   here. 0 for an empty scenario. *)
let clear_time t =
  List.fold_left (fun acc f -> Stdlib.max acc (window_of f).until) 0.0 t.faults

(* ---------------- parsing ---------------- *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some f when f >= 0.0 -> Ok f
  | _ -> err "%s: expected a non-negative number, got %S" what s

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some i when i >= 0 -> Ok i
  | _ -> err "%s: expected a non-negative integer, got %S" what s

let parse_node_opt what s =
  let s = String.trim s in
  if s = "*" then Ok None
  else
    let* i = parse_int what s in
    Ok (Some i)

let parse_prob what s =
  let* p = parse_float what s in
  if p <= 1.0 then Ok p else err "%s: probability %g out of [0,1]" what p

let split_on char s = String.split_on_char char s |> List.map String.trim

(* "0-3" -> [0;1;2;3]; "5" -> [5]; members joined by ','. *)
let parse_members what s =
  let part acc piece =
    let* acc = acc in
    match split_on '-' piece with
    | [ one ] ->
        let* i = parse_int what one in
        Ok (i :: acc)
    | [ lo; hi ] ->
        let* lo = parse_int what lo in
        let* hi = parse_int what hi in
        if hi < lo then err "%s: empty range %d-%d" what lo hi
        else Ok (List.rev_append (List.init (hi - lo + 1) (fun k -> lo + k)) acc)
    | _ -> err "%s: bad range %S" what piece
  in
  let* members = List.fold_left part (Ok []) (split_on ',' s) in
  Ok (List.rev members)

(* "<body>@<from>-<until>" -> body, window. *)
let parse_window clause rest =
  match split_on '@' rest with
  | [ body; w ] -> (
      match split_on '-' w with
      | [ f; u ] ->
          let* from_ = parse_float (clause ^ " window start") f in
          let* until = parse_float (clause ^ " window end") u in
          if until <= from_ then err "%s: window %g-%g is empty" clause from_ until
          else Ok (body, { from_; until })
      | _ -> err "%s: window must be @from-until, got %S" clause w)
  | _ -> err "%s: missing @from-until window" clause

let parse_clause clause =
  match String.index_opt clause ':' with
  | None -> err "chaos clause %S: expected head:args" clause
  | Some i -> (
      let head = String.trim (String.sub clause 0 i) in
      let rest = String.sub clause (i + 1) (String.length clause - i - 1) in
      let* body, window = parse_window head rest in
      match head with
      | "partition" ->
          let groups = split_on '|' body in
          if List.length groups < 2 then
            err "partition: need at least two |-separated groups"
          else
            let* groups =
              List.fold_left
                (fun acc g ->
                  let* acc = acc in
                  let* members = parse_members "partition group" g in
                  if members = [] then err "partition: empty group"
                  else Ok (members :: acc))
                (Ok []) groups
            in
            Ok (Partition { groups = List.rev groups; window })
      | "loss" -> (
          match split_on ',' body with
          | [ link; p ] -> (
              match split_on '>' link with
              | [ s; d ] ->
                  let* src = parse_node_opt "loss src" s in
                  let* dst = parse_node_opt "loss dst" d in
                  let* p = parse_prob "loss probability" p in
                  Ok (Link_loss { src; dst; p; window })
              | _ -> err "loss: link must be src>dst (use * as wildcard)")
          | _ -> err "loss: expected src>dst,p")
      | "dup" ->
          let* p = parse_prob "dup probability" body in
          Ok (Duplicate { p; window })
      | "reorder" -> (
          match split_on ',' body with
          | [ p; d ] ->
              let* p = parse_prob "reorder probability" p in
              let* max_delay = parse_float "reorder max delay" d in
              if max_delay <= 0.0 then err "reorder: max delay must be positive"
              else Ok (Reorder { p; max_delay; window })
          | _ -> err "reorder: expected p,max_delay")
      | "corrupt" ->
          let* p = parse_prob "corrupt probability" body in
          Ok (Corrupt { p; window })
      | "skew" -> (
          match split_on ',' body with
          | [ node; f ] ->
              let* node = parse_node_opt "skew node" node in
              let* factor = parse_float "skew factor" f in
              if factor <= 0.0 then err "skew: factor must be positive"
              else Ok (Clock_skew { node; factor; window })
          | _ -> err "skew: expected node,factor")
      | "churn" ->
          let* node = parse_int "churn node" body in
          Ok (Churn { node; window })
      | other -> err "unknown chaos fault %S" other)

let of_string spec =
  let spec = String.trim spec in
  if spec = "" then Ok empty
  else
    let* faults =
      List.fold_left
        (fun acc clause ->
          let* acc = acc in
          if String.trim clause = "" then Ok acc
          else
            let* f = parse_clause (String.trim clause) in
            Ok (f :: acc))
        (Ok []) (split_on '+' spec)
    in
    Ok { spec; faults = List.rev faults }

let of_string_exn spec =
  match of_string spec with Ok t -> t | Error m -> invalid_arg m

(* Every node id a scenario names must exist in an [n]-node run. *)
let validate t ~n =
  let check_node what = function
    | Some i when i >= n -> err "%s: node %d out of range (n=%d)" what i n
    | _ -> Ok ()
  in
  List.fold_left
    (fun acc f ->
      let* () = acc in
      match f with
      | Partition { groups; _ } ->
          List.fold_left
            (fun acc g ->
              let* () = acc in
              List.fold_left
                (fun acc i -> let* () = acc in check_node "partition" (Some i))
                (Ok ()) g)
            (Ok ()) groups
      | Link_loss { src; dst; _ } ->
          let* () = check_node "loss src" src in
          check_node "loss dst" dst
      | Clock_skew { node; _ } -> check_node "skew" node
      | Churn { node; _ } -> check_node "churn" (Some node)
      | Duplicate _ | Reorder _ | Corrupt _ -> Ok ())
    (Ok ()) t.faults

let examples =
  [
    ("partition:0-3|4-7@10-40", "split an 8-ring in half for 30 units");
    ("loss:*>5,0.3@5-30", "30% of frames into node 5 vanish");
    ("dup:0.1@5-30", "10% of deliveries arrive twice");
    ("reorder:0.2,4@5-30", "20% of deliveries held back up to 4 units");
    ("corrupt:0.05@5-30", "5% of encoded frames get byte flips");
    ("skew:3,2.0@10-50", "node 3's timers run at half speed");
    ("churn:3@20-60", "node 3 leaves at t=20 and rejoins at t=60");
    ( "partition:0-1|2-3@10-25+corrupt:0.1@5-30",
      "clauses compose with '+'" );
  ]
