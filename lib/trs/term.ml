type t =
  | Const of string
  | Int of int
  | Var of string
  | Wild
  | App of string * t list
  | Bag of t list
  | Seq of t list

let rec compare a b =
  if a == b then 0
  else
    match (a, b) with
    | Const x, Const y -> String.compare x y
    | Const _, _ -> -1
    | _, Const _ -> 1
    | Int x, Int y -> Int.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Var x, Var y -> String.compare x y
    | Var _, _ -> -1
    | _, Var _ -> 1
    | Wild, Wild -> 0
    | Wild, _ -> -1
    | _, Wild -> 1
    | App (f, xs), App (g, ys) ->
        let c = String.compare f g in
        if c <> 0 then c else compare_lists xs ys
    | App _, _ -> -1
    | _, App _ -> 1
    | Bag xs, Bag ys -> compare_lists xs ys
    | Bag _, _ -> -1
    | _, Bag _ -> 1
    | Seq xs, Seq ys -> compare_lists xs ys

and compare_lists xs ys =
  if xs == ys then 0
  else
    match (xs, ys) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs', y :: ys' ->
        let c = compare x y in
        if c <> 0 then c else compare_lists xs' ys'

let equal a b = a == b || compare a b = 0

(* FNV-1a-style structural hash. Distinct constructor tags keep e.g.
   [Bag xs] and [Seq xs] apart; list folding keeps order significant, so
   only canonical (sorted) bags hash AC-consistently. *)
let hash_combine acc x = ((acc * 0x01000193) lxor x) land max_int

let app_seed f = hash_combine 0x55 (Hashtbl.hash f)
let bag_seed = 0x66
let seq_seed = 0x77

let rec hash = function
  | Const s -> hash_combine 0x11 (Hashtbl.hash s)
  | Int i -> hash_combine 0x22 i
  | Var v -> hash_combine 0x33 (Hashtbl.hash v)
  | Wild -> 0x44
  | App (f, args) -> hash_list (app_seed f) args
  | Bag items -> hash_list bag_seed items
  | Seq items -> hash_list seq_seed items

and hash_list seed items =
  List.fold_left (fun acc t -> hash_combine acc (hash t)) seed items

(* [map_sharing f xs] is [List.map f xs] but returns [xs] itself when
   every element maps to itself physically — the backbone of the
   allocation-free path through [canonicalize]. *)
let rec map_sharing f xs =
  match xs with
  | [] -> xs
  | x :: tl ->
      let x' = f x in
      let tl' = map_sharing f tl in
      if x' == x && tl' == tl then xs else x' :: tl'

let rec is_sorted = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as tl) -> compare a b <= 0 && is_sorted tl

let rec canonicalize term =
  match term with
  | Const _ | Int _ | Var _ | Wild -> term
  | App (f, args) ->
      let args' = map_sharing canonicalize args in
      if args' == args then term else App (f, args')
  | Seq items ->
      let items' = map_sharing canonicalize items in
      if items' == items then term else Seq items'
  | Bag items ->
      let items' = map_sharing canonicalize items in
      if List.exists (function Bag _ -> true | _ -> false) items' then
        let flattened =
          List.concat_map
            (function Bag inner -> inner | other -> [ other ])
            items'
        in
        Bag (List.sort compare flattened)
      else if is_sorted items' then
        if items' == items then term else Bag items'
      else Bag (List.sort compare items')

let is_canonical term = canonicalize term == term

let tuple items = App ("tuple", items)
let pair a b = tuple [ a; b ]
let bag items = canonicalize (Bag items)
let seq items = Seq items
let phi x = App ("phi", [ Int x ])
let tau x = App ("tau", [ Int x ])
let datum x k = App ("datum", [ Int x; Int k ])
let rot x = App ("rot", [ Int x ])

let rec is_ground = function
  | Const _ | Int _ -> true
  | Var _ | Wild -> false
  | App (_, args) -> List.for_all is_ground args
  | Bag items | Seq items -> List.for_all is_ground items

let vars term =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec walk = function
    | Const _ | Int _ | Wild -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end
    | App (_, args) -> List.iter walk args
    | Bag items | Seq items -> List.iter walk items
  in
  walk term;
  List.rev !acc

let rec size = function
  | Const _ | Int _ | Var _ | Wild -> 1
  | App (_, args) -> List.fold_left (fun n a -> n + size a) 1 args
  | Bag items | Seq items -> List.fold_left (fun n a -> n + size a) 1 items

let seq_append h d =
  match h with
  | Seq items -> (
      match d with
      | App ("phi", _) -> Seq items (* φ is the identity for ⊕ *)
      | Seq more -> Seq (items @ more) (* appending a composite datum *)
      | _ -> Seq (items @ [ d ]))
  | Const _ | Int _ | Var _ | Wild | App _ | Bag _ ->
      invalid_arg "Term.seq_append: left operand is not a history"

let seq_is_prefix a b =
  match (a, b) with
  | Seq xs, Seq ys ->
      let rec prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _ :: _, [] -> false
        | x :: xs', y :: ys' -> equal x y && prefix xs' ys'
      in
      prefix xs ys
  | _ -> invalid_arg "Term.seq_is_prefix: arguments must be histories"

let seq_project ~keep = function
  | Seq items -> Seq (List.filter keep items)
  | Const _ | Int _ | Var _ | Wild | App _ | Bag _ ->
      invalid_arg "Term.seq_project: argument must be a history"

let rec pp ppf = function
  | Const c -> Format.pp_print_string ppf c
  | Int i -> Format.pp_print_int ppf i
  | Var v -> Format.fprintf ppf "%s" v
  | Wild -> Format.pp_print_string ppf "-"
  | App ("tuple", args) ->
      Format.fprintf ppf "(%a)"
        (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p ", ") pp)
        args
  | App ("phi", [ Int x ]) -> Format.fprintf ppf "φ%d" x
  | App ("tau", [ Int x ]) -> Format.fprintf ppf "τ%d" x
  | App ("rot", [ Int x ]) -> Format.fprintf ppf "r%d" x
  | App ("datum", [ Int x; Int k ]) -> Format.fprintf ppf "d%d.%d" x k
  | App (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p ", ") pp)
        args
  | Bag [] -> Format.pp_print_string ppf "ø"
  | Bag items ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p " | ") pp)
        items
  | Seq [] -> Format.pp_print_string ppf "ε"
  | Seq items ->
      Format.fprintf ppf "⟨%a⟩"
        (Format.pp_print_list ~pp_sep:(fun p () -> Format.fprintf p "⊕") pp)
        items

let to_string term = Format.asprintf "%a" pp term

(* Hash-consing-lite: a term bundled with its structural hash, computed
   once on construction. State-space exploration keys its visited table
   on these, so membership tests cost one cached-int comparison plus (on
   hash collision only) one structural [equal] — instead of the
   O(log n) full-term comparisons of a [Set.Make(Term)]. *)
module Hashed = struct
  type nonrec t = { term : t; hash : int }

  let make term = { term; hash = hash term }
  let term h = h.term
  let hash h = h.hash
  let equal a b = a.hash = b.hash && equal a.term b.term
end

module Tbl = Hashtbl.Make (Hashed)

(* Children are pooled before their parent, so when a rebuilt node
   meets its pooled twin, [equal] finds the children physically equal
   one level down and stops. The hash is folded bottom-up with [hash]'s
   own seeds, so the caller gets [Hashed.make]'s value from the same
   pass. *)
module Intern = struct
  (* A hash set of [Hashed.t] with power-of-two buckets. A probe passes
     the term and its hash separately, so a hit allocates no key record
     (most probes hit). [last] carries the hash of the node just rebuilt
     back to its parent, so the recursion returns no pairs. *)
  type t = {
    mutable buckets : Hashed.t list array;
    mutable count : int;
    mutable last : int;
  }

  let create () = { buckets = Array.make 1024 []; count = 0; last = 0 }

  let rec find term hash = function
    | [] -> raise_notrace Not_found
    | (h : Hashed.t) :: rest ->
        if h.hash = hash && equal h.term term then h else find term hash rest

  let insert buckets (h : Hashed.t) =
    let i = h.hash land (Array.length buckets - 1) in
    buckets.(i) <- h :: buckets.(i)

  (* The pool's entry equal to [term], whose hash is [p.last]; a new
     entry for [term] when there is none. *)
  let share p term =
    let hash = p.last in
    match find term hash p.buckets.(hash land (Array.length p.buckets - 1)) with
    | shared -> shared
    | exception Not_found ->
        let shared = { Hashed.term; hash } in
        if p.count >= 2 * Array.length p.buckets then begin
          let buckets = Array.make (2 * Array.length p.buckets) [] in
          Array.iter (List.iter (insert buckets)) p.buckets;
          p.buckets <- buckets
        end;
        insert p.buckets shared;
        p.count <- p.count + 1;
        shared

  (* [term] over pooled children, or [term] itself when every child is
     already the pooled one; its hash is left in [p.last]. *)
  let rec rebuild p term =
    match term with
    | Const _ | Int _ | Var _ | Wild ->
        p.last <- hash term;
        term
    | App (f, args) ->
        let args' = children p (app_seed f) args in
        if args' == args then term else App (f, args')
    | Bag items ->
        let items' = children p bag_seed items in
        if items' == items then term else Bag items'
    | Seq items ->
        let items' = children p seq_seed items in
        if items' == items then term else Seq items'

  and children p acc xs =
    match xs with
    | [] ->
        p.last <- acc;
        xs
    | x :: tl ->
        let shared = share p (rebuild p x) in
        let tl' = children p (hash_combine acc shared.hash) tl in
        if shared.term == x && tl' == tl then xs else shared.term :: tl'

  let make p term =
    let term = rebuild p term in
    { Hashed.term; hash = p.last }
end
