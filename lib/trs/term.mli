(** Terms of the rewriting systems used to specify the protocols.

    The grammar mirrors the paper's notation (§2):
    - constants (Greek letters in the paper) and integers;
    - pattern {e variables} (capitalised identifiers in the paper) and the
      wild-card ['-'];
    - constructor applications such as [pair(x, d)] or [phi(x)];
    - {e bags}: the associative–commutative ['|'] catenation used for the
      sets [Q], [P], [I], [O], [W];
    - {e sequences}: the ordered histories built with the append
      operator [⊕].

    Bags are kept in a canonical sorted form so that structural equality
    coincides with equality modulo associativity and commutativity. *)

type t =
  | Const of string
  | Int of int
  | Var of string  (** Pattern variable; never present in a ground term. *)
  | Wild  (** The '-' wild card; patterns only. *)
  | App of string * t list
  | Bag of t list  (** AC multiset; canonicalized to sorted order. *)
  | Seq of t list  (** Ordered sequence (history). *)

(** {1 Smart constructors} *)

val tuple : t list -> t
(** [App ("tuple", items)] — the paper's parenthesised grouping. *)

val pair : t -> t -> t
val bag : t list -> t
(** Canonicalizes: flattens nested bags and sorts elements. *)

val seq : t list -> t
val phi : int -> t
(** [phi x] is φ_x, the empty-datum symbol of node [x]. *)

val tau : int -> t
(** [tau x] is τ_x, the trap symbol set on behalf of node [x]. *)

val datum : int -> int -> t
(** [datum x k] is the [k]-th fresh datum broadcast by node [x]
    (the paper's [new_x]). *)

val rot : int -> t
(** [rot x] — marker appended to a history when the token leaves node [x]
    on its circular rotation; realizes the projection set [C] of the
    paper's [⊂_C] comparison. *)

(** {1 Operations} *)

val compare : t -> t -> int
(** Total structural order; on canonical terms this is equality modulo AC.
    Physically equal (sub)terms short-circuit to 0 without descending. *)

val equal : t -> t -> bool
(** [compare a b = 0], with a physical-equality fast path. *)

val hash : t -> int
(** Structural hash, consistent with {!equal} on canonical terms: bags
    hash their elements in order, so two AC-equal bags hash alike only
    after {!canonicalize}. Always non-negative. *)

val canonicalize : t -> t
(** Sort bags (recursively) and flatten nested bags. Idempotent, and
    sharing-preserving: an already-canonical term (or subterm) is
    returned physically unchanged, so re-canonicalising canonical data
    allocates nothing and [canonicalize t == t] tests canonicity. *)

val is_canonical : t -> bool
(** [canonicalize t == t]. *)

val is_ground : t -> bool
(** No [Var] or [Wild] anywhere. *)

val vars : t -> string list
(** Distinct variable names, in first-occurrence order. *)

val size : t -> int
(** Node count; used to bound exploration. *)

val seq_append : t -> t -> t
(** [seq_append h d] is [h ⊕ d]. Appending [phi _] is the identity (the
    paper: φ is the identity for ⊕); appending a [Seq] concatenates (a
    node's composite datum [d_x] is itself a sequence, and ⊕ of the empty
    sequence is again the identity).
    @raise Invalid_argument if [h] is not a [Seq]. *)

val seq_is_prefix : t -> t -> bool
(** [seq_is_prefix a b] — the paper's [A ⊂ B] (prefix, inclusive). *)

val seq_project : keep:(t -> bool) -> t -> t
(** Projection of a sequence onto the elements satisfying [keep]
    (for [⊂_C]). @raise Invalid_argument on non-[Seq]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Hashed terms}

    Hash-consing-lite for hot paths: a term paired with its structural
    hash, computed once when the pair is built. {!Explore} keys its
    visited set on these. *)

module Hashed : sig
  type term := t
  type t

  val make : term -> t
  (** Computes and caches [hash term]; O(size of the term), once. *)

  val term : t -> term
  val hash : t -> int  (** The cached hash; O(1). *)

  val equal : t -> t -> bool
  (** Cached-hash comparison first, then structural {!Term.equal}
      (which itself short-circuits on physical equality). *)
end

module Tbl : Hashtbl.S with type key = Hashed.t
(** Hashtable keyed on hashed terms — the visited-set representation
    for state-space exploration. *)

(** {1 Interning}

    A pool shares equal subterms across the terms interned through it.
    {!Explore} interns every state it keeps, so the states of one
    exploration hold each distinct proper subterm once. *)

module Intern : sig
  type term := t
  type t

  val create : unit -> t
  (** An empty pool; it lives as long as the caller keeps it. *)

  val make : t -> term -> Hashed.t
  (** [make pool term] is [Hashed.make term] for a copy of [term] whose
      proper subterms are the pool's: [Term.equal] to [term], with the
      same hash, computed in the same single pass. Subterms not yet
      pooled are added; the top node is not, so a caller that keeps it
      in its own table holds it once. *)
end
