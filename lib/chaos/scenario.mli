(** Declarative fault scenarios, one spec string for both backends.

    A scenario is a '+'-joined list of fault clauses, each carrying an
    activation window ['@from-until'] in clock units — the unit the
    simulator's virtual clock and the live runtime's scaled clock share,
    so the same spec drives either backend. See {!examples}. *)

type window = { from_ : float; until : float }

type fault =
  | Partition of { groups : int list list; window : window }
      (** Traffic between different groups is dropped. Nodes in no group
          communicate freely with everyone. *)
  | Link_loss of { src : int option; dst : int option; p : float; window : window }
      (** Directional loss: a send matching [src -> dst] ([None] is a
          wildcard) is dropped with probability [p] — asymmetric loss is
          two clauses with different directions. *)
  | Duplicate of { p : float; window : window }
      (** A delivery is duplicated (same destination) with probability [p]. *)
  | Reorder of { p : float; max_delay : float; window : window }
      (** A delivery is held back by up to [max_delay] extra units with
          probability [p], letting later sends overtake it. *)
  | Corrupt of { p : float; window : window }
      (** A frame's encoded bytes are flipped with probability [p] — on
          the live backend this exercises the decoder's resync path; the
          simulator models detect-and-drop. *)
  | Clock_skew of { node : int option; factor : float; window : window }
      (** Timers at [node] ([None] = every node) are stretched by
          [factor] while the window is active. *)
  | Churn of { node : int; window : window }
      (** [node] leaves the cluster at [from_] and rejoins at [until]
          with whatever (stale) protocol state it had. *)

type t

val empty : t
val spec : t -> string
(** The original spec string (empty for {!empty}). *)

val faults : t -> fault list
val window_of : fault -> window
val active : window -> now:float -> bool

val clear_time : t -> float
(** The instant every fault window has closed; recovery clocks start
    here. [0.0] for an empty scenario. *)

val of_string : string -> (t, string) result
val of_string_exn : string -> t
(** @raise Invalid_argument on a malformed spec. *)

val validate : t -> n:int -> (unit, string) result
(** Check every node id the scenario names against ring size [n]. *)

val examples : (string * string) list
(** (spec, description) pairs for [--help] text. *)
