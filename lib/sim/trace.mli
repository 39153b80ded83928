(** Structured execution traces.

    A trace records what happened and when, at a level of detail chosen by
    the caller. Tests use traces to assert ordering properties (FIFO trap
    service, fairness windows, token uniqueness); debugging uses the
    pretty-printed form.

    Storage is a growable pair of flat arrays (unboxed times + events):
    recording is O(1) per event with no per-entry cons cell, iteration is
    forward, and derived views are memoized until the next record. A
    disabled trace costs one branch per event. *)

type event =
  | Sent of { src : int; dst : int; channel : Network.channel; label : string }
  | Delivered of { src : int; dst : int; label : string }
  | Dropped of { src : int; dst : int; label : string }
  | Request of { node : int }
  | Served of { node : int; waited : float }
  | Token_at of { node : int }  (** Token possession began at [node]. *)
  | Crashed of { node : int }
  | Note of { node : int; text : string }

type entry = { time : float; event : event }
type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool

val record : t -> time:float -> event -> unit

val events : t -> entry list
(** Chronological (recording order). Memoized: repeated calls without an
    intervening {!record} return the same list without rebuilding it. *)

val length : t -> int
(** Number of events recorded. *)

val token_possessions : t -> (float * int) list
(** Times and holders of every [Token_at] event, chronological. *)

val running_mean_waiting : t -> window:int -> (float * float) list
(** Sliding-window mean of the last [window] waiting times, one point per
    [Served] event — how long the statistic takes to converge (the
    paper's "1000 rounds" steady-state question).
    @raise Invalid_argument if [window < 1]. *)

val pp_event : Format.formatter -> event -> unit
val pp : Format.formatter -> t -> unit
