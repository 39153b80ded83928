(** Structured execution traces.

    A trace records what happened and when, at a level of detail chosen by
    the caller. Tests use traces to assert ordering properties (FIFO trap
    service, fairness windows, token uniqueness); debugging uses the
    pretty-printed form.

    A run fills a trace through {!observe}, one consumer of the typed
    event stream. Storage is a growable pair of flat arrays (unboxed
    times + events): recording is O(1) per event with no per-entry cons
    cell, iteration is forward, and derived views are memoized until the
    next record. *)

include module type of struct
  include Node_intf.Event
end
(** A trace stores [string event]s: each message rendered by the
    protocol's [label]. *)

type entry = { time : float; event : string event }
type t

val create : unit -> t

val record : t -> time:float -> string event -> unit

val render : label:('msg -> string) -> 'msg event -> string event option
(** The event as the trace keeps it, messages rendered through [label];
    [None] for [Timer_fired] and [Search_forward], which no trace
    shows. *)

val observe : t -> label:('msg -> string) -> 'msg Node_intf.observer
(** The trace as an observer: records each event {!render} keeps. The
    simulator attaches one when its config asks for a trace. *)

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

val pp_event : Format.formatter -> string event -> unit
val pp : Format.formatter -> t -> unit
