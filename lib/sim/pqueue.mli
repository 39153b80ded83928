(** Stable min-priority queue keyed by simulation time, for any payload
    type.

    Entries with equal time leave the queue in insertion order (each push
    receives a monotone sequence number), which keeps executions
    deterministic when many events share a timestamp.

    The queue is an {!Int_heap} of handles into a payload arena: each
    payload sits in the arena slot of its handle from push to pop, and
    the heap sifts only the handle. A push stores its payload once and a
    pop blanks that slot, and those are the queue's only pointer stores,
    the only ones that take the write barrier. Steady state allocates
    nothing. Popped and cleared slots are overwritten with an immediate
    filler, so the queue never pins a payload the caller has already
    consumed. A caller whose payloads are already [int]s (the simulator
    engine's event handles) uses {!Int_heap} directly and skips the
    arena. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest entry (ties: oldest insertion first).
    Allocates the option/tuple; a hot loop calls {!top_time_exn} and
    {!pop_exn} instead. *)

val pop_exn : 'a t -> 'a
(** Allocation-free [pop]: remove and return the earliest payload.
    @raise Invalid_argument on an empty queue. *)

val peek_time : 'a t -> float option

val top_time_exn : 'a t -> float
(** [peek_time] without the option. Called from another module, it
    returns the time as a boxed float.
    @raise Invalid_argument on an empty queue. *)

val clear : 'a t -> unit
(** Drop all pending entries (releasing their payloads to the GC).

    [clear] does {e not} reset the internal sequence counter: entries
    pushed after a [clear] still order after anything pushed before it
    at an equal timestamp, so a queue reused across runs keeps the
    global FIFO tie-break. Per-run sequence numbering comes from using a
    fresh queue per run, never from [clear]. *)
