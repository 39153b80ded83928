(** Stable min-priority queue keyed by simulation time.

    Entries with equal time leave the queue in insertion order (each push
    receives a monotone sequence number), which keeps executions
    deterministic when many events share a timestamp.

    The implementation is a binary heap of int handles: heap order lives
    in unboxed arrays of times, sequence numbers and handles, and each
    payload sits in an arena slot indexed by its handle from push to pop.
    Sifting moves only floats and ints, so it never takes the write
    barrier: a push stores its payload once and a pop blanks that slot,
    and those are its only pointer stores. Steady state allocates
    nothing. Popped and cleared slots are overwritten with an immediate
    filler, so the queue never pins a payload the caller has already
    consumed. *)

type 'a t = private {
  mutable times : float array;
      (** Heap-ordered times; [times.(0)] is the earliest when [len > 0]. *)
  mutable seqs : int array;  (** Insertion sequence numbers (tie-break). *)
  mutable handles : int array;  (** Arena handles, parallel to [times]. *)
  mutable payloads : Obj.t array;  (** Payload arena, indexed by handle. *)
  mutable free : int array;  (** Free-handle stack: [free.(0 .. free_len - 1)]. *)
  mutable free_len : int;
  mutable len : int;  (** Live entries: heap slots [0 .. len - 1]. *)
  mutable next_seq : int;
}
(** The record is [private]: callers may read it but not write it. A hot
    loop in another module reads the head time as [q.times.(0)] and the
    length as [q.len]: an unboxed float and an int, where a call to
    {!top_time_exn} across the module boundary returns a boxed float. *)

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest entry (ties: oldest insertion first).
    Allocates the option/tuple; the event-loop hot path reads [times.(0)]
    and calls {!pop_exn} instead. *)

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
    fresh queue per run (as [Engine.create] does), never from [clear]. *)
