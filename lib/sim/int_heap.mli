(** Stable min-heap of [int] values keyed by simulation time.

    Entries with equal time leave the heap in insertion order: each push
    takes the next value of a monotone sequence counter, which keeps
    executions deterministic when many events share a timestamp.

    Times, sequence numbers and values sit in three unboxed parallel
    arrays, so pushing, popping and sifting store only floats and ints
    and never take the write barrier. Steady state allocates nothing.
    The simulator's engine queues its event handles here directly;
    {!Pqueue} adds a payload arena on top for any other payload type. *)

type t = private {
  mutable times : float array;
      (** Heap-ordered times; [times.(0)] is the earliest when [len > 0]. *)
  mutable seqs : int array;  (** Insertion sequence numbers (tie-break). *)
  mutable values : int array;  (** Values, parallel to [times]. *)
  mutable len : int;  (** Live entries: heap slots [0 .. len - 1]. *)
  mutable next_seq : int;  (** The sequence number of the next push. *)
}
(** The record is [private]: callers may read it but not write it. A hot
    loop in another module reads the head time as [t.times.(0)] and the
    length as [t.len]: an unboxed float and an int, where a function
    returning the time across the module boundary would box it. *)

val create : unit -> t
val length : t -> int
val push : t -> time:float -> int -> unit

val pop_exn : t -> int
(** Remove the earliest entry (ties: oldest insertion first) and return
    its value. Allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val peek_time : t -> float option

val clear : t -> unit
(** Drop every entry. [clear] does {e not} reset the sequence counter:
    entries pushed after a [clear] still order after anything pushed
    before it at an equal timestamp. Per-run numbering comes from a
    fresh heap per run (as [Engine.create] makes one), never from
    [clear]. *)
