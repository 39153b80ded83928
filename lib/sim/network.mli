(** Complete-graph message fabric model.

    The paper distinguishes two communication modes: "expensive" messages
    with delivery guarantees (the token and the history it carries) and
    "cheap" messages without guarantees (search hints, traps, probes) that
    may be lost or delayed arbitrarily without affecting safety. The
    {!channel} type makes that distinction first-class.

    The simulation engine asks {!fixed_delay} once per channel when it
    is created. A send on a fixed channel (a [Constant] delay, no loss,
    no partition) and without chaos is queued at that delay and draws
    nothing. Every other send goes through {!dropped} and then
    {!sample_delay}, in that order, so a seeded run makes the same draws
    as it always has. *)

type channel =
  | Reliable  (** Expensive: always delivered, bounded delay. *)
  | Cheap     (** Performance hints: may be dropped or delayed further. *)

type delay_model =
  | Constant of float
      (** Every message takes exactly this long (the paper's figures assume
          one time unit per hop). *)
  | Uniform of float * float  (** Uniform in [\[lo, hi\]]. *)
  | Exponential of float      (** Exponential with the given mean. *)
  | Per_link of (src:int -> dst:int -> float)
      (** Heterogeneous topology: each directed link has its own latency
          (e.g. geographic rings, one slow node). Must return positive
          values. *)

type t

val create :
  ?reliable_delay:delay_model ->
  ?cheap_delay:delay_model ->
  ?cheap_drop_probability:float ->
  ?partitioned:(int -> int -> bool) ->
  unit ->
  t
(** Defaults: both channels [Constant 1.0], no drops, no partitions.
    [partitioned src dst] — when it returns [true] the link silently drops
    every message (used by fault-injection tests).

    Delay models are validated here, at configuration time: [Constant]
    must be finite and non-negative, [Uniform (lo, hi)] needs
    [0 <= lo <= hi] (both finite), [Exponential] needs a positive finite
    mean. [Per_link] functions are wrapped so a non-positive or
    non-finite sample raises a descriptive [Invalid_argument] naming the
    offending link instead of being silently clamped.
    @raise Invalid_argument if the drop probability is outside [0,1] or a
    delay model is malformed. *)

val default : t
(** [create ()] — unit delay, fully reliable. *)

val sample_delay : t -> Rng.t -> channel -> src:int -> dst:int -> float
(** Latency for the next message on [channel] over the ([src], [dst])
    link. Always > 0. *)

val dropped : t -> Rng.t -> channel -> src:int -> dst:int -> bool
(** Whether the fabric loses this message. [Reliable] messages are dropped
    only by a partition, never by the random loss process. *)

val fixed_delay : t -> channel -> float option
(** [Some d] when every message on [channel] takes exactly [d] and none
    is lost: its delay model is [Constant], no [partitioned] predicate
    was given and, for [Cheap], the drop probability is 0. [d] is
    floored like {!sample_delay}'s result, so [Constant 0.0] gives
    [1e-9]. [None] otherwise, even when the predicate never fires. *)

val pp_channel : Format.formatter -> channel -> unit
