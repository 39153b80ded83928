(** Deterministic pseudo-random numbers (SplitMix64).

    Every simulation draws exclusively from a seeded [t], so a run is a pure
    function of its configuration: identical seeds give identical executions
    on every platform. SplitMix64 passes BigCrush, needs only 64 bits of
    state, and supports cheap splitting for independent substreams. *)

type t

val create : int -> t
(** [create seed] builds a generator from any integer seed (including 0). *)

val split : t -> t
(** A statistically independent generator derived from [t]'s stream;
    advances [t]. *)

val copy : t -> t
(** Clone with identical future output. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Unbiased (rejection
    sampling). @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean; never returns 0 or
    infinity. @raise Invalid_argument if [mean <= 0]. *)

val uniform_range : t -> lo:float -> hi:float -> float

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
