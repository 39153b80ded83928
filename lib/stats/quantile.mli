(** Exact quantiles over collected samples.

    A [t] retains every observation (O(n) space) and answers arbitrary
    quantile queries by sorting lazily; the sort is cached until the next
    insertion. Suited to simulation post-processing where sample counts are
    bounded by the experiment length.

    Samples are stored in chunks of 2^16 floats, so capacity exceeds the
    count by less than one chunk and growth never copies a sample. Up to
    2^16 samples sit in one array that grows by doubling from 16. A sort
    gathers the samples into one transient array of [count] floats. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_many : t -> float list -> unit
val count : t -> int

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1], linear interpolation between closest
    ranks (type-7 estimator, as in R and NumPy). [nan] on an empty [t].
    @raise Invalid_argument if [q] is outside [0,1]. *)

val median : t -> float
val p90 : t -> float
val p99 : t -> float
val iqr : t -> float
(** Interquartile range, [quantile 0.75 - quantile 0.25]. *)

val to_sorted_array : t -> float array
(** Snapshot of the samples in ascending order. *)

val pp : Format.formatter -> t -> unit
