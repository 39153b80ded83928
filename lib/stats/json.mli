(** The one JSON writer behind every artifact the project emits: the
    simulator's [run --json]/[exp --json], live-run reports, the service
    and loadgen stats lines and chaos runs. Hand-rolled, no external
    dependency: strings are escaped per RFC 8259, floats printed with
    [%.9g] ([NaN]/infinities become [null]). Values are rendered strings,
    composed bottom-up. *)

val escape_string : string -> string
(** JSON string-body escaping (without the quotes). *)

val json_string : string -> string
(** Quoted and escaped JSON string literal. *)

val json_float : float -> string
(** [%.9g], or [null] for NaN/infinite values. *)

val obj : (string * string) list -> string
(** One-line JSON object from [(key, already-rendered-value)] pairs. *)

val arr : string list -> string
(** One-line JSON array of already-rendered values. *)

val summary_json : Summary.t -> string
(** [count], [mean], [stddev], [min] and [max]. *)

val quantiles_json : Quantile.t -> string
(** [p50], [p90] and [p99]. *)
