(** Stamped exports for live runs.

    Every artifact a live run produces carries enough provenance to be
    reproduced: protocol name, cluster size, seed, transport backend and
    the source revision ([git describe]). The JSON mirrors the
    simulator's export schema where the quantities coincide
    (responsiveness/waiting summaries in time units), so live and
    simulated runs diff cleanly. *)

val git_describe : unit -> string
(** [git describe --always --dirty], or ["unknown"] outside a checkout. *)

val json_of_report : Cluster.report -> string
(** One JSON object, newline-terminated. *)

val csv_of_table :
  x_label:string -> cols:string list -> (float * float list) list -> string
(** FIG9-schema CSV: header [x_label,col1,col2,...] then one row per x
    value. Row value lists shorter than [cols] are padded with blanks. *)
