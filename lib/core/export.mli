(** JSON rendering of run outcomes and experiment results, for scripting
    around the CLI ([run --json], [exp --json]), written with
    {!Tr_stats.Json}. *)

val outcome_to_json : Runner.outcome -> string
(** Protocol name, configuration echoes, and the full metrics block
    (responsiveness/waiting summaries and percentiles, message counts,
    possession and fairness figures). One JSON object, newline-terminated. *)

val result_to_json : Experiments.result -> string
(** Experiment id/title/expectation plus each series as an array of
    [[x, y]] pairs. *)
