(* What one pass of one workload produced: named metrics with units,
   exact counts that must repeat between passes of a seed, the checks
   that failed, and human-readable lines for the console. *)

type t = {
  workload : string;
  seed : int;
  traced : bool;
  mutable metrics : (string * (float * string)) list;  (** Newest first. *)
  mutable exact : (string * int) list;
  mutable failures : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable lines : string list;
}

let create ~workload ~seed ~traced =
  {
    workload;
    seed;
    traced;
    metrics = [];
    exact = [];
    failures = [];
    attempted = 0;
    failed = 0;
    lines = [];
  }

let metric r name unit v = r.metrics <- (name, (v, unit)) :: r.metrics

let find r name =
  match List.assoc_opt name r.metrics with Some (v, _) -> v | None -> Float.nan

let exact r name v =
  r.exact <- (name, v) :: r.exact;
  metric r name "count" (float_of_int v)

let check r ok msg = if not ok then r.failures <- msg :: r.failures

let line r fmt = Printf.ksprintf (fun s -> r.lines <- s :: r.lines) fmt

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Process peak resident set since the last [Tr_trs.Explore.reset_peak_rss]. *)
let peak_rss_mb () = float_of_int (Tr_trs.Explore.peak_rss_kb ()) /. 1024.
