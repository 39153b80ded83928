(* suite.exe compare A.json B.json: one row per (workload, metric) with
   each side's median and quartiles over its runs (untraced runs for the
   end-to-end metrics, traced runs for the per-layer ones). A metric
   whose B median is worse than A's by more than its bound is a
   regression; one whose own spread on either side exceeds the bound is
   unresolved, since noise that wide can hide a regression. *)

let runs path = Bjson.to_list (Bjson.member "runs" (Bjson.read_file path))

let values runs ~workload ~traced ~metric =
  List.filter_map
    (fun run ->
      if
        Bjson.to_string (Bjson.member "workload" run) = workload
        && Bjson.member "traced" run = Bjson.Bool traced
      then
        let m = Bjson.member metric (Bjson.member "metrics" run) in
        match Bjson.member "value" m with
        | Bjson.Num v -> Some v
        | _ -> None
      else None)
    runs

let quartiles = function
  | [] -> None
  | [ v ] -> Some (v, v, v)
  | vs -> Some (Samples.quartiles vs)

let spread (q1, med, q3) = if med = 0. then 0. else (q3 -. q1) /. Float.abs med

let run (spec : Spec.t) a b =
  let ra = runs a and rb = runs b in
  let workloads =
    List.filter
      (fun w ->
        List.exists (fun r -> Bjson.to_string (Bjson.member "workload" r) = w) ra)
      spec.Spec.workloads
  in
  Printf.printf "%-11s %-28s %12s %25s %12s %25s  %s\n" "workload" "metric" "A median"
    "A quartiles" "B median" "B quartiles" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun workload ->
      let row ~traced (m : Spec.metric) =
        let qa = quartiles (values ra ~workload ~traced ~metric:m.Spec.name)
        and qb = quartiles (values rb ~workload ~traced ~metric:m.Spec.name) in
        match (qa, qb) with
        | Some ((a1, am, a3) as sa), Some ((b1, bm, b3) as sb) ->
            let worse =
              if am = 0. then 0.
              else if m.Spec.lower then (bm -. am) /. Float.abs am
              else (am -. bm) /. Float.abs am
            in
            let change =
              Printf.sprintf "%.1f%% %s" (100. *. Float.abs worse)
                (if worse > 0. then "worse" else "better")
            in
            let verdict =
              match m.Spec.bound with
              | None -> change ^ ", no bound"
              | Some bound ->
                  if spread sa > bound || spread sb > bound then
                    Printf.sprintf "unresolved (spread %.1f%% / %.1f%% > bound %.0f%%)"
                      (100. *. spread sa) (100. *. spread sb) (100. *. bound)
                  else if worse > bound then begin
                    incr regressions;
                    Printf.sprintf "REGRESSION: %s, bound %.0f%%" change (100. *. bound)
                  end
                  else Printf.sprintf "ok: %s, bound %.0f%%" change (100. *. bound)
            in
            Printf.printf
              "%-11s %-28s %12.6g [%11.6g %11.6g] %12.6g [%11.6g %11.6g]  %s\n"
              workload m.Spec.name am a1 a3 bm b1 b3 verdict
        | _ -> ()
      in
      List.iter (row ~traced:false) spec.Spec.end_to_end;
      List.iter (row ~traced:true) spec.Spec.per_layer)
    workloads;
  if !regressions > 0 then begin
    Printf.printf "%d regression(s) outside their bounds\n" !regressions;
    1
  end
  else 0
