(* BENCHMARK.json, the one declaration of the benchmark's workloads and
   metrics: the suite prints exactly the metrics it lists, in its units,
   and [compare] judges regressions by its bounds. *)

type metric = { name : string; unit : string; lower : bool; bound : float option }

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let path = "BENCHMARK.json"

let load () =
  let j = Bjson.read_file path in
  let metrics key =
    List.map
      (fun m ->
        {
          name = Bjson.to_string (Bjson.member "name" m);
          unit = Bjson.to_string (Bjson.member "unit" m);
          lower = Bjson.to_string (Bjson.member "better" m) = "lower";
          bound =
            (match Bjson.member "bound" m with Bjson.Num b -> Some b | _ -> None);
        })
      (Bjson.to_list (Bjson.member key j))
  in
  {
    run_seconds = int_of_float (Bjson.to_float (Bjson.member "run_seconds" j));
    workloads =
      List.map (fun w -> Bjson.to_string (Bjson.member "name" w))
        (Bjson.to_list (Bjson.member "workloads" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }
