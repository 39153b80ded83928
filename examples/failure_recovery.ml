(* Token-loss recovery (the paper's §5 extension).

   A 24-node fail-safe ring. At t = 100 we crash node 5 — while it holds
   the token, thanks to the protocol's per-visit hold time, so the token
   dies with it. A later requester times out, polls the survivors for the
   last sighting, and the best witness regenerates a generation-2 token.
   We print the recovery milestones from the trace and show service
   continues afterwards.

   Run with: dune exec examples/failure_recovery.exe *)

open Tr_sim
module P = (val Tr_proto.Failure.make ())
module E = Engine.Make (P)

let () =
  let n = 24 in
  (* Node 0 passes immediately at t = 0; each later node holds for 0.5
     after a 1.0 hop, so node k (k >= 1) holds during [1.5k - 0.5, 1.5k).
     Crash node 5 in the middle of its hold window, token in hand. *)
  let crash_time = (1.5 *. 5.0) -. 0.5 in
  let config =
    {
      (Engine.default_config ~n ~seed:3) with
      workload = Workload.Global_poisson { mean_interarrival = 15.0 };
      crashes = [ (crash_time +. 0.2, 5) ];
      trace = true;
    }
  in
  let t = E.create config in
  E.run t ~stop:(Engine.First_of [ Engine.After_serves 150; Engine.At_time 20000.0 ]);

  let m = E.metrics t in
  Format.printf "crashed node 5 at t = %.1f (while holding the token)@."
    (crash_time +. 0.2);
  Format.printf "requests served despite the loss: %d@." (Metrics.serves m);
  let milestones =
    List.filter
      (fun { Trace.event; _ } ->
        match event with
        | Trace.Crashed _ -> true
        | Trace.Note { text; _ } ->
            String.length text > 0
            && (String.equal text "token loss suspected; broadcasting WhoHas"
               || String.length text >= 12
                  && String.equal (String.sub text 0 12) "regenerating")
        | _ -> false)
      (Trace.events (E.trace t))
  in
  Format.printf "recovery milestones:@.";
  List.iter
    (fun { Trace.time; event } ->
      Format.printf "  %8.1f  %a@." time Trace.pp_event event)
    milestones;
  let final_gen =
    List.fold_left
      (fun acc i -> Stdlib.max acc (Tr_proto.Failure.generation (E.state t i)))
      0
      (List.init n (fun i -> i))
  in
  Format.printf "final token generation: %d@." final_gen;
  if Metrics.serves m < 100 || final_gen < 2 then exit 1
