(* Mid-query adaptation: deciding with observed cardinalities.

   The paper's final section sketches how choose-plan decisions could be
   delayed beyond start-up-time: evaluate a subplan shared by the
   alternatives into a temporary result, and let its *observed*
   cardinality — rather than an estimate — drive the decision.

   This example creates a database whose attribute values are skewed
   (violating the optimizer's uniformity assumption), so that selectivity
   estimates are wrong even with all host variables bound.  The ordinary
   start-up decision then sometimes picks the wrong plan; the observation
   step (Resilience.observe) evaluates the shared input, and re-deciding
   with its true size corrects course.  The example exits non-zero unless
   observation switches the plan at least once and never picks a plan
   costlier than the start-up choice.

   Run with: dune exec examples/midquery_adaptation.exe *)

module D = Dqep

let () =
  let q = D.Queries.chain ~relations:2 in
  let catalog = q.D.Queries.catalog in
  let skew = 4.0 in
  let db = D.Database.build ~seed:5 ~skew catalog in
  Format.printf
    "Database generated with skew %.1f: a predicate of nominal selectivity s \
     actually matches s^(1/%.1f) of the records.@.@."
    skew skew;
  let plan =
    (Result.get_ok
       (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog q.D.Queries.query))
      .D.Optimizer.plan
  in
  (* Observe, then resolve with and without the observation; the
     start-up choice is costed under the observation too, so both costs
     are comparable statements about reality. *)
  let decide s =
    let b =
      D.Bindings.make ~selectivities:[ ("hv1", s); ("hv2", 0.3) ] ~memory_pages:64
    in
    let env = D.Env.of_bindings catalog b in
    let registry = D.Checkpoint.create () in
    let observed =
      match D.Resilience.observe db env registry plan with
      | Some o -> o
      | None -> failwith "the dynamic plan has no shared subplan"
    in
    let overrides = D.Checkpoint.overrides_for registry db plan in
    let default = (D.Startup.resolve env plan).D.Startup.plan in
    let adapted = D.Startup.resolve ~overrides env plan in
    D.Checkpoint.release registry;
    ( s,
      observed,
      D.Startup.estimated_rows env observed.D.Resilience.sub,
      D.Access_module.encode default <> D.Access_module.encode adapted.D.Startup.plan,
      fst (D.Startup.evaluate ~overrides env default),
      adapted.D.Startup.anticipated_cost )
  in
  let rows = List.map decide [ 0.01; 0.02; 0.05; 0.10; 0.20; 0.40; 0.80 ] in
  let _, first, _, _, _, _ = List.hd rows in
  Format.printf "Shared subplan chosen for observation:@.%a@.@." D.Plan.pp
    first.D.Resilience.sub;
  Format.printf
    "  nominal sel | est. rows | observed | plan switched | default cost | adapted cost@.";
  List.iter
    (fun (s, observed, estimated, switched, default_cost, adapted_cost) ->
      Format.printf "  %11.2f | %9.0f | %8d | %13s | %12.2f | %12.2f@." s
        estimated observed.D.Resilience.rows
        (if switched then "YES" else "no")
        default_cost adapted_cost)
    rows;
  Format.printf
    "@.Where the observation diverges from the estimate, the adapted decision \
     avoids the penalty of the wrong start-up choice.@.";
  if not (List.exists (fun (_, _, _, switched, _, _) -> switched) rows) then begin
    prerr_endline "midquery_adaptation: no binding switched plans";
    exit 1
  end;
  List.iter
    (fun (s, _, _, _, default_cost, adapted_cost) ->
      if adapted_cost > default_cost +. 1e-9 then begin
        Printf.eprintf
          "midquery_adaptation: at %.2f the adapted cost %.4f exceeds the \
           default %.4f\n"
          s adapted_cost default_cost;
        exit 1
      end)
    rows
