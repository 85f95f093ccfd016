module R = Report
module Optimizer = Dqep_optimizer.Optimizer
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Adapt = Dqep_plans.Adapt
module Access_module = Dqep_plans.Access_module
module Env = Dqep_cost.Env
module Checkpoint = Dqep_exec.Checkpoint
module Governor = Dqep_exec.Governor
module Resilience = Dqep_exec.Resilience
module Queries = Dqep_workload.Queries
module Paramgen = Dqep_workload.Paramgen
module Timer = Dqep_util.Timer
module Stats = Dqep_util.Stats

let optimize_exn ?options ~mode (q : Queries.t) =
  match Optimizer.optimize ?options ~mode q.Queries.catalog q.Queries.query with
  | Ok r -> r
  | Error e -> invalid_arg ("Ablations: optimization failed: " ^ e)

let resolve_cost catalog plan b =
  let env = Env.of_bindings catalog b in
  (Startup.resolve env plan).Startup.anticipated_cost

let shrink ?(relations = 4) ?(train = 100) ?(test = 100) ?(seed = 77) () =
  let q = Queries.chain ~relations in
  let catalog = q.Queries.catalog in
  let dyn = optimize_exn ~mode:(Optimizer.dynamic ~uncertain_memory:true ()) q in
  let adapt = Adapt.create dyn.Optimizer.plan in
  let train_bindings =
    Paramgen.bindings ~seed ~trials:train ~host_vars:q.Queries.host_vars
      ~uncertain_memory:true ()
  in
  List.iter
    (fun b ->
      let env = Env.of_bindings catalog b in
      Adapt.record adapt (Startup.resolve env dyn.Optimizer.plan))
    train_bindings;
  let shrunk = Adapt.shrink (Env.dynamic catalog) adapt in
  let test_bindings =
    Paramgen.bindings ~seed:(seed + 1) ~trials:test ~host_vars:q.Queries.host_vars
      ~uncertain_memory:true ()
  in
  let regrets =
    List.map
      (fun b ->
        resolve_cost catalog shrunk b -. resolve_cost catalog dyn.Optimizer.plan b)
      test_bindings
  in
  let regressed = List.length (List.filter (fun r -> r > 1e-9) regrets) in
  let startup_cpu plan =
    let b = List.hd test_bindings in
    let env = Env.of_bindings catalog b in
    snd (Timer.cpu_auto (fun () -> Startup.resolve env plan))
  in
  R.make ~id:"shrink"
    ~title:
      (Printf.sprintf
         "Plan shrinking heuristic (Section 4), %d-way join, %d training runs"
         relations train)
    ~header:[ "metric"; "full dynamic plan"; "shrunk plan" ]
    ~rows:
      [ [ "plan nodes";
          string_of_int (Plan.node_count dyn.Optimizer.plan);
          string_of_int (Plan.node_count shrunk) ];
        [ "choose-plan operators";
          string_of_int (Plan.choose_count dyn.Optimizer.plan);
          string_of_int (Plan.choose_count shrunk) ];
        [ "start-up CPU [s]";
          R.f4 (startup_cpu dyn.Optimizer.plan);
          R.f4 (startup_cpu shrunk) ];
        [ Printf.sprintf "test invocations regressed (of %d)" test; "0";
          string_of_int regressed ];
        [ "mean regret [s]"; "0"; R.f4 (Stats.mean regrets) ];
        [ "max regret [s]"; "0";
          R.f4 (if regrets = [] then 0. else snd (Stats.min_max regrets)) ] ]
    ~notes:
      [ "shrinking drops never-chosen alternatives: cheaper start-up, but a \
         later binding may regret a dropped plan — exactly the trade-off \
         the paper describes" ]
    ()

let domination ?(relations = 4) ?(samples = [ 4; 16 ]) ?(trials = 100) ?(seed = 99) () =
  let q = Queries.chain ~relations in
  let catalog = q.Queries.catalog in
  let bindings =
    Paramgen.bindings ~seed ~trials ~host_vars:q.Queries.host_vars
      ~uncertain_memory:true ()
  in
  let run sample_domination =
    let options = { Optimizer.default_options with Optimizer.sample_domination } in
    let res, time =
      Timer.cpu_auto (fun () ->
          optimize_exn ~options ~mode:(Optimizer.dynamic ~uncertain_memory:true ()) q)
    in
    (res, time)
  in
  let baseline, base_time = run None in
  let base_costs =
    List.map (resolve_cost catalog baseline.Optimizer.plan) bindings
  in
  let row label (res : Optimizer.result) time =
    let costs = List.map (resolve_cost catalog res.Optimizer.plan) bindings in
    let regrets = List.map2 (fun a b -> a -. b) costs base_costs in
    [ label;
      string_of_int (Plan.node_count res.Optimizer.plan);
      R.f4 time;
      R.f2 (Stats.mean costs);
      R.f4 (Stats.mean regrets);
      R.f4 (if regrets = [] then 0. else snd (Stats.min_max regrets)) ]
  in
  let rows =
    row "exact (no sampling)" baseline base_time
    :: List.map
         (fun k ->
           let res, time = run (Some k) in
           row (Printf.sprintf "%d samples" k) res time)
         samples
  in
  R.make ~id:"domination"
    ~title:
      (Printf.sprintf
         "Sampled cost-comparison heuristic (Section 3), %d-way join" relations)
    ~header:
      [ "comparison"; "plan nodes"; "opt time [s]"; "avg exec g [s]";
        "mean regret [s]"; "max regret [s]" ]
    ~rows
    ~notes:
      [ "sampling prunes plans that are never cheaper at any sampled \
         binding: smaller dynamic plans and faster optimization, at the \
         risk of dropping a plan optimal for an unsampled binding" ]
    ()

let pruning ?(relations = 6) () =
  let q = Queries.chain ~relations in
  let run mode prune =
    let options = { Optimizer.default_options with Optimizer.prune } in
    Timer.cpu_auto (fun () -> optimize_exn ~options ~mode q)
  in
  let row label mode =
    let on, on_time = run mode true in
    let off, off_time = run mode false in
    [ label;
      R.f4 on_time; string_of_int on.Optimizer.stats.Optimizer.candidates;
      string_of_int on.Optimizer.stats.Optimizer.pruned;
      R.f4 off_time; string_of_int off.Optimizer.stats.Optimizer.candidates ]
  in
  R.make ~id:"pruning"
    ~title:
      (Printf.sprintf "Branch-and-bound effectiveness, %d-way join" relations)
    ~header:
      [ "cost model"; "time (prune on) [s]"; "candidates"; "pruned";
        "time (prune off) [s]"; "candidates (off)" ]
    ~rows:
      [ row "points (static)" Optimizer.static;
        row "intervals (dynamic)" (Optimizer.dynamic ~uncertain_memory:true ()) ]
    ~notes:
      [ "with intervals only lower bounds can be subtracted from limits, so \
         pruning removes far fewer candidates — the paper's explanation for \
         the optimization-time growth of dynamic plans" ]
    ()

let sharing ms =
  let rows =
    List.map
      (fun (m : Common.measurement) ->
        let real = Access_module.encoded_bytes m.Common.dynamic_plan in
        let modelled =
          Access_module.modelled_bytes Dqep_cost.Device.default m.Common.dynamic_plan
        in
        [ Printf.sprintf "q%d" m.Common.query.Queries.id;
          Common.uncertainty_label m.Common.uncertainty;
          string_of_int m.Common.dynamic_nodes;
          R.g3 (Plan.expanded_count m.Common.dynamic_plan);
          R.g3
            (Plan.expanded_count m.Common.dynamic_plan
            /. float_of_int (Int.max 1 m.Common.dynamic_nodes));
          string_of_int modelled;
          string_of_int real ])
      ms
  in
  R.make ~id:"sharing" ~title:"DAG sharing vs tree expansion of dynamic plans"
    ~header:
      [ "query"; "uncertainty"; "DAG nodes"; "tree nodes"; "expansion factor";
        "modelled bytes"; "serialized bytes" ]
    ~rows
    ~notes:
      [ "without DAG sharing, dynamic plans would grow exponentially \
         (Section 3); serialized bytes are from the textual access-module \
         codec" ]
    ()

let exhaustive ?(relations = 4) ?(trials = 50) ?(seed = 55) () =
  let q = Queries.chain ~relations in
  let catalog = q.Queries.catalog in
  let bindings =
    Paramgen.bindings ~seed ~trials ~host_vars:q.Queries.host_vars
      ~uncertain_memory:true ()
  in
  let run label options =
    let res, time =
      Timer.cpu_auto (fun () ->
          optimize_exn ~options ~mode:(Optimizer.dynamic ~uncertain_memory:true ()) q)
    in
    let plan = res.Optimizer.plan in
    let startup =
      let b = List.hd bindings in
      let env = Dqep_cost.Env.of_bindings catalog b in
      snd (Timer.cpu_auto (fun () -> Startup.resolve env plan))
    in
    let costs = List.map (resolve_cost catalog plan) bindings in
    [ label;
      string_of_int (Plan.node_count plan);
      string_of_int (Plan.choose_count plan);
      R.f4 time;
      R.f4 startup;
      R.f2 (Stats.mean costs) ]
  in
  R.make ~id:"exhaustive"
    ~title:
      (Printf.sprintf
         "Exhaustive plans vs cost-driven dynamic plans, %d-way join" relations)
    ~header:
      [ "plan"; "nodes"; "choose ops"; "opt time [s]"; "start-up CPU [s]";
        "avg exec g [s]" ]
    ~rows:
      [ run "dynamic (incomparable only)" Optimizer.default_options;
        run "exhaustive (all incomparable)"
          { Optimizer.default_options with Optimizer.exhaustive = true } ]
    ~notes:
      [ "Section 3: the exhaustive plan includes absolutely all plans and \
         is optimal for every binding, but the cost-driven dynamic plan \
         achieves (near-)identical executions at a fraction of the size and \
         start-up effort — why the paper does not advocate exhaustive plans" ]
    ()

let midquery ?(relations = 2) ?(skew = 4.0) ?(trials = 40) ?(seed = 66) () =
  let q = Queries.chain ~relations in
  let catalog = q.Queries.catalog in
  let db = Dqep_storage.Database.build ~seed ~skew catalog in
  let dyn = optimize_exn ~mode:(Optimizer.dynamic ()) q in
  let bindings =
    Paramgen.bindings ~seed:(seed + 1) ~trials ~host_vars:q.Queries.host_vars
      ~uncertain_memory:false ()
  in
  let plan = dyn.Optimizer.plan in
  (* One decision per binding: observe the shared subplan, then resolve
     with and without its cardinality.  The start-up choice is costed
     under the observation too, so both costs are comparable statements
     about reality. *)
  let decide gov b =
    let env = Env.of_bindings catalog b in
    let registry = Checkpoint.create ~gov () in
    Fun.protect ~finally:(fun () -> Checkpoint.release registry) @@ fun () ->
    let refused =
      match Resilience.observe db env ~gov registry plan with
      | Some o -> not o.Resilience.kept
      | None -> false
    in
    let overrides = Checkpoint.overrides_for registry db plan in
    let default = (Startup.resolve env plan).Startup.plan
    and adapted = Startup.resolve ~overrides env plan in
    ( fst (Startup.evaluate ~overrides env default),
      adapted.Startup.anticipated_cost,
      (* Structural comparison via the canonical encoding: resolution
         rebuilds nodes, so pids alone would differ spuriously. *)
      Access_module.encode default <> Access_module.encode adapted.Startup.plan,
      refused )
  in
  (* Once ungoverned, once under a budget too small for most
     observations: a refused observation leaves the start-up decision. *)
  let column gov =
    let runs = List.map (fun b -> decide (gov ()) b) bindings in
    let count f = string_of_int (List.length (List.filter f runs)) in
    let mean f = Stats.mean (List.map f runs) in
    let default = mean (fun (d, _, _, _) -> d)
    and adapted = mean (fun (_, a, _, _) -> a) in
    [ string_of_int trials;
      count (fun (_, _, switched, _) -> switched);
      count (fun (_, _, _, refused) -> refused);
      R.f2 default;
      R.f2 adapted;
      Printf.sprintf "%.1f%%" (100. *. (1. -. (adapted /. default))) ]
  in
  let budget = 100_000 in
  let free = column (fun () -> Governor.none)
  and tight = column (fun () -> Governor.create ~memory_bytes:budget ()) in
  R.make ~id:"midquery"
    ~title:
      (Printf.sprintf
         "Mid-query adaptation under skew %.1f (%d-way join, %d invocations)"
         skew relations trials)
    ~header:[ "metric"; "ungoverned"; Printf.sprintf "%d-byte budget" budget ]
    ~rows:
      (List.map2
         (fun label (a, b) -> [ label; a; b ])
         [ "invocations"; "plan switches after observation";
           "observations refused (over the memory budget)";
           "avg cost, start-up decision only"; "avg cost, adapted decision";
           "improvement" ]
         (List.combine free tight))
    ~notes:
      [ "skewed data violates the uniformity assumption, so selectivity \
         estimates are wrong even with bound host variables (the paper's \
         [IoC91] motivation); observing a shared subplan's true cardinality \
         corrects the choose-plan decision (Section 7's research direction)";
        "an observation is charged to the run's memory budget; one that does \
         not fit is refused, and the run keeps its start-up decision, costed \
         on the estimates alone" ]
    ()

let bounds ?(relations = 4) ?(trials = 60) ?(seed = 88) () =
  let q = Queries.chain ~relations in
  let catalog = q.Queries.catalog in
  let interval_of center width =
    let lo = Float.max 0. (center -. (width /. 2.)) in
    Dqep_util.Interval.make lo (Float.min 1. (lo +. width))
  in
  let scenario label width =
    let selectivity_bounds =
      if width >= 1. then []
      else List.map (fun v -> (v, interval_of 0.3 width)) q.Queries.host_vars
    in
    let options = { Optimizer.default_options with Optimizer.selectivity_bounds } in
    let res, time =
      Timer.cpu_auto (fun () ->
          optimize_exn ~options ~mode:(Optimizer.dynamic ()) q)
    in
    (* Bindings drawn inside the declared bounds, so the declaration is
       honest. *)
    let bindings =
      Paramgen.bindings ~bounds:selectivity_bounds ~seed ~trials
        ~host_vars:q.Queries.host_vars ~uncertain_memory:false ()
    in
    let gs = List.map (resolve_cost catalog res.Optimizer.plan) bindings in
    let ds =
      List.map
        (fun b ->
          let env = Env.of_bindings catalog b in
          let rt = optimize_exn ~mode:(Optimizer.Run_time b) q in
          fst (Startup.evaluate env rt.Optimizer.plan))
        bindings
    in
    [ label;
      string_of_int (Plan.node_count res.Optimizer.plan);
      string_of_int (Plan.choose_count res.Optimizer.plan);
      R.f4 time;
      R.f2 (Stats.mean gs);
      R.f2 (Stats.mean ds) ]
  in
  R.make ~id:"bounds"
    ~title:
      (Printf.sprintf
         "Value of tighter uncertainty bounds, %d-way join (intervals centred \
          at 0.3)" relations)
    ~header:
      [ "selectivity interval width"; "plan nodes"; "choose ops"; "opt time [s]";
        "avg dynamic g [s]"; "avg run-time optimum d [s]" ]
    ~rows:
      [ scenario "1.00 (unknown: [0,1])" 1.0;
        scenario "0.50" 0.5;
        scenario "0.20" 0.2;
        scenario "0.05" 0.05 ]
    ~notes:
      [ "narrower declared intervals make more cost comparisons decidable \
         at compile time: smaller dynamic plans, same per-binding optimality \
         over the declared range (g tracks d throughout)" ]
    ()

let all ms =
  [ shrink (); domination (); pruning (); sharing ms; exhaustive (); midquery ();
    bounds () ]
