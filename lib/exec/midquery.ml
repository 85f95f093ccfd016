module Physical = Dqep_algebra.Physical
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Trace = Dqep_obs.Trace

type stats = {
  materialized : Plan.t option;
  estimated_rows : float;
  observed_rows : int;
  refused : bool;
  default_cost : float;
  adapted_cost : float;
  switched : bool;
  run : Executor.run_stats;
}

let shared_subplan (plan : Plan.t) =
  match plan.Plan.op with
  | Physical.Choose_plan when List.compare_length_with plan.Plan.inputs 2 >= 0 ->
    (* Score every subplan occurring in at least two alternatives by
       (cardinality uncertainty x alternatives informed): observing the
       most uncertain, most widely shared input buys the decision
       procedure the most; exact ties go to the first in the plan's
       numbering.  Nested choose operators are allowed — materialization
       resolves them with the estimates at hand. *)
    let dag = Plan.Dag.of_plan plan in
    let root = dag.Plan.Dag.length - 1 in
    let counts = Array.make root 0 and last = Array.make root (-1) in
    List.iteri
      (fun a alt ->
        let rec mark i =
          if last.(i) <> a then begin
            last.(i) <- a;
            counts.(i) <- counts.(i) + 1;
            List.iter mark (Plan.Dag.inputs dag i)
          end
        in
        mark alt)
      (Plan.Dag.inputs dag root);
    let best = ref None in
    for i = 0 to root - 1 do
      let node = dag.Plan.Dag.nodes.(i) in
      let width = Dqep_util.Interval.width node.Plan.rows in
      if counts.(i) >= 2 && width > 0. then begin
        let s = (width *. float_of_int counts.(i), Plan.node_count node) in
        match !best with
        | Some (bs, _) when bs >= s -> ()
        | _ -> best := Some (s, node)
      end
    done;
    Option.map snd !best
  | _ -> None

let plain_run db ?(gov = Governor.none) ?(obs = Trace.null) bindings plan =
  let tuples, run = Executor.run db ~gov ~obs bindings plan in
  let env = Env.of_bindings (Database.catalog db) bindings in
  let cost, _ = Startup.evaluate env run.Executor.resolved_plan in
  ( tuples,
    { materialized = None;
      estimated_rows = 0.;
      observed_rows = 0;
      refused = false;
      default_cost = cost;
      adapted_cost = cost;
      switched = false;
      run } )

let observe db env ?(gov = Governor.none) ?(obs = Trace.null) registry ~sub =
  let tuples, _ = Executor.execute db env ~gov ~obs sub in
  let filed =
    Checkpoint.file registry sub
      ~schema:(Plan.schema (Database.catalog db) sub)
      tuples
  in
  (List.length tuples, filed)

let run db ?(gov = Governor.none) ?(obs = Trace.null) bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let plan = Executor.check_feasible db env plan in
  match shared_subplan plan with
  | None -> plain_run db ~gov ~obs bindings plan
  | Some sub ->
    let pool = Database.pool db in
    Buffer_pool.resize pool (Executor.memory_pages env);
    let rt = if Trace.enabled obs then obs else Trace.create () in
    let before = Buffer_pool.stats_of_trace rt in
    Buffer_pool.attach_obs pool rt;
    let registry = Checkpoint.create ~gov ~obs:rt () in
    Fun.protect
      ~finally:(fun () ->
        Checkpoint.release registry;
        Buffer_pool.detach_obs pool)
    @@ fun () ->
    let start = Sys.time () in
    (* Phase 1: evaluate the shared subplan into a registry entry. *)
    let observed, filed =
      Trace.span rt "observe" (fun () ->
          observe db env ~gov ~obs:rt registry ~sub)
    in
    (* Phase 2: decide with the observation, execute with the entry
       spliced in wherever it serves. *)
    let overrides = Checkpoint.overrides_for registry db plan in
    let default_resolution = Startup.resolve env plan in
    (* Cost the start-up-time choice under the observation too, so both
       costs are comparable statements about reality. *)
    let default_cost, _ =
      Startup.evaluate ~overrides env default_resolution.Startup.plan
    in
    let adapted = Startup.resolve ~overrides env plan in
    let tuples, profile =
      Executor.execute db env ~gov ~obs:rt
        ~materialized:(Checkpoint.resume_for registry db adapted.Startup.plan)
        adapted.Startup.plan
    in
    let cpu_seconds = Sys.time () -. start in
    let after = Buffer_pool.stats_of_trace rt in
    ( tuples,
      { materialized = Some sub;
        estimated_rows = Startup.estimated_rows env sub;
        observed_rows = observed;
        refused = not filed;
        default_cost;
        adapted_cost = adapted.Startup.anticipated_cost;
        switched =
          (* Structural comparison via the canonical encoding: resolution
             rebuilds nodes, so pids alone would differ spuriously. *)
          Dqep_plans.Access_module.encode default_resolution.Startup.plan
          <> Dqep_plans.Access_module.encode adapted.Startup.plan;
        run =
          { Executor.tuples = List.length tuples;
            io = Buffer_pool.diff ~before ~after;
            cpu_seconds;
            resolved_plan = adapted.Startup.plan;
            choose_nodes = adapted.Startup.choose_nodes;
            retries = 0;
            faults_absorbed = 0;
            budget_aborts = 0;
            failovers = 0;
            replans = 0;
            exec = profile } } )
