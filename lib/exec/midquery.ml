module Timer = Dqep_util.Timer
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
  default_cost : float;
  adapted_cost : float;
  switched : bool;
  run : Executor.run_stats;
}

let pid_map plan =
  let map = Hashtbl.create 64 in
  Plan.iter (fun p -> Hashtbl.replace map p.Plan.pid p) plan;
  map

let shared_subplan (plan : Plan.t) =
  match plan.Plan.op with
  | Physical.Choose_plan -> (
    match plan.Plan.inputs with
    | [] | [ _ ] -> None
    | alternatives ->
      (* Score every subplan occurring in at least two alternatives by
         (cardinality uncertainty x alternatives informed): observing the
         most uncertain, most widely shared input buys the decision
         procedure the most.  Nested choose operators are allowed —
         materialization resolves them with the estimates at hand. *)
      let maps = List.map pid_map alternatives in
      let nodes = Hashtbl.create 64 in
      let counts = Hashtbl.create 64 in
      List.iter
        (fun m ->
          Hashtbl.iter
            (fun pid node ->
              Hashtbl.replace nodes pid node;
              Hashtbl.replace counts pid
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts pid)))
            m)
        maps;
      let score pid (node : Plan.t) =
        let count = Hashtbl.find counts pid in
        if count < 2 || pid = plan.Plan.pid then None
        else begin
          let width = Dqep_util.Interval.width node.Plan.rows in
          if width <= 0. then None
          else Some (width *. float_of_int count, Plan.node_count node)
        end
      in
      Hashtbl.fold
        (fun pid node best ->
          match score pid node with
          | None -> best
          | Some s -> (
            match best with
            | Some (bs, _) when bs >= s -> best
            | _ -> Some (s, node)))
        nodes None
      |> Option.map snd)
  | _ -> None

let plain_run db ?(gov = Governor.none) ?(obs = Trace.null) ?workers
    bindings plan =
  let tuples, run = Executor.run db ~gov ~obs ?workers bindings plan in
  let env = Env.of_bindings (Database.catalog db) bindings in
  let cost, _ = Startup.evaluate env run.Executor.resolved_plan in
  ( tuples,
    { materialized = None;
      estimated_rows = 0.;
      observed_rows = 0;
      default_cost = cost;
      adapted_cost = cost;
      switched = false;
      run } )

type observation = {
  observed_rows : int;
  batches : int;
  overrides : (int * float) list;
  materialized : (int * Exec_common.tuple list) list;
}

let observe db env ?(gov = Governor.none) ?(obs = Trace.null) ?workers
    plan ~sub =
  (* Evaluate the shared subplan into a temporary and propagate the
     observation to every subplan computing the same logical result (same
     relations and selections — witnessed by an identical compile-time
     cardinality interval): alternatives that access the observed input
     through a different physical path are costed against reality too.

     The observation itself runs under a taps-enabled trace — the
     caller's when it has taps, a private one otherwise — so the observed
     cardinality is read back off the root operator's tap: the same
     channel feedback re-optimization consumes, rather than a separate
     caller-side accumulator.  The root-batch count ([on_batch]) is kept
     as the fallback for materialized roots, which bypass operator
     compilation entirely. *)
  let ot =
    if Trace.taps_enabled obs then obs else Trace.create ~taps:true ()
  in
  let delivered = ref 0 in
  let tapped_before = Option.value ~default:0 (Trace.tap_rows ot sub.Plan.pid) in
  let temp, profile =
    Executor.execute db env ~gov ~obs:ot ?workers
      ~on_batch:(fun n -> delivered := !delivered + n)
      sub
  in
  let observed =
    match Trace.tap_rows ot sub.Plan.pid with
    | Some rows when rows - tapped_before > 0 || !delivered = 0 ->
      rows - tapped_before
    | Some _ | None -> !delivered
  in
  let equivalent =
    Plan.fold
      (fun acc (node : Plan.t) ->
        if
          node.Plan.rels = sub.Plan.rels
          && Dqep_util.Interval.equal node.Plan.rows sub.Plan.rows
        then node :: acc
        else acc)
      [] plan
  in
  let overrides =
    List.map (fun (n : Plan.t) -> (n.Plan.pid, float_of_int observed)) equivalent
  in
  (* The temporary is unordered: only splice it in where no sort order
     is promised; ordered equivalents re-execute their own path. *)
  let materialized =
    List.filter_map
      (fun (n : Plan.t) ->
        match n.Plan.props.Dqep_algebra.Props.order with
        | Dqep_algebra.Props.Unordered -> Some (n.Plan.pid, temp)
        | Dqep_algebra.Props.Ordered _ -> None)
      equivalent
  in
  { observed_rows = observed;
    batches = profile.Exec_common.batches;
    overrides;
    materialized }

let run db ?(gov = Governor.none) ?(obs = Trace.null) ?workers
    bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let plan = Executor.check_feasible db env plan in
  match shared_subplan plan with
  | None -> plain_run db ~gov ~obs ?workers bindings plan
  | Some sub ->
    let pool = Database.pool db in
    Buffer_pool.resize pool (Executor.memory_pages env);
    let rt = if Trace.enabled obs then obs else Trace.create () in
    let before = Buffer_pool.stats_of_trace rt in
    Buffer_pool.attach_obs pool rt;
    Fun.protect ~finally:(fun () -> Buffer_pool.detach_obs pool) @@ fun () ->
    let start = Sys.time () in
    (* Phase 1: evaluate the shared subplan into a temporary. *)
    let { observed_rows = observed; batches = _; overrides; materialized } =
      Trace.span rt "observe" (fun () ->
          observe db env ~gov ~obs:rt ?workers plan ~sub)
    in
    (* Phase 2: decide with the observation, execute with the temporary. *)
    let default_resolution = Startup.resolve env plan in
    (* Cost the start-up-time choice under the observation too, so both
       costs are comparable statements about reality. *)
    let default_cost, _ =
      Startup.evaluate ~overrides env default_resolution.Startup.plan
    in
    let adapted = Startup.resolve ~overrides env plan in
    let tuples, profile =
      Executor.execute db env ~gov ~obs:rt ~materialized ?workers
        adapted.Startup.plan
    in
    let cpu_seconds = Sys.time () -. start in
    let after = Buffer_pool.stats_of_trace rt in
    ( tuples,
      { materialized = Some sub;
        estimated_rows = Startup.estimated_rows env sub;
        observed_rows = observed;
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
            choose_nodes = Plan.choose_count plan;
            retries = 0;
            faults_absorbed = 0;
            budget_aborts = 0;
            failovers = 0;
            replans = 0;
            exec = profile } } )
