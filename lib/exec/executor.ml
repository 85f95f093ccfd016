module Timer = Dqep_util.Timer
module Trace = Dqep_obs.Trace
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool

type run_stats = {
  tuples : int;
  io : Buffer_pool.stats;
  cpu_seconds : float;
  resolved_plan : Plan.t;
  choose_nodes : int;
  retries : int;
  faults_absorbed : int;
  budget_aborts : int;
  failovers : int;
  replans : int;
  exec : Exec_common.exec_profile;
}

exception Infeasible of Dqep_plans.Validate.problem list
exception Invalid_plan of Dqep_util.Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Infeasible problems ->
      Some
        (Format.asprintf "Executor.Infeasible(%a)"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
              Dqep_plans.Validate.pp_problem)
           problems)
    | Invalid_plan diags ->
      Some
        (Format.asprintf "Executor.Invalid_plan(%s)"
           (Dqep_util.Diagnostic.list_to_string diags))
    | _ -> None)

let memory_pages = Exec_common.memory_pages

(* Activation-time validation (paper, Section 2).  The full static
   verifier runs first: corruption — broken DAG identity, inverted cost
   intervals, non-equivalent choose alternatives — is unrecoverable and
   raises [Invalid_plan] up front.  Catalog drift (the feasibility subset
   of diagnostics, equivalent to [Validate.check]) is survivable: a plan
   referencing a dropped object either loses only some choose-plan
   alternatives — then the pruned plan runs — or is truly dead and raises
   [Infeasible] instead of an arbitrary [Invalid_argument] mid-iteration. *)
let check_feasible db env plan =
  let catalog = Database.catalog db in
  let corrupt =
    Dqep_analysis.Verify.plan ~catalog plan
    |> Dqep_util.Diagnostic.errors
    |> List.filter (fun (d : Dqep_util.Diagnostic.t) ->
           not (Dqep_util.Diagnostic.is_feasibility d.Dqep_util.Diagnostic.code))
  in
  if corrupt <> [] then raise (Invalid_plan corrupt);
  match Dqep_plans.Validate.check catalog plan with
  | Ok () -> plan
  | Error problems -> (
    match Dqep_plans.Validate.prune_infeasible env catalog plan with
    | Some pruned -> pruned
    | None -> raise (Infeasible problems))

let compile db env plan = snd (Batch_exec.compile_with db env plan)

let execute db env ?gov ?obs ?materialized ?checkpoint ?workers ?on_batch plan =
  let workers =
    match workers with Some w -> w | None -> Exec_common.default_workers ()
  in
  Batch_exec.run_plan db env ?gov ?obs ?materialized ?checkpoint ~workers
    ?on_batch plan

let run db ?(gov = Governor.none) ?(obs = Trace.null) ?workers
    ?(risk = Dqep_cost.Risk.Expected) bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let plan = check_feasible db env plan in
  let choose_nodes = Plan.choose_count plan in
  let resolved =
    if Plan.contains_choose plan then (Startup.resolve ~risk env plan).Startup.plan
    else plan
  in
  let pool = Database.pool db in
  Buffer_pool.resize pool (memory_pages env);
  (* Every run records through a trace — the caller's when one was
     supplied, a private one otherwise — and [run_stats] is a view over
     its counter deltas.  Teeing the buffer pool into the run trace is
     what replaces the old before/after stats subtraction. *)
  let rt = if Trace.enabled obs then obs else Trace.create () in
  let before = Buffer_pool.stats_of_trace rt in
  Buffer_pool.attach_obs pool rt;
  let (tuples, profile), cpu_seconds =
    Fun.protect
      ~finally:(fun () -> Buffer_pool.detach_obs pool)
      (fun () ->
        Timer.cpu (fun () ->
            Trace.span rt "run" (fun () ->
                execute db env ~gov ~obs:rt ?workers resolved)))
  in
  Trace.gauge rt "cpu_seconds" cpu_seconds;
  ( tuples,
    { tuples = List.length tuples;
      io = Buffer_pool.diff ~before ~after:(Buffer_pool.stats_of_trace rt);
      cpu_seconds;
      resolved_plan = resolved;
      choose_nodes;
      retries = 0;
      faults_absorbed = 0;
      budget_aborts = 0;
      failovers = 0;
      replans = 0;
      exec = profile } )
