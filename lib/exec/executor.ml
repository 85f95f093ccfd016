module Trace = Dqep_obs.Trace
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool

type run_stats = {
  tuples : int;
  io : Buffer_pool.stats;
  resolved_plan : Plan.t;
  choose_nodes : int;
  exec : Exec_common.exec_profile;
}

exception Infeasible of Dqep_util.Diagnostic.t list
exception Invalid_plan of Dqep_util.Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Infeasible diags ->
      Some
        (Format.asprintf "Executor.Infeasible(%s)"
           (Dqep_util.Diagnostic.list_to_string diags))
    | Invalid_plan diags ->
      Some
        (Format.asprintf "Executor.Invalid_plan(%s)"
           (Dqep_util.Diagnostic.list_to_string diags))
    | _ -> None)

let memory_pages = Exec_common.memory_pages

(* Activation-time validation (paper, Section 2): one run of the static
   verifier, its errors split in two.  Corruption — broken DAG identity,
   inverted cost intervals, non-equivalent choose alternatives — is
   unrecoverable and raises [Invalid_plan].  Catalog drift (the
   feasibility subset: a dropped relation, attribute or index) is
   survivable: the nodes naming dropped objects are dead, and a plan
   that loses only some choose-plan alternatives to them runs pruned.
   A plan with nothing left raises [Infeasible] instead of an arbitrary
   [Invalid_argument] mid-iteration.  A [certified] plan cannot be
   corrupt, so only the feasibility subset is run. *)
let verify_activation ~certified db env plan =
  let catalog = Database.catalog db in
  let drift, corrupt =
    (if certified then Dqep_analysis.Verify.feasibility ~catalog plan
     else Dqep_analysis.Verify.plan ~catalog plan)
    |> Dqep_util.Diagnostic.errors
    |> List.partition (fun (d : Dqep_util.Diagnostic.t) ->
           Dqep_util.Diagnostic.is_feasibility d.Dqep_util.Diagnostic.code)
  in
  if corrupt <> [] then raise (Invalid_plan corrupt);
  if drift = [] then plan
  else
    let dag = Plan.Dag.of_plan plan in
    match Plan.rewrite env ~dead:(Dqep_analysis.Verify.drifted dag drift) dag with
    | Some pruned -> pruned
    | None -> raise (Infeasible drift)

(* The check is a pure function of the immutable plan and catalog, so
   [check_feasible] runs it once per plan and catalog; failures and pruned
   results are re-checked every time.  Only the verdict "plan returned
   unchanged" is remembered: a pruned plan depends on [env] (the builder
   re-costs it), and keeping failures on the uncached path means the memo
   can only skip work that would have succeeded.  The same memo holds the
   optimizer's certificates ([admit]): a [Certified] plan is checked once
   with the feasibility subset, then remembered as [Verified].  The memo
   is keyed on the root pid and weak in both keys
   ({!Dqep_util.Weak_memo}): a collision costs one re-verification, an
   evicted certificate one full verification. *)
let verdict_slots = 256

type verdict = Certified | Verified

let verdicts : (Plan.t, Dqep_catalog.Catalog.t, verdict) Dqep_util.Weak_memo.t =
  Dqep_util.Weak_memo.create verdict_slots

let admit cert =
  let plan = Dqep_optimizer.Optimizer.certified_plan cert in
  Dqep_util.Weak_memo.replace verdicts ~hash:plan.Plan.pid plan
    (Dqep_optimizer.Optimizer.certified_catalog cert)
    Certified

let check_feasible db env (plan : Plan.t) =
  let catalog = Database.catalog db and hash = plan.Plan.pid in
  match Dqep_util.Weak_memo.find verdicts ~hash plan catalog with
  | Some Verified -> plan
  | found ->
    let certified = found = Some Certified in
    let checked = verify_activation ~certified db env plan in
    if checked == plan then
      Dqep_util.Weak_memo.replace verdicts ~hash plan catalog Verified;
    checked

let compile db env plan = Batch_exec.compile_with db env plan

let execute db env ?gov ?obs ?materialized ?checkpoint plan =
  Batch_exec.run_plan db env ?gov ?obs ?materialized ?checkpoint plan

let run db ?(gov = Governor.none) ?(obs = Trace.null) bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let resolution = Startup.resolve env (check_feasible db env plan) in
  let resolved = resolution.Startup.plan in
  let pool = Database.pool db in
  Buffer_pool.resize pool (memory_pages env);
  (* Every run records through a trace — the caller's when one was
     supplied, a private one otherwise — and [run_stats] is a view over
     its counter deltas.  Teeing the buffer pool into the run trace is
     what replaces the old before/after stats subtraction. *)
  let rt = if Trace.enabled obs then obs else Trace.create () in
  let before = Buffer_pool.stats_of_trace rt in
  Buffer_pool.attach_obs pool rt;
  let tuples, profile =
    Fun.protect
      ~finally:(fun () -> Buffer_pool.detach_obs pool)
      (fun () ->
        Trace.span rt "run" (fun () -> execute db env ~gov ~obs:rt resolved))
  in
  ( tuples,
    { tuples = List.length tuples;
      io = Buffer_pool.diff ~before ~after:(Buffer_pool.stats_of_trace rt);
      resolved_plan = resolved;
      choose_nodes = resolution.Startup.choose_nodes;
      exec = profile } )
