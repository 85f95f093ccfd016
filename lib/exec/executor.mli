(** The executor: validates, resolves and runs physical plans over a
    materialized {!Dqep_storage.Database}, through the one execution
    engine, {!Batch_exec}.

    All data access flows through the database's buffer pool, so physical
    I/O is accounted: hash joins whose build input exceeds memory
    partition to temporary files (Grace hash join), sorts spill to
    disk-based runs, and index scans fetch records through B-trees.

    Choose-plan operators are resolved at open time via
    {!Dqep_plans.Startup} — the run-time half of the paper's 1989
    contribution. *)

type run_stats = {
  tuples : int;
  io : Dqep_storage.Buffer_pool.stats;  (** physical I/O delta of the run *)
  cpu_seconds : float;
  resolved_plan : Dqep_plans.Plan.t;  (** after choose-plan decisions *)
  choose_nodes : int;
      (** choose-plan operators the submitted plan carried (0 for a
          static plan) — with [Optimizer.stats.alternatives_pruned],
          how risk postures compare from the shell *)
  retries : int;  (** attempts repeated after a transient fault *)
  faults_absorbed : int;  (** injected faults survived without failing the run *)
  budget_aborts : int;  (** attempts aborted by the I/O budget guard *)
  failovers : int;  (** re-resolutions onto another choose-plan alternative *)
  replans : int;  (** incremental re-optimizations after a busted estimate *)
  exec : Exec_common.exec_profile;  (** batch accounting *)
}
(** The resilience counters are zero for a plain {!run}; they are filled
    in by {!Resilience.run}. *)

exception Infeasible of Dqep_util.Diagnostic.t list
(** The plan references catalog objects that no longer exist and pruning
    infeasible choose-plan alternatives left nothing runnable — a full
    re-optimization is needed (paper, Section 2).  Carries the
    verifier's feasibility diagnostics (DQEP301-303), one per missing
    object and node. *)

exception Invalid_plan of Dqep_util.Diagnostic.t list
(** The static verifier found corruption beyond catalog drift — a broken
    DAG, ill-formed cost intervals, non-equivalent choose alternatives.
    Unlike {!Infeasible}, nothing can be pruned around this. *)

val check_feasible :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  Dqep_plans.Plan.t ->
  Dqep_plans.Plan.t
(** Activation-time validation, the executor's pre-activation hook into
    the static analysis pass: one run of {!Dqep_analysis.Verify.plan},
    or only of {!Dqep_analysis.Verify.feasibility} for a plan {!admit}ted
    with the optimizer's certificate against this same catalog.
    Errors outside the feasibility subset reject the plan as corrupt.
    Catalog drift marks the nodes naming dropped objects dead
    ({!Dqep_analysis.Verify.drifted}): the plan is returned unchanged
    when nothing drifted, and pruned by {!Dqep_plans.Plan.rewrite} when
    only some choose-plan alternatives are infeasible.

    The check runs once per plan and catalog; failures and pruned
    results are re-checked every time.  A plan returned unchanged is
    remembered by physical identity of the plan and of the database's
    catalog, in a small fixed-size memo that holds both weakly, so
    later activations skip the verifier.  Safe to call from several
    domains at once.
    @raise Invalid_plan on error-severity diagnostics outside the
    feasibility subset.
    @raise Infeasible when nothing feasible remains. *)

val admit : Dqep_optimizer.Optimizer.certificate -> unit
(** Record that {!Dqep_optimizer.Optimizer.optimize} built this plan
    against this catalog: {!check_feasible} then verifies it, once, with
    only the feasibility subset — structure, costs and choose
    equivalence hold by construction.  Activated against any other
    catalog (after DDL, say) the plan still gets the full verifier.
    The certificate is held weakly in {!check_feasible}'s memo, in the
    entry its verdict will take; evicted, it costs a full
    verification. *)

val verdict_slots : int
(** Size of {!check_feasible}'s memo.  It is two-way set-associative on
    the root pid ({!Dqep_util.Weak_memo}): plans whose root pids are
    congruent modulo [verdict_slots / 2] share a set of two entries, and
    a third evicts the one used least recently. *)

val compile :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  Dqep_plans.Plan.t ->
  Batch_exec.iterator
(** Compile a plan under a point environment (from actual bindings) for
    sequential execution.  Choose-plan operators are resolved as they
    compile.
    @raise Invalid_argument on malformed plans. *)

val execute :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?materialized:(int * Exec_common.tuple list) list ->
  ?checkpoint:Checkpoint.t ->
  Dqep_plans.Plan.t ->
  Exec_common.tuple list * Exec_common.exec_profile
(** Drain the plan and report the run's execution profile.  Nodes whose pid appears in [materialized] are
    served from the given temporary results instead of being executed —
    the splices {!Checkpoint.resume_for} hands out.  When a
    [gov] is given, every batch is a cancellation point, the plan root
    counts delivered rows against its row limit, and the spilling
    operators charge their working sets against its memory budget
    ({!Governor}); default {!Governor.none} governs nothing.  [obs]
    (default {!Dqep_obs.Trace.null}) records spill counters,
    [Rows_out]/[Batches_out] and — when the trace has taps enabled —
    per-operator cardinalities.  [checkpoint] (default
    {!Checkpoint.disabled}) captures fully materialized intermediates at
    blocking points — a hash join's completed build side, a sort's output
    — and may raise {!Checkpoint.Estimate_busted} when an observation
    escapes the plan's validity band. *)

val run :
  Dqep_storage.Database.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?risk:Dqep_cost.Risk.t ->
  Dqep_cost.Bindings.t ->
  Dqep_plans.Plan.t ->
  Exec_common.tuple list * run_stats
(** Resolve, execute and drain a plan, reporting I/O and CPU.
    [gov] as in {!execute}.  [risk] scalarizes any
    residual cost uncertainty during start-up resolution
    ({!Dqep_plans.Startup.resolve}); default [Expected], which is the
    historical behaviour.  The run records through [obs] when one is
    supplied (the buffer pool is teed into it for the duration, a "run"
    span brackets execution) and {!run_stats} is computed as a view over
    the trace's counter deltas. *)

val memory_pages : Dqep_cost.Env.t -> int
(** The engine's working-memory budget under the environment. *)
