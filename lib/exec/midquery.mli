(** Mid-query adaptation: delaying choose-plan decisions beyond
    start-up-time into run-time (paper, Section 7).

    When actual data distributions violate the optimizer's uniformity
    assumption, selectivity estimates — and therefore start-up-time
    decisions — can be wrong even with all host variables bound.  The
    paper's proposed remedy is to evaluate a subplan shared by all
    alternatives of a choose-plan operator into a temporary result first;
    its {e observed} cardinality then replaces the estimate in the
    decision procedure.

    The strategy here: if the plan's root is a choose-plan operator, find
    the largest choose-free subplan common to every alternative,
    materialize it, re-run the decision procedure with the observed
    cardinality (see {!Dqep_plans.Startup.evaluate}'s [overrides]), and
    execute the winner with the temporary spliced in. *)

type stats = {
  materialized : Dqep_plans.Plan.t option;
      (** the shared subplan evaluated first, if any *)
  estimated_rows : float;  (** the cost model's estimate for it *)
  observed_rows : int;  (** its actual cardinality *)
  default_cost : float;  (** anticipated cost of the start-up-time choice *)
  adapted_cost : float;  (** anticipated cost of the adapted choice *)
  switched : bool;
      (** whether observation changed the chosen plan *)
  run : Executor.run_stats;
}

val shared_subplan : Dqep_plans.Plan.t -> Dqep_plans.Plan.t option
(** The largest choose-free subplan common to all alternatives of the
    root choose-plan operator; [None] if the root is not a choose-plan
    or nothing is shared. *)

type observation = {
  observed_rows : int;  (** actual cardinality of the shared subplan *)
  batches : int;
      (** batches delivered at the subplan's root *)
  overrides : (int * float) list;
      (** pid -> observed cardinality, for {!Dqep_plans.Startup.resolve} *)
  materialized : (int * Exec_common.tuple list) list;
      (** pid -> temporary result, for {!Executor.execute} *)
}

val observe :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?workers:int ->
  Dqep_plans.Plan.t ->
  sub:Dqep_plans.Plan.t ->
  observation
(** Materialize [sub] (a subplan of the plan, typically from
    {!shared_subplan}) and translate its observed cardinality into
    decision-procedure overrides and execution-time splices for every
    equivalent node of the plan.  The subplan runs under a taps-enabled
    trace ([obs] when it has taps, a private one otherwise), and the
    observed cardinality is read off the root operator's tap — the same
    observation channel feedback re-optimization consumes; the root
    delivery count is the fallback for materialized roots.  Also used by
    {!Resilience} to carry observed cardinalities into failover
    re-resolution. *)

val run :
  Dqep_storage.Database.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?workers:int ->
  Dqep_cost.Bindings.t ->
  Dqep_plans.Plan.t ->
  Exec_common.tuple list * stats
(** Execute with mid-query adaptation; falls back to plain start-up
    resolution when there is nothing to observe.  [gov]/[workers]
    as in {!Executor.execute}: the observation phase and the final
    execution run under the same governor, so deadlines and memory
    budgets span the whole adapted query. *)
