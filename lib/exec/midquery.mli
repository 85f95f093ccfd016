(** Mid-query adaptation: delaying choose-plan decisions beyond
    start-up-time into run-time (paper, Section 7).

    When actual data distributions violate the optimizer's uniformity
    assumption, selectivity estimates — and therefore start-up-time
    decisions — can be wrong even with all host variables bound.  The
    paper's proposed remedy is to evaluate a subplan shared by all
    alternatives of a choose-plan operator into a temporary result first;
    its {e observed} cardinality then replaces the estimate in the
    decision procedure.

    The strategy here: if the plan's root is a choose-plan operator, pick
    the most informative subplan its alternatives share, evaluate it into
    a {!Checkpoint} registry entry, re-run the decision procedure with
    the registry's overrides (see {!Dqep_plans.Startup.evaluate}'s
    [overrides]), and execute the winner with the registry's splices.
    The observation is a checkpoint like any other: matched to nodes by
    logical fingerprint, charged to the governor and released when the
    run ends. *)

type stats = {
  materialized : Dqep_plans.Plan.t option;
      (** the shared subplan evaluated first, if any *)
  estimated_rows : float;  (** the cost model's estimate for it *)
  observed_rows : int;  (** its actual cardinality *)
  refused : bool;
      (** the registry refused the observation: it did not fit the
          governor's memory budget, so the adapted decision is the
          start-up-time one and nothing was spliced *)
  default_cost : float;  (** anticipated cost of the start-up-time choice *)
  adapted_cost : float;  (** anticipated cost of the adapted choice *)
  switched : bool;
      (** whether observation changed the chosen plan *)
  run : Executor.run_stats;
}

val shared_subplan : Dqep_plans.Plan.t -> Dqep_plans.Plan.t option
(** The most informative subplan that at least two alternatives of the
    root choose-plan operator share: the widest cardinality interval
    times the number of alternatives sharing it, ties to the larger
    subplan, then to the first numbered.  [None] if the root is not a
    choose-plan or no shared subplan has an uncertain cardinality. *)

val observe :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?workers:int ->
  Checkpoint.t ->
  sub:Dqep_plans.Plan.t ->
  int * bool
(** Evaluate [sub] (a subplan of the plan, typically from
    {!shared_subplan}) and {!Checkpoint.file} its result in the
    registry; returns its observed cardinality and whether the registry
    kept it.  From there the registry serves the observation like any
    checkpoint: {!Checkpoint.overrides_for}
    hands its cardinality to every fingerprint-equal node of a plan and
    {!Checkpoint.resume_for} splices its tuples into the same nodes.
    Also used by {!Resilience} to carry observed cardinalities into
    failover re-resolution. *)

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
    budgets span the whole adapted query, and the observation's bytes
    are charged to [gov] until the run ends. *)
