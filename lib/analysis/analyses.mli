(** Static analyses over the abstract interpreter ({!Absint}), reporting
    in the DQEP5xx diagnostic block:

    - {!choose_space} — parameter-space coverage (DQEP501) and dead,
      everywhere-dominated alternatives (DQEP502) for every choose-plan
      node;
    - {!budget_check} — static admission against a governor budget
      (DQEP503), the precheck behind [Session] and [dqep analyze
      --budget-kb];
    - {!fingerprints} — checkpoint-fingerprint collision lint (DQEP504),
      grouping nodes by {!Dqep_plans.Plan.fingerprints}, the key the
      checkpoint registry files entries under;
    - {!pipeline} — unchecked streaming pipelines between a choose
      resolution and the nearest blocking point (DQEP505).

    {!plan} aggregates them, mirroring [Verify.plan]. *)

module Diagnostic = Dqep_util.Diagnostic
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan

val choose_space :
  ?max_regions:int ->
  ?budget_bytes:int ->
  catalog:Dqep_catalog.Catalog.t ->
  Env.t ->
  Plan.t ->
  Diagnostic.t list
(** One sweep over a partition of the plan's parameter space into at
    most [max_regions] regions (default 64).  Per
    choose node: DQEP501 when some region leaves no alternative that is
    catalog-feasible and (given [budget_bytes]) whose modelled demand
    floor fits the budget; DQEP502 for every alternative strictly
    cost-dominated by a sibling in every region — startup can never
    select it. *)

val budget_check :
  Env.t -> budget_bytes:int -> Plan.t -> Diagnostic.t list
(** DQEP503 when {!Absint.guaranteed_bytes} exceeds the budget: every
    execution would abort with [Memory_exceeded], so admission should
    refuse the plan statically. *)

val fingerprints :
  catalog:Dqep_catalog.Catalog.t -> Plan.t -> Diagnostic.t list
(** DQEP504 for distinct nodes sharing a fingerprint with incompatible
    content: error severity when the schemas are remappable but the
    cardinality estimates disagree (resume could splice the wrong
    intermediate), warning when the collision merely shadows a real
    checkpoint. *)

val pipeline : ?threshold:int -> Plan.t -> Diagnostic.t list
(** DQEP505 for every choose node whose resolution streams through
    [threshold] (default 3) or more
    operators without crossing a blocking point (a sort's output or a
    hash join's build side — the checkpoint sites), so its validity band
    is never rechecked mid-pipeline. *)

val plan :
  ?max_regions:int ->
  ?budget_bytes:int ->
  ?pipeline_threshold:int ->
  catalog:Dqep_catalog.Catalog.t ->
  Env.t ->
  Plan.t ->
  Diagnostic.t list
(** All analyses: {!choose_space}, {!budget_check} (when [budget_bytes]
    is given), {!fingerprints} and {!pipeline}. *)
