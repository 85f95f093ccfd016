(** The optimizer facade: one search engine, three strategies.

    The strategies of the paper's Figure 3 differ only in the parameter
    environment handed to the shared search engine:

    - {!Static}: traditional compile-time optimization with expected
      parameter values — produces a single static plan;
    - {!Dynamic}: compile-time optimization with interval parameters —
      produces a dynamic plan with choose-plan operators;
    - {!Run_time}: optimization at query invocation with the actual
      bindings — the "brute force" comparison point. *)

module Interval = Dqep_util.Interval
module Plan = Dqep_plans.Plan

type mode =
  | Static of { default_selectivity : float; memory_pages : int }
  | Dynamic of { uncertain_memory : bool }
  | Run_time of Dqep_cost.Bindings.t

val static : mode
(** [Static] with the paper's expected values: selectivity 0.05, memory
    64 pages. *)

val dynamic : ?uncertain_memory:bool -> unit -> mode
(** Default [uncertain_memory] is [false]. *)

type options = {
  device : Dqep_cost.Device.t;
  memory_interval : Interval.t;
      (** run-time memory range when uncertain (paper: [\[16, 112\]]) *)
  prune : bool;
      (** branch-and-bound (paper, Section 5); default [false].  A goal
          asked again under a larger limit is searched again from
          scratch, so the pruned search considers more candidates than
          the unpruned one on every corpus query that joins; without a
          limit every goal is searched exactly once.  Both return the
          same plan bit for bit on the corpus; on some generated queries
          the pruned one keeps an extra alternative that start-up never
          picks (built over a child answer the limit cut short).  The
          paper's figures and the [pruning] ablation turn it on to show
          the Section 5 effect *)
  use_index_join : bool;
  left_deep : bool;
      (** restrict join shapes to left-deep trees — the traditional
          System R-style search space the paper contrasts with *)
  exhaustive : bool;
      (** treat every cost comparison as incomparable, yielding the
          Section 3 "exhaustive plan" (dynamic mode only; implies keeping
          all alternatives) *)
  selectivity_bounds : (string * Interval.t) list;
      (** narrower compile-time intervals for specific host variables
          (dynamic mode); unlisted variables default to [\[0, 1\]] *)
  sample_domination : int option;
  sample_seed : int;
  verify : bool;
      (** run the static analysis pass ({!Dqep_analysis.Verify}): every
          winner is verified as it is memoized (raising
          {!Dqep_analysis.Verify.Failed} on corruption), and the final
          plan and memo are re-checked into {!result.diagnostics} *)
  risk : Dqep_cost.Risk.t;
      (** ranking posture ({!Dqep_cost.Risk}): [Worst_case] (default)
          is the paper's interval search bit-for-bit; [Expected] ranks
          by least expected cost over the scenario grid and collapses
          incomparable near-ties, [Quantile p] by the [p]-quantile *)
  risk_margin : float;
      (** relative near-tie retention for ranked postures (default 0.1):
          plans within [(1 + risk_margin)] of the best rank stay as
          choose alternatives; 0 degenerates to a single-plan optimizer.
          Ignored under [Worst_case] *)
}

val default_options : options

type stats = {
  cpu_seconds : float;  (** measured optimization CPU time *)
  groups : int;  (** memo groups (equivalence classes) *)
  logical_exprs : int;  (** logical multi-expressions generated *)
  logical_alternatives : float;  (** complete logical plan trees *)
  goals : int;
  candidates : int;
  pruned : int;
  sample_evaluations : int;
  alternatives_pruned : int;
      (** choose alternatives collapsed as rank near-misses under a
          ranked [risk] posture *)
  plan_nodes : int;  (** size of the produced plan DAG *)
  choose_nodes : int;  (** choose-plan operators in the produced plan *)
}

type certificate
(** Provenance of a plan {!optimize} built against a catalog, which no
    other code can forge.  Its structure (DAG identity) and interval
    costs are invariants of {!Dqep_plans.Plan.Builder}, and its choose
    alternatives are equivalent because each goal's alternatives come
    from one memo group; the optimizer only names catalog objects it
    found there.  So the plan passes {!Dqep_analysis.Verify.plan} against
    that catalog with no diagnostic (pinned by a QCheck property), and
    activation needs only the feasibility subset
    ({!Dqep_exec.Executor.admit}). *)

val certified_plan : certificate -> Plan.t
val certified_catalog : certificate -> Dqep_catalog.Catalog.t

type result = {
  plan : Plan.t;
  env : Dqep_cost.Env.t;  (** environment the plan was optimized under *)
  stats : stats;
  diagnostics : Dqep_util.Diagnostic.t list;
      (** static-analysis findings over the plan and memo; always empty
          unless {!options.verify} is set *)
  certificate : certificate;  (** [plan] and the catalog it was built against *)
}

val search_config :
  ?options:options ->
  ?refine:(Dqep_cost.Env.t -> Dqep_cost.Env.t) ->
  mode:mode ->
  Dqep_catalog.Catalog.t ->
  Dqep_algebra.Logical.t ->
  (Dqep_cost.Env.t * Search.config, string) Result.t
(** Validate the query and build the environment and search
    configuration {!optimize} searches under ([refine] as there) —
    shared with {!Reoptimize.prepare}, so a retained search is
    configured exactly like a one-shot one. *)

val optimize :
  ?options:options ->
  ?refine:(Dqep_cost.Env.t -> Dqep_cost.Env.t) ->
  mode:mode ->
  Dqep_catalog.Catalog.t ->
  Dqep_algebra.Logical.t ->
  (result, string) Result.t
(** Validate and optimize a query.  Static and run-time modes always
    return choose-plan-free plans; dynamic mode returns a dynamic plan
    whenever costs were incomparable.

    [refine] post-processes the mode's environment before the search
    runs — the feedback re-optimization hook: pass
    [Dqep_exec.Session.refined_env session] to cost the search against
    the selectivity bands the session has actually observed instead of
    the full priors. *)
