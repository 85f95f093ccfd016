(** Parameter environments: how the cost model sees the uncertain
    run-time parameters.

    The three optimization strategies of the paper differ {e only} in
    their environment:
    - {!dynamic}: unbound selectivities are [\[0, 1\]] and (optionally)
      memory is an interval — costs become incomparable and the search
      produces dynamic plans;
    - {!static}: expected values (default selectivity 0.05, memory 64
      pages) — the traditional optimizer;
    - {!of_bindings}: actual values — used for run-time optimization and
      for start-up-time re-evaluation of choose-plan decisions.

    Every parameter is an interval, and a known value is a point
    interval.  The ranked risk postures see no other shape: they read
    the {!scenarios} grid drawn from those intervals. *)

module Interval = Dqep_util.Interval

type t

val make :
  catalog:Dqep_catalog.Catalog.t ->
  device:Device.t ->
  selectivity:(string -> Interval.t) ->
  memory_pages:Interval.t ->
  unit ->
  t

val dynamic :
  ?memory:Interval.t ->
  ?selectivity_bounds:(string * Interval.t) list ->
  ?device:Device.t ->
  Dqep_catalog.Catalog.t ->
  t
(** Unbound selectivities span [\[0, 1\]] unless [selectivity_bounds]
    gives a narrower interval for a host variable — the paper's Section 3
    point that the database implementor is free to model uncertainty more
    tightly when more is known (e.g. an application always passes small
    limits).  Narrower intervals mean fewer incomparable plans.
    Default [memory] is the point 64 (memory certain); pass e.g.
    [Interval.make 16. 112.] to make it an uncertain parameter too. *)

val static :
  ?default_selectivity:float ->
  ?memory_pages:int ->
  ?device:Device.t ->
  Dqep_catalog.Catalog.t ->
  t
(** Expected-value environment: defaults 0.05 and 64 pages, per the
    paper's Section 6. *)

val of_bindings :
  ?device:Device.t ->
  Dqep_catalog.Catalog.t ->
  Bindings.t ->
  t
(** Point environment from actual bindings; unlisted host variables
    raise [Not_found] when consulted. *)

val catalog : t -> Dqep_catalog.Catalog.t
val device : t -> Device.t
val memory_pages : t -> Interval.t

val with_memory_pages : t -> Interval.t -> t
(** The same environment under a different memory grant.  Used by the
    resilient executor to re-resolve a dynamic plan after a
    memory-budget abort: under the lowered grant the decision procedure
    prefers a lower-memory alternative. *)

val refine_dists : t -> selectivities:(string * Interval.t) list -> t
(** [refine_dists t ~selectivities] is [t] with each listed host
    variable's prior narrowed to [Interval.refine prior band] by its
    observed band ([Dqep_obs.Feedback.selectivity_dists]) — the feedback
    step of the observation pipeline.  Each refined interval is computed
    once, by this call.  Refinement never steps outside the prior, so
    plans re-costed under the refined environment stay comparable with
    plans costed under the original. *)

val default_io_budget_factor : float
(** 4.0: the default of the resilient executor's I/O guard factor, whose
    only setting is [Dqep_exec.Resilience.config.io_budget_factor]. *)

val io_budget_factor : t -> float
(** {!default_io_budget_factor}, whatever the environment.  Only the
    benchmark's request mirror reads it. *)

val selectivity : t -> Dqep_algebra.Predicate.select -> Interval.t
(** Selectivity of a selection predicate: the bound value as a point, or
    the environment's interval for its host variable. *)

val host_selectivity : t -> string -> Interval.t
(** {!selectivity} of a predicate on the named host variable.
    @raise Not_found as {!of_bindings} does for an unlisted variable. *)

val scenarios : t -> (float * t) list
(** The environment's scenario grid: 8 equally weighted {e point}
    environments at levels [q_j = j/7].  Scenario [j] binds every
    selectivity to the [q_j]-quantile and memory to the
    [(1 - q_j)]-quantile of its interval's two-point, equal-mass
    embedding: the lower bound up to level 1/4, the upper bound from
    level 3/4, linear in between.  The extreme scenarios are exactly the
    two corners the interval cost model evaluates, so any plan's cost
    under any scenario lies within its interval cost — the soundness
    basis for rank-based pruning ({!Dqep_optimizer.Search}) under the
    ranked risk postures ({!Risk}). *)
