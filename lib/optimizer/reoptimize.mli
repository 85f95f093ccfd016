(** Incremental re-optimization: re-enter a retained search with refined
    cardinalities.

    The recovery half of checkpointed mid-query re-optimization: when a
    run-time observation escapes the plan's validity band
    ({!Dqep_exec.Checkpoint.Estimate_busted}), the supervisor does not
    optimize from scratch — it files the observations into the retained
    memo ({!Memo.refine_rows}), invalidates only the groups whose row
    intervals moved (plus their transitive parents) and re-runs the
    search with every clean group answering from its memoized winner
    ({!Search.reseed}). *)

type stats = {
  groups_total : int;  (** memo groups at replan time *)
  groups_moved : int;  (** groups whose row interval was refined *)
  groups_dirty : int;  (** moved groups plus transitive parents, re-costed *)
  reused_winners : int;  (** memoized goal entries served as cache hits *)
}
(** The memo-reuse accounting of the last {!replan} — the acceptance
    test's evidence that re-optimization was incremental
    ([groups_dirty < groups_total]). *)

type t
(** A retained optimization: memo, search state and root group of one
    {!prepare} call, ready for incremental re-entry. *)

val prepare :
  ?options:Optimizer.options ->
  mode:Optimizer.mode ->
  Dqep_catalog.Catalog.t ->
  Dqep_algebra.Logical.t ->
  (t * Dqep_plans.Plan.t, string) result
(** Optimize [query] exactly as {!Optimizer.optimize} would (same mode
    semantics, same search configuration), but keep the search state
    alive for later {!replan} calls. *)

val replan :
  t -> rels_rows:(string * float) list -> Dqep_plans.Plan.t option
(** Fold observed cardinalities (keyed by sorted relation set joined
    with ["|"], as produced by [Checkpoint.rels_observations]) into the
    memo and re-optimize incrementally.  [None] when no group's interval
    moved (the observations were already inside every prior) or the
    re-search produced no plan; otherwise the replanned plan, which may
    share structure with the original wherever clean winners were
    reused.  [replan t] is the callback [Resilience.config ~replan]
    expects. *)

val last_stats : t -> stats option
(** Accounting of the most recent {!replan}, [None] before the first. *)
