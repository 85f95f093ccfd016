(** The search engine: top-down, memoizing dynamic programming with
    branch-and-bound pruning, extended for partially ordered costs
    (paper, Sections 3 and 5).

    For each optimization goal — a (group, required physical property)
    pair — the engine keeps a Pareto set of plans none of which dominates
    another.  A goal's result is a single plan: the lone survivor, or a
    choose-plan operator linking all incomparable survivors.

    Branch-and-bound, when enabled, maintains a scalar upper limit per
    goal; because only a cost's lower bound can safely be subtracted
    when descending into inputs (Section 5), pruning is much less
    effective with interval costs than with points — reproduced
    deliberately.  A goal asked again under a larger limit is searched
    again, so the default search runs without limits and evaluates every
    goal once. *)

module Plan = Dqep_plans.Plan
module Props = Dqep_algebra.Props

type config = {
  env : Dqep_cost.Env.t;
  keep_equal_alternatives : bool;
      (** keep both plans on exactly equal cost (dynamic mode) *)
  prune : bool;  (** enable branch-and-bound *)
  left_deep_only : bool;
      (** restrict join implementations to left-deep shapes (inner input
          is a base relation) — the "traditional optimizers" baseline the
          paper contrasts with its bushy search *)
  force_incomparable : bool;
      (** declare every cost comparison incomparable, producing the
          paper's Section 3 "exhaustive plan" that contains absolutely
          all plans *)
  sample_domination : int option;
      (** Section 3's heuristic: drop a plan whose cost is no better at
          each of N sampled parameter settings (fixed seeds), priced
          like the ranked postures' scenarios: one start-up evaluator
          over the N point environments *)
  verify_winners : bool;
      (** debug: run the static verifier ({!Dqep_analysis.Verify.winner})
          on every winner before memoizing it, raising
          {!Dqep_analysis.Verify.Failed} on error-severity diagnostics *)
  risk : Dqep_cost.Risk.t;
      (** ranking posture.  [Worst_case] is the paper's pure interval
          search, bit-for-bit; [Expected] / [Quantile _] additionally
          rank incomparable survivors by their aggregated scenario cost
          and keep only plans within 10% of the goal's best rank, plus
          each scenario's winner ({!Pareto.insert}'s [rank] path),
          emitting strictly fewer choose alternatives *)
}

type stats = {
  goals : int;  (** optimization goals evaluated (including cache hits) *)
  candidates : int;  (** physical plans considered *)
  pruned : int;  (** candidates cut by branch-and-bound *)
  sample_evaluations : int;
      (** plan evaluations for sampled domination and risk ranking: a
          plan priced once counts one per environment of its vector *)
  alternatives_pruned : int;
      (** interval-incomparable plans collapsed by the risk posture's
          rank filter *)
}

type t

val log_src : Logs.src
(** Goal-level debug tracing ("dqep.search"). *)

val create : config -> Memo.t -> t

val optimize : t -> int -> Props.required -> limit:float -> Plan.t option
(** Best plan for the group under the required property, or [None] if
    every candidate exceeded [limit].  Results are memoized per goal and
    reused whenever the cached computation's limit covers the request. *)

val stats : t -> stats

val reseed : t -> dirty:(int -> bool) -> int
(** Prepare the search for an incremental re-entry after the memo's row
    intervals were refined ({!Memo.refine_rows}): goal entries of clean
    groups are kept and their bounds raised so a subsequent {!optimize}
    serves them as cache hits; entries of [dirty] groups (and cached
    [None] answers) are dropped and recomputed.  Returns the number of
    entries kept — the memo-reuse half of the re-optimization. *)

val verify : t -> Dqep_util.Diagnostic.t list
(** Static analysis of the whole search state: memo-group consistency
    ({!Dqep_analysis.Verify.memo}) plus a full verification of every
    memoized winner against its goal.  Independent of the
    [verify_winners] flag; intended after a completed search. *)
