(** The static plan verifier: a linter over plan DAGs, interval costs and
    memo state.

    Dynamic plans rest on invariants the rest of the system assumes
    silently: choose-plan alternatives must be logically equivalent,
    hash-consed sharing must be real, interval costs must stay well-formed
    through min-combination (paper, Sections 3-5).  This pass checks any
    {!Dqep_plans.Plan.t} — optimizer output, resolved plan, decoded access
    module — {e without executing it} and reports violations as typed
    {!Dqep_util.Diagnostic.t} values with stable codes.

    Checks are layered; each layer can be run alone:
    - {!structure} — arity, DAG identity (pid aliasing, found while
      numbering the plan), hash-consing consistency (DQEP1xx);
    - {!cost} — interval well-formedness, total-cost bookkeeping with
      min-combination at choose nodes, row-estimate sanity, Pareto
      incomparability of alternatives (DQEP2xx);
    - {!semantics} — catalog resolution, attribute scope through the
      operator tree, join-predicate spanning, choose-alternative
      equivalence (DQEP3xx);
    - {!memo} / {!winner} — memo-group consistency and memoized-winner
      membership (DQEP4xx).

    This is the only code that resolves a plan against the catalog.
    The pass is wired into {!Dqep_optimizer.Search} (debug winner
    verification), the [dqep analyze] CLI subcommand, the coverage
    analysis ({!Analyses.choose_space}), and the executor's
    activation-time hook ({!Dqep_exec.Executor.check_feasible}), which
    runs {!plan} once per plan and catalog and splits its errors into
    corruption and catalog drift ({!drifted}); failures and pruned
    results are re-checked every time.  A plan the optimizer certified
    for the activating catalog ({!Dqep_optimizer.Optimizer.certificate},
    handed over by {!Dqep_exec.Executor.admit}) gets {!feasibility}
    alone: its structure, costs and choose equivalence hold by
    construction.  Every other plan gets {!plan}. *)

module Diagnostic = Dqep_util.Diagnostic
module Plan = Dqep_plans.Plan

exception Failed of Diagnostic.t list
(** Raised by {!check_exn} and by the search engine's winner verification
    on error-severity diagnostics. *)

(** {1 Plan checks} *)

val structure : Plan.t -> Diagnostic.t list
(** Operator arity, choose arity, DAG identity and hash-consing
    consistency.  Needs no catalog. *)

val cost : Plan.t -> Diagnostic.t list
(** Interval validity of rows/costs, [total_cost] = own + inputs (with
    min-combination at choose nodes), row estimates within what inputs
    allow, and pairwise incomparability of choose alternatives. *)

val semantics : catalog:Dqep_catalog.Catalog.t -> Plan.t -> Diagnostic.t list
(** Catalog resolution of every object a node names (relations,
    indexes, and the columns of filters, sort keys and join predicates,
    index-join inner filters included), attribute scope through the
    operator tree, join predicates spanning their inputs, node [rels]
    consistency, and choose-alternative equivalence (same relation set,
    compatible order).  A column whose attribute the catalog lacks is
    reported as drift (DQEP301/302), never also as a scope or span error
    (DQEP304/305). *)

val feasibility :
  catalog:Dqep_catalog.Catalog.t -> Plan.Dag.t -> Diagnostic.t list
(** The catalog-resolution subset of {!semantics} for the plan at a
    numbering's last index — exactly its diagnostics for which
    [Diagnostic.is_feasibility] holds (missing relations, attributes
    and indexes), in the same order, without the schema walk. *)

val drifted : Plan.Dag.t -> Diagnostic.t list -> int -> bool
(** [drifted dag diags] holds for the indices of [dag] at which [diags]
    has a feasibility diagnostic: the nodes that name a catalog object
    that no longer exists.  Those nodes cannot run, and every plan
    through them is infeasible; the rest of the DAG is untouched by
    drift. *)

val plan : catalog:Dqep_catalog.Catalog.t -> Plan.t -> Diagnostic.t list
(** All three plan layers: [structure @ cost @ semantics]. *)

val check_exn : catalog:Dqep_catalog.Catalog.t -> Plan.t -> unit
(** @raise Failed if {!plan} reports any error-severity diagnostic. *)

(** {1 Memo checks}

    The verifier must not depend on the optimizer (the optimizer calls
    {e it}), so memo state arrives as plain data: project it with
    [Dqep_optimizer.Memo.to_view]. *)

type expr_view = {
  label : string;  (** operator kind, e.g. ["get"], ["select"], ["join"] *)
  base : string option;  (** base relation of a leaf expression *)
  children : int list;  (** child group ids *)
}

type group_view = {
  gid : int;
  rels : string list;  (** relation set the group covers *)
  exprs : expr_view list;
}

type memo_view = group_view list

val memo : memo_view -> Diagnostic.t list
(** No dangling group references; every expression reproduces its group's
    relation set from disjoint child sets. *)

val winner :
  catalog:Dqep_catalog.Catalog.t ->
  group_rels:string list ->
  required:Dqep_algebra.Props.required ->
  Plan.t ->
  Diagnostic.t list
(** Full plan check plus memo-membership: the winner covers exactly its
    group's relations and satisfies the goal's required property. *)
