(** Abstract interpretation of plan DAGs over the interval domain.

    The reusable machinery under {!Analyses}: bottom-up interval
    evaluation of any plan under a {e region} (a box) of the choose-plan
    parameter space, data-sound cardinality bounds, and the two
    resource-bound directions —

    - {!certificate}: a sound {e upper} bound on the bytes an execution
      can ever hold against its governor.  Soundness contract: if
      [worst_bytes <= B], then running the plan under a governor granted
      [B] never raises [Governor.Memory_exceeded], with or without
      checkpointing (pass [~checkpoints:true] when a checkpoint registry
      will hold blocking-point materializations).
    - {!guaranteed_bytes}: a sound {e lower} bound on the largest single
      charge every execution must make.  If it exceeds the budget, the
      plan is statically doomed — every run ends in [Memory_exceeded] —
      and admission can refuse it up front (DQEP503).

    Both derive from the executor's actual charging discipline in
    [Dqep_exec.Exec_common] (hash build sides, sort inputs and runs,
    merge-join right sides, checkpoint entries) evaluated over
    data-sound cardinalities: base scans deliver exactly the catalog
    cardinality, filters between none and all of their input, joins at
    most the product — never the optimizer's selectivity model, which
    real data may disobey. *)

module Interval = Dqep_util.Interval
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan

type value = {
  rows : Interval.t;  (** modelled output cardinality *)
  total : Interval.t;  (** modelled total cost, min-combined at choose *)
}

(** A box of the choose-plan parameter space: one selectivity interval
    per host variable, plus the memory interval. *)
type region = {
  sels : (string * Interval.t) list;
  memory : Interval.t;
}

val subdivide : region -> max_regions:int -> region list
(** Grid subdivision into at most [max_regions] boxes; point dimensions
    are never cut.  The boxes cover the input region exactly. *)

val restrict : Env.t -> region -> Env.t
(** [env] with its uncertain parameters narrowed to the region's box. *)

val pp_region : Format.formatter -> region -> unit

type evaluator = {
  full : region;
      (** the whole parameter space of the plan as seen by the
          environment: each host variable's selectivity interval and the
          memory interval *)
  value : region -> int -> value;
  work : unit -> int;
      (** node evaluations performed so far (memo misses) — the currency
          of the analyses' work budgets *)
}

val evaluator : infeasible:(int -> bool) -> Env.t -> Plan.Dag.t -> evaluator
(** [evaluator ~infeasible env dag] prepares a many-region evaluation of
    a plan's numbering: [(evaluator ~infeasible env dag).value region i]
    is node [i]'s rows
    and total cost over the region, computed by the plan's start-up
    program ({!Dqep_plans.Startup.box_step}) under [restrict env region].
    For any point environment inside the region, the point rows and
    totals [Startup]'s decision procedure computes lie inside these
    intervals — the containment that makes dominance and coverage
    verdicts transfer to start-up's actual decisions.  Results are
    shared across regions through a memo keyed by the intervals of the
    host variables in each node's own subtree — on a deep plan most nodes
    are insensitive to most cut dimensions, so a grid sweep costs far
    less than regions x nodes.  Plans the catalog cannot resolve are
    accepted: such a node's value keeps its recorded rows, or raises if
    its cost cannot be formed.  A choose node's alternatives for which
    [infeasible] holds are left out of its rows and total, unless all of
    them are — start-up never picks an alternative activation pruned. *)

type cert = {
  worst_bytes : int;
      (** sound upper bound on bytes simultaneously charged *)
  worst_io_pages : float;
      (** modelled worst-case physical I/O (informational, not sound) *)
  rows : Interval.t;  (** data-sound bounds on delivered rows *)
}

val certificate : ?checkpoints:bool -> Env.t -> Plan.t -> cert
(** The static resource certificate.  [checkpoints] (default [false])
    adds the bytes a live checkpoint registry holds until run end. *)

val floors :
  Env.t ->
  budget_bytes:int ->
  rows_of:(int -> Interval.t) ->
  Plan.Dag.t ->
  int ->
  int
(** [floors env ~budget_bytes ~rows_of dag] is a lazy memoized lookup,
    by index, of the demand floor (see {!guaranteed_bytes}) computed from
    [rows_of] cardinalities; repeated queries share all common subtrees.
    With modelled per-region rows instead of data-sound ones it is the
    coverage analysis's planning-level admissibility test, not a runtime
    guarantee. *)

val guaranteed_bytes : Env.t -> budget_bytes:int -> Plan.t -> int
(** Sound lower bound on the largest single governor charge every
    execution of the plan must make under the given budget (the budget
    caps the governed memory grant, hence the Grace fanout).  Strictly
    above [budget_bytes] means statically doomed. *)

val guaranteed_bytes_of : Env.t -> budget_bytes:int -> Plan.Dag.t -> int
(** {!guaranteed_bytes} of the plan at a numbering's last index, over
    that numbering. *)
