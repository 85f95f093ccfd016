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

val host_var_preds :
  Plan.t -> (string * Dqep_algebra.Predicate.select) list
(** Every host variable appearing in the plan, each with one predicate
    that mentions it (the handle for querying an environment's prior). *)

val full_region : Env.t -> Plan.t -> region
(** The whole parameter space of [plan] as seen by [env]: each host
    variable's prior selectivity interval and the memory interval. *)

val subdivide : region -> max_regions:int -> region list
(** Grid subdivision into at most [max_regions] boxes; point dimensions
    are never cut.  The boxes cover the input region exactly. *)

val restrict : Env.t -> region -> Env.t
(** [env] with its uncertain parameters narrowed to the region's box. *)

val pp_region : Format.formatter -> region -> unit

val eval : Env.t -> Plan.t -> Plan.t -> value
(** [eval env plan] evaluates every node of [plan] bottom-up (one visit
    per DAG node) and returns a lookup over [plan]'s nodes.  For any
    point environment inside the box [env] abstracts, the point rows and
    totals computed by [Startup.resolve]'s decision procedure lie inside
    the returned intervals — the containment that makes dominance and
    coverage verdicts transfer to startup's actual decisions.
    @raise Not_found when looking up a node not in [plan]. *)

type evaluator = {
  value : region -> Plan.t -> value;
  work : unit -> int;
      (** node evaluations performed so far (memo misses) — the currency
          of the analyses' work budgets *)
}

val evaluator : Env.t -> Plan.t -> evaluator
(** [evaluator env plan] prepares a many-region evaluation of [plan]:
    [(evaluator env plan).value region node] agrees with
    [eval (restrict env region) plan node], but results are shared
    across regions through a memo keyed by the intervals of the host
    variables in each node's own subtree — on a deep plan most nodes
    are insensitive to most cut dimensions, so a grid sweep costs far
    less than regions x nodes.  The analyses' region loops use this;
    {!eval} remains the one-environment entry point. *)

val sound_rows : Env.t -> Plan.t -> Plan.t -> Interval.t
(** Data-sound cardinality bounds, same lookup shape as {!eval}: bounds
    that hold for whatever the stored data is, independent of the
    selectivity model. *)

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
  rows_of:(Plan.t -> Interval.t) ->
  Plan.t ->
  int
(** [floors env ~budget_bytes ~rows_of] is a lazy memoized per-node
    lookup of the demand floor (see {!guaranteed_bytes}) computed from
    [rows_of] cardinalities — the shared core of {!guaranteed_bytes} and
    {!modelled_floor}; repeated queries share all common subtrees. *)

val guaranteed_bytes : Env.t -> budget_bytes:int -> Plan.t -> int
(** Sound lower bound on the largest single governor charge every
    execution of the plan must make under the given budget (the budget
    caps the governed memory grant, hence the Grace fanout).  Strictly
    above [budget_bytes] means statically doomed. *)

val modelled_floor : Env.t -> budget_bytes:int -> (Plan.t -> value) -> Plan.t -> int
(** {!guaranteed_bytes} computed from modelled per-region cardinalities
    (a {!eval} lookup) instead of data-sound ones — the coverage
    analysis's planning-level admissibility test, not a runtime
    guarantee. *)
