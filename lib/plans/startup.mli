(** Start-up-time evaluation of dynamic plans.

    The decision procedure of a choose-plan operator is "merely a cost
    comparison of the plan alternatives with run-time bindings
    instantiated" (paper, Section 4): the original cost functions are
    re-evaluated bottom-up under a point environment built from the
    actual bindings, and "the cost of each subplan is evaluated only
    once".

    A plan is first compiled into a {!program} over its numbering
    ({!Plan.Dag}), with every catalog lookup and device constant of the
    cost and row formulas already resolved
    ({!Dqep_cost.Cost_model.prepare}).  An activation then looks up each
    host variable once and makes one pass over flat arrays, computing
    rows, totals and the argmin at each choose node — and, for
    {!resolve}, the chosen plan's own rows and cost along the way, after
    which {!Plan.rewrite} extracts the chosen plan over the same
    numbering.  Programs are memoized per (plan, catalog) from a plan's second
    {!resolve}: a plan activated once compiles, runs and keeps nothing.
    {!evaluate}, {!explain} and {!estimated_rows} run the same program,
    the memoized one when there is one, but never store it. *)

module Interval = Dqep_util.Interval

type stats = {
  nodes_evaluated : int;  (** distinct DAG nodes visited *)
  cost_evaluations : int;  (** cost-function invocations *)
  choose_decisions : int;  (** choose-plan comparisons performed *)
}

exception Exhausted of int
(** Raised (with the choose-plan pid) when every alternative of a
    required choose-plan operator is excluded: the dynamic plan has no
    surviving way to compute the query and a full re-optimization is
    needed. *)

val evaluate :
  ?risk:Dqep_cost.Risk.t ->
  ?overrides:(int * float) list ->
  ?excluded:int list ->
  Dqep_cost.Env.t ->
  Plan.t ->
  float * stats
(** Anticipated total execution cost of the plan under the (point)
    environment.  Choose-plan nodes contribute the minimum of their
    alternatives plus the decision overhead.

    [overrides] maps plan-node pids to {e observed} output cardinalities
    of already-materialized subplans (the paper's Section 7 direction:
    "when a subplan has been evaluated into a temporary result, its
    logical and physical properties are known").  An overridden node's
    cost becomes the cost of rescanning its temporary result.

    [excluded] lists pids of choose-plan {e alternatives} that must not
    be chosen — alternatives that failed at run-time
    ({!Dqep_exec.Resilience}'s failover) cost infinity, so the decision
    falls on a surviving one.

    [risk] scalarizes any residual cost uncertainty (e.g. an interval
    memory grant during a lowered-memory re-resolution).  The default
    [Expected] is the interval midpoint — the scalarization this module
    has always used; under a fully bound point environment every posture
    agrees. *)

type evaluator
(** A persistent evaluation state under several environments: one
    numbering, and the one program over it, grow by each priced plan's
    unseen nodes, and each environment's values survive across
    {!evaluate_with} calls, so pricing many plans that share subplan
    DAG nodes (the optimizer's rank machinery prices every candidate
    under every scenario) numbers and compiles only the nodes not seen
    before, once, and evaluates only those. *)

val evaluator : Dqep_cost.Env.t list -> evaluator
(** An evaluator for fixed environments that share one catalog and one
    device, as {!Dqep_cost.Env.scenarios} do.
    @raise Invalid_argument on an empty list. *)

val evaluate_with : evaluator -> Plan.t -> float array
(** As the cost component of {!evaluate} under each environment, in
    order, memoized across calls. *)

val estimated_rows :
  ?overrides:(int * float) list -> Dqep_cost.Env.t -> Plan.t -> float
(** The cost model's output-cardinality estimate for the plan under the
    (point) environment. *)

type resolution = {
  plan : Plan.t;  (** the chosen static plan — no choose-plan nodes *)
  anticipated_cost : float;
      (** evaluated execution cost of [plan] under the bindings,
          excluding choose-plan decision overheads *)
  choices : (int * int) list;
      (** (choose-plan pid, chosen alternative pid), for usage stats *)
  choose_nodes : int;  (** choose-plan operators in the resolved dynamic plan *)
  stats : stats;
}

val resolve :
  ?risk:Dqep_cost.Risk.t ->
  ?overrides:(int * float) list ->
  ?excluded:int list ->
  Dqep_cost.Env.t ->
  Plan.t ->
  resolution
(** Evaluate all decision procedures and extract the chosen static plan.
    On a plan without choose nodes this returns the plan itself.
    [overrides] and [excluded] as in {!evaluate}.
    @raise Exhausted if exclusion leaves a reached choose-plan operator
    with no alternative. *)

(** One choose-plan operator's decision, for explanation output. *)
type decision = {
  choose_pid : int;
  alternatives : (int * string * float) list;
      (** (alternative pid, operator name, evaluated total cost) *)
  chosen_pid : int;
}

val explain :
  ?risk:Dqep_cost.Risk.t ->
  ?overrides:(int * float) list ->
  ?excluded:int list ->
  Dqep_cost.Env.t ->
  Plan.t ->
  decision list
(** Every choose-plan operator's decision under the environment, in
    bottom-up order — the human-readable version of what {!resolve}
    does.  Excluded alternatives are omitted from the listing.  An
    overridden choose node, and one only overridden subplans reach, made
    no decision and is not listed.
    @raise Exhausted as in {!resolve}. *)

val pp_decisions : Format.formatter -> decision list -> unit

(** {1 Programs} *)

type program
(** A plan compiled for one catalog and device. *)

val compile : Dqep_cost.Env.t -> Plan.t -> program
(** What a first activation pays on top of the pass itself: every node
    appended with its prepared constants.  Only the environment's
    catalog and device are read. *)

val retained : Dqep_cost.Env.t -> Plan.t -> bool
(** Whether the memo holds a program for the plan under the
    environment's catalog and device, so that its next {!resolve}
    skips compilation. *)

(** {1 Boxes}

    The same program evaluated over a box of the parameter space: each
    host variable's selectivity and the memory grant range over an
    interval.  Rows are bounded at each end of the selectivity
    intervals, own costs at the cheap corner (low rows, high memory) and
    the dear one, and a choose node's rows are the hull of its
    alternatives'.  The formulas are monotone, so wherever in the box
    {!evaluate} runs (without overrides or exclusions), its rows and
    totals lie within these bounds. *)

type box = {
  sel_lo : float array;  (** by host-variable slot *)
  sel_hi : float array;
  mutable mem_lo : float;
  mutable mem_hi : float;
  rows_lo : float array;  (** by index of the numbering *)
  rows_hi : float array;
  total_lo : float array;
  total_hi : float array;
}

val box_program : Dqep_cost.Env.t -> Plan.Dag.t -> program
(** {!compile} over a numbering, for plans the catalog may not resolve:
    a node whose rows it cannot resolve, or whose operator does not fit
    its arity, keeps the rows the plan recorded, and a node whose
    formulas cannot be prepared raises what preparing them raised when
    {!box_step} reaches it. *)

val vars : program -> string array
(** The host variables by slot, in order of first appearance. *)

val slot : program -> int -> int
(** The host-variable slot of node [i]'s selection, or -1. *)

val box : program -> box
(** Zeroed bounds for the program. *)

val box_step : program -> box -> int -> unit
(** Node [i]'s bounds, from its inputs' bounds and the box's
    selectivity and memory bounds, all already in the box. *)
