(** Cost functions of the physical algebra.

    Costs are intervals in seconds.  Bounds are computed "using
    traditional cost formulas supplied with the appropriate upper and
    lower bound values for the parameters of the cost model ... assuming
    that cost functions are monotonic in all their arguments" (paper,
    Section 5): every formula is evaluated at two corners — cheapest
    (low cardinalities, high memory) and dearest (high cardinalities,
    low memory).

    All functions return the cost of the operator {e itself}; plan
    composition (summing children, choose-plan minimum combination) is
    the plan layer's job. *)

module Interval = Dqep_util.Interval

type input = { rows : Interval.t; bytes_per_row : int }

val own_cost :
  Env.t ->
  Dqep_algebra.Physical.op ->
  inputs:input list ->
  output_rows:Interval.t ->
  Interval.t
(** Cost of one operator given its inputs' cardinalities and widths.
    [Choose_plan] has own cost equal to its decision overhead.
    @raise Invalid_argument if the inputs don't match the operator's
    arity. *)

(** {1 Staged formulas}

    {!own_cost} is [prepare] followed by [apply] at two corners.
    Start-up programs keep each plan node's prepared constants and
    re-run only [apply]: at each activation's bindings, and at the
    corners of a static analysis's boxes. *)

type opcode = Const | Filter | Index_range | Hash | Merge | Probe | Sort
(** Which formula [apply] evaluates. *)

val stage_width : int
(** Constants one prepared operator occupies. *)

val prepare :
  Env.t ->
  Dqep_algebra.Physical.op ->
  arity:int ->
  width0:int ->
  width1:int ->
  float array ->
  int ->
  opcode
(** [prepare env op ~arity ~width0 ~width1 k off] resolves every catalog
    and device quantity of [op]'s cost into [k.(off)] ..
    [k.(off + stage_width - 1)]; [width0] and [width1] are the first two
    inputs' tuple widths (ignored beyond the arity).
    @raise Invalid_argument if [arity] doesn't match the operator. *)

val apply :
  opcode -> float array -> int -> in0:float -> in1:float -> out:float ->
  mem:float -> float
(** The operator's own cost at one parameter point: input
    cardinalities [in0], [in1] (ignored beyond the arity), output
    cardinality [out] and memory grant [mem]. *)

val choose_plan_cost : Env.t -> Interval.t list -> Interval.t
(** Cost of a whole choose-plan subplan over alternatives' total costs:
    the element-wise minimum of the alternatives plus the decision
    overhead (paper, Section 5's [\[0.01, 1.01\]] example). *)

val index_depth : Env.t -> string -> int
(** Modelled depth of a B-tree on the given relation (levels). *)

val pages_for : Env.t -> rows:float -> bytes_per_row:int -> float
(** Fractional page count of [rows] tuples of the given width, at
    least 1. *)
