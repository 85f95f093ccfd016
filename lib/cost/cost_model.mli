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
type dist_input = { drows : Dist.t; dbytes_per_row : int }

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

val own_cost_dist :
  Env.t ->
  Dqep_algebra.Physical.op ->
  inputs:dist_input list ->
  output_rows:Dist.t ->
  Dist.t
(** Distribution view of {!own_cost}: the same cost formula evaluated
    comonotonically over the scenario grid (cardinalities at the
    [q]-quantile, memory at the [(1-q)]-quantile).  The extreme grid
    levels are exactly [own_cost]'s two corners, so the result's hull
    equals the interval cost. *)

val choose_plan_cost : Env.t -> Interval.t list -> Interval.t
(** Cost of a whole choose-plan subplan over alternatives' total costs:
    the element-wise minimum of the alternatives plus the decision
    overhead (paper, Section 5's [\[0.01, 1.01\]] example). *)

val choose_plan_cost_dist : Env.t -> Dist.t list -> Dist.t
(** Distribution view of {!choose_plan_cost}; hulls agree. *)

val index_depth : Env.t -> string -> int
(** Modelled depth of a B-tree on the given relation (levels). *)

val pages_for : Env.t -> rows:float -> bytes_per_row:int -> float
(** Fractional page count of [rows] tuples of the given width, at
    least 1. *)
