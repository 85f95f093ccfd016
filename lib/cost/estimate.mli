(** Cardinality estimation with interval arithmetic.

    Cardinalities are intervals: certain for base relations, widened by
    every unbound selection.  Join selectivity follows the paper's
    Section 6: "the cross product of the joined relations divided by the
    larger of the join attribute domain sizes". *)

module Interval = Dqep_util.Interval

val base_rows : Env.t -> string -> Interval.t
(** Exact cardinality of a stored relation. *)

val select_rows : Env.t -> Dqep_algebra.Predicate.select -> Interval.t -> Interval.t
(** Rows surviving a selection over an input cardinality. *)

val join_selectivity : Env.t -> Dqep_algebra.Predicate.equi list -> Interval.t
(** Combined selectivity of a conjunction of join predicates (a point,
    since domain sizes are catalog knowledge). *)

val join_rows :
  Env.t -> Dqep_algebra.Predicate.equi list -> Interval.t -> Interval.t -> Interval.t

val logical_rows : Env.t -> Dqep_algebra.Logical.t -> Interval.t
(** Output cardinality of a whole logical expression. *)

(** {1 Staged formulas}

    The estimates above split into what the catalog fixes
    ({!cardinality}, {!join_factor}) and the arithmetic applied to each
    bound ({!selected}, {!joined}).  A start-up program prepares the
    former once per plan and applies the latter to each bound it keeps:
    at an activation's point, and at each end of a static analysis's
    box. *)

val cardinality : Env.t -> string -> float

val join_factor : Env.t -> Dqep_algebra.Predicate.equi list -> float
(** The point value of {!join_selectivity}. *)

val selected : sel:float -> float -> float
(** One bound of {!select_rows}. *)

val joined : factor:float -> float -> float -> float
(** One bound of {!join_rows}: [joined ~factor l r]. *)

val row_bytes : Env.t -> Dqep_algebra.Logical.t -> int
(** Width of result tuples: the sum of the record widths of all
    participating relations. *)

val rel_row_bytes : Env.t -> string list -> int
(** Same, from a list of relation names. *)
