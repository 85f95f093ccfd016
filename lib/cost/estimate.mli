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
    bound ({!selected}, {!joined}).  Start-up resolution prepares the
    former once per plan and applies the latter per activation. *)

val cardinality : Env.t -> string -> float

val join_factor : Env.t -> Dqep_algebra.Predicate.equi list -> float
(** The point value of {!join_selectivity}. *)

val selected : sel:float -> float -> float
(** One bound of {!select_rows}. *)

val joined : factor:float -> float -> float -> float
(** One bound of {!join_rows}: [joined ~factor l r]. *)

(** {1 Distribution view}

    The same estimates over the environment's selectivity distributions.
    The hull of each result equals the corresponding interval estimate
    (comonotone-lifting law of [Dist]), so these refine — never
    contradict — the bounds above. *)

val base_rows_dist : Env.t -> string -> Dist.t

val select_rows_dist :
  Env.t -> Dqep_algebra.Predicate.select -> Dist.t -> Dist.t

val join_rows_dist :
  Env.t -> Dqep_algebra.Predicate.equi list -> Dist.t -> Dist.t -> Dist.t

val logical_rows_dist : Env.t -> Dqep_algebra.Logical.t -> Dist.t

val row_bytes : Env.t -> Dqep_algebra.Logical.t -> int
(** Width of result tuples: the sum of the record widths of all
    participating relations. *)

val rel_row_bytes : Env.t -> string list -> int
(** Same, from a list of relation names. *)
