(** Turning predicates into executable tests over tuples.

    A selection predicate [attr <= :hv] with selectivity [s] over a
    uniform domain of size [d] is realized as [value < round (s * d)], so
    the realized fraction of matching records approximates [s]. *)

val threshold : Dqep_cost.Env.t -> Dqep_algebra.Predicate.select -> int
(** Exclusive upper bound on matching attribute values under the (point)
    environment. *)

val select_matches :
  Dqep_cost.Env.t ->
  Dqep_algebra.Schema.t ->
  Dqep_algebra.Predicate.select ->
  Exec_common.tuple ->
  bool

val equi_matches :
  left:Dqep_algebra.Schema.t ->
  right:Dqep_algebra.Schema.t ->
  Dqep_algebra.Predicate.equi list ->
  Exec_common.tuple ->
  Exec_common.tuple ->
  bool
(** Whether two tuples (from the left/right schemas) satisfy all join
    predicates; predicates are located on either side automatically. *)
