(** Naive reference evaluator for logical queries: whole-input scans of
    the stored data, no indexes, no optimization; joins hash one input on
    the equi-predicate columns and check every predicate on each match.
    The test oracle every physical plan's output is compared against. *)

val eval :
  Dqep_storage.Database.t ->
  Dqep_cost.Bindings.t ->
  Dqep_algebra.Logical.t ->
  Dqep_algebra.Schema.t * Exec_common.tuple list
(** Result schema and tuples (in no particular order). *)

val multiset_equal : Exec_common.tuple list -> Exec_common.tuple list -> bool
(** Order-insensitive comparison of results. *)

val normalize :
  Dqep_algebra.Schema.t -> Exec_common.tuple list -> Exec_common.tuple list
(** Reorder each tuple's columns into canonical (sorted column) order, so
    results of plans with different join orders become comparable. *)

val same_rows :
  Dqep_algebra.Schema.t * Exec_common.tuple list ->
  Dqep_algebra.Schema.t * Exec_common.tuple list ->
  bool
(** [multiset_equal] of the two results {!normalize}d, without copying
    a tuple: for results too large to hold twice. *)
