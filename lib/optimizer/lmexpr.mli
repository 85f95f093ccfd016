(** Logical multi-expressions: one operator over child {e groups}.

    The memo's unit of logical alternatives — a single expression node
    whose children stand for whole equivalence classes. *)

type op =
  | Get of string
  | Select of Dqep_algebra.Predicate.select
  | Join of Dqep_algebra.Predicate.equi list
      (** canonically oriented: each predicate's left column belongs to
          the left child's relations, and predicates are sorted *)

type t = { op : op; children : int array }
