type op =
  | Get of string
  | Select of Dqep_algebra.Predicate.select
  | Join of Dqep_algebra.Predicate.equi list

type t = { op : op; children : int array }
