module Interval = Dqep_util.Interval
module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Predicate = Dqep_algebra.Predicate
module Logical = Dqep_algebra.Logical

let cardinality env rel =
  float_of_int (Catalog.relation_exn (Env.catalog env) rel).Relation.cardinality

let base_rows env rel = Interval.point (cardinality env rel)

(* The row formulas at one bound: what [select_rows] and [join_rows]
   apply to each end of an interval, and start-up programs to the
   bounds they keep in flat arrays. *)
let selected ~sel rows = sel *. rows
let joined ~factor l r = factor *. (l *. r)

let select_rows env pred (rows : Interval.t) =
  let s = Env.selectivity env pred in
  Interval.unchecked
    ~lo:(selected ~sel:s.Interval.lo rows.Interval.lo)
    ~hi:(selected ~sel:s.Interval.hi rows.Interval.hi)

let one_join_selectivity env (p : Predicate.equi) =
  let catalog = Env.catalog env in
  let dom (c : Dqep_algebra.Col.t) =
    Catalog.domain_size catalog ~rel:c.rel ~attr:c.attr
  in
  1. /. float_of_int (Int.max (dom p.left) (dom p.right))

let join_factor env preds =
  List.fold_left (fun acc p -> acc *. one_join_selectivity env p) 1. preds

let join_selectivity env preds = Interval.point (join_factor env preds)

let join_rows env preds (rows_l : Interval.t) (rows_r : Interval.t) =
  let factor = join_factor env preds in
  Interval.unchecked
    ~lo:(joined ~factor rows_l.Interval.lo rows_r.Interval.lo)
    ~hi:(joined ~factor rows_l.Interval.hi rows_r.Interval.hi)

let rec logical_rows env = function
  | Logical.Get_set r -> base_rows env r
  | Logical.Select (e, p) -> select_rows env p (logical_rows env e)
  | Logical.Join (l, r, preds) ->
    join_rows env preds (logical_rows env l) (logical_rows env r)

let rel_row_bytes env rels =
  List.fold_left
    (fun acc rel ->
      acc + (Catalog.relation_exn (Env.catalog env) rel).Relation.record_bytes)
    0 rels

let row_bytes env e = rel_row_bytes env (Logical.relations e)
