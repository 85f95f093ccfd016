module Interval = Dqep_util.Interval
module Env = Dqep_cost.Env
module Schema = Dqep_algebra.Schema
module Predicate = Dqep_algebra.Predicate
module Col = Dqep_algebra.Col
module Catalog = Dqep_catalog.Catalog

let threshold env (p : Predicate.select) =
  let sel = Interval.mid (Env.selectivity env p) in
  let dom =
    Catalog.domain_size (Env.catalog env) ~rel:p.target.Col.rel
      ~attr:p.target.Col.attr
  in
  int_of_float (Float.round (sel *. float_of_int dom))

(* Both tests resolve column positions (and the selection's cutoff) when
   applied to their schemas and predicates; the closures they return
   only index tuple arrays. *)
let select_matches env schema (p : Predicate.select) =
  let pos = Schema.position_exn schema p.Predicate.target in
  let cutoff = threshold env p in
  fun (tuple : int array) -> tuple.(pos) < cutoff

let equi_matches ~left ~right preds =
  let side (c : Col.t) =
    match Schema.position left c with
    | Some i -> `Left i
    | None -> `Right (Schema.position_exn right c)
  in
  let test (p : Predicate.equi) : int array -> int array -> bool =
    match (side p.left, side p.right) with
    | `Left i, `Right j -> fun l r -> Int.equal l.(i) r.(j)
    | `Right i, `Left j -> fun l r -> Int.equal r.(i) l.(j)
    | `Left i, `Left j -> fun l _ -> Int.equal l.(i) l.(j)
    | `Right i, `Right j -> fun _ r -> Int.equal r.(i) r.(j)
  in
  let tests = List.map test preds in
  fun ltuple rtuple -> List.for_all (fun test -> test ltuple rtuple) tests
