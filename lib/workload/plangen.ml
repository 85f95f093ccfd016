(* Seeded random query instances for the differential test harness.

   Each seed deterministically yields a small catalog (random relation
   count, cardinalities, domain sizes, index subset) and a query over it
   (random spanning-tree join order, random unbound selections).  The
   harness optimizes each instance in several modes and runs every plan
   through the executor and the naive reference evaluator —
   random structure is what makes the differential comparison worth
   anything: it reaches operator combinations no hand-written test
   enumerates. *)

module Rng = Dqep_util.Rng
module Attribute = Dqep_catalog.Attribute
module Relation = Dqep_catalog.Relation
module Index = Dqep_catalog.Index
module Catalog = Dqep_catalog.Catalog
module Col = Dqep_algebra.Col
module Predicate = Dqep_algebra.Predicate
module Logical = Dqep_algebra.Logical
module Bindings = Dqep_cost.Bindings

type instance = {
  seed : int;
  catalog : Catalog.t;
  query : Logical.t;
  host_vars : string list;
}

let rel_name i = Printf.sprintf "T%d" i
let select_attr = "a"
let join_left_attr = "jl"
let join_right_attr = "jr"
let host_var i = Printf.sprintf "hv%d" i

let max_relations = 4

(* Small relations keep the reference evaluator's nested loops (and the
   row/batch cross-check) fast while still spanning multiple heap pages
   at 512-byte records. *)
let random_catalog rng ~relations =
  let rels =
    List.init relations (fun idx ->
        let i = idx + 1 in
        let card = Rng.int_range rng 40 150 in
        (* Selection domains span the cardinality.  Join domains are of
           the same order as the cardinalities: small enough that
           equi-joins produce matches, large enough that intermediate
           results stay bounded (expected blowup per join is |R|/domain)
           — the reference evaluator is a nested loop. *)
        let sel_dom = Rng.int_range rng 10 (Int.max 10 card) in
        let join_dom () = Rng.int_range rng 40 120 in
        Relation.make ~name:(rel_name i) ~cardinality:card ~record_bytes:512
          ~attributes:
            [ Attribute.make ~name:select_attr ~domain_size:sel_dom;
              Attribute.make ~name:join_left_attr ~domain_size:(join_dom ());
              Attribute.make ~name:join_right_attr ~domain_size:(join_dom ()) ])
  in
  let indexes =
    List.concat_map
      (fun (r : Relation.t) ->
        List.filter_map
          (fun (a : Attribute.t) ->
            (* Index roughly two attributes in three: plans over partially
               indexed schemas exercise both scan families and give
               choose-plan real alternatives. *)
            if Rng.int rng 3 < 2 then
              Some (Index.make ~relation:r.Relation.name ~attribute:a.Attribute.name ())
            else None)
          r.Relation.attributes)
      rels
  in
  Catalog.create ~page_bytes:2048 ~relations:rels ~indexes ()

let generate ~seed =
  let rng = Rng.create (0x9e3779b9 lxor seed) in
  let relations = Rng.int_range rng 1 max_relations in
  let catalog = random_catalog rng ~relations in
  (* Random spanning tree: relation j (j >= 2) joins some earlier
     relation's jr to its own jl, so building left-deep in index order
     keeps every intermediate connected. *)
  let parent = Array.init (relations + 1) (fun j -> Rng.int_range rng 1 (Int.max 1 (j - 1))) in
  let leaf i =
    let base = Logical.Get_set (rel_name i) in
    (* Unbound selection on most relations; leaving some unselected
       produces bare scans and pure-join subplans. *)
    if Rng.float rng < 0.8 then
      Logical.Select
        ( base,
          Predicate.select ~rel:(rel_name i) ~attr:select_attr
            (Predicate.Host_var (host_var i)) )
    else base
  in
  let query =
    let rec build expr j =
      if j > relations then expr
      else
        let pred =
          Predicate.equi
            ~left:(Col.make ~rel:(rel_name parent.(j)) ~attr:join_right_attr)
            ~right:(Col.make ~rel:(rel_name j) ~attr:join_left_attr)
        in
        build (Logical.Join (expr, leaf j, [ pred ])) (j + 1)
    in
    build (leaf 1) 2
  in
  { seed; catalog; query; host_vars = Logical.host_vars query }

(* Random start-up-time bindings for an instance.  Selectivities stay off
   the exact 0/1 corners so threshold rounding keeps some rows on both
   sides of every predicate; the memory range forces both in-memory and
   spilling executions. *)
let bindings t ~seed =
  let rng = Rng.create (0x51ed2701 lxor (seed * 65537) lxor t.seed) in
  Bindings.make
    ~selectivities:
      (List.map (fun hv -> (hv, Rng.uniform rng 0.05 0.95)) t.host_vars)
    ~memory_pages:(Rng.int_range rng 4 64)
