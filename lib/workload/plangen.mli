(** Seeded random query instances for the differential test harness.

    Each seed deterministically yields a small random catalog — 1 to 4
    relations with random cardinalities, domain sizes and index subsets —
    and a query joining them along a random spanning tree with unbound
    selections on most relations.  [test/suite_batch.ml] optimizes each
    instance and runs every plan through the executor, at several batch
    capacities, and through the naive reference
    evaluator, asserting multiset-equal results. *)

type instance = {
  seed : int;
  catalog : Dqep_catalog.Catalog.t;
  query : Dqep_algebra.Logical.t;
  host_vars : string list;  (** host variables of the unbound selections *)
}

val generate : seed:int -> instance
(** Deterministic in [seed]. *)

val bindings : instance -> seed:int -> Dqep_cost.Bindings.t
(** Random bindings for the instance's host variables: selectivities in
    [\[0.05, 0.95)], memory in [\[4, 64\]] pages.  Deterministic in both
    seeds. *)

val max_relations : int
(** Upper bound on relations per instance (4). *)
