(** The memo: equivalence classes ("groups") of logical expressions.

    Implements the memoizing half of the Volcano search engine.
    {!ingest} numbers the query once: its relations (bit [i] is the
    [i]th relation in name order), its selections and its join
    predicates.  A group is the set of expressions that combine the same
    relations with the same applied selections (join predicates are
    implied: every query predicate internal to the relation set
    applies), so it is found by its (relation bitset, selection bitset)
    in an integer-keyed table, and exhaustive join commutativity and
    associativity can never create a duplicate group.  Within a group an
    expression is identified by its first child (a get has none): a
    select's child, or a join's left child, determines the rest.
    Logical properties (cardinality interval, tuple width) are computed
    once per group from its key — independent of which expression
    created the group, so all equivalent expressions agree on them by
    construction. *)

module Interval = Dqep_util.Interval

type group = private {
  id : int;
  rels : string list;  (** sorted *)
  sels : Dqep_algebra.Predicate.select list;
      (** applied selections, by relation name, then
          {!Dqep_algebra.Predicate.select_compare} *)
  mutable rows : Interval.t;
      (** estimated output cardinality; narrowed in place by
          {!refine_rows} *)
  bytes_per_row : int;
  mutable exprs : Lmexpr.t array;
      (** the first [n_exprs] are the group's expressions, in the order
          they were added *)
  mutable n_exprs : int;
  mutable explored : bool;
  rel_bits : int;
  sel_bits : int;
  neighbours : int;  (** relations a query predicate joins to [rels] *)
}

type t

val create : Dqep_cost.Env.t -> t

val max_relations : int
(** The most relations, and the most selections, a query may have. *)

val ingest : t -> Dqep_algebra.Logical.t -> int
(** Number the query, intern it and return the root group id.  A memo
    holds one query.  @raise Invalid_argument on malformed queries (use
    {!Dqep_algebra.Logical.validate} first for friendly errors), on more
    than {!max_relations} relations or selections, or if the memo
    already holds a query. *)

val explore : t -> int -> unit
(** Apply join commutativity and associativity to a group (exploring
    its children first) until no new expression appears: all bushy join
    trees of a connected query (paper, Section 5), never a cross
    product.  A group's expressions are rewritten in the order they
    were added, and that order is the order the search considers them
    in — the order of a choose-plan node's alternatives.  Idempotent. *)

val group : t -> int -> group
val group_count : t -> int
val lexpr_count : t -> int

val lexprs : group -> Lmexpr.t list
(** The group's expressions, in the order they were added. *)

val refine_rows : t -> (string * float) list -> int list
(** [refine_rows t observations] narrows each group's row interval by the
    observed cardinality filed under its relation set (key: sorted rels
    joined with ["|"]), via {!Dqep_util.Interval.refine} — so a refined
    interval never leaves the prior the memoized winners were costed
    under.  Returns the ids of the groups whose interval moved; groups
    with point priors (base relations) never move. *)

val to_view : t -> Dqep_analysis.Verify.memo_view
(** Plain-data projection of all groups for the static verifier
    ({!Dqep_analysis.Verify.memo}). *)

val logical_tree_count : t -> int -> float
(** Number of distinct complete logical expression trees represented for
    a group — the paper's "logical alternatives" count.  Float because it
    grows into the millions for 10-way joins. *)
