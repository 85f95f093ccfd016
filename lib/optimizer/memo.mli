(** The memo: equivalence classes ("groups") of logical expressions.

    Implements the memoizing half of the Volcano search engine: groups
    are keyed canonically ({!Group_key}), logical multi-expressions are
    de-duplicated by fingerprint, and logical properties (cardinality
    interval, tuple width) are computed once per group from its key —
    independent of which expression created the group, so all equivalent
    expressions agree on them by construction. *)

module Interval = Dqep_util.Interval

type group = {
  id : int;
  key : Group_key.t;
  rels : string list;  (** sorted *)
  mutable rows : Interval.t;
      (** estimated output cardinality; narrowed in place by
          {!refine_rows} *)
  bytes_per_row : int;
  mutable lexprs : Lmexpr.t list;  (** in insertion order *)
  mutable explored : bool;
}

type t

val create : Dqep_cost.Env.t -> t
val env : t -> Dqep_cost.Env.t

val ingest : t -> Dqep_algebra.Logical.t -> int
(** Intern a whole query, registering its join predicates, and return
    the root group id.  @raise Invalid_argument on malformed queries
    (use {!Dqep_algebra.Logical.validate} first for friendly errors). *)

val group : t -> int -> group
val group_count : t -> int
val lexpr_count : t -> int

val add_lexpr : t -> int -> Lmexpr.t -> bool
(** Add an expression to a group unless already present; [true] if new. *)

val join_group : t -> int -> int -> int option
(** Group representing the join of two groups, creating it (with its
    canonical [Join] expression) if needed.  [None] if no query predicate
    connects them (cross products are not generated). *)

val make_join_lexpr : t -> int -> int -> Lmexpr.t option
(** The canonical join expression over two child groups, [None] if they
    are not connected. *)

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
