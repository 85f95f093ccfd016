(** Closed intervals of non-negative floats.

    Intervals are the uncertainty domain of the whole system: costs,
    cardinalities, selectivities and memory sizes are all intervals
    [\[lo, hi\]] capturing the entire range in which the actual run-time
    value may fall (paper, Section 5).  A traditional "point" value is the
    degenerate interval [\[v, v\]].

    Because two overlapping intervals cannot be ordered, values of this
    type are only {e partially} ordered — the key concept enabling dynamic
    plans. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** [make lo hi] is the interval [\[lo, hi\]].
    @raise Invalid_argument if [lo > hi], either bound is NaN, or
    [lo < 0]. *)

val point : float -> t
(** [point v] is the degenerate interval [\[v, v\]]. *)

val unchecked : lo:float -> hi:float -> t
(** [unchecked ~lo ~hi] builds the interval {e without} validating the
    bounds — the only way to obtain an ill-formed value of this type.
    Exists so the static plan verifier ({!is_valid}, [Dqep_analysis]) and
    its tests can represent corrupt data; never use it in cost
    computations. *)

val is_valid : t -> bool
(** Whether the interval satisfies the type's invariant: no NaN bounds,
    [lo >= 0] and [lo <= hi].  [true] for everything except values built
    by {!unchecked}. *)

val zero : t

val is_point : t -> bool
(** Whether the interval is degenerate (width zero). *)

val width : t -> float

val mid : t -> float
(** Midpoint of the interval. *)

(** {1 Arithmetic}

    All operations assume non-negative operands, which holds for every
    quantity in the cost model (costs, cardinalities, selectivities,
    page counts). *)

val add : t -> t -> t

val mul : t -> t -> t
val combine_min : t -> t -> t
(** [combine_min a b] is the cost of a dynamic plan choosing the cheaper
    of two alternatives: [\[min a.lo b.lo, min a.hi b.hi\]] (Section 5:
    "the cost of a dynamic plan ... ranges from the smaller of the two
    minimum costs to the smaller of the two maximum costs"). *)

val union : t -> t -> t
(** Convex hull of two intervals. *)

val refine : t -> t -> t
(** [refine prior obs] narrows [prior] by the observation [obs]: the
    intersection of the two when they overlap, and the nearest [prior]
    bound (as a point) when they are disjoint — an observation is
    evidence, but the prior's bounds are the contract other plan costs
    were derived under, so refinement never steps outside them.

    Laws (property-tested in [suite_interval]):
    - never widens: [(refine p o).lo >= p.lo] and [(refine p o).hi <= p.hi];
    - stays within the prior: [refine p o] is a sub-interval of [p];
    - monotone under repeated observation:
      [refine (refine p o) o = refine p o]. *)

val contains : t -> float -> bool

val clamp : t -> float -> float
(** [clamp a v] is [v] limited to [a]. *)

(** {1 The partial order} *)

type order =
  | Lt  (** strictly cheaper for every possible binding *)
  | Gt  (** strictly more expensive for every possible binding *)
  | Eq  (** two identical point values *)
  | Incomparable  (** overlapping intervals: order unknown until run-time *)

val compare_cost : t -> t -> order
(** [compare_cost a b] orders two interval costs.  Overlapping intervals
    are [Incomparable]; only identical point values are [Eq]. *)

val equal : t -> t -> bool
(** Structural equality of bounds (not the partial order's [Eq]). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
