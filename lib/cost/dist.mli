(** Small discrete distributions — the pluggable uncertainty domain.

    A value is a weighted set of at most 8 support points over a
    non-negative quantity (selectivity, cardinality, cost).  The convex
    hull of the support is an {!Dqep_util.Interval.t}, and every
    operation preserves the hull {e exactly}: the interval domain the
    paper works with is the degenerate case where a distribution has two
    equally weighted support points ({!of_interval}), and a traditional
    point value has one ({!point}).

    Laws (property-tested in [suite_dist]):
    - embedding round-trips: [hull (of_interval i) = i], and the mean
      of the embedding is [Interval.mid i];
    - compaction never moves the hull;
    - [mean] and [quantile] lie within the hull, and [quantile] is
      monotone in its level with [quantile d 0. = (hull d).lo] and
      [quantile d 1. = (hull d).hi] — so the scenario grid's extreme
      levels ({!scenario_levels}) are the hull's endpoints;
    - refinement only narrows: [hull (refine p o) =
      Interval.refine (hull p) (hull o)]. *)

module Interval = Dqep_util.Interval

type t

val max_buckets : int
(** Upper bound on support size (8).  [make] compacts beyond it by
    merging the closest adjacent pair, always preserving the exact
    extreme support points so the hull never moves. *)

val make : (float * float) list -> t
(** [make points] builds a distribution from [(value, weight)] pairs.
    Values are sorted, duplicates coalesced, weights normalized to sum 1,
    and the support compacted to {!max_buckets} points.
    @raise Invalid_argument on an empty list, NaN, a negative value, a
    negative weight, or zero total weight. *)

val point : float -> t
(** The deterministic distribution concentrated at one value. *)

val of_interval : Interval.t -> t
(** The two-point embedding of an interval: equal mass on each bound
    (mass on one point if degenerate).  [hull (of_interval i) = i]. *)

val hull : t -> Interval.t
(** Convex hull of the support — the interval this distribution presents
    to interval-based consumers (dominance tests, certificates). *)

val buckets : t -> int
val is_point : t -> bool

val mean : t -> float
(** Expectation.  For a 2-point [of_interval] embedding this is exactly
    [Interval.mid] of the hull. *)

val quantile : t -> float -> float
(** Interpolated inverse CDF (midpoint rule), clamped to the exact hull
    endpoints: [quantile d 0. = (hull d).lo],
    [quantile d 1. = (hull d).hi], monotone in the level. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val refine : t -> t -> t
(** [refine prior obs] reshapes the belief from the observation while
    clamping its support into [Interval.refine (hull prior) (hull obs)]
    — the distribution-level analogue of interval refinement, with the
    same never-widen contract on the hull. *)

val default_levels : int

val scenario_levels : ?levels:int -> unit -> float list
(** The shared quantile grid [j/(levels-1)] for [j = 0..levels-1]
    (default {!default_levels} = 8).  Level 0 and level 1 are the exact
    hull endpoints. *)
