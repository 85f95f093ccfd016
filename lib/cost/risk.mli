(** Risk postures: how an uncertain cost is collapsed into a rank.

    The optimizer's branch-and-bound and dominance tests stay sound for
    any posture because every scenario cost of a plan lies within its
    interval cost hull; the posture only decides {e which} of the sound
    plans is preferred and how aggressively near-ties are collapsed.

    - [Worst_case] is the paper's behaviour: rank by the interval upper
      bound, keep every incomparable alternative.  The default, and
      pinned bit-for-bit against the pre-refactor optimizer.
    - [Expected] ranks by expected cost over the scenario grid
      ("Least Expected Cost Query Optimization", Chu/Halpern/Seshadri):
      near-ties outside the margin collapse, so strictly fewer
      choose-plan alternatives survive.
    - [Quantile p] ranks by the [p]-quantile of the scenario costs — a
      tail-risk posture between the two ([p = 1] behaves like worst
      case, [p = 0.5] like a median optimizer). *)

module Interval = Dqep_util.Interval

type t = Expected | Worst_case | Quantile of float

val default : t
(** [Worst_case] — the paper's semantics. *)

val of_string : string -> t option
(** Accepts ["expected"], ["worst"], and ["quantile:P"] with
    [0 <= P <= 1] (plus the aliases ["mean"], ["worst_case"],
    ["worst-case"]); case-insensitive. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val scalarize : t -> Interval.t -> float
(** Collapse an interval cost: [Expected] is the exact midpoint (the
    mean of the 2-point embedding, and the scalarization start-up-time
    resolution has always used), [Worst_case] the upper bound,
    [Quantile p] the linear interpolation [lo + p * width]. *)

val scalarize_bounds : t -> lo:float -> hi:float -> float
(** {!scalarize} of the interval [\[lo, hi\]], without building it. *)

val aggregate : t -> float array -> float
(** Collapse equally weighted per-scenario costs into the rank: mean,
    max, or interpolated order statistic.
    @raise Invalid_argument on an empty array. *)
