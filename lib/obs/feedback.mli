(** The per-session observation cache: what execution has taught us
    about this session's parameters and operators.

    Two keyed families of bands.  Each band is the exact [\[min, max\]]
    envelope of every value observed under its key, with a count of
    those values:

    - {e selectivities}, keyed by selectivity variable name — fed by
      the parameter bindings of completed runs;
    - {e cardinalities}, keyed by a plan node's relation-set key — fed
      only by callers of {!observe_rows}; the serve path files none.

    A band is an observation in the sense of [Interval.refine]: the
    cost layer narrows an env's prior interval for a variable to
    [Interval.refine prior band], so later queries in the session are
    costed against what was actually measured.  Bands only grow, which
    keeps refinement honest — two conflicting observations widen the
    band back toward the prior rather than ping-ponging the refined
    value.

    Thread-safe; session workers observe concurrently. *)

type t

val create : unit -> t

val observe_selectivity : t -> string -> float -> unit
(** Record one realized value of a selectivity variable.  NaN and
    negative values are ignored. *)

val observe_selectivities : t -> (string * float) list -> unit
(** {!observe_selectivity} of each [(variable, value)] in order, under
    one hold of the lock: a run's realized bindings. *)

val observe_rows : t -> key:string -> int -> unit
(** Record one observed cardinality for an operator, keyed by its
    relation set ([Plan.rels_key]). *)

val selectivity_band : t -> string -> Dqep_util.Interval.t option

val selectivity_dists : t -> (string * Dqep_util.Interval.t) list
(** Every selectivity band ({!selectivity_band}), sorted by variable
    name.  Feed to [Dqep_cost.Env.refine_dists]. *)

val observations : t -> int
(** Total number of recorded observations (not bands). *)

val clear : t -> unit
