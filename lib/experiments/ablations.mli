(** Ablations of the design choices the paper calls out but does not
    quantify.

    - {!shrink}: the Section 4 plan-shrinking heuristic — size and
      start-up savings vs the robustness it gives up.
    - {!domination}: the Section 3 sampled cost-comparison heuristic —
      smaller dynamic plans vs possible loss of optimality.
    - {!pruning}: branch-and-bound on/off in both cost models.
    - {!sharing}: DAG sharing vs tree expansion, and real vs modelled
      access-module sizes.
    - {!exhaustive}: Section 3's "exhaustive plan" (every comparison
      declared incomparable) against the cost-driven dynamic plan.
    - {!midquery}: Section 7's mid-query adaptation on skewed data
      (selectivity estimation errors).
    - {!bounds}: the value of tighter uncertainty modelling — narrower
      per-variable selectivity intervals (Section 3: the DBI "is free to
      choose an alternative selectivity and cost model") shrink dynamic
      plans while keeping them optimal over the narrower range. *)

val shrink :
  ?relations:int -> ?train:int -> ?test:int -> ?seed:int -> unit -> Report.t

val domination :
  ?relations:int -> ?samples:int list -> ?trials:int -> ?seed:int -> unit ->
  Report.t

val pruning : ?relations:int -> unit -> Report.t

val sharing : Common.measurement list -> Report.t

val exhaustive : ?relations:int -> ?trials:int -> ?seed:int -> unit -> Report.t

val midquery :
  ?relations:int -> ?skew:float -> ?trials:int -> ?seed:int -> unit -> Report.t
(** Run ungoverned and again under a 100 000-byte memory budget, where
    an observation that does not fit is refused and counted. *)

val bounds : ?relations:int -> ?trials:int -> ?seed:int -> unit -> Report.t

val all : Common.measurement list -> Report.t list
