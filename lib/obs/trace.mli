(** The trace recorder: counters, spans, gauges, and operator taps for
    one unit of observation (a query run, a buffer pool's lifetime, a
    session).

    Cost discipline — the reason this can sit on every hot path:

    - {!null} is the disabled trace; every operation short-circuits on
      one boolean (the [Governor.none] pattern), so code threads a trace
      unconditionally.
    - Counter increments are one atomic add, safe from concurrent
      domains.  Counter and tap {e totals} are emitted as events only at
      {!flush}, so trace files are bounded by the taxonomy size, not the
      tuple count.
    - Spans and gauges emit live, but only when the trace has a sink.
    - Operator taps record only when requested ([~taps:true]), keeping
      the per-delivery bookkeeping off the default path. *)

type t

val null : t
(** The disabled trace: every operation is a no-op, reads return
    zeros/empties. *)

val create :
  ?clock:(unit -> float) -> ?sink:Sink.t -> ?taps:bool -> unit -> t
(** A live trace.  [clock] (default [Sys.time]) is read relative to
    creation time for event timestamps; inject a fake for deterministic
    tests.  Without [sink], counters/taps/gauges still accumulate for
    in-process reads but no events are emitted, and the clock is not
    read at creation.  [taps] (default [false]) enables per-operator
    cardinality taps. *)

val enabled : t -> bool
(** [false] only for {!null}. *)

val emitting : t -> bool
(** Whether a sink was attached at creation. *)

val taps_enabled : t -> bool

val now : t -> float
(** Seconds since the trace was created, on the trace's clock, for a
    trace with a sink; without one, the clock's own reading. *)

(** {1 Counters} *)

val add : t -> Counter.t -> int -> unit
val incr : t -> Counter.t -> unit
val get : t -> Counter.t -> int

val counts : t -> (Counter.t * int) list
(** Non-zero counters in taxonomy order. *)

val snapshot : t -> int array
(** Every counter's current value, indexed by {!Counter.index}. *)

val reset : t -> unit
(** Zero every counter and drop every tap and gauge, so one trace can
    record run after run.  Only for a trace that nothing else records
    through at the time; {!null} stays as it is. *)

val fold_counts : into:t -> ?since:int array -> t -> unit
(** Add each counter of the trace to [into] in one pass: its value less
    [since] (a {!snapshot} of the same trace), or its whole value when
    [since] is omitted. *)

(** {1 Spans} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a named span: a [Span_begin] event,
    then [f ()], then a [Span_end] carrying the elapsed time — also on
    exceptions, which are re-raised.  Nested spans record their parent.
    Without a sink this is just [f ()]. *)

(** {1 Gauges} *)

val gauge : t -> string -> float -> unit
(** Record (and emit, if a sink is attached) a point-in-time sample. *)

val gauges : t -> (string * float) list
(** Latest value of each gauge, sorted by name. *)

(** {1 Operator taps}

    Per-operator cardinality observations, keyed by plan node [pid] —
    the raw material of feedback re-optimization.  Recording happens
    only when {!taps_enabled}. *)

val tap : t -> pid:int -> op:string -> rows:int -> unit
(** Record one delivery of [rows] tuples from node [pid]; each call
    also counts one batch. *)

val tap_rows : t -> int -> int option
(** Total rows observed from a node, if it was tapped. *)

val taps : t -> (int * string * int * int) list
(** [(pid, op, rows, batches)] for every tapped node, sorted by pid. *)

(** {1 Flushing} *)

val flush : t -> unit
(** Emit final counter and tap totals as events (when a sink is
    attached) and flush the sink. *)
