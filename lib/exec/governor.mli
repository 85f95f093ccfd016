(** Per-query resource governance: a cooperative cancellation token with
    a deadline, a memory budget, and a row limit.

    One governor accompanies one query through the execution engine —
    operators {!check} once per batch, exchange workers per partition
    page — and the spilling join/sort cores ({!Exec_common}) account
    their materializations against the memory budget with {!charge}.  The token is shared across domains
    (all state is atomic), so cancelling from any thread stops a
    parallel exchange as well as the consuming iterator.

    The graceful-degradation ladder: a shrinking memory {!headroom}
    first makes the cores spill {e earlier} (they size their in-memory
    working sets by it); only an allocation that cannot fit even after
    maximal partitioning raises {!Memory_exceeded}.  {!Resilience} then
    excludes the failed alternative and re-resolves the dynamic plan
    under a lowered memory environment, preferring a lower-memory
    alternative. *)

exception Deadline_exceeded of { elapsed : float; budget : float }
(** The wall-clock budget ran out at a check point (seconds). *)

exception Memory_exceeded of { budget : int; in_use : int; requested : int }
(** A charge would push accounted memory past the budget (bytes); the
    failed charge is rolled back. *)

exception Cancelled of string
(** The token was cancelled (the reason names the source: an explicit
    {!cancel}, a row limit, or an injected test cancellation). *)

type pool = { capacity : int; in_use : int Atomic.t }
(** A global memory pool shared by concurrently admitted queries
    ({!Session}): every charge counts against the governor's own budget
    {e and} the pool. *)

val pool : capacity_bytes:int -> pool
val pool_in_use : pool -> int

type t

val create :
  ?clock:(unit -> float) ->
  ?deadline:float ->
  ?memory_bytes:int ->
  ?pool:pool ->
  ?max_rows:int ->
  ?cancel_after_checks:int ->
  ?check_every:int ->
  unit ->
  t
(** [deadline] is seconds of budget measured on [clock] (default
    wall-clock) from creation.  [cancel_after_checks] deterministically
    cancels the token at the given check tick — the chaos harness and the
    qcheck cancellation property use it to cancel at reproducible points.
    [check_every] bounds how many checks may pass between deadline clock
    reads (default 32): the cancellation-latency bound reported by
    [bench govern] is stated in these ticks. *)

val none : t
(** The unlimited governor: {!check} is a single branch, {!charge} a
    no-op.  Every execution entry point defaults to it, so ungoverned
    callers pay (almost) nothing. *)

val is_unlimited : t -> bool

val with_pool : t -> pool -> t
(** A copy of the governor that also charges against [pool].  The copy
    shares the original's cancellation token and charge counters, so a
    caller-held handle still cancels the admitted run. *)

val cancel : t -> reason:string -> unit
(** Request cooperative cancellation; the next {!check} on any domain
    raises {!Cancelled}.  Idempotent — the first reason wins.
    @raise Invalid_argument on {!none}. *)

val is_cancelled : t -> bool
val cancelled_reason : t -> string option

val check : t -> unit
(** The cooperative cancellation point.
    @raise Cancelled once {!cancel} was requested (or the injected tick
    is reached),
    @raise Deadline_exceeded once the deadline has passed (checked every
    [check_every] ticks; the violation also cancels the token so sibling
    domains stop with the same exception without re-reading the clock). *)

val checks : t -> int
(** Check ticks consumed so far (for the benchmark's latency bound). *)

val check_every : t -> int

val elapsed : t -> float

val charge : t -> int -> unit
(** Account [bytes] of working memory.
    @raise Memory_exceeded if the charge would exceed the budget or the
    shared pool; the failed charge is fully rolled back. *)

val release : t -> int -> unit

val with_charge : t -> int -> (unit -> 'a) -> 'a
(** Charge, run, release (also on exception). *)

val headroom : t -> int option
(** Bytes still chargeable before a violation; [None] when memory is
    unaccounted.  The spilling cores take [min (env memory) headroom] as
    their working-set bound — the graceful-degradation half of the
    budget: under pressure they spill earlier instead of aborting. *)

val charged_bytes : t -> int
val memory_budget : t -> int option

val count_rows : t -> int -> unit
(** Account rows delivered at the plan root.
    @raise Cancelled when the row limit is exceeded. *)

