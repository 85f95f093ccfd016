(** A resilient execution supervisor: bounded retry, an I/O budget
    guard, resource governance, and graceful degradation through
    choose-plan alternatives.

    Dynamic plans keep several cost-incomparable alternatives until
    run-time ({!Dqep_plans.Startup}); this module exploits the same
    structure for fault tolerance.  When the chosen alternative fails —
    a transient fault persists past the retry budget, a page is truly
    broken, the run's physical I/O blows past its anticipated cost, or
    its working set cannot fit the memory budget even after maximal
    spilling — the supervisor re-enters the decision procedure with the
    failed alternative excluded, falling back through the plan DAG until
    an alternative completes or all are exhausted.  On the first
    failover it evaluates the plan's shared subplan into the run's
    {!Checkpoint} registry ({!observe}; best-effort, an observation that
    faults is skipped), so the re-resolutions decide with its observed
    cardinality and splice its tuples.  A memory-budget
    abort additionally lowers the memory grant for the re-resolution, so
    the decision procedure prefers a lower-memory alternative, and
    excludes only the failed choices that hold a working set (a hash
    join's build, a merge join's right side, a sort): a choice that
    merely streams charges no memory and stays available.

    Governor violations that no alternative can repair are their own
    typed outcomes: a deadline or cancellation ends the run immediately
    ({!Deadline_exceeded}, {!Cancelled}) — retrying cannot buy back
    wall-clock time — and a memory violation with no viable fallback
    reports {!Memory_exceeded}.

    A retry after a transient fault starts at once: there is no backoff.
    Every supervisor count lives in one record, {!stats}, reported for
    failed runs as well as completed ones; {!Executor.run_stats} carries
    only what the successful attempt executed. *)

type config = {
  max_retries : int;
      (** transient-fault retries per chosen plan before failing over
          (default 2) *)
  io_budget_factor : float;
      (** observed physical I/O may exceed the anticipated cost by this
          factor before the attempt is aborted (default 4.0,
          {!Dqep_cost.Env.default_io_budget_factor}); [0.] disables the
          guard.  This is the guard's only setting. *)
  max_failovers : int;
      (** bound on re-resolutions onto other alternatives (default 8) *)
  checkpoints : bool;
      (** materialize checkpoints at blocking points ({!Checkpoint}) and
          validate observed cardinalities against the plan's validity
          band (default [false]: checkpointed recovery is strictly
          opt-in) *)
  checkpoint_tolerance : float;
      (** width of the validity band around the point estimate [e]:
          [\[e / tolerance, (e + 1) * tolerance\]]
          (default {!Checkpoint.default_tolerance}) *)
  max_replans : int;
      (** bound on incremental re-optimizations per supervised run
          (default 2) *)
  replan : (rels_rows:(string * float) list -> Dqep_plans.Plan.t option) option;
      (** incremental re-planner invoked on a busted estimate with every
          checkpointed observation (keyed by relation set); returns the
          replacement plan, or [None] to decline.  [None] (the default)
          turns a busted estimate into the typed {!Estimate_busted}
          failure instead.  [Optimizer.replan] of the plan's
          optimization result is the intended callback; the supervisor
          itself stays free of an optimizer dependency. *)
  risk : Dqep_cost.Risk.t;
      (** risk posture handed to every start-up re-resolution
          ({!Dqep_plans.Startup.resolve}); default [Expected].  The
          supervisor resolves under {!Dqep_cost.Env.of_bindings}, and a
          lowered grant after a memory abort is a point too, so every
          parameter is a point and no posture changes a decision. *)
}

val config :
  ?max_retries:int ->
  ?io_budget_factor:float ->
  ?max_failovers:int ->
  ?checkpoints:bool ->
  ?checkpoint_tolerance:float ->
  ?max_replans:int ->
  ?replan:(rels_rows:(string * float) list -> Dqep_plans.Plan.t option) ->
  ?risk:Dqep_cost.Risk.t ->
  unit ->
  config

val default : config

type failure =
  | Infeasible of Dqep_util.Diagnostic.t list
      (** activation-time validation failed and pruning left no feasible
          plan *)
  | Rejected of Dqep_util.Diagnostic.t list
      (** the static plan verifier found corruption beyond catalog drift
          ({!Executor.Invalid_plan}); the plan never started *)
  | Exhausted of { excluded : int list; last_error : exn }
      (** no surviving choose-plan alternative completes; [excluded]
          lists the alternative pids ruled out along the way and
          [last_error] is the error that ended the final attempt *)
  | Deadline_exceeded of { elapsed : float; budget : float }
      (** the governor's wall-clock budget ran out (seconds); the run
          ends immediately — no retry or failover *)
  | Memory_exceeded of { budget : int; in_use : int; requested : int }
      (** a memory-budget violation (bytes) that no lower-memory
          alternative could repair *)
  | Cancelled of string
      (** the governor was cancelled (explicitly, by row limit, or by an
          injected test cancellation); the reason names the source *)
  | Estimate_busted of { pid : int; observed : int; lo : float; hi : float }
      (** a checkpointed observation escaped the plan's validity band and
          no re-plan recovery was available (no [replan] callback, replan
          budget spent, or the re-planner declined); [pid] is the plan
          node whose cardinality busted the estimate *)

val pp_failure : Format.formatter -> failure -> unit

type stats = {
  retries : int;  (** attempts repeated after a transient fault *)
  faults_absorbed : int;  (** injected faults caught by the supervisor *)
  budget_aborts : int;  (** attempts aborted by the I/O budget guard *)
  memory_aborts : int;
      (** attempts aborted by the governor's memory budget (each one
          lowers the grant and fails over) *)
  failovers : int;  (** re-resolutions onto another alternative *)
  attempts : int;  (** executions started, including the successful one *)
  replans : int;  (** incremental re-optimizations after busted estimates *)
  checkpoints_taken : int;  (** intermediates materialized at blocking points *)
  resume_hits : int;  (** checkpoints served to later attempts *)
}

val run :
  ?config:config ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  Dqep_storage.Database.t ->
  Dqep_cost.Bindings.t ->
  Dqep_plans.Plan.t ->
  (Exec_common.tuple list * Executor.run_stats, failure) result * stats
(** Supervised execution.  On success the embedded
    {!Executor.run_stats} describes the final (successful) attempt: its
    I/O window, resolved plan and execution profile.  [stats] is
    reported in both arms, so failed runs are observable too, and is the
    only record of the supervisor's counts.

    [gov] (default {!Governor.none}) governs every attempt {e and} the
    failover observation: deadlines, cancellation, memory budgets and
    row limits all surface here as typed failures, never as escaped
    exceptions.

    [obs] (default {!Dqep_obs.Trace.null}) is the run's observation
    trace: the supervisor's counters ([Attempts], [Retries],
    [Faults_absorbed], [Budget_aborts], [Memory_aborts], [Failovers],
    [Deadline_aborts], [Cancellations], [Replans], [Checkpoints_taken],
    [Checkpoint_bytes], [Resume_hits]) land there, the buffer pool is
    teed into it for the whole supervised run, attempts, the failover
    observation and re-planning run inside "attempt"/"observe"/"replan"
    spans, and [stats] is the trace's counter deltas from a
    {!Dqep_obs.Trace.snapshot} taken as the run starts: this run's
    counts, whatever the trace held before.

    One {!Checkpoint} registry spans the run.  With [config.checkpoints]
    on, every attempt materializes checkpoints at its blocking points;
    the failover observation is filed there too, checkpoints or not.
    Later attempts — bounded retries after transient faults, failovers,
    and replanned runs — take their overrides and splices from it by
    logical fingerprint instead of redoing completed work, and entry
    bytes are charged to [gov] for the duration of the supervised run
    and always rolled back at the end. *)

(** {1 The observation step}

    The paper's Section 7 remedy for estimates that are wrong even with
    every host variable bound: evaluate a subplan that the alternatives
    of a choose-plan operator share, and decide with its {e observed}
    cardinality.  {!observe} is that step and the only one: the
    supervisor runs it on its first failover, and a caller that wants
    the Section 7 decision on its own runs it, then
    [Startup.resolve ~overrides:(Checkpoint.overrides_for registry db plan)]
    to decide and [Executor.execute ~materialized:(Checkpoint.resume_for
    registry db resolved)] to splice, the two calls each attempt makes. *)

type observation = {
  sub : Dqep_plans.Plan.t;
      (** the most informative subplan that at least two alternatives of
          the root choose-plan share: the widest cardinality interval
          times the number of alternatives sharing it, ties to the larger
          subplan, then to the first numbered *)
  rows : int;  (** its observed cardinality *)
  kept : bool;
      (** whether the registry kept it: [false] when it did not fit the
          governor's memory budget (or the registry is
          {!Checkpoint.disabled}), and then nothing overrides or splices *)
}

val observe :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  Checkpoint.t ->
  Dqep_plans.Plan.t ->
  observation option
(** [observe db env registry plan] evaluates [plan]'s shared subplan
    under [gov], inside an "observe" span on [obs], and
    {!Checkpoint.file}s its result in [registry].  From there the
    registry serves the observation like any checkpoint:
    {!Checkpoint.overrides_for} hands its cardinality to every
    fingerprint-equal node of a plan and {!Checkpoint.resume_for}
    splices its tuples into the same nodes.  [None], evaluating
    nothing, when [plan]'s root is not a choose-plan or no subplan its
    alternatives share has an uncertain cardinality. *)
