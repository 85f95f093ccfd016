(** Query sessions: admission control in front of the resilient
    executor.

    A session bounds concurrent executions (admission slots), waiting
    submissions (a bounded FIFO queue with deadline shedding), and the
    memory that admitted queries may collectively hold (a shared
    {!Governor.pool} attached to every admitted query's governor).

    The session's own state is domain-safe; the {e storage} underneath
    is not shared — each submitter runs against its own
    {!Dqep_storage.Database}.  Queue-deadline shedding is observed on
    wakeups (completions and other sheds broadcast), so a session whose
    queries carry no deadlines of their own should bound the queue with
    [max_queue] rather than rely on [queue_deadline] alone. *)

type shed_reason =
  | Queue_full  (** the bounded wait queue was full at submission *)
  | Queue_timeout  (** the submission waited past [queue_deadline] *)

val shed_reason_name : shed_reason -> string

type outcome =
  | Completed of Exec_common.tuple list * Executor.run_stats
  | Failed of Resilience.failure
      (** every in-flight error, including governor violations, as the
          supervisor's typed failure *)
  | Shed of shed_reason  (** rejected by admission; never started *)

type config = {
  max_inflight : int;
      (** admission slots — queries executing concurrently (default from
          [DQEP_MAX_INFLIGHT], else 4) *)
  max_queue : int;
      (** submissions allowed to wait for a slot; beyond it submissions
          are shed with {!Queue_full} (default 16) *)
  queue_deadline : float option;
      (** seconds a submission may wait before it is shed with
          {!Queue_timeout} (default none) *)
  memory_pool_bytes : int option;
      (** capacity of the session's shared memory pool; admitted
          queries' charges count against it in addition to their own
          budgets (default none) *)
  resilience : Resilience.config;
      (** supervisor configuration for every admitted query *)
  precheck : bool;
      (** statically reject admitted plans whose guaranteed working set
          ({!Dqep_analysis.Absint.guaranteed_bytes}) cannot fit the
          query's memory budget or the session pool — the outcome is
          [Failed (Rejected [DQEP503])] without executing anything
          (default [true]) *)
}

val config :
  ?max_inflight:int ->
  ?max_queue:int ->
  ?queue_deadline:float ->
  ?memory_pool_bytes:int ->
  ?resilience:Resilience.config ->
  ?precheck:bool ->
  unit ->
  config
(** @raise Invalid_argument on non-positive [max_inflight] or
    [memory_pool_bytes], or negative [max_queue]/[queue_deadline]. *)

type t

val create : ?config:config -> unit -> t

val memory_pool : t -> Governor.pool option

val obs : t -> Dqep_obs.Trace.t
(** The session-lifetime observation trace: lifecycle counters
    ([Submitted], [Admitted], [Completed], [Failed], [Shed_*]), the
    folded counter totals of every finished run, and peak gauges.
    {!stats} is a view over it. *)

val feedback : t -> Dqep_obs.Feedback.t
(** The session's observation cache: realized selectivity bindings and
    per-operator cardinalities deposited by every completed run. *)

val refined_env : t -> Dqep_cost.Env.t -> Dqep_cost.Env.t
(** Narrow an environment's selectivity priors by the session's observed
    bands ({!Dqep_cost.Env.refine} over
    {!Dqep_obs.Feedback.selectivity_bounds}) — the environment to hand
    the optimizer when re-optimizing within the session. *)

val submit :
  t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?resilience:Resilience.config ->
  ?clock:(unit -> float) ->
  Dqep_storage.Database.t ->
  Dqep_cost.Bindings.t ->
  Dqep_plans.Plan.t ->
  outcome
(** Wait for admission (FIFO), then run the plan under
    {!Resilience.run} with the caller's governor joined to the session's
    memory pool.  Blocks while queued; every submission gets exactly one
    outcome.  [gov] carries the query's own deadline/budgets and remains
    cancellable by the caller while the query is queued or running
    (a cancellation queued before admission surfaces as
    [Failed (Cancelled _)] on the first check).  [resilience] overrides
    the session's supervisor configuration for this one submission (the
    chaos harness mixes checkpoint and replan settings per query this
    way).  [clock] is the
    queue clock, injectable for tests.

    [obs] is this submission's run trace (a taps-enabled private trace
    when omitted): the supervisor records through it, and when the run
    completes its operator taps and the realized bindings are deposited
    into {!feedback}, with its counter deltas folded into {!obs}. *)

type stats = {
  submitted : int;
  admitted : int;
  completed : int;
  failed : int;  (** typed failures, including governor violations *)
  shed_queue_full : int;
  shed_queue_timeout : int;
  peak_inflight : int;
  peak_queued : int;
}

val stats : t -> stats
val inflight : t -> int
val queued : t -> int
