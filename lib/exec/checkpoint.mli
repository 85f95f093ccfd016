(** The registry of run-time observations: checkpointed intermediates at
    blocking boundaries and mid-query observations.

    The spilling cores ({!Exec_common}) fully materialize an input at a
    hash join's build completion and at a sort's output — the natural
    blocking points of the paper's operator tree.  {!take} captures
    those materializations, checked against the validity band the
    subplan was costed under; the observation step
    ({!Resilience.observe}, the paper's Section 7) {!file}s the result of
    a shared subplan it evaluated on purpose.  Both are the same
    entry: governor-accounted, durable until {!release}, and keyed by
    {!Dqep_plans.Plan.fingerprints}.

    One registry serves every recovery role of {!Resilience}:

    - {b fault detection}: {!take} raises {!Estimate_busted} when the
      observed cardinality at a blocking point escapes the plan's
      validity band — a busted estimate becomes a typed, recoverable
      fault instead of a silent cost-correctness failure;
    - {b re-decision}: {!overrides_for} hands the decision procedure the
      observed cardinality of every node an entry serves — an
      observation or a checkpoint;
    - {b splicing}: {!resume_for} matches entries to a plan's nodes by
      logical fingerprint, across re-plans and failovers, and hands back
      materialized inputs remapped into each node's schema;
    - {b retry-from-checkpoint}: a transient [Io_fault] retry of the
      {e same} plan resumes from the blocking points already passed,
      re-reading strictly fewer base pages than a cold restart. *)

exception
  Estimate_busted of {
    pid : int;  (** plan node whose observation escaped *)
    observed : int;  (** cardinality observed at the blocking point *)
    lo : float;  (** validity band lower bound *)
    hi : float;  (** validity band upper bound *)
  }
(** A tap observation at a checkpoint escaped the plan's validity range.
    Raised by {!take} at most once per logical fingerprint; the
    checkpoint itself is stored before raising, so recovery can splice
    over the work already done. *)

type t

val disabled : t
(** The inert registry: {!take} and {!file} store nothing, so
    {!resume_for} and {!overrides_for} answer [[]].  Every execution
    entry point defaults to it, so checkpointing is strictly opt-in. *)

val default_tolerance : float

val create :
  ?tolerance:float -> ?gov:Governor.t -> ?obs:Dqep_obs.Trace.t -> unit -> t
(** A live registry.  [tolerance] (default {!default_tolerance}) widens
    the validity band around the point estimate [e] to
    [\[e / tolerance, (e + 1) × tolerance\]]; must be [> 1].  Entry
    bytes are charged to [gov] until {!release}; takes, their bytes and
    resume hits are counted on [obs]. *)

val take :
  t ->
  Dqep_cost.Env.t ->
  Dqep_plans.Plan.t ->
  schema:Dqep_algebra.Schema.t ->
  Exec_common.tuple list ->
  unit
(** [take t env plan ~schema tuples] checkpoints the fully materialized
    [tuples] of [plan] (produced in [schema]'s column order) and checks
    their count against the validity band derived from [env].
    Idempotent per logical fingerprint.  A checkpoint that does not fit
    the governor's budget is skipped — materialization limits never fail
    the query.
    @raise Estimate_busted when [List.length tuples] escapes the band. *)

val file :
  t -> Dqep_plans.Plan.t -> schema:Dqep_algebra.Schema.t ->
  Exec_common.tuple list -> bool
(** [file t plan ~schema tuples] stores an observation of [plan]: the
    entry {!take} would store, with no band check and no take counted.
    Its observed cardinality is [List.length tuples].  Idempotent per
    logical fingerprint, and skipped when it does not fit the
    governor's budget.  Whether the registry holds an observation of
    [plan]'s fingerprint afterwards: [false] when the entry was refused
    (or the registry is {!disabled}). *)

val resume_for :
  t -> Dqep_storage.Database.t -> Dqep_plans.Plan.t -> (int * Exec_common.tuple list) list
(** Materialized inputs for every node of [plan] an entry can serve, as
    [(pid, tuples)] splices for the executor's [materialized] hook.  A
    node is served when its fingerprint equals the entry's and the
    stored columns can be remapped into its schema; tuples are remapped,
    and sorted ({!Exec_common.compare_on}) for an ordered node whose
    order the stored tuples lack.  [[]] without numbering the plan when
    the registry is empty. *)

val overrides_for :
  t -> Dqep_storage.Database.t -> Dqep_plans.Plan.t -> (int * float) list
(** Observed cardinalities, as startup-time overrides for
    [Startup.resolve] — re-decisions are made against reality, not the
    original priors.  Covers exactly the nodes {!resume_for} will serve:
    [Startup.resolve] keeps an overridden node's subtree verbatim on the
    contract that its materialized tuples are spliced in by pid, so an
    override must never outrun the splice. *)

val rels_observations : t -> (string * float) list
(** Every entry's observed cardinality keyed by its relation set
    ([rels_key]) — the currency of incremental re-optimization. *)

val entry_count : t -> int

val release : t -> unit
(** Roll every entry's bytes back out of the governor and drop the
    intermediates.  {!Resilience} calls this when its run ends, on both
    arms — entry bytes can never outlive the query. *)
