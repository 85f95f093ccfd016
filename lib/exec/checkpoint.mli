(** Checkpointed intermediates at blocking boundaries.

    The spilling cores ({!Exec_common}) fully materialize an input at a
    hash join's build completion and at a sort's output — the natural
    blocking points of the paper's operator tree.  A checkpoint registry
    captures those materializations into governor-accounted,
    durable-until-{!release} state, stamped with the validity band the
    subplan was costed under.

    The registry serves three recovery roles for {!Resilience}:

    - {b fault detection}: {!take} raises {!Estimate_busted} when the
      observed cardinality at a blocking point escapes the plan's
      validity band — a busted estimate becomes a typed, recoverable
      fault instead of a silent cost-correctness failure;
    - {b re-plan splicing}: after an incremental re-optimization,
      {!resume_for} matches checkpoints to the new plan's nodes by
      logical fingerprint (relation set + selection predicates) and
      hands back materialized inputs, remapped into each node's schema;
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
(** The inert registry: {!take} and {!resume_for} are no-ops.  Every
    execution entry point defaults to it, so checkpointing is strictly
    opt-in. *)

val default_tolerance : float

val create :
  ?tolerance:float -> ?gov:Governor.t -> ?obs:Dqep_obs.Trace.t -> unit -> t
(** A live registry.  [tolerance] (default {!default_tolerance}) widens
    the validity band around the point estimate [e] to
    [\[e / tolerance, (e + 1) × tolerance\]]; must be [> 1].  Checkpoint
    bytes are charged to [gov] until {!release}; takes, bytes and resume
    hits are counted on [obs]. *)

val enabled : t -> bool

val fingerprint : Dqep_plans.Plan.t -> string
(** The logical fingerprint entries are keyed by: relation set plus the
    deduplicated selection predicates applied anywhere in the subtree
    (alternative-invariant across one logical group).  Mirrored by
    [Dqep_analysis.Analyses.fingerprint] — the analysis layer cannot
    depend on this one — and held in lockstep by a differential test. *)

val take :
  t ->
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  Dqep_plans.Plan.t ->
  schema:Dqep_algebra.Schema.t ->
  Exec_common.tuple list ->
  unit
(** [take t db env plan ~schema tuples] checkpoints the fully
    materialized [tuples] of [plan] (produced in [schema]'s column
    order), stamped with the validity band derived from [env].
    Idempotent per logical fingerprint.  A checkpoint that does not fit
    the governor's budget is skipped — materialization limits never fail
    the query.
    @raise Estimate_busted when [List.length tuples] escapes the band. *)

val resume_for :
  t -> Dqep_storage.Database.t -> Dqep_plans.Plan.t -> (int * Exec_common.tuple list) list
(** Materialized inputs for every node of [plan] a checkpoint can serve,
    as [(pid, tuples)] splices for the executor's [materialized] hook.
    Matching is by logical fingerprint; tuples are remapped into the
    node's schema, and an ordered node is served only when the stored
    sort order satisfies it. *)

val overrides_for :
  t -> Dqep_storage.Database.t -> Dqep_plans.Plan.t -> (int * float) list
(** Observed cardinalities, as startup-time overrides for
    [Startup.resolve] — re-decisions are made against reality, not the
    original priors.  Covers exactly the nodes {!resume_for} will serve:
    [Startup.resolve] keeps an overridden node's subtree verbatim on the
    contract that its materialized tuples are spliced in by pid, so an
    override must never outrun the splice. *)

val rels_observations : t -> (string * float) list
(** Every checkpoint's observed cardinality keyed by its relation set
    ([rels_key]) — the currency of incremental re-optimization. *)

val entry_count : t -> int

val charged_bytes : t -> int
(** Bytes currently held against the governor (0 after {!release}). *)

val release : t -> unit
(** Roll every checkpoint's bytes back out of the governor and drop the
    intermediates.  {!Resilience} calls this when the supervised run
    ends, on both arms — checkpoint bytes can never outlive the query. *)
