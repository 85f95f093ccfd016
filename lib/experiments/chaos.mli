(** Multi-domain chaos/soak harness for resource-governed sessions.

    Worker domains submit seeded query jobs — a mix of clean runs,
    deadlines, deterministic cancellations, tight memory
    budgets and injected I/O faults, sequential and through the
    parallel exchange — through one shared {!Dqep_exec.Session}.  The
    harness checks the governed-session contract: every job gets exactly
    one typed outcome ({!tally.escaped} empty), no outcome leaks a
    buffer-pool pin ({!tally.leaks} empty) or a spill page (its disk
    has as many live pages as after its build: {!tally.spill_leaks}
    empty), and no job of any scenario
    ends with memory-governor bytes still charged
    ({!tally.checkpoint_leaks} empty) — the busted and faulty-resume
    scenarios run with checkpointed recovery enabled, and every
    scenario's failovers file their observation in the same registry.  Hang-freedom is the caller's
    watchdog's job.

    Deterministic in [seed] up to domain scheduling: the job set is
    fixed, but which outcomes race to completion (shedding, pool
    pressure) varies with interleaving — the contract holds for all of
    them.  At one worker nothing races, and two runs on the same seed
    give the same tally. *)

type scenario = Clean | Deadline | Cancel | Memory | Faulty | Busted | Faulty_resume

type tally = {
  total : int;
  completed : int;
  deadline_exceeded : int;
  memory_exceeded : int;
  cancelled : int;
  shed_queue_full : int;  (** shed at the door (full wait queue) *)
  shed_queue_timeout : int;  (** shed after waiting past the queue deadline *)
  exhausted : int;
  other_failures : int;  (** Infeasible/Rejected — expected to stay 0 *)
  failovers : int;  (** across completed jobs *)
  memory_aborts_recovered : int;
      (** memory-scenario jobs that completed via failover *)
  estimate_busted : int;
      (** jobs whose final outcome was the typed busted-estimate fault *)
  replans : int;  (** incremental re-optimizations across completed jobs *)
  replans_recovered : int;
      (** busted-scenario jobs that completed after at least one replan *)
  leaks : string list;  (** pin-leak reports; the contract demands [] *)
  spill_leaks : string list;
      (** jobs whose disk has more or fewer live pages
          ({!Dqep_storage.Buffer_pool.live_pages}) after the outcome
          than after the build; must be [] *)
  checkpoint_leaks : string list;
      (** bytes still charged to a job's governor after its outcome,
          every scenario; must be [] *)
  escaped : string list;  (** exceptions escaping submit; must be [] *)
  session : Dqep_exec.Session.stats;
}

val pp_tally : Format.formatter -> tally -> unit

val run :
  ?workers:int ->
  ?jobs:int ->
  ?seed:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?pool_bytes:int ->
  ?deadline_s:float ->
  unit ->
  tally
(** Defaults: 4 worker domains, 32 jobs, seed 1, 3 admission slots,
    queue bound 64, a 1 MiB shared memory pool, 3 ms deadlines.  A
    deadline is measured on a per-job clock that advances 0.5 ms each
    time the governor reads it (once per 32 checks), not on the wall
    clock.  Blocks until every job has its outcome. *)

(** {1 The serving-layer fault storm}

    Client domains hammer a {!Dqep_serve.Server} over the paper catalog
    with a fixed set of query shapes — one of which is {e poisoned}:
    every database the server borrows for it runs on dead storage
    (permanent faults on all I/O).  Another is {e drifted}: the
    databases it borrows lack an index its cached plan uses, while the
    server's catalog still has it.  The storm mixes millisecond
    deadlines and admission overload into the same request stream.

    The serving contract under the storm: every request line gets
    exactly one typed response ({!serve_tally.untyped} empty, no
    [class=internal] errors), no database leaks a buffer-pool pin or a
    spill page, the
    session memory pool drains to zero, the poisoned shape trips its
    breaker, the healthy shapes keep completing, and the drifted shape
    completes on a pruned plan or ends [infeasible], never [rejected]. *)

type serve_tally = {
  requests : int;
  ok : int;
  cache_hits_served : int;  (** OK responses answered from the plan cache *)
  failed_typed : int;  (** ERR with a typed in-flight failure class *)
  client_errors : int;  (** ERR with a request-side class; expected 0 *)
  shed_queue_full : int;
  shed_queue_timeout : int;
  shed_breaker_open : int;
  poisoned_trips : int;  (** breaker trips of the poisoned shape *)
  poisoned_ok : int;  (** poisoned-shape requests that completed anyway *)
  healthy_ok : int;  (** completions across the healthy shapes *)
  drifted_ok : int;  (** drifted-shape requests completed on a pruned plan *)
  drifted_infeasible : int;  (** drifted-shape requests ended [infeasible] *)
  drifted_rejected : int;  (** drifted-shape verifier rejections; must be 0 *)
  untyped : string list;  (** unparseable/blank responses; must be [] *)
  internal_errors : string list;  (** class=internal details; must be [] *)
  leaks : string list;  (** buffer-pool pin leaks across every db; must be [] *)
  spill_leaks : string list;
      (** dbs with more or fewer live pages than after their build;
          must be [] *)
  pool_leak_bytes : int;  (** session memory pool bytes after drain; must be 0 *)
  server : Dqep_serve.Server.stats;
}

val pp_serve_tally : Format.formatter -> serve_tally -> unit

val serve_soak :
  ?clients:int ->
  ?requests:int ->
  ?seed:int ->
  ?max_inflight:int ->
  ?max_queue:int ->
  ?relations:int ->
  unit ->
  serve_tally
(** Defaults: 4 client domains, 256 requests, seed 1, 3 admission
    slots, queue bound 4 (8+ clients overload it, exercising door
    sheds), 3 relations (= 3 chain shapes, shape 0 poisoned, plus the
    drifted shape).  Blocks until every request has its response. *)
