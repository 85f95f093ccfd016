(* Query sessions: admission control in front of the resilient executor.

   A session bounds what runs concurrently (admission slots), what waits
   (a bounded FIFO ticket queue with deadline shedding), and what the
   admitted queries may collectively hold (a shared Governor.pool every
   admitted query's charges count against).

   Concurrency model: session state is guarded by one mutex + condition;
   submitters on any number of domains take a ticket, wait FIFO for a
   slot, run, release.  Storage is NOT shared — a database serves one
   run at a time, so each submitter executes against its own Database;
   the session governs only admission and the global memory pool, which
   are domain-safe by construction.

   Waiters are only re-examined on wakeups (OCaml's Condition has no
   timed wait), so queue-deadline shedding is observed when a completion
   or another shed broadcasts.  Governed queries carry their own
   deadlines, so slots turn over and the queue drains; a session used
   without any per-query deadline should set max_queue instead.

   What a submission costs beyond its run is kept small, since every
   served request pays it: a run without a caller's trace records
   through its domain's reused run trace (zeroed, not created), its
   counts are folded into the session trace in one pass, and its
   bindings are filed into the feedback bands in place, under one lock
   hold. *)

module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter
module Feedback = Dqep_obs.Feedback
module Env = Dqep_cost.Env
module Bindings = Dqep_cost.Bindings
module Database = Dqep_storage.Database
module Analyses = Dqep_analysis.Analyses

type shed_reason = Queue_full | Queue_timeout

let shed_reason_name = function
  | Queue_full -> "queue_full"
  | Queue_timeout -> "queue_timeout"

(* Each shed reason has its own counter, so door sheds and
   queue-deadline sheds stay separately attributable in any tally built
   over the taxonomy. *)
let shed_counter = function
  | Queue_full -> Counter.Shed_queue_full
  | Queue_timeout -> Counter.Shed_queue_timeout

type outcome =
  | Completed of Exec_common.tuple list * Executor.run_stats * Resilience.stats
  | Failed of Resilience.failure
  | Shed of shed_reason

type config = {
  max_inflight : int;
  max_queue : int;
  queue_deadline : float option;
  memory_pool_bytes : int option;
  precheck : bool;
}

let config ?(max_inflight = 4) ?(max_queue = 16) ?queue_deadline
    ?memory_pool_bytes ?(precheck = true) () =
  if max_inflight < 1 then invalid_arg "Session.config: max_inflight < 1";
  if max_queue < 0 then invalid_arg "Session.config: max_queue < 0";
  (match queue_deadline with
  | Some d when d < 0. -> invalid_arg "Session.config: queue_deadline < 0"
  | Some _ | None -> ());
  (match memory_pool_bytes with
  | Some b when b <= 0 -> invalid_arg "Session.config: memory_pool_bytes <= 0"
  | Some _ | None -> ());
  { max_inflight; max_queue; queue_deadline; memory_pool_bytes; precheck }

type stats = {
  submitted : int;
  admitted : int;
  completed : int;
  failed : int;
  shed_queue_full : int;
  shed_queue_timeout : int;
  peak_inflight : int;
  peak_queued : int;
}

(* Lifecycle accounting lives on a session-lifetime trace ([stats] is a
   view over its counters), and completed runs deposit their realized
   parameter bindings into the session's observation cache, the raw
   material of {!refined_env}. *)
type t = {
  cfg : config;
  pool : Governor.pool option;
  obs : Trace.t;
  feedback : Feedback.t;
  mu : Mutex.t;
  cond : Condition.t;
  abandoned : (int, unit) Hashtbl.t;
  mutable inflight : int;
  mutable queued : int;
  mutable next_ticket : int;
  mutable serving : int;
  mutable peak_inflight : int;
  mutable peak_queued : int;
}

let create ?(config = config ()) () =
  { cfg = config;
    pool =
      Option.map
        (fun capacity_bytes -> Governor.pool ~capacity_bytes)
        config.memory_pool_bytes;
    obs = Trace.create ();
    feedback = Feedback.create ();
    mu = Mutex.create ();
    cond = Condition.create ();
    abandoned = Hashtbl.create 16;
    inflight = 0;
    queued = 0;
    next_ticket = 0;
    serving = 0;
    peak_inflight = 0;
    peak_queued = 0 }

let memory_pool t = t.pool
let obs t = t.obs
let feedback t = t.feedback

let refined_env t env =
  Env.refine_dists env ~selectivities:(Feedback.selectivity_dists t.feedback)

let stats t =
  Mutex.lock t.mu;
  let c = Trace.get t.obs in
  let s =
    { submitted = c Counter.Submitted;
      admitted = c Counter.Admitted;
      completed = c Counter.Completed;
      failed = c Counter.Failed;
      shed_queue_full = c Counter.Shed_queue_full;
      shed_queue_timeout = c Counter.Shed_queue_timeout;
      peak_inflight = t.peak_inflight;
      peak_queued = t.peak_queued }
  in
  Mutex.unlock t.mu;
  s

let inflight t =
  Mutex.lock t.mu;
  let n = t.inflight in
  Mutex.unlock t.mu;
  n

let queued t =
  Mutex.lock t.mu;
  let n = t.queued in
  Mutex.unlock t.mu;
  n

(* Skip tickets whose holders shed on queue deadline; call with mu held. *)
let advance t =
  while Hashtbl.mem t.abandoned t.serving do
    Hashtbl.remove t.abandoned t.serving;
    t.serving <- t.serving + 1
  done

let admit t ~clock =
  Mutex.lock t.mu;
  Trace.incr t.obs Counter.Submitted;
  if
    t.queued >= t.cfg.max_queue
    && (t.queued > 0 || t.inflight >= t.cfg.max_inflight)
  then begin
    (* The wait queue is full and this submission would have to wait
       (someone is queued ahead, or every slot is taken): shed at the
       door.  With [max_queue = 0] only immediately admissible
       submissions get in. *)
    Trace.incr t.obs (shed_counter Queue_full);
    Mutex.unlock t.mu;
    Error Queue_full
  end
  else begin
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    t.queued <- t.queued + 1;
    if t.queued > t.peak_queued then begin
      t.peak_queued <- t.queued;
      Trace.gauge t.obs "peak_queued" (float_of_int t.queued)
    end;
    let enqueued_at = clock () in
    let rec wait () =
      advance t;
      if t.serving = ticket && t.inflight < t.cfg.max_inflight then begin
        t.serving <- ticket + 1;
        t.queued <- t.queued - 1;
        t.inflight <- t.inflight + 1;
        if t.inflight > t.peak_inflight then begin
          t.peak_inflight <- t.inflight;
          Trace.gauge t.obs "peak_inflight" (float_of_int t.inflight)
        end;
        Trace.incr t.obs Counter.Admitted;
        (* The ticket behind may be admissible too (several free slots). *)
        Condition.broadcast t.cond;
        Mutex.unlock t.mu;
        Ok ()
      end
      else
        match t.cfg.queue_deadline with
        | Some d when clock () -. enqueued_at >= d ->
          t.queued <- t.queued - 1;
          Trace.incr t.obs (shed_counter Queue_timeout);
          if t.serving = ticket then t.serving <- ticket + 1
          else Hashtbl.replace t.abandoned ticket ();
          advance t;
          Condition.broadcast t.cond;
          Mutex.unlock t.mu;
          Error Queue_timeout
        | _ ->
          Condition.wait t.cond t.mu;
          wait ()
    in
    wait ()
  end

let release t ~outcome =
  Mutex.lock t.mu;
  t.inflight <- t.inflight - 1;
  (match outcome with
  | `Completed -> Trace.incr t.obs Counter.Completed
  | `Failed -> Trace.incr t.obs Counter.Failed);
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

(* Deposit what a completed run measured into the observation cache: the
   realized parameter bindings, each an exact observation of its
   variable.  Operator cardinalities are not filed: nothing reads them. *)
let record_feedback t (bindings : Bindings.t) =
  Feedback.observe_selectivities t.feedback bindings.Bindings.selectivities

(* One run trace per domain, without taps or sink, reused by every
   submission on that domain that brings no trace of its own: creating
   one (37 atomics, a mutex, two tables) per request cost as much as a
   small run's resolution.  A submission takes the trace out of its
   domain's slot for the whole run and gives it back after the fold, so
   a run on another domain, or a submission nested inside this run,
   never records into it; the slot is then empty and such a submission
   creates its own.  [Trace.null] marks the empty slot. *)
let run_trace_slot = Domain.DLS.new_key (fun () -> ref Trace.null)

let take_run_trace () =
  let slot = Domain.DLS.get run_trace_slot in
  let tr = !slot in
  if tr == Trace.null then Trace.create ()
  else begin
    slot := Trace.null;
    Trace.reset tr;
    tr
  end

let give_back_run_trace tr = Domain.DLS.get run_trace_slot := tr

let submit t ?(gov = Governor.none) ?obs ?(resilience = Resilience.default)
    ?(clock = Unix.gettimeofday) db bindings plan =
  match admit t ~clock with
  | Error reason -> Shed reason
  | Ok () ->
    let gov =
      match t.pool with Some p -> Governor.with_pool gov p | None -> gov
    in
    (* Static admission precheck: a plan whose guaranteed working set
       cannot fit the memory budget would burn its slot only to abort
       with Memory_exceeded; reject it at the door with a diagnostic
       instead.  The budget is the tighter of the query's own grant and
       the shared pool's capacity (a charge must fit both). *)
    let static_rejection =
      if not t.cfg.precheck then None
      else begin
        let budget =
          match (Governor.memory_budget gov, t.pool) with
          | Some b, Some p -> Some (Int.min b p.Governor.capacity)
          | Some b, None -> Some b
          | None, Some p -> Some p.Governor.capacity
          | None, None -> None
        in
        match budget with
        | None -> None
        | Some budget_bytes ->
          let env = Env.of_bindings (Database.catalog db) bindings in
          let floor = Dqep_analysis.Absint.guaranteed_bytes env ~budget_bytes plan in
          if floor > budget_bytes then
            Some
              (Analyses.budget_check env ~budget_bytes plan)
          else None
      end
    in
    (* The run records through the caller's trace when one was supplied,
       else through this domain's run trace, zeroed.  Only a supplied
       trace can hold counts from before this run, so only it is
       snapshotted; the run's counter deltas are folded into the session
       trace when it finishes. *)
    let rt, since, owned =
      match obs with
      | Some tr when Trace.enabled tr -> (tr, Some (Trace.snapshot tr), false)
      | Some _ | None -> (take_run_trace (), None, true)
    in
    let fold_counters () =
      Trace.fold_counts ~into:t.obs ?since rt;
      if owned then give_back_run_trace rt
    in
    let outcome =
      match static_rejection with
      | Some diags ->
        Trace.incr t.obs Counter.Rejected_precheck;
        Failed (Resilience.Rejected diags)
      | None ->
      match Resilience.run ~config:resilience ~gov ~obs:rt db bindings plan with
      | Ok (tuples, run), stats -> Completed (tuples, run, stats)
      | Error failure, _ -> Failed failure
      | exception e ->
        (* Resilience.run types every expected error; anything else is a
           bug, but the slot must still be released. *)
        fold_counters ();
        release t ~outcome:`Failed;
        raise e
    in
    fold_counters ();
    (match outcome with
    | Completed _ ->
      record_feedback t bindings;
      release t ~outcome:`Completed
    | Failed _ | Shed _ -> release t ~outcome:`Failed);
    outcome
