(* Query sessions: admission control in front of the resilient executor.

   A session bounds what runs concurrently (admission slots), what waits
   (a bounded FIFO ticket queue with deadline shedding), and what the
   admitted queries may collectively hold (a shared Governor.pool every
   admitted query's charges count against).

   Concurrency model: session state is guarded by one mutex + condition;
   submitters on any number of domains take a ticket, wait FIFO for a
   slot, run, release.  Storage is NOT shared — each submitter executes
   against its own Database (the executor is not thread-safe across
   concurrent executions); the session governs only admission and the
   global memory pool, which are domain-safe by construction.

   Waiters are only re-examined on wakeups (OCaml's Condition has no
   timed wait), so queue-deadline shedding is observed when a completion
   or another shed broadcasts.  Governed queries carry their own
   deadlines, so slots turn over and the queue drains; a session used
   without any per-query deadline should set max_queue instead. *)

module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter
module Feedback = Dqep_obs.Feedback
module Env = Dqep_cost.Env
module Bindings = Dqep_cost.Bindings
module Plan = Dqep_plans.Plan
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
  | Completed of Exec_common.tuple list * Executor.run_stats
  | Failed of Resilience.failure
  | Shed of shed_reason

type config = {
  max_inflight : int;
  max_queue : int;
  queue_deadline : float option;
  memory_pool_bytes : int option;
  resilience : Resilience.config;
  precheck : bool;
}

let default_max_inflight () =
  match Option.bind (Sys.getenv_opt "DQEP_MAX_INFLIGHT") int_of_string_opt with
  | Some n when n >= 1 -> n
  | Some _ | None -> 4

let config ?max_inflight ?(max_queue = 16) ?queue_deadline ?memory_pool_bytes
    ?(resilience = Resilience.default) ?(precheck = true) () =
  let max_inflight =
    match max_inflight with Some n -> n | None -> default_max_inflight ()
  in
  if max_inflight < 1 then invalid_arg "Session.config: max_inflight < 1";
  if max_queue < 0 then invalid_arg "Session.config: max_queue < 0";
  (match queue_deadline with
  | Some d when d < 0. -> invalid_arg "Session.config: queue_deadline < 0"
  | Some _ | None -> ());
  (match memory_pool_bytes with
  | Some b when b <= 0 -> invalid_arg "Session.config: memory_pool_bytes <= 0"
  | Some _ | None -> ());
  { max_inflight; max_queue; queue_deadline; memory_pool_bytes; resilience;
    precheck }

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
   view over its counters), and completed runs deposit what they measured
   — realized parameter bindings, per-operator cardinalities — into the
   session's observation cache, the raw material of {!refined_env}. *)
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

(* Histogram-shaped refinement: the hull of every feedback histogram is
   the band [selectivity_bounds] used to report, so interval consumers
   of the refined env see exactly the pre-histogram narrowing, while
   ranked-risk optimization additionally learns where inside each band
   the realized selectivities concentrate. *)
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
   realized parameter bindings (a bound selectivity is an exact
   observation of its variable) and every tapped operator's cardinality,
   keyed by relation set so a later query's node over the same relations
   finds it. *)
let record_feedback t rt (bindings : Bindings.t) resolved_plan =
  List.iter
    (fun (var, v) -> Feedback.observe_selectivity t.feedback var v)
    bindings.Bindings.selectivities;
  let nodes = Hashtbl.create 32 in
  Plan.iter (fun node -> Hashtbl.replace nodes node.Plan.pid node) resolved_plan;
  List.iter
    (fun (pid, _op, rows, _batches) ->
      match Hashtbl.find_opt nodes pid with
      | Some node -> Feedback.observe_rows t.feedback ~key:(Plan.rels_key node) rows
      | None -> ())
    (Trace.taps rt)

(* Fold a finished run's counter deltas into the session-lifetime trace. *)
let fold_counters t rt ~base =
  List.iter
    (fun c ->
      let d = Trace.get rt c - base c in
      if d <> 0 then Trace.add t.obs c d)
    Counter.all

let submit t ?(gov = Governor.none) ?obs ?resilience
    ?(clock = Unix.gettimeofday) db bindings plan =
  match admit t ~clock with
  | Error reason -> Shed reason
  | Ok () ->
    let gov =
      match t.pool with Some p -> Governor.with_pool gov p | None -> gov
    in
    let rconfig = Option.value resilience ~default:t.cfg.resilience in
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
    (* Every admitted query runs under a taps-enabled trace (the caller's
       when one was supplied), so its operator cardinalities can feed the
       observation cache; its counters are folded into the session trace
       when it finishes. *)
    let rt =
      match obs with
      | Some tr when Trace.enabled tr -> tr
      | Some _ | None -> Trace.create ~taps:true ()
    in
    let base =
      let snap = List.map (fun c -> (c, Trace.get rt c)) Counter.all in
      fun c -> List.assoc c snap
    in
    let outcome =
      match static_rejection with
      | Some diags ->
        Trace.incr t.obs Counter.Rejected_precheck;
        Failed (Resilience.Rejected diags)
      | None ->
      match Resilience.run ~config:rconfig ~gov ~obs:rt db bindings plan with
      | Ok (tuples, stats), _ -> Completed (tuples, stats)
      | Error failure, _ -> Failed failure
      | exception e ->
        (* Resilience.run types every expected error; anything else is a
           bug, but the slot must still be released. *)
        fold_counters t rt ~base;
        release t ~outcome:`Failed;
        raise e
    in
    fold_counters t rt ~base;
    (match outcome with
    | Completed (_, stats) ->
      record_feedback t rt bindings stats.Executor.resolved_plan;
      release t ~outcome:`Completed
    | Failed _ | Shed _ -> release t ~outcome:`Failed);
    outcome
