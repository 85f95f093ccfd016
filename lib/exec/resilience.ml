module Env = Dqep_cost.Env
module Device = Dqep_cost.Device
module Interval = Dqep_util.Interval
module Rng = Dqep_util.Rng
module Physical = Dqep_algebra.Physical
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Fault = Dqep_storage.Fault
module Timer = Dqep_util.Timer
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type config = {
  max_retries : int;
  backoff_base : float;
  backoff_cap : float;
  backoff_seed : int;
  io_budget_factor : float option;
  max_failovers : int;
  checkpoints : bool;
  checkpoint_tolerance : float;
  max_replans : int;
  replan : (rels_rows:(string * float) list -> Dqep_plans.Plan.t option) option;
  risk : Dqep_cost.Risk.t;
}

(* Checkpointing is strictly opt-in (per config or DQEP_CHECKPOINTS=1):
   with it off, the supervisor behaves exactly as before this layer
   existed. *)
let default_checkpoints () =
  match Sys.getenv_opt "DQEP_CHECKPOINTS" with
  | Some ("1" | "true" | "on") -> true
  | Some _ | None -> false

let config ?(max_retries = 2) ?(backoff_base = 0.01) ?(backoff_cap = 1.)
    ?(backoff_seed = 0x5eed) ?io_budget_factor ?(max_failovers = 8)
    ?checkpoints
    ?(checkpoint_tolerance = Checkpoint.default_tolerance) ?(max_replans = 2)
    ?replan ?(risk = Dqep_cost.Risk.Expected) () =
  if max_retries < 0 then invalid_arg "Resilience.config: max_retries < 0";
  if backoff_cap <= 0. then invalid_arg "Resilience.config: backoff_cap <= 0";
  if max_failovers < 0 then invalid_arg "Resilience.config: max_failovers < 0";
  if max_replans < 0 then invalid_arg "Resilience.config: max_replans < 0";
  if checkpoint_tolerance <= 1. then
    invalid_arg "Resilience.config: checkpoint_tolerance <= 1";
  let checkpoints =
    match checkpoints with Some c -> c | None -> default_checkpoints ()
  in
  { max_retries; backoff_base; backoff_cap; backoff_seed; io_budget_factor;
    max_failovers; checkpoints; checkpoint_tolerance;
    max_replans; replan; risk }

let default = config ()

(* The modeled full-jitter delay before retry [attempt]: uniform over
   [0, min (backoff_base * 2^attempt) backoff_cap).  Capping keeps late
   retries from modeling unbounded waits — without it the exponential
   envelope grows without limit in the attempt number. *)
let backoff_delay config rng ~attempt =
  if attempt < 0 then invalid_arg "Resilience.backoff_delay: attempt < 0";
  let bound =
    Float.min config.backoff_cap
      (config.backoff_base *. (2. ** float_of_int attempt))
  in
  Rng.uniform rng 0. bound

type failure =
  | Infeasible of Dqep_util.Diagnostic.t list
  | Rejected of Dqep_util.Diagnostic.t list
  | Exhausted of { excluded : int list; last_error : exn }
  | Deadline_exceeded of { elapsed : float; budget : float }
  | Memory_exceeded of { budget : int; in_use : int; requested : int }
  | Cancelled of string
  | Estimate_busted of { pid : int; observed : int; lo : float; hi : float }

let pp_failure ppf = function
  | Infeasible diags ->
    Format.fprintf ppf "@[<hov 2>infeasible:@ %a@]"
      Dqep_util.Diagnostic.pp_list diags
  | Rejected diags ->
    Format.fprintf ppf "@[<hov 2>rejected by the plan verifier:@ %a@]"
      Dqep_util.Diagnostic.pp_list diags
  | Exhausted { excluded; last_error } ->
    Format.fprintf ppf
      "@[<hov 2>exhausted after excluding alternatives [%a]:@ %s@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         Format.pp_print_int)
      excluded
      (Printexc.to_string last_error)
  | Deadline_exceeded { elapsed; budget } ->
    Format.fprintf ppf "deadline exceeded: %.3fs elapsed of %.3fs budget"
      elapsed budget
  | Memory_exceeded { budget; in_use; requested } ->
    Format.fprintf ppf
      "memory budget exceeded: %d bytes requested with %d in use of %d budget"
      requested in_use budget
  | Cancelled reason -> Format.fprintf ppf "cancelled: %s" reason
  | Estimate_busted { pid; observed; lo; hi } ->
    Format.fprintf ppf
      "estimate busted at plan node %d: observed %d rows outside validity \
       band [%.1f, %.1f] and no re-plan recovery available"
      pid observed lo hi

type stats = {
  retries : int;
  faults_absorbed : int;
  budget_aborts : int;
  memory_aborts : int;
  failovers : int;
  backoff_seconds : float;
  attempts : int;
  replans : int;
  checkpoints_taken : int;
  resume_hits : int;
}

(* The budget is stated in cost units (the cost model's seconds); the
   pool counts page I/Os.  Convert via the device's sequential page cost
   and keep a floor so tiny plans are not aborted by rounding. *)
let budget_pages env ~factor ~anticipated_cost =
  if factor <= 0. then None
  else begin
    let d = Env.device env in
    let pages = factor *. anticipated_cost /. d.Device.seq_page_io in
    Some (Int.max 16 (int_of_float (Float.ceil pages)))
  end

(* [holds_working_set plan pid]: whether [plan]'s node [pid] holds a
   working set anywhere in its subtree — a hash join's build, a merge
   join's right side or a sort, the operators that charge the governor's
   memory budget.  A pid foreign to [plan] is assumed to. *)
let holds_working_set plan =
  let dag = Plan.Dag.of_plan plan in
  let holds = Array.make dag.Plan.Dag.length false in
  for i = 0 to dag.Plan.Dag.length - 1 do
    holds.(i) <-
      (match dag.Plan.Dag.nodes.(i).Plan.op with
      | Physical.Hash_join _ | Physical.Merge_join _ | Physical.Sort _ -> true
      | Physical.File_scan _ | Physical.Btree_scan _
      | Physical.Filter_btree_scan _ | Physical.Filter _
      | Physical.Index_join _ | Physical.Choose_plan ->
        false)
      || List.exists (Array.get holds) (Plan.Dag.inputs dag i)
  done;
  fun pid ->
    match Plan.Dag.find dag pid with Some i -> holds.(i) | None -> true

let run ?(config = default) ?(gov = Governor.none) ?(obs = Trace.null) db
    bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let pool = Database.pool db in
  let rng = Rng.create config.backoff_seed in
  (* The supervisor's counters live on a trace — the caller's when one
     was supplied, a private one otherwise — and [stats] is a view over
     the trace's deltas from the start of this run, so a session-lifetime
     trace can aggregate many runs while each run still reports its own
     window.  Backoff is the one float, kept as a ref and exported as a
     gauge. *)
  let rt = if Trace.enabled obs then obs else Trace.create () in
  let c0 c = Trace.get rt c in
  let base_retries = c0 Counter.Retries in
  let base_faults = c0 Counter.Faults_absorbed in
  let base_budget = c0 Counter.Budget_aborts in
  let base_memory = c0 Counter.Memory_aborts in
  let base_failovers = c0 Counter.Failovers in
  let base_attempts = c0 Counter.Attempts in
  let base_replans = c0 Counter.Replans in
  let base_checkpoints = c0 Counter.Checkpoints_taken in
  let base_resumes = c0 Counter.Resume_hits in
  let backoff = ref 0. in
  let snapshot () =
    if !backoff > 0. then Trace.gauge rt "backoff_seconds" !backoff;
    { retries = Trace.get rt Counter.Retries - base_retries;
      faults_absorbed = Trace.get rt Counter.Faults_absorbed - base_faults;
      budget_aborts = Trace.get rt Counter.Budget_aborts - base_budget;
      memory_aborts = Trace.get rt Counter.Memory_aborts - base_memory;
      failovers = Trace.get rt Counter.Failovers - base_failovers;
      backoff_seconds = !backoff;
      attempts = Trace.get rt Counter.Attempts - base_attempts;
      replans = Trace.get rt Counter.Replans - base_replans;
      checkpoints_taken =
        Trace.get rt Counter.Checkpoints_taken - base_checkpoints;
      resume_hits = Trace.get rt Counter.Resume_hits - base_resumes }
  in
  match Executor.check_feasible db env plan with
  | exception Executor.Infeasible problems ->
    (Error (Infeasible problems), snapshot ())
  | exception Executor.Invalid_plan diags ->
    (Error (Rejected diags), snapshot ())
  | plan ->
    let factor =
      match config.io_budget_factor with
      | Some f -> f
      | None -> Env.io_budget_factor env
    in
    let excluded = ref [] in
    let failover_observed = ref false in
    (* One registry spans the whole supervised run: checkpoints taken by
       a failed attempt and the failover observation are what the next
       attempt — same plan or replanned — resumes from.  Attempts take
       checkpoints at blocking points only when [config.checkpoints] is
       on. *)
    let registry =
      Checkpoint.create ~tolerance:config.checkpoint_tolerance ~gov ~obs:rt ()
    in
    let takes = if config.checkpoints then registry else Checkpoint.disabled in
    (* The plan the remaining attempts resolve; an incremental re-plan
       after a busted estimate swaps it wholesale. *)
    let current_plan = ref plan in
    (* The environment the remaining attempts resolve and execute under.
       A memory-budget abort lowers its grant (and the buffer pool with
       it), so the decision procedure prefers a lower-memory alternative
       on failover — graceful degradation through plan choice. *)
    let mem_env = ref env in
    let lower_memory () =
      let current = Executor.memory_pages !mem_env in
      let lowered = Int.max 2 (current / 2) in
      if lowered < current then begin
        mem_env :=
          Env.with_memory_pages !mem_env (Interval.point (float_of_int lowered));
        (* The attempt that aborted has unwound, so nothing is pinned and
           its I/O limit is about to be re-armed; resize under no limit. *)
        Buffer_pool.set_io_limit pool None;
        Buffer_pool.resize pool lowered
      end
    in
    (* Best-effort: re-deciding with observed cardinalities is an
       optimization of the failover, never a reason to fail it.  The
       observation runs under the same governor — a deadline or
       cancellation during it still ends the whole run (propagated and
       mapped to its typed failure below); a memory violation merely
       skips the observation. *)
    let try_observe () =
      (* Observe the plan the next resolution will actually use: after a
         re-plan, [plan] is the abandoned plan, and a subplan observed
         there may not occur in the new one at all. *)
      if not !failover_observed then begin
        failover_observed := true;
        match Midquery.shared_subplan !current_plan with
        | None -> ()
        | Some sub -> (
          match
            Trace.span rt "observe" (fun () ->
                Midquery.observe db !mem_env ~gov ~obs:rt registry ~sub)
          with
          | _ -> ()
          | exception
              ( Fault.Io_fault _ | Buffer_pool.Io_budget_exceeded _
              | Governor.Memory_exceeded _ ) ->
            ())
      end
    in
    let exhausted last_error =
      (* A memory violation that survives to the end (no alternative
         left, or none that fits) is its own typed outcome, not a generic
         exhaustion: callers triage it differently (grant more memory vs
         give up). *)
      match last_error with
      | Governor.Memory_exceeded { budget; in_use; requested } ->
        Error (Memory_exceeded { budget; in_use; requested })
      | _ -> Error (Exhausted { excluded = !excluded; last_error })
    in
    let rec attempt (resolution : Startup.resolution) attempt_no =
      let before = Buffer_pool.stats pool in
      Buffer_pool.set_io_limit pool
        (Option.map
           (fun pages ->
             before.Buffer_pool.physical_reads
             + before.Buffer_pool.physical_writes + pages)
           (budget_pages !mem_env ~factor
              ~anticipated_cost:resolution.Startup.anticipated_cost));
      Trace.incr rt Counter.Attempts;
      (* Blocking points already passed and observed subplans are served
         from the registry: a retry, failover or replanned attempt
         re-reads strictly fewer base pages than a cold restart. *)
      let resume = Checkpoint.resume_for registry db resolution.Startup.plan in
      match
        Timer.cpu (fun () ->
          Trace.span rt "attempt" (fun () ->
            Executor.execute db !mem_env ~gov ~obs:rt ~materialized:resume
              ~checkpoint:takes resolution.Startup.plan))
      with
      | (tuples, profile), cpu_seconds ->
        let after = Buffer_pool.stats pool in
        Ok
          ( tuples,
            { Executor.tuples = List.length tuples;
              io = Buffer_pool.diff ~before ~after;
              cpu_seconds;
              resolved_plan = resolution.Startup.plan;
              choose_nodes = resolution.Startup.choose_nodes;
              retries = Trace.get rt Counter.Retries - base_retries;
              faults_absorbed =
                Trace.get rt Counter.Faults_absorbed - base_faults;
              budget_aborts = Trace.get rt Counter.Budget_aborts - base_budget;
              failovers = Trace.get rt Counter.Failovers - base_failovers;
              replans = Trace.get rt Counter.Replans - base_replans;
              exec = profile } )
      | exception Fault.Io_fault { kind = Fault.Transient; _ }
        when attempt_no < config.max_retries ->
        Trace.incr rt Counter.Retries;
        Trace.incr rt Counter.Faults_absorbed;
        (* Full-jitter exponential backoff, modeled rather than slept:
           the delay before retry [n] is uniform over
           [0, min (backoff_base * 2^n) backoff_cap), drawn from a
           generator seeded by the config so reruns reproduce the exact
           schedule. *)
        backoff := !backoff +. backoff_delay config rng ~attempt:attempt_no;
        attempt resolution (attempt_no + 1)
      | exception (Fault.Io_fault _ as error) ->
        Trace.incr rt Counter.Faults_absorbed;
        fail_over resolution error
      | exception (Buffer_pool.Io_budget_exceeded _ as error) ->
        Trace.incr rt Counter.Budget_aborts;
        fail_over resolution error
      | exception (Governor.Memory_exceeded _ as error) ->
        (* Spilling already degraded as far as the budget allowed; the
           chosen alternative simply needs more memory than granted.
           Lower the grant and fail over — the re-resolution prefers an
           alternative whose working set fits. *)
        Trace.incr rt Counter.Memory_aborts;
        lower_memory ();
        fail_over resolution error
      | exception Checkpoint.Estimate_busted { pid; observed; lo; hi } ->
        replan_or_fail ~pid ~observed ~lo ~hi
    (* A busted estimate is recoverable when the caller supplied a
       re-planner and the replan budget is not spent: re-enter the
       optimizer with the observed cardinalities, then resume — the next
       attempt splices every checkpointed intermediate the new plan can
       still use.  Without recovery it is a typed failure of its own,
       never a silent mis-costed completion. *)
    and replan_or_fail ~pid ~observed ~lo ~hi =
      let fail () = Error (Estimate_busted { pid; observed; lo; hi }) in
      let budget_left =
        Trace.get rt Counter.Replans - base_replans < config.max_replans
      in
      match config.replan with
      | Some replan when budget_left -> (
        match
          Trace.span rt "replan" (fun () ->
              replan ~rels_rows:(Checkpoint.rels_observations registry))
        with
        | Some new_plan -> (
          match Executor.check_feasible db !mem_env new_plan with
          | new_plan ->
            Trace.incr rt Counter.Replans;
            current_plan := new_plan;
            (* The abandoned plan's exclusions go with it: they name
               alternatives that failed there, while the new plan was
               costed from the observed cardinalities and is resolved
               afresh.  Observations stay in the registry, whose splices
               and overrides are fingerprint-matched against the new
               plan. *)
            excluded := [];
            failover_observed := false;
            resolve_and_attempt ()
          | exception (Executor.Infeasible _ | Executor.Invalid_plan _) ->
            fail ())
        | None -> fail ()
        | exception
            ( Fault.Io_fault _ | Buffer_pool.Io_budget_exceeded _
            | Governor.Memory_exceeded _ ) ->
          fail ())
      | Some _ | None -> fail ()
    and fail_over resolution error =
      (* A static plan (no choose-plan decisions) has nothing to fall
         back onto; likewise when the fallback budget is spent. *)
      if
        resolution.Startup.choices = []
        || Trace.get rt Counter.Failovers - base_failovers
           >= config.max_failovers
      then exhausted error
      else begin
        Trace.incr rt Counter.Failovers;
        let chosen = List.map snd resolution.Startup.choices in
        let failed =
          match error with
          | Governor.Memory_exceeded _ -> (
            (* Only a working set charges the memory budget, so an
               alternative that merely streams cannot have caused the
               abort: it stays available to the lower-memory
               re-resolution. *)
            match List.filter (holds_working_set !current_plan) chosen with
            | [] -> chosen
            | holding -> holding)
          | _ -> chosen
        in
        excluded := failed @ !excluded;
        try_observe ();
        resolve_and_attempt ~last:error ()
      end
    and resolve_and_attempt ?last () =
      match
        Startup.resolve ~risk:config.risk
          ~overrides:(Checkpoint.overrides_for registry db !current_plan)
          ~excluded:!excluded !mem_env !current_plan
      with
      | resolution -> attempt resolution 0
      | exception (Startup.Exhausted _ as error) ->
        (* Report the fault that forced the last failover, not the
           resolution bookkeeping: callers pattern-match on the typed
           error (e.g. [Fault.Io_fault]) to classify the exhaustion. *)
        exhausted (Option.value last ~default:error)
    in
    let result =
      (* Tee the pool into the run trace for the whole supervised run, so
         a session-lifetime trace sees the I/O of failed attempts too
         (the per-attempt [run_stats.io] window stays pool-based). *)
      Buffer_pool.attach_obs pool rt;
      Fun.protect
        ~finally:(fun () ->
          Checkpoint.release registry;
          Buffer_pool.detach_obs pool;
          Buffer_pool.set_io_limit pool None)
        (fun () ->
          match
            (* A cancellation queued before the run started (admission
               shedding, a caller racing submission) surfaces before any
               I/O happens. *)
            Governor.check gov;
            Buffer_pool.resize pool (Executor.memory_pages env);
            resolve_and_attempt ()
          with
          | result -> result
          (* Deadline and cancellation end the whole supervised run —
             retrying or failing over cannot buy back wall-clock time. *)
          | exception Governor.Deadline_exceeded { elapsed; budget } ->
            Trace.incr rt Counter.Deadline_aborts;
            Error (Deadline_exceeded { elapsed; budget })
          | exception Governor.Cancelled reason ->
            Trace.incr rt Counter.Cancellations;
            Error (Cancelled reason)
          | exception Governor.Memory_exceeded { budget; in_use; requested }
            ->
            Error (Memory_exceeded { budget; in_use; requested })
          | exception
              (( Fault.Io_fault _ | Buffer_pool.Io_budget_exceeded _ ) as
               error) ->
            (* Storage faults outside an attempt (initial resize, a
               failover resize): still a typed outcome, never an escape. *)
            Error (Exhausted { excluded = !excluded; last_error = error }))
    in
    (result, snapshot ())
