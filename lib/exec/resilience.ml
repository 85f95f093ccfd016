(* The run supervisor: retries, the I/O budget guard, choose-plan
   failover with the Section 7 observation step, and checkpointed
   replanning, around one execution per attempt (see resilience.mli).

   Every count is a counter on the run trace and [stats] is their delta
   from a snapshot taken as the run starts.  An attempt reads no clock:
   the one caller that reports CPU time, the CLI, times its own call. *)

module Env = Dqep_cost.Env
module Device = Dqep_cost.Device
module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Fault = Dqep_storage.Fault
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type config = {
  max_retries : int;
  io_budget_factor : float;
  max_failovers : int;
  checkpoints : bool;
  checkpoint_tolerance : float;
  max_replans : int;
  replan : (rels_rows:(string * float) list -> Dqep_plans.Plan.t option) option;
  risk : Dqep_cost.Risk.t;
}

let config ?(max_retries = 2)
    ?(io_budget_factor = Env.default_io_budget_factor) ?(max_failovers = 8)
    ?(checkpoints = false)
    ?(checkpoint_tolerance = Checkpoint.default_tolerance) ?(max_replans = 2)
    ?replan ?(risk = Dqep_cost.Risk.Expected) () =
  if max_retries < 0 then invalid_arg "Resilience.config: max_retries < 0";
  if max_failovers < 0 then invalid_arg "Resilience.config: max_failovers < 0";
  if max_replans < 0 then invalid_arg "Resilience.config: max_replans < 0";
  if checkpoint_tolerance <= 1. then
    invalid_arg "Resilience.config: checkpoint_tolerance <= 1";
  { max_retries; io_budget_factor; max_failovers; checkpoints;
    checkpoint_tolerance; max_replans; replan; risk }

let default = config ()

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

(* --- the observation step (paper, Section 7) ----------------------------- *)

type observation = { sub : Plan.t; rows : int; kept : bool }

let shared_subplan (plan : Plan.t) =
  match plan.Plan.op with
  | Physical.Choose_plan when List.compare_length_with plan.Plan.inputs 2 >= 0 ->
    (* Score every subplan occurring in at least two alternatives by
       (cardinality uncertainty x alternatives informed): observing the
       most uncertain, most widely shared input buys the decision
       procedure the most; exact ties go to the first in the plan's
       numbering.  Nested choose operators are allowed — materialization
       resolves them with the estimates at hand. *)
    let dag = Plan.Dag.of_plan plan in
    let root = dag.Plan.Dag.length - 1 in
    let counts = Array.make root 0 and last = Array.make root (-1) in
    List.iteri
      (fun a alt ->
        let rec mark i =
          if last.(i) <> a then begin
            last.(i) <- a;
            counts.(i) <- counts.(i) + 1;
            List.iter mark (Plan.Dag.inputs dag i)
          end
        in
        mark alt)
      (Plan.Dag.inputs dag root);
    let best = ref None in
    for i = 0 to root - 1 do
      let node = dag.Plan.Dag.nodes.(i) in
      let width = Interval.width node.Plan.rows in
      if counts.(i) >= 2 && width > 0. then begin
        let s = (width *. float_of_int counts.(i), Plan.node_count node) in
        match !best with
        | Some (bs, _) when bs >= s -> ()
        | _ -> best := Some (s, node)
      end
    done;
    Option.map snd !best
  | _ -> None

let observe db env ?(gov = Governor.none) ?(obs = Trace.null) registry plan =
  match shared_subplan plan with
  | None -> None
  | Some sub ->
    Trace.span obs "observe" @@ fun () ->
    let tuples, _ = Executor.execute db env ~gov ~obs sub in
    let kept =
      Checkpoint.file registry sub
        ~schema:(Plan.schema (Database.catalog db) sub)
        tuples
    in
    Some { sub; rows = List.length tuples; kept }

let run ?(config = default) ?(gov = Governor.none) ?(obs = Trace.null) db
    bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let pool = Database.pool db in
  (* The supervisor's counters live on a trace — the caller's when one
     was supplied, a private one otherwise — and [stats] is their delta
     from a snapshot taken as this run starts, so a session-lifetime
     trace can aggregate many runs while each run still reports its own
     window. *)
  let rt = if Trace.enabled obs then obs else Trace.create () in
  let base = Trace.snapshot rt in
  let delta c = Trace.get rt c - base.(Counter.index c) in
  let stats () =
    { retries = delta Counter.Retries;
      faults_absorbed = delta Counter.Faults_absorbed;
      budget_aborts = delta Counter.Budget_aborts;
      memory_aborts = delta Counter.Memory_aborts;
      failovers = delta Counter.Failovers;
      attempts = delta Counter.Attempts;
      replans = delta Counter.Replans;
      checkpoints_taken = delta Counter.Checkpoints_taken;
      resume_hits = delta Counter.Resume_hits }
  in
  match Executor.check_feasible db env plan with
  | exception Executor.Infeasible problems ->
    (Error (Infeasible problems), stats ())
  | exception Executor.Invalid_plan diags ->
    (Error (Rejected diags), stats ())
  | plan ->
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
        match observe db !mem_env ~gov ~obs:rt registry !current_plan with
        | _ -> ()
        | exception
            ( Fault.Io_fault _ | Buffer_pool.Io_budget_exceeded _
            | Governor.Memory_exceeded _ ) ->
          ()
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
           (budget_pages !mem_env ~factor:config.io_budget_factor
              ~anticipated_cost:resolution.Startup.anticipated_cost));
      Trace.incr rt Counter.Attempts;
      (* Blocking points already passed and observed subplans are served
         from the registry: a retry, failover or replanned attempt
         re-reads strictly fewer base pages than a cold restart. *)
      let resume = Checkpoint.resume_for registry db resolution.Startup.plan in
      match
        Trace.span rt "attempt" (fun () ->
            Executor.execute db !mem_env ~gov ~obs:rt ~materialized:resume
              ~checkpoint:takes resolution.Startup.plan)
      with
      | tuples, profile ->
        let after = Buffer_pool.stats pool in
        Ok
          ( tuples,
            { Executor.tuples = List.length tuples;
              io = Buffer_pool.diff ~before ~after;
              resolved_plan = resolution.Startup.plan;
              choose_nodes = resolution.Startup.choose_nodes;
              exec = profile } )
      | exception Fault.Io_fault { kind = Fault.Transient; _ }
        when attempt_no < config.max_retries ->
        Trace.incr rt Counter.Retries;
        Trace.incr rt Counter.Faults_absorbed;
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
      let budget_left = delta Counter.Replans < config.max_replans in
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
        || delta Counter.Failovers >= config.max_failovers
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
    (result, stats ())
