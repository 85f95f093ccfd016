(* Session admission control: slot serialization across domains,
   deterministic queue-full and queue-timeout shedding, the shared
   memory pool, and the multi-domain chaos soak asserting the
   governed-session contract (every job one typed outcome, no pin
   leaks, no hangs). *)

module D = Dqep

let q2 = D.Queries.chain ~relations:2

let plan2 =
  lazy
    ((Result.get_ok
        (D.Optimizer.optimize
           ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
           q2.D.Queries.catalog q2.D.Queries.query))
       .D.Optimizer.plan)

let bindings2 =
  D.Bindings.make ~selectivities:[ ("hv1", 0.5); ("hv2", 0.5) ] ~memory_pages:64

let submit_one session =
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  D.Session.submit session db bindings2 (Lazy.force plan2)

let test_config_validation () =
  Alcotest.check_raises "max_inflight < 1"
    (Invalid_argument "Session.config: max_inflight < 1") (fun () ->
      ignore (D.Session.config ~max_inflight:0 ()));
  Alcotest.check_raises "max_queue < 0"
    (Invalid_argument "Session.config: max_queue < 0") (fun () ->
      ignore (D.Session.config ~max_queue:(-1) ()));
  Alcotest.check_raises "memory_pool_bytes <= 0"
    (Invalid_argument "Session.config: memory_pool_bytes <= 0") (fun () ->
      ignore (D.Session.config ~memory_pool_bytes:0 ()))

let test_single_submission_completes () =
  let session = D.Session.create () in
  (match submit_one session with
  | D.Session.Completed (tuples, _, _) ->
    Alcotest.(check bool) "produced rows" true (List.length tuples > 0)
  | D.Session.Failed f ->
    Alcotest.failf "unexpected failure: %a" D.Resilience.pp_failure f
  | D.Session.Shed _ -> Alcotest.fail "an idle session must admit");
  let s = D.Session.stats session in
  Alcotest.(check int) "submitted" 1 s.D.Session.submitted;
  Alcotest.(check int) "admitted" 1 s.D.Session.admitted;
  Alcotest.(check int) "completed" 1 s.D.Session.completed;
  Alcotest.(check int) "slot released" 0 (D.Session.inflight session)

let test_admission_serializes_under_one_slot () =
  (* Eight submitters racing for one slot: everyone completes, and the
     session never observes two queries in flight. *)
  let session =
    D.Session.create ~config:(D.Session.config ~max_inflight:1 ()) ()
  in
  let domains =
    List.init 8 (fun _ -> Domain.spawn (fun () -> submit_one session))
  in
  let outcomes = List.map Domain.join domains in
  List.iter
    (function
      | D.Session.Completed _ -> ()
      | D.Session.Failed f ->
        Alcotest.failf "unexpected failure: %a" D.Resilience.pp_failure f
      | D.Session.Shed r ->
        Alcotest.failf "unexpected shed: %s" (D.Session.shed_reason_name r))
    outcomes;
  let s = D.Session.stats session in
  Alcotest.(check int) "all admitted" 8 s.D.Session.admitted;
  Alcotest.(check int) "all completed" 8 s.D.Session.completed;
  Alcotest.(check int) "one slot, never exceeded" 1 s.D.Session.peak_inflight;
  Alcotest.(check int) "queue drained" 0 (D.Session.queued session)

(* Park a query that holds an admission slot until told to finish.  The
   governor's injected clock is the gate: the first reading (taken at
   create) returns immediately; every later reading — the deadline polls
   during execution — blocks until the gate opens.  The parked query is
   therefore provably in flight, for as long as the test needs, with no
   wall-clock sleeps, and completes normally once released. *)
let parked_query session =
  let gate = Atomic.make false in
  let calls = Atomic.make 0 in
  let clock () =
    if Atomic.fetch_and_add calls 1 > 0 then
      while not (Atomic.get gate) do
        Domain.cpu_relax ()
      done;
    0.
  in
  let gov = D.Governor.create ~clock ~deadline:1000. ~check_every:1 () in
  let d =
    Domain.spawn (fun () ->
        D.Session.submit session ~gov
          (D.Database.build ~seed:11 q2.D.Queries.catalog)
          bindings2 (Lazy.force plan2))
  in
  while D.Session.inflight session = 0 do
    Domain.cpu_relax ()
  done;
  ( d,
    fun () ->
      Atomic.set gate true;
      match Domain.join d with
      | D.Session.Completed _ -> ()
      | D.Session.Failed f ->
        Alcotest.failf "parked query failed: %a" D.Resilience.pp_failure f
      | D.Session.Shed _ -> Alcotest.fail "parked query was shed" )

let test_queue_full_sheds_at_the_door () =
  (* max_queue 0: only immediately runnable submissions get in.  With
     the single slot occupied, the next submission is shed without
     blocking. *)
  let session =
    D.Session.create
      ~config:(D.Session.config ~max_inflight:1 ~max_queue:0 ()) ()
  in
  let _, release = parked_query session in
  let shed = submit_one session in
  release ();
  (match shed with
  | D.Session.Shed D.Session.Queue_full -> ()
  | D.Session.Shed r ->
    Alcotest.failf "wrong shed reason: %s" (D.Session.shed_reason_name r)
  | D.Session.Completed _ | D.Session.Failed _ ->
    Alcotest.fail "a full queue must shed");
  let s = D.Session.stats session in
  Alcotest.(check int) "shed counted" 1 s.D.Session.shed_queue_full

let test_queue_timeout_sheds_on_injected_clock () =
  (* The deadline is re-examined before every wait, starting with the
     first admission attempt — so a waiter whose injected queue clock is
     already past the deadline on its second reading (the first stamps
     the enqueue) sheds synchronously, without ever blocking.  The
     parked query keeps the single slot taken so admission cannot win
     first. *)
  let session =
    D.Session.create
      ~config:
        (D.Session.config ~max_inflight:1 ~max_queue:4 ~queue_deadline:5. ())
      ()
  in
  let _, release_p = parked_query session in
  let reads = ref 0 in
  let queue_clock () =
    incr reads;
    if !reads = 1 then 0. else 10.
  in
  let shed =
    D.Session.submit session ~clock:queue_clock
      (D.Database.build ~seed:11 q2.D.Queries.catalog)
      bindings2 (Lazy.force plan2)
  in
  release_p ();
  (match shed with
  | D.Session.Shed D.Session.Queue_timeout -> ()
  | D.Session.Shed r ->
    Alcotest.failf "wrong shed reason: %s" (D.Session.shed_reason_name r)
  | D.Session.Completed _ -> Alcotest.fail "the deadline had already passed"
  | D.Session.Failed f ->
    Alcotest.failf "unexpected failure: %a" D.Resilience.pp_failure f);
  let s = D.Session.stats session in
  Alcotest.(check int) "timeout shed counted" 1 s.D.Session.shed_queue_timeout;
  Alcotest.(check int) "the waiter was really queued" 1 s.D.Session.peak_queued;
  Alcotest.(check int) "queue drained" 0 (D.Session.queued session)

let test_session_pool_bounds_admitted_queries () =
  (* The session's shared pool joins every submission's governor: a
     query with no budget of its own still cannot out-charge the pool. *)
  let session =
    D.Session.create
      ~config:(D.Session.config ~memory_pool_bytes:1024 ()) ()
  in
  (match D.Session.memory_pool session with
  | None -> Alcotest.fail "pool must exist"
  | Some pool ->
    Alcotest.(check int) "pool starts empty" 0 (D.Governor.pool_in_use pool));
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  (match
     D.Session.submit session db bindings2
       (Result.get_ok
          (D.Optimizer.optimize ~mode:D.Optimizer.static q2.D.Queries.catalog
             q2.D.Queries.query))
         .D.Optimizer.plan
   with
  | D.Session.Failed (D.Resilience.Memory_exceeded { budget; _ }) ->
    Alcotest.(check int) "pool capacity is the reported budget" 1024 budget
  | D.Session.Failed f ->
    Alcotest.failf "wrong failure: %a" D.Resilience.pp_failure f
  | D.Session.Completed _ -> Alcotest.fail "1KB pool cannot hold this join"
  | D.Session.Shed _ -> Alcotest.fail "an idle session must admit");
  (match D.Session.memory_pool session with
  | Some pool ->
    Alcotest.(check int) "pool drained after the failure" 0
      (D.Governor.pool_in_use pool)
  | None -> ());
  Alcotest.(check int) "no pins leaked" 0
    (D.Buffer_pool.pinned_count (D.Database.pool db))

let test_chaos_soak () =
  (* The acceptance soak: 32 jobs across 4 domains through one shared
     session — clean runs, deadlines, cancellations, memory pressure and
     injected faults.
     Contract: every job exactly one typed outcome, no pin or spill-page
     leaks, no hangs (watchdog), no untyped failures. *)
  let t =
    Test_util.with_watchdog ~deadline:120. "session: chaos soak" (fun () ->
        D.Experiments.Chaos.run ~workers:4 ~jobs:32 ~seed:1 ~max_inflight:3
          ~max_queue:64 ~pool_bytes:(1 lsl 20) ())
  in
  Format.printf "%a@." D.Experiments.Chaos.pp_tally t;
  Alcotest.(check int) "every job has an outcome" 32 t.D.Experiments.Chaos.total;
  Alcotest.(check (list string)) "no escaped exceptions" []
    t.D.Experiments.Chaos.escaped;
  Alcotest.(check (list string)) "no pin leaks" [] t.D.Experiments.Chaos.leaks;
  Alcotest.(check (list string)) "no spill leaks" [] t.D.Experiments.Chaos.spill_leaks;
  Alcotest.(check int) "no untyped-failure classes" 0
    t.D.Experiments.Chaos.other_failures;
  let classes =
    t.D.Experiments.Chaos.completed + t.D.Experiments.Chaos.deadline_exceeded
    + t.D.Experiments.Chaos.memory_exceeded + t.D.Experiments.Chaos.cancelled
    + t.D.Experiments.Chaos.shed_queue_full
    + t.D.Experiments.Chaos.shed_queue_timeout
    + t.D.Experiments.Chaos.exhausted
    + t.D.Experiments.Chaos.other_failures
  in
  Alcotest.(check int) "outcome classes partition the jobs" 32 classes;
  Alcotest.(check bool) "the mix actually exercised governance" true
    (t.D.Experiments.Chaos.completed > 0
    && t.D.Experiments.Chaos.completed < 32);
  let s = t.D.Experiments.Chaos.session in
  Alcotest.(check bool) "admission bound respected" true
    (s.D.Session.peak_inflight <= 3);
  Alcotest.(check int) "session saw every non-shed job"
    (32 - t.D.Experiments.Chaos.shed_queue_full
    - t.D.Experiments.Chaos.shed_queue_timeout)
    s.D.Session.admitted;
  Alcotest.(check int) "session outcome counters agree"
    (s.D.Session.completed + s.D.Session.failed)
    s.D.Session.admitted;
  Alcotest.(check int) "nothing left in flight" 0
    (s.D.Session.admitted - s.D.Session.completed - s.D.Session.failed)

(* At one worker nothing races, so the soak is a function of its seed:
   deadline jobs run on a clock that advances a fixed tick per read.
   On the wall clock, a slow moment on the host could turn a completed
   job into a deadline one. *)
let test_chaos_one_worker_is_deterministic () =
  let tally () =
    Test_util.with_watchdog ~deadline:120. "session: one-worker chaos"
      (fun () -> D.Experiments.Chaos.run ~workers:1 ~jobs:48 ~seed:1 ())
  in
  let a = tally () and b = tally () in
  let show t = Format.asprintf "%a" D.Experiments.Chaos.pp_tally t in
  Alcotest.(check string) "same seed, same tally" (show a) (show b);
  Alcotest.(check bool) "some deadline jobs abort, some finish" true
    (a.D.Experiments.Chaos.deadline_exceeded > 0
    && a.D.Experiments.Chaos.deadline_exceeded < 7)

(* Session.submit folds exactly a run's counter deltas into the session
   trace, whether the run trace is its own or the caller's, and a
   caller's trace that already holds counts keeps them (and its taps). *)
let test_counters_fold_run_deltas () =
  let module Trace = D.Obs.Trace in
  let module Counter = D.Obs.Counter in
  let session = D.Session.create () in
  let lifecycle c =
    match c with
    | Counter.Submitted | Counter.Admitted | Counter.Completed -> 1
    | _ -> 0
  in
  (* Its own trace: the session trace gains every count of the run. *)
  let rows =
    match submit_one session with
    | D.Session.Completed (tuples, _, _) -> List.length tuples
    | _ -> Alcotest.fail "first run did not complete"
  in
  Alcotest.(check bool) "the run produced rows" true (rows > 0);
  Alcotest.(check int) "own trace: Rows_out folded" rows
    (Trace.get (D.Session.obs session) Counter.Rows_out);
  let first = Trace.snapshot (D.Session.obs session) in
  (* The caller's trace, already holding counts of its own. *)
  let obs = Trace.create ~taps:true () in
  List.iter (fun c -> Trace.add obs c (1000 + Counter.index c)) Counter.all;
  let since = Trace.snapshot obs in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  (match D.Session.submit session ~obs db bindings2 (Lazy.force plan2) with
  | D.Session.Completed (tuples, _, _) ->
    Alcotest.(check int) "the same rows" rows (List.length tuples)
  | _ -> Alcotest.fail "second run did not complete");
  let after = Trace.snapshot obs in
  let run = Array.mapi (fun i v -> v - since.(i)) after in
  Alcotest.(check int) "caller trace: Rows_out delta" rows
    run.(Counter.index Counter.Rows_out);
  List.iter
    (fun c ->
      let i = Counter.index c in
      Alcotest.(check int)
        ("caller trace folds its delta: " ^ Counter.name c)
        (first.(i) + run.(i) + lifecycle c)
        (Trace.get (D.Session.obs session) c))
    Counter.all;
  Alcotest.(check bool) "the caller's taps are its own" true
    (Trace.taps obs <> []);
  Alcotest.(check int) "no cardinalities filed from them"
    (2 * List.length bindings2.D.Bindings.selectivities)
    (D.Obs.Feedback.observations (D.Session.feedback session))

(* Submissions that bring no trace record through their domain's own
   run trace.  Runs on three domains at once, one of them failing over
   on every run (its B-tree pages are broken), must each report exactly
   their own attempts, and the session trace must hold exactly the sum
   of the runs. *)
let test_run_traces_stay_apart () =
  let module Trace = D.Obs.Trace in
  let module Counter = D.Obs.Counter in
  let q1 = D.Queries.chain ~relations:1 in
  let plan1 =
    (Result.get_ok
       (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q1.D.Queries.catalog
          q1.D.Queries.query))
      .D.Optimizer.plan
  in
  let session = D.Session.create () in
  let runs = 12 in
  let worker ~faulty () =
    let db, bindings, plan =
      if faulty then begin
        let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
        let broken =
          List.map (fun id -> (id, D.Fault.Permanent)) (Test_util.btree_page_ids db)
        in
        let pool = D.Database.pool db in
        D.Buffer_pool.resize pool 1;
        D.Buffer_pool.resize pool 64;
        D.Disk.set_faults (D.Buffer_pool.disk pool)
          (Some (D.Fault.create (D.Fault.config ~broken_pages:broken ~seed:1 ())));
        (* 0.02: start-up resolution picks the B-tree alternative. *)
        (db, D.Bindings.make ~selectivities:[ ("hv1", 0.02) ] ~memory_pages:64, plan1)
      end
      else
        ( D.Database.build ~seed:11 q2.D.Queries.catalog,
          bindings2,
          Lazy.force plan2 )
    in
    let pool = D.Database.pool db in
    List.init runs (fun _ ->
        let before = (D.Buffer_pool.stats pool).D.Buffer_pool.logical_reads in
        let outcome = D.Session.submit session db bindings plan in
        let after = (D.Buffer_pool.stats pool).D.Buffer_pool.logical_reads in
        (faulty, outcome, after - before))
  in
  let others = List.init 2 (fun i -> Domain.spawn (worker ~faulty:(i = 0))) in
  let mine = worker ~faulty:false () in
  let all = List.concat (mine :: List.map Domain.join others) in
  let own = { D.Resilience.retries = 0; faults_absorbed = 0; budget_aborts = 0;
              memory_aborts = 0; failovers = 0; attempts = 1; replans = 0;
              checkpoints_taken = 0; resume_hits = 0 } in
  let rows, reads =
    List.fold_left
      (fun (rows, reads) (faulty, outcome, delta) ->
        match outcome with
        | D.Session.Completed (tuples, _, stats) ->
          let want =
            if faulty then
              { own with faults_absorbed = 1; failovers = 1; attempts = 2 }
            else own
          in
          if stats <> want then
            Alcotest.failf "a %s run reports %d attempts, %d failovers, %d faults"
              (if faulty then "failing-over" else "healthy")
              stats.D.Resilience.attempts stats.D.Resilience.failovers
              stats.D.Resilience.faults_absorbed;
          (rows + List.length tuples, reads + delta)
        | D.Session.Failed f ->
          Alcotest.failf "run failed: %a" D.Resilience.pp_failure f
        | D.Session.Shed _ -> Alcotest.fail "run shed")
      (0, 0) all
  in
  let so = D.Session.obs session in
  Alcotest.(check int) "Completed" (3 * runs) (Trace.get so Counter.Completed);
  Alcotest.(check int) "Rows_out is the runs' sum" rows (Trace.get so Counter.Rows_out);
  Alcotest.(check int) "Logical_reads is the runs' sum" reads
    (Trace.get so Counter.Logical_reads);
  Alcotest.(check int) "Failovers are the failing domain's" runs
    (Trace.get so Counter.Failovers)

let suite =
  ( "session",
    [ Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "single submission completes" `Quick
        test_single_submission_completes;
      Alcotest.test_case "admission serializes under one slot" `Quick
        test_admission_serializes_under_one_slot;
      Alcotest.test_case "full queue sheds at the door" `Quick
        test_queue_full_sheds_at_the_door;
      Alcotest.test_case "queue deadline sheds on injected clock" `Quick
        test_queue_timeout_sheds_on_injected_clock;
      Alcotest.test_case "session pool bounds admitted queries" `Quick
        test_session_pool_bounds_admitted_queries;
      Alcotest.test_case "chaos soak: 32 governed sessions" `Slow
        test_chaos_soak;
      Alcotest.test_case "one-worker chaos is a function of its seed" `Slow
        test_chaos_one_worker_is_deterministic;
      Alcotest.test_case "counters fold each run's deltas" `Quick
        test_counters_fold_run_deltas;
      Alcotest.test_case "run traces stay per domain" `Quick
        test_run_traces_stay_apart ] )
