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
  | D.Session.Completed (tuples, _) ->
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
     Contract: every job exactly one typed outcome, no pin leaks, no
     hangs (watchdog), no untyped failures. *)
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
        test_chaos_soak ] )
