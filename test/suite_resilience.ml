(* The resilient execution supervisor: fault-free transparency, seeded
   fault schedules, retry/failover traces, the I/O budget guard, and the
   typed infeasibility path.

   The deterministic demos use broken pages ("bad sectors"): a
   Transient-kind broken page looks retryable but never recovers, so the
   retry budget runs dry on the schedule alone — no probabilistic
   seed-hunting. *)

module D = Dqep

let q1 = D.Queries.chain ~relations:1
let q2 = D.Queries.chain ~relations:2

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

let dynamic_plan q =
  (optimize_exn ~mode:(D.Optimizer.dynamic ()) q).D.Optimizer.plan

let bindings1 sel = D.Bindings.make ~selectivities:[ ("hv1", sel) ] ~memory_pages:64

(* Evict (almost) everything the loader left resident, so page accesses
   of the run actually reach the disk and its fault schedule. *)
let drain_pool db =
  let pool = D.Database.pool db in
  D.Buffer_pool.resize pool 1;
  D.Buffer_pool.resize pool 64

let set_faults db faults =
  D.Disk.set_faults (D.Buffer_pool.disk (D.Database.pool db)) faults

let install db config = set_faults db (Some (D.Fault.create config))

let normalized db (stats : D.Executor.run_stats) tuples =
  let schema = D.Plan.schema (D.Database.catalog db) stats.D.Executor.resolved_plan in
  D.Reference.normalize schema tuples

let test_fault_free_transparency () =
  (* Without faults the supervisor is invisible: same tuples as the plain
     executor, all resilience counters zero. *)
  let plan = dynamic_plan q1 in
  let b = bindings1 0.3 in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let expected_tuples, expected_stats = D.Executor.run db b plan in
  match D.Resilience.run db b plan with
  | Error f, _ -> Alcotest.failf "supervised run failed: %a" D.Resilience.pp_failure f
  | Ok (tuples, stats), rstats ->
    Alcotest.(check bool) "same tuples" true
      (D.Reference.multiset_equal
         (normalized db expected_stats expected_tuples)
         (normalized db stats tuples));
    Alcotest.(check int) "no retries" 0 rstats.D.Resilience.retries;
    Alcotest.(check int) "no faults" 0 rstats.D.Resilience.faults_absorbed;
    Alcotest.(check int) "no budget aborts" 0 rstats.D.Resilience.budget_aborts;
    Alcotest.(check int) "no failovers" 0 rstats.D.Resilience.failovers;
    Alcotest.(check int) "one attempt" 1 rstats.D.Resilience.attempts

let test_broken_index_fails_over_to_scan () =
  (* The acceptance demo: under a low selectivity the decision procedure
     picks the B-tree alternative; its pages are broken (transient kind,
     so the supervisor first burns its retry budget), and the run
     completes through the file-scan alternative with identical tuples
     to a fault-free run. *)
  let plan = dynamic_plan q1 in
  (* 0.02 keeps the B-tree alternative cheapest while still reading
     enough index pages to hit the broken ones. *)
  let b = bindings1 0.02 in
  let env = D.Env.of_bindings q1.D.Queries.catalog b in
  (* Confirm the premise: the B-tree path is the start-up-time choice. *)
  let decisions = D.Startup.explain env plan in
  Alcotest.(check bool) "plan has a choose operator" true (decisions <> []);
  let d = List.hd decisions in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let broken =
    List.map (fun id -> (id, D.Fault.Transient)) (Test_util.btree_page_ids db)
  in
  Alcotest.(check bool) "database has index pages" true (broken <> []);
  drain_pool db;
  install db (D.Fault.config ~broken_pages:broken ~seed:1 ());
  let config = D.Resilience.config ~max_retries:2 () in
  match D.Resilience.run ~config db b plan with
  | Error f, _ ->
    Alcotest.failf "no alternative survived: %a" D.Resilience.pp_failure f
  | Ok (tuples, stats), rstats ->
    Alcotest.(check int) "one failover" 1 rstats.D.Resilience.failovers;
    Alcotest.(check int) "retry budget spent first" 2 rstats.D.Resilience.retries;
    Alcotest.(check int) "faults absorbed" 3 rstats.D.Resilience.faults_absorbed;
    (* The supervisor fell back exactly onto the alternative the decision
       procedure ranks next once the failed one is excluded. *)
    let fallback =
      D.Startup.resolve ~excluded:[ d.D.Startup.chosen_pid ] env plan
    in
    Alcotest.(check string) "failover picks the runner-up"
      (D.Access_module.encode fallback.D.Startup.plan)
      (D.Access_module.encode stats.D.Executor.resolved_plan);
    (* Same answer as a run against an identical, fault-free database. *)
    let clean_db = D.Database.build ~seed:11 q1.D.Queries.catalog in
    let expected_tuples, expected_stats = D.Executor.run clean_db b plan in
    Alcotest.(check bool) "identical tuples" true
      (D.Reference.multiset_equal
         (normalized clean_db expected_stats expected_tuples)
         (normalized db stats tuples))

let test_permanent_fault_fails_over_without_retry () =
  (* A permanent fault is not retried: the supervisor fails over at
     once. *)
  let plan = dynamic_plan q1 in
  let b = bindings1 0.02 in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let broken =
    List.map (fun id -> (id, D.Fault.Permanent)) (Test_util.btree_page_ids db)
  in
  drain_pool db;
  install db (D.Fault.config ~broken_pages:broken ~seed:1 ());
  match D.Resilience.run db b plan with
  | Error f, _ ->
    Alcotest.failf "no alternative survived: %a" D.Resilience.pp_failure f
  | Ok (_, _), rstats ->
    Alcotest.(check int) "no retries" 0 rstats.D.Resilience.retries;
    Alcotest.(check int) "one fault" 1 rstats.D.Resilience.faults_absorbed;
    Alcotest.(check int) "one failover" 1 rstats.D.Resilience.failovers;
    Alcotest.(check int) "two attempts" 2 rstats.D.Resilience.attempts

let test_seeded_schedule_is_deterministic () =
  (* Same data seed + same fault seed => identical retry/failover trace
     and identical outcome, on independently built databases. *)
  let plan = dynamic_plan q1 in
  let b = bindings1 0.5 in
  let trace fault_config =
    let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
    drain_pool db;
    install db fault_config;
    let result, rstats = D.Resilience.run db b plan in
    let outcome =
      match result with Ok (tuples, _) -> Some tuples | Error _ -> None
    in
    (outcome, rstats)
  in
  let probabilistic =
    D.Fault.config ~read_fault_rate:0.02 ~write_fault_rate:0.02 ~seed:5 ()
  in
  Alcotest.(check bool) "probabilistic schedule reproducible" true
    (trace probabilistic = trace probabilistic);
  let degrading = D.Fault.config ~fail_after:(20, D.Fault.Transient) ~seed:5 () in
  let (outcome, rstats) = trace degrading in
  Alcotest.(check bool) "degrading schedule reproducible" true
    ((outcome, rstats) = trace degrading);
  (* A device that dies after 20 I/Os fails every alternative: the trace
     must show the supervisor actually walking the fallback chain. *)
  Alcotest.(check bool) "device death exhausts the plan" true (outcome = None);
  Alcotest.(check bool) "faults were absorbed along the way" true
    (rstats.D.Resilience.faults_absorbed > 0)

let test_btree_invariants_survive_faulted_runs () =
  (* Reads under a fault schedule never corrupt the index: after a
     fault-interrupted, retried (and here exhausted) run, the tree still
     satisfies its structural invariants. *)
  let plan = dynamic_plan q1 in
  let b = bindings1 0.02 in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  drain_pool db;
  install db (D.Fault.config ~fail_after:(3, D.Fault.Transient) ~seed:9 ());
  let result, rstats = D.Resilience.run db b plan in
  Alcotest.(check bool) "schedule was harsh enough to retry" true
    (rstats.D.Resilience.retries > 0);
  (match result with
  | Ok _ -> Alcotest.fail "a device dead after 3 I/Os cannot complete"
  | Error (D.Resilience.Exhausted _) -> ()
  | Error f -> Alcotest.failf "not an exhaustion: %a" D.Resilience.pp_failure f);
  set_faults db None;
  (match
     D.Btree.check_invariants (D.Database.pool db)
       (D.Database.index db ~rel:"R1" ~attr:"a")
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invariants violated: %s" msg)

let test_io_budget_guard_aborts_and_exhausts () =
  (* An absurdly tight budget aborts every alternative in turn; the
     supervisor reports the budget aborts and the exhaustion. *)
  let plan = dynamic_plan q1 in
  let b = bindings1 0.9 in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  drain_pool db;
  let config =
    D.Resilience.config ~max_retries:0 ~io_budget_factor:1e-6 ()
  in
  match D.Resilience.run ~config db b plan with
  | Ok _, _ -> Alcotest.fail "a 16-page budget cannot cover this query"
  | Error (D.Resilience.Exhausted { last_error; _ }), rstats ->
    Alcotest.(check bool) "every alternative aborted on budget" true
      (rstats.D.Resilience.budget_aborts >= 2);
    Alcotest.(check bool) "walked the fallback chain" true
      (rstats.D.Resilience.failovers >= 1);
    Alcotest.(check int) "no faults involved" 0 rstats.D.Resilience.faults_absorbed;
    (match last_error with
    | D.Buffer_pool.Io_budget_exceeded _ | D.Startup.Exhausted _ -> ()
    | e -> Alcotest.failf "unexpected final error: %s" (Printexc.to_string e))
  | Error f, _ -> Alcotest.failf "not an exhaustion: %a" D.Resilience.pp_failure f

let test_budget_guard_disabled_by_zero_factor () =
  let plan = dynamic_plan q1 in
  let b = bindings1 0.9 in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let config = D.Resilience.config ~io_budget_factor:0. () in
  match D.Resilience.run ~config db b plan with
  | Ok _, rstats ->
    Alcotest.(check int) "no aborts" 0 rstats.D.Resilience.budget_aborts
  | Error f, _ -> Alcotest.failf "run failed: %a" D.Resilience.pp_failure f

(* --- typed infeasibility (activation-time validation) ------------------- *)

let catalog_without (f : D.Index.t -> bool) ~relations =
  let c = (D.Queries.chain ~relations).D.Queries.catalog in
  D.Catalog.create ~page_bytes:(D.Catalog.page_bytes c)
    ~relations:(D.Catalog.relations c)
    ~indexes:(List.filter (fun i -> not (f i)) (D.Catalog.indexes c))
    ()

let test_infeasible_plan_reports_problems () =
  (* The database's catalog lost a whole relation: nothing in the plan
     survives pruning, and both the executor and the supervisor report
     the typed error instead of dying mid-iteration. *)
  let plan = (optimize_exn ~mode:D.Optimizer.static q2).D.Optimizer.plan in
  let c = q2.D.Queries.catalog in
  let reduced =
    D.Catalog.create ~page_bytes:(D.Catalog.page_bytes c)
      ~relations:
        (List.filter
           (fun (r : D.Relation.t) -> r.D.Relation.name <> "R1")
           (D.Catalog.relations c))
      ~indexes:
        (List.filter
           (fun (i : D.Index.t) -> i.D.Index.relation <> "R1")
           (D.Catalog.indexes c))
      ()
  in
  let db = D.Database.build ~seed:3 reduced in
  let b =
    D.Bindings.make
      ~selectivities:[ ("hv1", 0.1); ("hv2", 0.5) ]
      ~memory_pages:64
  in
  (match D.Executor.run db b plan with
  | _ -> Alcotest.fail "infeasible plan executed"
  | exception D.Executor.Infeasible diags ->
    Alcotest.(check bool) "names the dropped relation" true
      (Test_util.reports D.Diagnostic.Missing_relation "R1" diags));
  match D.Resilience.run db b plan with
  | Ok _, _ -> Alcotest.fail "infeasible plan executed (supervised)"
  | Error (D.Resilience.Infeasible diags), rstats ->
    Alcotest.(check bool) "typed problems surface" true
      (Test_util.reports D.Diagnostic.Missing_relation "R1" diags);
    Alcotest.(check int) "nothing was attempted" 0 rstats.D.Resilience.attempts
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f

let test_partially_infeasible_plan_prunes_and_runs () =
  (* A dropped index invalidates only the alternatives that used it: the
     executor prunes at activation and the pruned plan still answers the
     query correctly. *)
  let plan = dynamic_plan q2 in
  let reduced =
    catalog_without
      (fun i -> i.D.Index.relation = "R1" && i.D.Index.attribute = "a")
      ~relations:2
  in
  let db = D.Database.build ~seed:3 reduced in
  let b =
    D.Bindings.make
      ~selectivities:[ ("hv1", 0.1); ("hv2", 0.5) ]
      ~memory_pages:64
  in
  let tuples, stats = D.Executor.run db b plan in
  (match D.Verify.feasibility ~catalog:reduced stats.D.Executor.resolved_plan with
  | [] -> ()
  | diags ->
    Alcotest.failf "executed plan references dropped objects: %s"
      (D.Diagnostic.list_to_string diags));
  let ref_schema, expected = D.Reference.eval db b q2.D.Queries.query in
  Alcotest.(check bool) "pruned plan answers correctly" true
    (D.Reference.multiset_equal
       (D.Reference.normalize ref_schema expected)
       (normalized db stats tuples))

(* A permanently broken heap page in the middle of a file scan: the
   fault must surface as a typed [Io_fault] and take the normal failover
   path.  A watchdog thread turns a hang into a hard failure instead of
   a stuck CI job. *)
let test_mid_file_page_fault_is_typed_and_terminates () =
  let plan = dynamic_plan q1 in
  (* High selectivity makes the file-scan alternative the start-up-time
     choice, so the scan is what hits the broken page first.  The
     B-tree fallback fetches matching tuples from the same heap, so at
     this selectivity it trips over the page too: the run must end in a
     typed exhaustion, not a hang. *)
  let b = bindings1 0.9 in
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let heap_pages = D.Heap_file.page_ids (D.Database.heap db "R1") in
  Alcotest.(check bool) "relation spans several pages" true
    (List.length heap_pages > 4);
  (* Break one mid-file page: the scan has already produced the pages
     before it. *)
  let broken = List.nth heap_pages (List.length heap_pages / 2) in
  drain_pool db;
  install db
    (D.Fault.config ~broken_pages:[ (broken, D.Fault.Permanent) ] ~seed:1 ());
  let result, rstats =
    Test_util.with_watchdog "resilience: mid-file page fault" (fun () ->
        D.Resilience.run db b plan)
  in
  (match result with
  | Ok _ ->
    (* Acceptable only if the supervisor actually routed around the
       fault via another alternative. *)
    Alcotest.(check bool) "success implies failover" true
      (rstats.D.Resilience.failovers >= 1)
  | Error (D.Resilience.Exhausted { last_error; excluded }) ->
    Alcotest.(check bool) "alternatives were excluded along the way" true
      (excluded <> []);
    (match last_error with
    | D.Fault.Io_fault { kind = D.Fault.Permanent; page; _ } ->
      Alcotest.(check int) "the typed error names the broken page" broken page
    | e ->
      Alcotest.failf "terminal error is not a typed Io_fault: %s"
        (Printexc.to_string e))
  | Error f ->
    Alcotest.failf "unexpected failure kind: %a" D.Resilience.pp_failure f);
  Alcotest.(check bool) "the broken page forced a failover" true
    (rstats.D.Resilience.failovers >= 1);
  Alcotest.(check bool) "faults were absorbed, not leaked" true
    (rstats.D.Resilience.faults_absorbed >= 1);
  Alcotest.(check int) "permanent faults are never retried" 0
    rstats.D.Resilience.retries;
  set_faults db None

(* [stats] is this run's counts, not the trace's totals: two runs on one
   caller-supplied trace, each over broken B-tree pages that force two
   retries and a failover, report the same counts, and the second run's
   equal its own deltas on the trace. *)
let test_stats_are_this_runs_deltas () =
  let module Trace = D.Obs.Trace in
  let module Counter = D.Obs.Counter in
  let plan = dynamic_plan q1 in
  let b = bindings1 0.02 in
  let obs = Trace.create () in
  let faulted_run () =
    let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
    let broken =
      List.map (fun id -> (id, D.Fault.Transient)) (Test_util.btree_page_ids db)
    in
    drain_pool db;
    install db (D.Fault.config ~broken_pages:broken ~seed:1 ());
    let before = Trace.snapshot obs in
    match D.Resilience.run ~obs db b plan with
    | Error f, _ ->
      Alcotest.failf "no alternative survived: %a" D.Resilience.pp_failure f
    | Ok _, rstats ->
      let delta c = Trace.get obs c - before.(Counter.index c) in
      (rstats, delta)
  in
  let first, _ = faulted_run () in
  Alcotest.(check int) "first run retried" 2 first.D.Resilience.retries;
  Alcotest.(check int) "first run failed over" 1 first.D.Resilience.failovers;
  let second, delta = faulted_run () in
  Alcotest.(check bool) "second run reports the same counts" true
    (first = second);
  List.iter
    (fun (c, n) ->
      Alcotest.(check int) ("own delta: " ^ Counter.name c) (delta c) n)
    [ (Counter.Retries, second.D.Resilience.retries);
      (Counter.Faults_absorbed, second.D.Resilience.faults_absorbed);
      (Counter.Budget_aborts, second.D.Resilience.budget_aborts);
      (Counter.Memory_aborts, second.D.Resilience.memory_aborts);
      (Counter.Failovers, second.D.Resilience.failovers);
      (Counter.Attempts, second.D.Resilience.attempts);
      (Counter.Replans, second.D.Resilience.replans);
      (Counter.Checkpoints_taken, second.D.Resilience.checkpoints_taken);
      (Counter.Resume_hits, second.D.Resilience.resume_hits) ];
  Alcotest.(check int) "the trace holds both runs" 4
    (Trace.get obs Counter.Retries)

(* [run_stats.choose_nodes] counts the executed plan's choose-plan
   operators — now read off the start-up program rather than a walk of
   the plan — for dynamic and static plans alike, supervised or not. *)
let test_run_stats_count_choose_nodes () =
  List.iter
    (fun seed ->
      let inst = D.Plangen.generate ~seed in
      let catalog = inst.D.Plangen.catalog in
      let db = D.Database.build ~seed catalog in
      let b = D.Plangen.bindings inst ~seed in
      List.iter
        (fun mode ->
          let plan =
            (Result.get_ok
               (D.Optimizer.optimize ~mode catalog inst.D.Plangen.query))
              .D.Optimizer.plan
          in
          let want = D.Plan.choose_count plan in
          let name what = Printf.sprintf "seed %d: %s" seed what in
          let _, stats = D.Executor.run db b plan in
          Alcotest.(check int) (name "Executor.run") want
            stats.D.Executor.choose_nodes;
          match D.Resilience.run db b plan with
          | Ok (_, stats), _ ->
            Alcotest.(check int) (name "Resilience.run") want
              stats.D.Executor.choose_nodes
          | Error f, _ ->
            Alcotest.failf "%s: %a" (name "Resilience.run")
              D.Resilience.pp_failure f)
        [ D.Optimizer.dynamic ~uncertain_memory:true (); D.Optimizer.static ])
    (List.init 12 (fun i -> i + 1))

let suite =
  ( "resilience",
    [ Alcotest.test_case "fault-free supervision is transparent" `Quick
        test_fault_free_transparency;
      Alcotest.test_case "stats are this run's deltas" `Quick
        test_stats_are_this_runs_deltas;
      Alcotest.test_case "run stats count choose nodes" `Quick
        test_run_stats_count_choose_nodes;
      Alcotest.test_case "broken index fails over to scan" `Quick
        test_broken_index_fails_over_to_scan;
      Alcotest.test_case "permanent fault skips retries" `Quick
        test_permanent_fault_fails_over_without_retry;
      Alcotest.test_case "seeded schedules are deterministic" `Quick
        test_seeded_schedule_is_deterministic;
      Alcotest.test_case "btree invariants survive faulted runs" `Quick
        test_btree_invariants_survive_faulted_runs;
      Alcotest.test_case "I/O budget guard aborts and exhausts" `Quick
        test_io_budget_guard_aborts_and_exhausts;
      Alcotest.test_case "zero budget factor disables the guard" `Quick
        test_budget_guard_disabled_by_zero_factor;
      Alcotest.test_case "infeasible plan reports typed problems" `Quick
        test_infeasible_plan_reports_problems;
      Alcotest.test_case "partially infeasible plan prunes and runs" `Quick
        test_partially_infeasible_plan_prunes_and_runs;
      Alcotest.test_case "mid-file page fault is typed, no hang"
        `Quick test_mid_file_page_fault_is_typed_and_terminates ] )
