(* The per-query resource governor: cancellation semantics, deadline and
   memory accounting, typed failures through the resilient supervisor,
   graceful degradation (spill earlier under budget pressure), the
   memory-failover acceptance path, and the qcheck property that
   cancelling at an arbitrary check tick never leaks a buffer-pool
   pin. *)

module D = Dqep

let q1 = D.Queries.chain ~relations:1
let q2 = D.Queries.chain ~relations:2

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

let dynamic_plan q =
  (optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q)
    .D.Optimizer.plan

let static_plan q = (optimize_exn ~mode:D.Optimizer.static q).D.Optimizer.plan

let bindings2 =
  D.Bindings.make ~selectivities:[ ("hv1", 0.5); ("hv2", 0.5) ] ~memory_pages:64

(* --- token semantics ----------------------------------------------------- *)

let test_unlimited_governor () =
  Alcotest.(check bool) "none is unlimited" true (D.Governor.is_unlimited D.Governor.none);
  (* check on the unlimited token is a no-op, never raises. *)
  for _ = 1 to 1000 do D.Governor.check D.Governor.none done;
  Alcotest.(check int) "no ticks accounted" 0 (D.Governor.checks D.Governor.none);
  D.Governor.charge D.Governor.none max_int;
  Alcotest.(check int) "no memory accounted" 0
    (D.Governor.charged_bytes D.Governor.none);
  Alcotest.check_raises "cancel on none is a caller bug"
    (Invalid_argument "Governor.cancel: unlimited governor") (fun () ->
      D.Governor.cancel D.Governor.none ~reason:"nope")

let test_cancellation_first_reason_wins () =
  let gov = D.Governor.create () in
  D.Governor.check gov;
  D.Governor.cancel gov ~reason:"first";
  D.Governor.cancel gov ~reason:"second";
  Alcotest.(check (option string)) "first reason wins" (Some "first")
    (D.Governor.cancelled_reason gov);
  (match D.Governor.check gov with
  | () -> Alcotest.fail "check after cancel must raise"
  | exception D.Governor.Cancelled r ->
    Alcotest.(check string) "raises the winning reason" "first" r)

let test_deadline_on_injected_clock () =
  let now = ref 0. in
  let gov =
    D.Governor.create ~clock:(fun () -> !now) ~deadline:1.0 ~check_every:8 ()
  in
  for _ = 1 to 100 do D.Governor.check gov done;
  now := 2.0;
  (* The clock is polled every check_every ticks: the violation surfaces
     within one poll interval, and cancels the token for siblings. *)
  let raised = ref false in
  (try
     for _ = 1 to 8 do D.Governor.check gov done
   with D.Governor.Deadline_exceeded { elapsed; budget } ->
     raised := true;
     Alcotest.(check bool) "elapsed past budget" true (elapsed > budget));
  Alcotest.(check bool) "deadline raised within check_every ticks" true !raised;
  Alcotest.(check bool) "violation cancels the token" true
    (D.Governor.is_cancelled gov)

let test_memory_accounting_and_rollback () =
  let gov = D.Governor.create ~memory_bytes:1000 () in
  D.Governor.charge gov 600;
  Alcotest.(check int) "charged" 600 (D.Governor.charged_bytes gov);
  Alcotest.(check (option int)) "headroom" (Some 400) (D.Governor.headroom gov);
  (match D.Governor.charge gov 500 with
  | () -> Alcotest.fail "overcharge must raise"
  | exception D.Governor.Memory_exceeded { budget; in_use; requested } ->
    Alcotest.(check int) "budget" 1000 budget;
    Alcotest.(check int) "in_use" 600 in_use;
    Alcotest.(check int) "requested" 500 requested);
  Alcotest.(check int) "failed charge rolled back" 600
    (D.Governor.charged_bytes gov);
  (* with_charge releases on exception paths too. *)
  (try
     D.Governor.with_charge gov 300 (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "with_charge released on exception" 600
    (D.Governor.charged_bytes gov);
  D.Governor.release gov 600;
  Alcotest.(check int) "released" 0 (D.Governor.charged_bytes gov)

let test_shared_pool_rollback () =
  let pool = D.Governor.pool ~capacity_bytes:1000 in
  let g1 = D.Governor.with_pool (D.Governor.create ~memory_bytes:10_000 ()) pool in
  let g2 = D.Governor.with_pool (D.Governor.create ~memory_bytes:10_000 ()) pool in
  D.Governor.charge g1 800;
  Alcotest.(check int) "pool sees g1" 800 (D.Governor.pool_in_use pool);
  Alcotest.(check (option int)) "g2 headroom bounded by the pool" (Some 200)
    (D.Governor.headroom g2);
  (match D.Governor.charge g2 300 with
  | () -> Alcotest.fail "pool overcharge must raise"
  | exception D.Governor.Memory_exceeded { budget; in_use; _ } ->
    Alcotest.(check int) "pool capacity reported" 1000 budget;
    Alcotest.(check int) "pool occupancy reported" 800 in_use);
  Alcotest.(check int) "pool rolled back" 800 (D.Governor.pool_in_use pool);
  Alcotest.(check int) "g2 rolled back" 0 (D.Governor.charged_bytes g2);
  D.Governor.release g1 800;
  Alcotest.(check int) "pool drained" 0 (D.Governor.pool_in_use pool)

let test_row_limit () =
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let b = D.Bindings.make ~selectivities:[ ("hv1", 0.9) ] ~memory_pages:64 in
  let plan = static_plan q1 in
  let rows = List.length (fst (D.Executor.run db b plan)) in
  Alcotest.(check bool) "query returns enough rows" true (rows > 5);
  let gov = D.Governor.create ~max_rows:5 () in
  (match D.Executor.run db ~gov b plan with
  | _ -> Alcotest.fail "row limit must cancel the run"
  | exception D.Governor.Cancelled reason ->
    Alcotest.(check bool) "reason names the row limit" true
      (String.length reason > 0
      && String.sub reason 0 9 = "row limit"));
  Alcotest.(check int) "no pins leaked" 0
    (D.Buffer_pool.pinned_count (D.Database.pool db))

(* --- governed execution -------------------------------------------------- *)

let test_generous_governor_is_transparent () =
  (* A governor with room to spare changes nothing: same tuples as the
     ungoverned run. *)
  let plan = dynamic_plan q2 in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let expected, _ = D.Executor.run db bindings2 plan in
  let gov =
    D.Governor.create ~deadline:3600. ~memory_bytes:(1 lsl 24)
      ~max_rows:1_000_000 ()
  in
  let tuples, _ = D.Executor.run db ~gov bindings2 plan in
  Alcotest.(check int) "row count unchanged" (List.length expected)
    (List.length tuples);
  Alcotest.(check int) "all memory released" 0 (D.Governor.charged_bytes gov);
  Alcotest.(check bool) "checks were actually performed" true
    (D.Governor.checks gov > 0)

let test_sort_spills_earlier_under_pressure () =
  (* Graceful degradation: the same sort that fits in memory ungoverned
     spills to runs when the governor narrows the working-set bound —
     and still produces the same sorted output.  The input is synthetic
     (the sort core only needs the db for its spill files): wide enough
     tuples that a 2-page budget cannot hold the working set. *)
  let db = D.Database.build ~seed:11 q1.D.Queries.catalog in
  let env =
    D.Env.of_bindings q1.D.Queries.catalog
      (D.Bindings.make ~selectivities:[ ("hv1", 0.9) ] ~memory_pages:64)
  in
  let width = 16 in
  let tuples =
    List.init 1200 (fun i ->
        Array.init width (fun j -> if j = 0 then i * 7919 mod 997 else i))
  in
  let page_bytes = D.Catalog.page_bytes q1.D.Queries.catalog in
  Alcotest.(check bool) "input spans several pages" true
    (List.length tuples * width > 3 * page_bytes);
  (* Total order (the payload column breaks key ties) so the spilling
     path's run merge is comparable with the in-memory sort. *)
  let compare_tuples = D.Exec_common.compare_on [ 0; 1 ] in
  let sort gov =
    let before = D.Buffer_pool.stats (D.Database.pool db) in
    let sorted = D.Exec_common.sort_core ~gov db env ~width ~compare_tuples tuples in
    let after = D.Buffer_pool.stats (D.Database.pool db) in
    (sorted, (D.Buffer_pool.diff ~before ~after).D.Buffer_pool.physical_writes)
  in
  let in_memory, w0 = sort D.Governor.none in
  Alcotest.(check int) "ungoverned sort stays in memory" 0 w0;
  (* A small frame budget makes the spilled runs observable as physical
     writes (evictions); the ungoverned sort above never touched it. *)
  D.Buffer_pool.resize (D.Database.pool db) 4;
  let gov = D.Governor.create ~memory_bytes:(2 * page_bytes) () in
  let governed, w1 = sort gov in
  Alcotest.(check bool) "governed sort spilled runs" true (w1 > 0);
  Alcotest.(check bool) "same sorted output" true (in_memory = governed);
  Alcotest.(check int) "all charges released" 0 (D.Governor.charged_bytes gov)

(* --- typed failures through the supervisor ------------------------------- *)

let test_resilience_deadline_is_typed () =
  (* An injected clock advancing 1ms per read makes the deadline fire
     deterministically mid-run, independent of host speed. *)
  let plan = dynamic_plan q2 in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let calls = ref 0 in
  let clock () = incr calls; float_of_int !calls *. 0.001 in
  let gov = D.Governor.create ~clock ~deadline:0.005 ~check_every:4 () in
  (match D.Resilience.run ~gov db bindings2 plan with
  | Ok _, _ -> Alcotest.fail "the deadline cannot be met on this clock"
  | Error (D.Resilience.Deadline_exceeded { elapsed; budget }), rstats ->
    Alcotest.(check bool) "elapsed past budget" true (elapsed > budget);
    Alcotest.(check int) "no failover on deadline" 0 rstats.D.Resilience.failovers
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f);
  Alcotest.(check int) "no pins leaked" 0
    (D.Buffer_pool.pinned_count (D.Database.pool db))

let test_resilience_cancellation_is_typed () =
  let plan = dynamic_plan q2 in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let gov = D.Governor.create ~cancel_after_checks:20 () in
  (match D.Resilience.run ~gov db bindings2 plan with
  | Ok _, _ -> Alcotest.fail "the injected cancellation cannot be outrun"
  | Error (D.Resilience.Cancelled reason), rstats ->
    Alcotest.(check bool) "reason names the injection" true
      (String.length reason > 0);
    Alcotest.(check int) "no retry on cancellation" 0 rstats.D.Resilience.retries
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f);
  Alcotest.(check int) "no pins leaked" 0
    (D.Buffer_pool.pinned_count (D.Database.pool db))

let test_queued_cancellation_surfaces_before_io () =
  let plan = dynamic_plan q2 in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let gov = D.Governor.create () in
  D.Governor.cancel gov ~reason:"caller gave up while queued";
  match D.Resilience.run ~gov db bindings2 plan with
  | Ok _, _ -> Alcotest.fail "a pre-cancelled run must not execute"
  | Error (D.Resilience.Cancelled reason), rstats ->
    Alcotest.(check string) "caller's reason" "caller gave up while queued" reason;
    Alcotest.(check int) "nothing attempted" 0 rstats.D.Resilience.attempts
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f

let test_static_plan_memory_violation_is_typed () =
  (* A static plan has no lower-memory alternative: the violation is the
     query's one typed outcome, and no pins leak on the abort path. *)
  let plan = static_plan q2 in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let gov = D.Governor.create ~memory_bytes:1024 () in
  (match D.Resilience.run ~gov db bindings2 plan with
  | Ok _, _ -> Alcotest.fail "1KB cannot hold this join's materialization"
  | Error (D.Resilience.Memory_exceeded { budget; requested; _ }), rstats ->
    Alcotest.(check int) "budget reported" 1024 budget;
    Alcotest.(check bool) "requested exceeds budget" true (requested > budget);
    Alcotest.(check int) "one memory abort" 1 rstats.D.Resilience.memory_aborts;
    Alcotest.(check int) "no failover possible" 0 rstats.D.Resilience.failovers
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f);
  Alcotest.(check int) "no pins leaked" 0
    (D.Buffer_pool.pinned_count (D.Database.pool db))

let test_memory_violation_fails_over_to_low_memory_alternative () =
  (* The acceptance path: the dynamic plan's first choice materializes
     more than the budget allows; the supervisor lowers the memory grant,
     excludes the failed alternative, and completes through one that
     fits — with the same answer as an ungoverned run. *)
  let plan = dynamic_plan q2 in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let expected, _ = D.Executor.run db bindings2 plan in
  let gov = D.Governor.create ~memory_bytes:1024 () in
  match D.Resilience.run ~gov db bindings2 plan with
  | Error f, _ ->
    Alcotest.failf "no low-memory alternative survived: %a"
      D.Resilience.pp_failure f
  | Ok (tuples, stats), rstats ->
    Alcotest.(check bool) "memory aborts happened" true
      (rstats.D.Resilience.memory_aborts >= 1);
    Alcotest.(check bool) "failed over at least once" true
      (rstats.D.Resilience.failovers >= 1);
    Alcotest.(check int) "failover visible in run stats"
      rstats.D.Resilience.failovers stats.D.Executor.failovers;
    Alcotest.(check int) "same answer as the ungoverned run"
      (List.length expected) (List.length tuples);
    Alcotest.(check int) "no pins leaked" 0
      (D.Buffer_pool.pinned_count (D.Database.pool db))

(* --- qcheck: cancellation at a random tick never leaks pins -------------- *)

let prop_cancellation_never_leaks_pins =
  QCheck.Test.make ~count:40 ~name:"cancel at random tick leaks no pins"
    QCheck.(pair (int_range 1 25) (int_range 1 300))
    (fun (seed, tick) ->
      let inst = D.Plangen.generate ~seed in
      let db = D.Database.build ~seed:(seed * 7919) inst.D.Plangen.catalog in
      let plan =
        (Result.get_ok
           (D.Optimizer.optimize
              ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
              inst.D.Plangen.catalog inst.D.Plangen.query))
          .D.Optimizer.plan
      in
      let b = D.Plangen.bindings inst ~seed:(seed + tick) in
      let gov = D.Governor.create ~cancel_after_checks:tick () in
      (match D.Executor.run db ~gov b plan with
      | _ -> () (* finished before the injected tick: also fine *)
      | exception D.Governor.Cancelled _ -> ());
      match D.Buffer_pool.leak_check (D.Database.pool db) with
      | Ok () -> true
      | Error msg ->
        QCheck.Test.fail_reportf "seed %d, tick %d: %s" seed tick msg)

let suite =
  ( "governor",
    [ Alcotest.test_case "unlimited governor costs nothing" `Quick
        test_unlimited_governor;
      Alcotest.test_case "cancellation is idempotent, first reason wins" `Quick
        test_cancellation_first_reason_wins;
      Alcotest.test_case "deadline fires within check_every ticks" `Quick
        test_deadline_on_injected_clock;
      Alcotest.test_case "memory accounting rolls back failed charges" `Quick
        test_memory_accounting_and_rollback;
      Alcotest.test_case "shared pool charges and rolls back" `Quick
        test_shared_pool_rollback;
      Alcotest.test_case "row limit cancels the run" `Quick test_row_limit;
      Alcotest.test_case "generous governor is transparent" `Quick
        test_generous_governor_is_transparent;
      Alcotest.test_case "sort spills earlier under budget pressure" `Quick
        test_sort_spills_earlier_under_pressure;
      Alcotest.test_case "deadline is a typed failure" `Quick
        test_resilience_deadline_is_typed;
      Alcotest.test_case "cancellation is a typed failure" `Quick
        test_resilience_cancellation_is_typed;
      Alcotest.test_case "queued cancellation surfaces before I/O" `Quick
        test_queued_cancellation_surfaces_before_io;
      Alcotest.test_case "static plan memory violation is typed" `Quick
        test_static_plan_memory_violation_is_typed;
      Alcotest.test_case "memory violation fails over and completes" `Quick
        test_memory_violation_fails_over_to_low_memory_alternative;
      QCheck_alcotest.to_alcotest prop_cancellation_never_leaks_pins ] )
