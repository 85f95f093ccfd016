(* The benchmark harness.

   Two parts:

   1. Reproduction: regenerate every table and figure of the paper's
      evaluation (Table 1, Figures 3-8, the break-even analysis) plus the
      ablations, printing the same rows/series the paper reports.  The
      trial count defaults to the paper's N = 100; set DQEP_BENCH_TRIALS
      to change it.

   2. Micro-benchmarks: one Bechamel Test.make per table/figure,
      measuring the computational kernel behind it (optimization,
      start-up decision procedures, plan encoding, ...). *)

module D = Dqep
module E = D.Experiments
open Bechamel
open Toolkit

let trials =
  match Sys.getenv_opt "DQEP_BENCH_TRIALS" with
  | Some v -> (try int_of_string v with _ -> 100)
  | None -> 100

(* --- part 1: the paper's tables and figures ----------------------------- *)

let measurements () =
  let queries = D.Queries.paper_queries () in
  List.concat_map
    (fun u -> List.map (fun q -> E.Common.measure ~trials q u) queries)
    [ E.Common.Sel_only; E.Common.Sel_and_memory ]

(* Availability under injected storage faults: the same dynamic plan run
   over several fault schedules, unsupervised vs supervised.  Not part of
   the paper's evaluation — it quantifies this implementation's
   choose-plan failover. *)
let availability () =
  let q = D.Queries.chain ~relations:2 in
  let plan =
    (Result.get_ok
       (D.Optimizer.optimize
          ~mode:(D.Optimizer.dynamic ())
          q.D.Queries.catalog q.D.Queries.query))
      .D.Optimizer.plan
  in
  let bindings =
    D.Bindings.make
      ~selectivities:(List.map (fun hv -> (hv, 0.3)) q.D.Queries.host_vars)
      ~memory_pages:64
  in
  let schedules = 10 in
  let rate = 0.0005 in
  let completed = ref 0 in
  let retries = ref 0 in
  let failovers = ref 0 in
  for seed = 1 to schedules do
    let db = D.Database.build ~seed:1 q.D.Queries.catalog in
    D.Disk.set_faults
      (D.Buffer_pool.disk (D.Database.pool db))
      (Some
         (D.Fault.create
            (D.Fault.config ~read_fault_rate:rate ~write_fault_rate:rate ~seed
               ())));
    let result, stats =
      D.Resilience.run
        ~config:(D.Resilience.config ~max_retries:4 ())
        db bindings plan
    in
    (match result with Ok _ -> incr completed | Error _ -> ());
    retries := !retries + stats.D.Resilience.retries;
    failovers := !failovers + stats.D.Resilience.failovers
  done;
  Format.printf
    "=== availability under faults (rate %.4f/IO, %d schedules) ===@."
    rate schedules;
  Format.printf
    "supervised runs completed: %d/%d (%d retries, %d failovers)@.@."
    !completed schedules !retries !failovers

let reproduce () =
  Format.printf
    "=== dqep: reproduction of 'Dynamic Query Evaluation Plans' ===@.";
  Format.printf "(N = %d random bindings per query; all tables described in \
                 EXPERIMENTS.md)@.@."
    trials;
  E.Report.render Format.std_formatter (E.Table1.report ());
  let ms = measurements () in
  List.iter (E.Report.render Format.std_formatter) (E.Figures.all ms);
  List.iter (E.Report.render Format.std_formatter) (E.Ablations.all ms);
  E.Report.render Format.std_formatter (E.Validation.report ());
  availability ()

(* --- part 2: bechamel micro-benchmarks ---------------------------------- *)

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

let bench_tests () =
  let q3 = D.Queries.chain ~relations:4 in
  let q4 = D.Queries.chain ~relations:6 in
  let q5 = D.Queries.chain ~relations:10 in
  let dyn3 = (optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q3).D.Optimizer.plan in
  let opt5 = optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q5 in
  let dyn5 = opt5.D.Optimizer.plan in
  let binding (q : D.Queries.t) =
    List.hd
      (D.Paramgen.bindings ~seed:3 ~trials:1 ~host_vars:q.D.Queries.host_vars
         ~uncertain_memory:true ())
  in
  let env3 = D.Env.of_bindings q3.D.Queries.catalog (binding q3) in
  let env5 = D.Env.of_bindings q5.D.Queries.catalog (binding q5) in
  let b4 = binding q4 in
  [ (* Table 1: the cost of instantiating the full physical algebra once —
       a static optimization of a mid-size query exercises every
       implementation rule. *)
    Test.make ~name:"table1_implementation_rules"
      (Staged.stage (fun () -> ignore (optimize_exn ~mode:D.Optimizer.static q3)));
    (* Figure 3: the per-invocation scenario quantities — one start-up
       evaluation of a dynamic plan. *)
    Test.make ~name:"fig3_scenario_startup_eval"
      (Staged.stage (fun () -> ignore (D.Startup.evaluate env3 dyn3)));
    (* Figure 4: execution-cost evaluation of a resolved plan under true
       bindings. *)
    Test.make ~name:"fig4_anticipated_cost"
      (Staged.stage (fun () ->
           ignore (D.Startup.resolve env3 dyn3).D.Startup.anticipated_cost));
    (* Figure 5: optimization time, static vs dynamic cost model. *)
    Test.make ~name:"fig5_optimize_static_6way"
      (Staged.stage (fun () -> ignore (optimize_exn ~mode:D.Optimizer.static q4)));
    Test.make ~name:"fig5_optimize_dynamic_6way"
      (Staged.stage (fun () ->
           ignore
             (optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q4)));
    (* Figure 6: plan size handling — encoding an access module. *)
    Test.make ~name:"fig6_access_module_encode"
      (Staged.stage (fun () -> ignore (D.Access_module.encode dyn5)));
    (* Figure 7: the choose-plan decision procedure on the largest plan. *)
    Test.make ~name:"fig7_startup_resolve_10way"
      (Staged.stage (fun () -> ignore (D.Startup.resolve env5 dyn5)));
    (* What a plan's first activation pays on top of the pass above:
       compiling the start-up program (kept from the second on). *)
    Test.make ~name:"startup_compile_10way"
      (Staged.stage (fun () -> ignore (D.Startup.compile env5 dyn5)));
    (* Figure 8: a full run-time optimization, the thing dynamic plans
       replace at start-up. *)
    Test.make ~name:"fig8_runtime_optimize_6way"
      (Staged.stage (fun () ->
           ignore (optimize_exn ~mode:(D.Optimizer.Run_time b4) q4)));
    (* Static analysis: the full verifier pass over the largest dynamic
       plan — what `dqep analyze` and the executor's activation hook pay
       per plan. *)
    Test.make ~name:"verify_plan_10way"
      (Staged.stage (fun () ->
           ignore (D.Verify.plan ~catalog:q5.D.Queries.catalog dyn5)));
    (* Static analysis: choose coverage and dead alternatives over the
       parameter-space boxes of the largest dynamic plan — start-up
       programs evaluated over regions. *)
    Test.make ~name:"absint_regions_10way"
      (Staged.stage (fun () ->
           ignore
             (D.Analyses.choose_space ~catalog:q5.D.Queries.catalog
                opt5.D.Optimizer.env dyn5)));
    (* Break-even: one complete dynamic-plan invocation (activation
       decision + execution-cost evaluation). *)
    Test.make ~name:"breakeven_dynamic_invocation"
      (Staged.stage (fun () ->
           let r = D.Startup.resolve env3 dyn3 in
           ignore (D.Startup.evaluate env3 r.D.Startup.plan)));
    (* Ablation: shrinking a trained dynamic plan. *)
    Test.make ~name:"ablation_shrink"
      (Staged.stage (fun () ->
           let adapt = D.Adapt.create dyn3 in
           D.Adapt.record adapt (D.Startup.resolve env3 dyn3);
           ignore (D.Adapt.shrink (D.Env.dynamic q3.D.Queries.catalog) adapt)));
    (* Buffer-pool replacement: one pin miss — an eviction and an
       admission — while cycling over 17 pages on a 16-frame pool, where
       LRU misses on every pin.  The pool first bulk-loads through 4096
       frames and shrinks, as [Database.build] does. *)
    (let pool = D.Buffer_pool.create ~frames:4096 (D.Disk.create ()) in
     for _ = 1 to 4096 do
       D.Buffer_pool.unpin pool (D.Buffer_pool.new_page pool).D.Page.id
     done;
     D.Buffer_pool.flush_all pool;
     D.Buffer_pool.resize pool 16;
     let next = ref 0 in
     Test.make ~name:"pool_evict_cycle"
       (Staged.stage (fun () ->
            D.Buffer_pool.with_page pool !next ignore;
            next := (!next + 1) mod 17)));
    (* Resilience: the supervisor's fault-free overhead over a plain run —
       validation, budget arming and the failover bookkeeping. *)
    (let q1 = D.Queries.chain ~relations:1 in
     let plan1 =
       (optimize_exn ~mode:(D.Optimizer.dynamic ()) q1).D.Optimizer.plan
     in
     let db1 = D.Database.build ~seed:1 q1.D.Queries.catalog in
     let b1 =
       D.Bindings.make
         ~selectivities:(List.map (fun hv -> (hv, 0.3)) q1.D.Queries.host_vars)
         ~memory_pages:64
     in
     Test.make ~name:"resilience_supervised_run"
       (Staged.stage (fun () -> ignore (D.Resilience.run db1 b1 plan1)))) ]

let run_benchmarks () =
  Format.printf "=== micro-benchmarks (Bechamel, monotonic clock) ===@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"dqep" ~fmt:"%s/%s" (bench_tests ()))
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort compare
      in
      List.iter
        (fun (name, ols) ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> Printf.sprintf "%12.1f ns/run" e
            | _ -> "(no estimate)"
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "r2=%.3f" r
            | None -> ""
          in
          Format.printf "%-40s %s  %s@." name estimate r2)
        rows)
    merged;
  Format.printf "@."

(* --- part 3: execution ---------------------------------------------------- *)

(* Three execution workloads: a table scan + filter (the predicate is
   fused into the scan), a two-way hash join and a full-table sort.  No
   indexes, so the optimizer has a single access path per relation.

   Each is timed by the wall clock over [exec_repeats] runs after one
   warm-up run, and reported as the median with its interquartile range.
   Results go to BENCH_exec.json; `exec --check` gates CI on every
   workload returning as many rows as [Reference.eval] over its logical
   query. *)
let exec_scan_instance () =
  let rel =
    D.Relation.make ~name:"S" ~cardinality:20000 ~record_bytes:64
      ~attributes:[ D.Attribute.make ~name:"a" ~domain_size:1000 ]
  in
  let catalog = D.Catalog.create ~page_bytes:2048 ~relations:[ rel ] ~indexes:[] () in
  let query =
    D.Logical.Select
      ( D.Logical.Get_set "S",
        D.Predicate.select ~rel:"S" ~attr:"a" (D.Predicate.Host_var "hv1") )
  in
  let bindings =
    D.Bindings.make ~selectivities:[ ("hv1", 0.5) ] ~memory_pages:256
  in
  let plan =
    (Result.get_ok (D.Optimizer.optimize ~mode:D.Optimizer.static catalog query))
      .D.Optimizer.plan
  in
  ("scan_filter", catalog, query, plan, bindings)

let exec_join_instance () =
  let mk name =
    D.Relation.make ~name ~cardinality:4000 ~record_bytes:64
      ~attributes:
        [ D.Attribute.make ~name:"a" ~domain_size:1000;
          D.Attribute.make ~name:"jl" ~domain_size:512;
          D.Attribute.make ~name:"jr" ~domain_size:512 ]
  in
  let catalog =
    D.Catalog.create ~page_bytes:2048 ~relations:[ mk "T1"; mk "T2" ] ~indexes:[] ()
  in
  let query =
    D.Logical.Join
      ( D.Logical.Select
          ( D.Logical.Get_set "T1",
            D.Predicate.select ~rel:"T1" ~attr:"a" (D.Predicate.Host_var "hv1")
          ),
        D.Logical.Get_set "T2",
        [ D.Predicate.equi
            ~left:(D.Col.make ~rel:"T1" ~attr:"jr")
            ~right:(D.Col.make ~rel:"T2" ~attr:"jl") ] )
  in
  let bindings =
    D.Bindings.make ~selectivities:[ ("hv1", 0.5) ] ~memory_pages:256
  in
  let plan =
    (Result.get_ok (D.Optimizer.optimize ~mode:D.Optimizer.static catalog query))
      .D.Optimizer.plan
  in
  ("hash_join", catalog, query, plan, bindings)

(* The optimizer only inserts Sort as an enforcer, so the sort workload
   is a hand-built plan: full scan of U, sorted on a non-key column.
   The memory grant (1024 pages) holds the whole input, so the sort runs
   in memory rather than spilling runs. *)
let exec_sort_instance () =
  let rel =
    D.Relation.make ~name:"U" ~cardinality:20000 ~record_bytes:64
      ~attributes:
        [ D.Attribute.make ~name:"a" ~domain_size:1000;
          D.Attribute.make ~name:"k" ~domain_size:5000 ]
  in
  let catalog = D.Catalog.create ~page_bytes:2048 ~relations:[ rel ] ~indexes:[] () in
  let bindings =
    D.Bindings.make ~selectivities:[ ("hv1", 0.5) ] ~memory_pages:1024
  in
  let env = D.Env.of_bindings catalog bindings in
  let builder = D.Plan.Builder.create env in
  let scan =
    D.Plan.Builder.operator builder (D.Physical.File_scan "U") ~inputs:[]
      ~rels:[ "U" ]
      ~rows:(D.Estimate.base_rows env "U")
      ~bytes_per_row:64 ~props:D.Props.unordered
  in
  let col = D.Col.make ~rel:"U" ~attr:"k" in
  let plan =
    D.Plan.Builder.operator builder
      (D.Physical.Sort [ col ])
      ~inputs:[ scan ] ~rels:[ "U" ] ~rows:scan.D.Plan.rows ~bytes_per_row:64
      ~props:(D.Props.ordered [ col ])
  in
  ("sort", catalog, D.Logical.Get_set "U", plan, bindings)

let exec_repeats = 15

type exec_result = {
  name : string;
  wall_seconds : float list;  (* one per timed run *)
  rows : int;
  expected_rows : int;  (* [Reference.eval] over the logical query *)
  batches : int;
}

let exec_series (name, catalog, query, plan, bindings) =
  let db = D.Database.build ~frames:1024 ~seed:7 catalog in
  let env = D.Env.of_bindings catalog bindings in
  let run () = D.Executor.execute db env plan in
  (* The warm-up run fills the buffer pool. *)
  let tuples, profile = run () in
  let wall_seconds =
    List.init exec_repeats (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (run ());
        Unix.gettimeofday () -. t0)
  in
  let _, expected = D.Reference.eval db bindings query in
  { name;
    wall_seconds;
    rows = List.length tuples;
    expected_rows = List.length expected;
    batches = profile.D.Exec_common.batches }

let median xs = D.Stats.percentile 50. xs
let quartiles xs = (D.Stats.percentile 25. xs, D.Stats.percentile 75. xs)

let exec_json series =
  let open D.Json in
  let one s =
    let q1, q3 = quartiles s.wall_seconds in
    Obj
      [ ("name", String s.name);
        ("runs", Int (List.length s.wall_seconds));
        ("median_seconds", Float (median s.wall_seconds));
        ("q1_seconds", Float q1);
        ("q3_seconds", Float q3);
        ("rows", Int s.rows);
        ("reference_rows", Int s.expected_rows);
        ("batches", Int s.batches) ]
  in
  to_string_pretty
    (Obj
       [ ("benchmark", String "dqep exec");
         ("unit", String "wall_seconds_per_run");
         ("results", List (List.map one series)) ])

let exec_bench ~check () =
  Format.printf "=== execution ===@.";
  let series =
    List.map exec_series
      [ exec_scan_instance (); exec_join_instance (); exec_sort_instance () ]
  in
  List.iter
    (fun s ->
      let q1, q3 = quartiles s.wall_seconds in
      Format.printf
        "%-12s %8.3f ms/run median (IQR %.3f-%.3f ms, %d runs; %d rows, \
         %d batches)@."
        s.name (median s.wall_seconds *. 1e3) (q1 *. 1e3) (q3 *. 1e3)
        (List.length s.wall_seconds) s.rows s.batches)
    series;
  let path = "BENCH_exec.json" in
  let oc = open_out path in
  output_string oc (exec_json series);
  close_out oc;
  Format.printf "wrote %s@." path;
  if check then
    match List.filter (fun s -> s.rows <> s.expected_rows) series with
    | [] -> Format.printf "exec --check: ok (rows agree with the reference)@."
    | bad ->
      List.iter
        (fun s ->
          Printf.eprintf "exec --check: %s returned %d rows, reference %d\n"
            s.name s.rows s.expected_rows)
        bad;
      exit 1

(* --- part 4: resource governance ----------------------------------------- *)

(* Two governance metrics CI gates on:

   - cancellation latency: how long after Governor.cancel a running
     query actually stops (raises through its next check).  Measured
     wall-clock across repeated runs, cancel issued from another domain
     once the query is observably mid-flight.
   - shed rate: the fraction of submissions a zero-queue session rejects
     at the door while a slot is busy — admission control doing its job
     under overload.

   Results go to BENCH_govern.json; `govern --check` gates on the p95
   cancellation latency staying under a generous scheduling bound, on
   overload actually shedding, and on zero buffer-pool pin leaks. *)

let govern_latency_bound_s = 0.1

(* Nearest-rank percentile, tolerating the all-runs-completed-early case
   where no latency samples exist. *)
let percentile samples p =
  match samples with [] -> 0. | l -> D.Stats.percentile p l

let govern_bench ~check () =
  Format.printf "=== resource governance: cancellation and shedding ===@.";
  let q = D.Queries.chain ~relations:2 in
  let plan =
    (Result.get_ok
       (D.Optimizer.optimize
          ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
          q.D.Queries.catalog q.D.Queries.query))
      .D.Optimizer.plan
  in
  let bindings =
    D.Bindings.make ~selectivities:[ ("hv1", 0.5); ("hv2", 0.5) ]
      ~memory_pages:64
  in
  let leaks = ref 0 in
  let note_leaks db =
    match D.Buffer_pool.leak_check (D.Database.pool db) with
    | Ok () -> ()
    | Error msg ->
      incr leaks;
      Printf.eprintf "govern: pin leak: %s\n" msg
  in
  (* Cancellation latency: cancel mid-run from this domain, the worker
     records when the cancellation surfaced. *)
  let rounds = 30 in
  let samples = ref [] in
  let completed_early = ref 0 in
  for seed = 1 to rounds do
    let db = D.Database.build ~seed q.D.Queries.catalog in
    let gov = D.Governor.create ~check_every:1 () in
    let finished = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          let r =
            try
              ignore (D.Executor.run db ~gov bindings plan);
              None
            with D.Governor.Cancelled _ -> Some (Unix.gettimeofday ())
          in
          Atomic.set finished true;
          r)
    in
    while D.Governor.checks gov < 200 && not (Atomic.get finished) do
      Domain.cpu_relax ()
    done;
    let cancelled_at = Unix.gettimeofday () in
    D.Governor.cancel gov ~reason:"bench";
    (match Domain.join d with
    | Some observed_at -> samples := (observed_at -. cancelled_at) :: !samples
    | None -> incr completed_early);
    note_leaks db
  done;
  let sorted = List.sort Float.compare !samples in
  let p50 = percentile sorted 50. and p95 = percentile sorted 95. in
  Format.printf
    "cancellation: %d/%d cancelled mid-run, latency p50 %.3f ms, p95 %.3f \
     ms (bound %.0f ms)@."
    (List.length sorted) rounds (p50 *. 1e3) (p95 *. 1e3)
    (govern_latency_bound_s *. 1e3);
  (* Shed rate: a zero-queue, single-slot session under three competing
     submitters — overlapping submissions shed at the door. *)
  let session =
    D.Session.create
      ~config:(D.Session.config ~max_inflight:1 ~max_queue:0 ())
      ()
  in
  let jobs = 24 in
  let next = Atomic.make 0 in
  let shed = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let j = Atomic.fetch_and_add next 1 in
      if j < jobs then begin
        let db = D.Database.build ~seed:(100 + j) q.D.Queries.catalog in
        (match D.Session.submit session db bindings plan with
        | D.Session.Shed _ -> ignore (Atomic.fetch_and_add shed 1 : int)
        | D.Session.Completed _ | D.Session.Failed _ -> ());
        note_leaks db;
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let shed = Atomic.get shed in
  let shed_rate = float_of_int shed /. float_of_int jobs in
  Format.printf "shedding: %d/%d submissions shed at the door (rate %.2f)@."
    shed jobs shed_rate;
  let path = "BENCH_govern.json" in
  let oc = open_out path in
  output_string oc
    D.Json.(
      to_string_pretty
        (Obj
           [ ("benchmark", String "dqep resource governance");
             ( "cancellation",
               Obj
                 [ ("rounds", Int rounds);
                   ("cancelled_mid_run", Int (List.length sorted));
                   ("completed_early", Int !completed_early);
                   ("latency_p50_s", Float p50);
                   ("latency_p95_s", Float p95);
                   ("latency_bound_s", Float govern_latency_bound_s) ] );
             ( "shedding",
               Obj
                 [ ("submitted", Int jobs);
                   ("shed", Int shed);
                   ("shed_rate", Float shed_rate) ] );
             ("pin_leaks", Int !leaks) ]));
  close_out oc;
  Format.printf "wrote %s@." path;
  if check then begin
    let failures = ref [] in
    if sorted = [] then
      failures := "no run was cancelled mid-flight" :: !failures;
    if p95 > govern_latency_bound_s then
      failures :=
        Printf.sprintf "p95 cancellation latency %.3f ms over the %.0f ms bound"
          (p95 *. 1e3)
          (govern_latency_bound_s *. 1e3)
        :: !failures;
    if shed = 0 then
      failures := "overload produced no shedding" :: !failures;
    if !leaks > 0 then
      failures := Printf.sprintf "%d pin leak(s)" !leaks :: !failures;
    match !failures with
    | [] -> Format.printf "govern --check: ok@."
    | fs ->
      List.iter (Printf.eprintf "govern --check: %s\n") (List.rev fs);
      exit 1
  end

(* --- part 5: observation pipeline overhead -------------------------------- *)

(* The observation layer's contract is "free when off, cheap when on":
   every instrumented call sites a single boolean short-circuit when no
   trace is attached, a plain atomic add when counters are enabled, and
   per-operator taps only when explicitly requested.  This mode measures
   all three regimes on the exec scan/filter workload and gates CI on the
   counters-on run staying within [obs_overhead_budget] of the untraced
   run (plus a small absolute epsilon to absorb timer jitter on a
   millisecond-scale workload). *)

let obs_overhead_budget = 0.05
let obs_epsilon_s = 5e-4

let obs_bench ~check () =
  Format.printf "=== observation pipeline: tracing overhead ===@.";
  let _, catalog, _, plan, bindings = exec_scan_instance () in
  let db = D.Database.build ~frames:1024 ~seed:7 catalog in
  let env = D.Env.of_bindings catalog bindings in
  let measure name run =
    ignore (run ());
    (* warm the buffer pool *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, per_run = D.Timer.cpu_auto ~min_seconds:0.05 run in
      if per_run < !best then best := per_run
    done;
    Format.printf "%-34s %10.3f ms/run@." name (!best *. 1e3);
    (name, !best)
  in
  let off = measure "off (Trace.null)" (fun () -> D.Executor.execute db env plan) in
  let metrics =
    let obs = D.Obs.Trace.create () in
    measure "metrics (counters, no sink)" (fun () ->
        D.Executor.execute db env ~obs plan)
  in
  let taps =
    let obs = D.Obs.Trace.create ~taps:true () in
    measure "taps (operator cardinalities)" (fun () ->
        D.Executor.execute db env ~obs plan)
  in
  let base = snd off in
  let overhead (_, s) = if base > 0. then (s -. base) /. base else 0. in
  let path = "BENCH_obs.json" in
  let oc = open_out path in
  output_string oc
    D.Json.(
      to_string_pretty
        (Obj
           [ ("benchmark", String "dqep observation overhead");
             ("workload", String "exec scan_filter");
             ("unit", String "cpu_seconds_per_run");
             ( "series",
               List
                 (List.map
                    (fun ((name, s) as pt) ->
                      Obj
                        [ ("mode", String name);
                          ("cpu_seconds", Float s);
                          ("overhead_vs_off", Float (overhead pt)) ])
                    [ off; metrics; taps ]) );
             ("budget", Float obs_overhead_budget) ]));
  close_out oc;
  Format.printf "wrote %s@." path;
  if check then begin
    let limit = (base *. (1. +. obs_overhead_budget)) +. obs_epsilon_s in
    if snd metrics > limit then begin
      Printf.eprintf
        "obs --check: counters-on run %.3f ms over budget (off %.3f ms, \
         limit %.3f ms)\n"
        (snd metrics *. 1e3) (base *. 1e3) (limit *. 1e3);
      exit 1
    end;
    Format.printf
      "obs --check: ok (metrics %.3f ms <= %.3f ms = off %.3f ms + %.0f%%)@."
      (snd metrics *. 1e3) (limit *. 1e3) (base *. 1e3)
      (obs_overhead_budget *. 100.)
  end

(* --- static analysis cost ------------------------------------------------ *)

(* The abstract-interpretation analyses are meant to run at admission
   time on every plan, so they must stay cheap relative to producing the
   plan in the first place.  This mode times the full analysis bundle
   (choose coverage, dead alternatives, certificates, fingerprint and
   pipeline lints) against dynamic-memory optimization of the paper's
   10-way join — the most choose-heavy plan the corpus produces — and
   gates CI on analysis <= optimization.  The two are timed in
   alternating pairs and compared by their medians, so a burst of host
   load lands on both sides instead of on whichever phase it hits. *)

let analyze_pairs = 7

let analyze_bench ~check () =
  Format.printf "=== static analysis: cost vs optimization ===@.";
  let q = D.Queries.chain ~relations:10 in
  let mode = D.Optimizer.dynamic ~uncertain_memory:true () in
  let r = optimize_exn ~mode q in
  let plan = r.D.Optimizer.plan
  and env = r.D.Optimizer.env in
  let budget_bytes = 1 lsl 20 in
  let optimize () = optimize_exn ~mode q in
  let analyze () =
    D.Analyses.plan ~budget_bytes ~catalog:q.D.Queries.catalog env plan
  in
  let time run = snd (D.Timer.cpu_auto ~min_seconds:0.05 run) in
  ignore (optimize ());
  let findings = analyze () in
  let pairs =
    List.init analyze_pairs (fun _ ->
        let o = time optimize in
        (o, time analyze))
  in
  let median xs = D.Stats.percentile 50. xs in
  let iqr xs = D.Stats.percentile 75. xs -. D.Stats.percentile 25. xs in
  let optimize_s = median (List.map fst pairs)
  and analyze_s = median (List.map snd pairs) in
  let report name xs =
    Format.printf "%-34s %10.3f ms/run median (IQR %.3f ms, %d runs)@." name
      (median xs *. 1e3) (iqr xs *. 1e3) (List.length xs)
  in
  report "optimize (dynamic-mem, 10-way)" (List.map fst pairs);
  report "analyze (all DQEP5xx analyses)" (List.map snd pairs);
  let path = "BENCH_analyze.json" in
  let oc = open_out path in
  output_string oc
    D.Json.(
      to_string_pretty
        (Obj
           [ ("benchmark", String "dqep static analysis cost");
             ("workload", String "chain10 dynamic-mem");
             ("unit", String "cpu_seconds_per_run");
             ("plan_nodes", Int (D.Plan.node_count plan));
             ("choose_nodes", Int (D.Plan.choose_count plan));
             ("findings", Int (List.length findings));
             ("pairs", Int analyze_pairs);
             ("optimize_cpu_seconds", Float optimize_s);
             ("optimize_iqr_seconds", Float (iqr (List.map fst pairs)));
             ("analyze_cpu_seconds", Float analyze_s);
             ("analyze_iqr_seconds", Float (iqr (List.map snd pairs)));
             ( "analyze_over_optimize",
               Float (if optimize_s > 0. then analyze_s /. optimize_s else 0.)
             ) ]));
  close_out oc;
  Format.printf "wrote %s@." path;
  if check then
    if analyze_s > optimize_s then begin
      Printf.eprintf
        "analyze --check: median analysis %.3f ms slower than median \
         optimization %.3f ms\n"
        (analyze_s *. 1e3) (optimize_s *. 1e3);
      exit 1
    end
    else
      Format.printf
        "analyze --check: ok (median analysis %.3f ms <= median optimize %.3f \
         ms)@."
        (analyze_s *. 1e3) (optimize_s *. 1e3)

(* --- the serving layer --------------------------------------------------- *)

(* The plan cache's reason to exist, measured: a warm cache hit (start-up
   resolution of the cached dynamic plan under the request's bindings)
   must be strictly cheaper than a cold request that optimizes the shape
   first.  One parameterized 5-way chain over the paper catalog is
   served through a generously provisioned server — ample admission
   slots and queue, no deadlines, no fault injection — so every request
   completes and the two latency series differ only in the optimizer
   work.  The cold series evicts the shape's cache entry before each
   request; both series run under one fixed, highly selective binding
   on every relation, so execution below the two paths is identical,
   small work and the optimizer dominates the cold latency.  A multi-domain batch over the warm cache adds a throughput
   figure.  Results go to BENCH_serve.json; `serve --check` gates CI on
   the cache-hit p95 strictly below the cold-optimize p95, with zero
   anomalies (every request completed on the expected path). *)

module S = D.Serve

let serve_bench ~check () =
  Format.printf "=== serving layer: cache hit vs cold optimize ===@.";
  let relations = 5 in
  let catalog = D.Paper_catalog.make ~relations in
  let hosts = List.init relations (fun i -> Printf.sprintf "u%d" (i + 1)) in
  let sql =
    let rel i = D.Paper_catalog.rel_name i in
    let tables = List.init relations (fun i -> rel (i + 1)) in
    let selections =
      List.mapi
        (fun i hv ->
          Printf.sprintf "%s.%s <= :%s" (rel (i + 1))
            D.Paper_catalog.select_attr hv)
        hosts
    in
    let joins =
      List.init (relations - 1) (fun i ->
          Printf.sprintf "%s.%s = %s.%s" (rel (i + 1))
            D.Paper_catalog.join_right_attr (rel (i + 2))
            D.Paper_catalog.join_left_attr)
    in
    Printf.sprintf "SELECT * FROM %s WHERE %s"
      (String.concat ", " tables)
      (String.concat " AND " (selections @ joins))
  in
  let clients = 4 in
  let acquire, release =
    S.Server.db_pool
      ~build:(fun () -> D.Database.build ~seed:7 catalog)
      ~slots:(clients + 2) ()
  in
  let server =
    S.Server.create
      ~config:
        (S.Server.config
           ~session:(D.Session.config ~max_inflight:clients ~max_queue:256 ())
           ())
      ~acquire ~release catalog
  in
  let key =
    match D.Sql.parse sql with
    | Ok ast -> S.Plan_cache.key ast
    | Error e ->
      Printf.eprintf "serve: bad benchmark sql: %s\n" e;
      exit 2
  in
  let anomalies = ref [] in
  let anomaly fmt =
    Printf.ksprintf (fun s -> anomalies := s :: !anomalies) fmt
  in
  let request ?(u = 0.02) i =
    S.Protocol.Run
      { S.Protocol.id = Some i;
        bindings = List.map (fun hv -> (hv, u)) hosts;
        memory_pages = Some 64;
        deadline_ms = None;
        retries = None;
        risk = None;
        sql }
  in
  let run_one ~expect i =
    match S.Server.handle server (request i) with
    | S.Protocol.Ok_reply { cache; latency_ms; _ } ->
      if cache <> expect then
        anomaly "request %d took the %s path, expected %s" i
          (S.Protocol.cache_role_name cache)
          (S.Protocol.cache_role_name expect);
      Some latency_ms
    | r ->
      anomaly "request %d did not complete: %s" i
        (S.Protocol.render_response r);
      None
  in
  let cold_rounds = 40 and warm_rounds = 200 in
  (* Cold path: evict the shape before every request, forcing a full
     re-optimize in front of the identical execution. *)
  let cold =
    List.filter_map
      (fun i ->
        ignore (S.Plan_cache.invalidate (S.Server.cache server) ~key : bool);
        run_one ~expect:S.Protocol.Miss i)
      (List.init cold_rounds (fun i -> i))
  in
  (* Warm path: the last cold request left the entry cached; every
     request from here on must hit, under the same binding the cold
     series ran. *)
  let warm =
    List.filter_map
      (fun i -> run_one ~expect:S.Protocol.Hit (1000 + i))
      (List.init warm_rounds (fun i -> i))
  in
  let batch_n = 256 in
  let lines =
    Array.init batch_n (fun i ->
        let u = 0.02 +. (0.1 *. float_of_int (i mod 17) /. 17.) in
        S.Protocol.render_request (request ~u (2000 + i)))
  in
  let t0 = Unix.gettimeofday () in
  let responses = S.Server.run_batch server ~clients lines in
  let batch_elapsed = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let batch_ok =
    Array.fold_left
      (fun acc line ->
        match S.Protocol.parse_response line with
        | Ok (S.Protocol.Ok_reply _) -> acc + 1
        | _ -> acc)
      0 responses
  in
  if batch_ok <> batch_n then
    anomaly "warm batch: only %d/%d requests completed" batch_ok batch_n;
  let throughput = float_of_int batch_ok /. batch_elapsed in
  let cold_sorted = List.sort Float.compare cold in
  let warm_sorted = List.sort Float.compare warm in
  let cold_p50 = percentile cold_sorted 50.
  and cold_p95 = percentile cold_sorted 95.
  and hit_p50 = percentile warm_sorted 50.
  and hit_p95 = percentile warm_sorted 95. in
  Format.printf
    "cold optimize: %d requests, p50 %.3f ms, p95 %.3f ms@."
    (List.length cold) cold_p50 cold_p95;
  Format.printf "cache hit:     %d requests, p50 %.3f ms, p95 %.3f ms@."
    (List.length warm) hit_p50 hit_p95;
  Format.printf
    "warm batch:    %d/%d completed over %d clients, %.0f requests/s@."
    batch_ok batch_n clients throughput;
  List.iter (Format.printf "anomaly: %s@.") (List.rev !anomalies);
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  output_string oc
    D.Json.(
      to_string_pretty
        (Obj
           [ ("benchmark", String "dqep serving layer");
             ( "workload",
               String
                 (Printf.sprintf "%d-way chain over the paper catalog"
                    relations) );
             ("sql", String sql);
             ("unit", String "milliseconds_per_request");
             ( "cold_optimize",
               Obj
                 [ ("requests", Int cold_rounds);
                   ("samples", Int (List.length cold));
                   ("p50_ms", Float cold_p50);
                   ("p95_ms", Float cold_p95) ] );
             ( "cache_hit",
               Obj
                 [ ("requests", Int warm_rounds);
                   ("samples", Int (List.length warm));
                   ("p50_ms", Float hit_p50);
                   ("p95_ms", Float hit_p95) ] );
             ( "warm_batch",
               Obj
                 [ ("clients", Int clients);
                   ("requests", Int batch_n);
                   ("completed", Int batch_ok);
                   ("elapsed_s", Float batch_elapsed);
                   ("throughput_rps", Float throughput) ] );
             ( "anomalies",
               List (List.rev_map (fun s -> String s) !anomalies) );
             ("server", S.Server.stats_json server) ]));
  close_out oc;
  Format.printf "wrote %s@." path;
  if check then begin
    let failures = ref (List.rev !anomalies) in
    let fail fmt =
      Printf.ksprintf (fun s -> failures := !failures @ [ s ]) fmt
    in
    if List.length cold < cold_rounds then
      fail "only %d/%d cold-optimize samples" (List.length cold) cold_rounds;
    if List.length warm < warm_rounds then
      fail "only %d/%d cache-hit samples" (List.length warm) warm_rounds;
    if not (hit_p95 < cold_p95) then
      fail
        "cache-hit p95 %.3f ms not strictly below cold-optimize p95 %.3f ms"
        hit_p95 cold_p95;
    match !failures with
    | [] ->
      Format.printf "serve --check: ok (hit p95 %.3f ms < cold p95 %.3f ms)@."
        hit_p95 cold_p95
    | fs ->
      List.iter (Printf.eprintf "serve --check: %s\n") fs;
      exit 1
  end

(* --- expected-cost vs interval search ------------------------------------ *)

(* The distribution domain's payoff, measured head to head: least-
   expected-cost ranking collapses choose alternatives that interval
   incomparability must keep, without giving up plan quality.  Each
   workload query (the five paper queries plus the 10-way chain) is
   optimized twice in Dynamic mode — interval/worst-case, which is the
   pre-refactor search, and expected-cost — and both dynamic plans are
   then resolved at start-up under a grid of bindings spanning the
   selectivity range and priced against the oracle: a Run_time-mode
   optimization under each binding, which knows the truth the dynamic
   plans hedge against.  Regret is the relative excess of the plan's
   mean resolved cost over the oracle's mean — expected regret under a
   uniform prior, the quantity the expected-cost policy is built to
   minimize (a single-point regret would instead reward whichever plan
   happens to be tuned to that point).  Results go
   to BENCH_opt.json; `opt --check` gates CI on (a) expected-cost
   emitting no more choose nodes than interval search on every query
   and strictly fewer in aggregate, (b) expected-cost regret within 5%
   on every query, and (c) expected-cost optimization of the 10-way
   join staying within 3x interval-mode optimization time. *)

let opt_bench ~check () =
  Format.printf "=== expected-cost vs interval search ===@.";
  let workload =
    List.map
      (fun (q : D.Queries.t) -> (Printf.sprintf "paper%d" q.D.Queries.id, q))
      (D.Queries.paper_queries ())
    @ [ ("chain10", D.Queries.chain ~relations:10) ]
  in
  let expected_options =
    { D.Optimizer.default_options with risk = D.Risk.Expected }
  in
  let optimize ?options ~mode (q : D.Queries.t) =
    Result.get_ok
      (D.Optimizer.optimize ?options ~mode q.D.Queries.catalog
         q.D.Queries.query)
  in
  let rows = ref [] and failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let total_worst = ref 0 and total_expected = ref 0 in
  let grid = [ 0.05; 0.25; 0.5; 0.75; 0.95 ] in
  List.iter
    (fun (label, (q : D.Queries.t)) ->
      let bindings =
        List.map
          (fun sel ->
            D.Bindings.make
              ~selectivities:
                (List.map (fun hv -> (hv, sel)) q.D.Queries.host_vars)
              ~memory_pages:64)
          grid
      in
      let worst = optimize ~mode:(D.Optimizer.dynamic ()) q in
      let expected =
        optimize ~options:expected_options ~mode:(D.Optimizer.dynamic ()) q
      in
      let mean_cost plan =
        List.fold_left
          (fun acc b ->
            let env = D.Env.of_bindings q.D.Queries.catalog b in
            acc +. (D.Startup.resolve env plan).D.Startup.anticipated_cost)
          0. bindings
        /. float_of_int (List.length bindings)
      in
      let oracle_cost =
        List.fold_left
          (fun acc b ->
            let o = optimize ~mode:(D.Optimizer.Run_time b) q in
            let env = D.Env.of_bindings q.D.Queries.catalog b in
            acc
            +. (D.Startup.resolve env o.D.Optimizer.plan)
                 .D.Startup.anticipated_cost)
          0. bindings
        /. float_of_int (List.length bindings)
      in
      let regret r =
        let c = mean_cost r.D.Optimizer.plan in
        if oracle_cost > 0. then (c -. oracle_cost) /. oracle_cost else 0.
      in
      let cw = worst.D.Optimizer.stats.D.Optimizer.choose_nodes
      and ce = expected.D.Optimizer.stats.D.Optimizer.choose_nodes in
      let rw = regret worst and re = regret expected in
      total_worst := !total_worst + cw;
      total_expected := !total_expected + ce;
      Format.printf
        "%-8s chooses %2d -> %2d  pruned %3d  groups %3d  regret %5.2f%% -> \
         %5.2f%%@."
        label cw ce
        expected.D.Optimizer.stats.D.Optimizer.alternatives_pruned
        expected.D.Optimizer.stats.D.Optimizer.groups (rw *. 100.)
        (re *. 100.);
      if ce > cw then
        fail "%s: expected-cost emitted %d choose nodes, interval %d" label
          ce cw;
      if re > 0.05 then
        fail "%s: expected-cost regret %.2f%% above 5%%" label (re *. 100.);
      rows :=
        D.Json.(
          Obj
            [ ("query", String label);
              ("interval_choose_nodes", Int cw);
              ("expected_choose_nodes", Int ce);
              ( "alternatives_pruned",
                Int expected.D.Optimizer.stats.D.Optimizer.alternatives_pruned
              );
              ( "memo_groups",
                Int expected.D.Optimizer.stats.D.Optimizer.groups );
              ( "interval_optimize_cpu_seconds",
                Float worst.D.Optimizer.stats.D.Optimizer.cpu_seconds );
              ( "expected_optimize_cpu_seconds",
                Float expected.D.Optimizer.stats.D.Optimizer.cpu_seconds );
              ("oracle_cost", Float oracle_cost);
              ("interval_regret", Float rw);
              ("expected_regret", Float re) ])
        :: !rows)
    workload;
  if !total_expected >= !total_worst then
    fail "expected-cost kept %d choose nodes in aggregate, interval %d"
      !total_expected !total_worst;
  (* The 10-way timing gate runs on best-of-5 measured CPU, not the
     single-shot stats above. *)
  let chain10 = D.Queries.chain ~relations:10 in
  let measure run =
    ignore (run ());
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, per_run = D.Timer.cpu_auto ~min_seconds:0.05 run in
      if per_run < !best then best := per_run
    done;
    !best
  in
  let t_interval =
    measure (fun () -> optimize ~mode:(D.Optimizer.dynamic ()) chain10)
  in
  let t_expected =
    measure (fun () ->
        optimize ~options:expected_options ~mode:(D.Optimizer.dynamic ())
          chain10)
  in
  Format.printf "chain10 optimize: interval %.3f ms, expected %.3f ms@."
    (t_interval *. 1e3) (t_expected *. 1e3);
  if t_expected > 3. *. t_interval then
    fail "chain10 expected-cost optimize %.3f ms above 3x interval %.3f ms"
      (t_expected *. 1e3) (t_interval *. 1e3);
  let path = "BENCH_opt.json" in
  let oc = open_out path in
  output_string oc
    D.Json.(
      to_string_pretty
        (Obj
           [ ("benchmark", String "dqep expected-cost vs interval search");
             ( "workload",
               String "paper queries 1-5 + 10-way chain, Dynamic mode" );
             ( "binding_grid",
               String
                 "selectivity 0.05/0.25/0.5/0.75/0.95 per host var, 64 \
                  pages; regret is over mean resolved cost" );
             ("queries", List (List.rev !rows));
             ("interval_choose_nodes_total", Int !total_worst);
             ("expected_choose_nodes_total", Int !total_expected);
             ( "chain10_optimize",
               Obj
                 [ ("interval_cpu_seconds", Float t_interval);
                   ("expected_cpu_seconds", Float t_expected);
                   ( "expected_over_interval",
                     Float
                       (if t_interval > 0. then t_expected /. t_interval
                        else 0.) ) ] ) ]));
  close_out oc;
  Format.printf "wrote %s@." path;
  if check then
    match List.rev !failures with
    | [] ->
      Format.printf
        "opt --check: ok (choose nodes %d -> %d in aggregate, all regret \
         <= 5%%)@."
        !total_worst !total_expected
    | fs ->
      List.iter (Printf.eprintf "opt --check: %s\n") fs;
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] ->
    reproduce ();
    run_benchmarks ()
  | "exec" :: rest -> exec_bench ~check:(List.mem "--check" rest) ()
  | "govern" :: rest -> govern_bench ~check:(List.mem "--check" rest) ()
  | "obs" :: rest -> obs_bench ~check:(List.mem "--check" rest) ()
  | "analyze" :: rest -> analyze_bench ~check:(List.mem "--check" rest) ()
  | "serve" :: rest -> serve_bench ~check:(List.mem "--check" rest) ()
  | "opt" :: rest -> opt_bench ~check:(List.mem "--check" rest) ()
  | args ->
    Printf.eprintf
      "usage: %s [exec [--check] | govern [--check] | obs [--check] | \
       analyze [--check] | serve [--check] | opt [--check]] (got: %s)\n"
      Sys.argv.(0)
      (String.concat " " args);
    exit 2
