(* dqep: command-line driver.

   Subcommands:
   - report:   regenerate the paper's tables/figures and the ablations
   - optimize: optimize one chain query and print the plan
   - run:      execute a query on synthetic data and report results/I/O
   - catalog:  print the experimental catalog *)

open Cmdliner
module D = Dqep

let setup_verbosity verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level D.Search.log_src (Some Logs.Debug)
  end

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Trace optimizer goals.")

(* Shared by run/serve/analyze: the uncertainty posture used to rank
   plans during optimization and to resolve choose-plan operators at
   start-up time.  Absent, each layer keeps its own default (worst-case
   interval search; expected-cost start-up resolution). *)
let risk_conv =
  Arg.conv
    ( (fun s ->
        match D.Risk.of_string s with
        | Some r -> Ok r
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "invalid risk posture %S (want expected|worst|quantile:P)" s))),
      D.Risk.pp )

let risk_arg =
  Arg.(value & opt (some risk_conv) None
       & info [ "risk" ] ~docv:"POSTURE"
           ~env:(Cmd.Env.info "DQEP_RISK")
           ~doc:"Cost-uncertainty posture: 'worst' ranks plans by their \
                 interval worst case (the paper's search, the default), \
                 'expected' by least expected cost over the scenario grid \
                 (collapses incomparable near-ties into fewer choose-plan \
                 alternatives), 'quantile:P' by the P-quantile for P in \
                 [0,1]. Also steers start-up-time resolution of \
                 choose-plan operators.")

(* --- report -------------------------------------------------------------- *)

let all_experiment_ids =
  [ "table1"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "breakeven";
    "shrink"; "domination"; "pruning"; "sharing"; "exhaustive"; "midquery"; "bounds"; "execution" ]

let report_cmd =
  let ids =
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiments to run: all, or any of table1, fig3-fig8, \
                 breakeven, shrink, domination, pruning, sharing, \
                 exhaustive, midquery, bounds, execution.")
  in
  let trials =
    Arg.(value & opt int 100 & info [ "trials" ] ~doc:"Random bindings per query (paper: 100).")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Override the RNG seed.") in
  let csv_dir =
    Arg.(value & opt (some string) None & info [ "csv-dir" ] ~doc:"Also write each report as CSV into this directory.")
  in
  let run ids trials seed csv_dir =
    let ids = if List.mem "all" ids then all_experiment_ids else ids in
    List.iter
      (fun id ->
        if not (List.mem id all_experiment_ids) then begin
          Printf.eprintf "unknown experiment %s\n" id;
          exit 2
        end)
      ids;
    let measurements =
      lazy
        (let queries = D.Queries.paper_queries () in
         List.concat_map
           (fun u ->
             List.map (fun q -> D.Experiments.Common.measure ~trials ?seed q u) queries)
           [ D.Experiments.Common.Sel_only; D.Experiments.Common.Sel_and_memory ])
    in
    let report_of = function
      | "table1" -> D.Experiments.Table1.report ()
      | "fig3" -> D.Experiments.Figures.fig3 (Lazy.force measurements)
      | "fig4" -> D.Experiments.Figures.fig4 (Lazy.force measurements)
      | "fig5" -> D.Experiments.Figures.fig5 (Lazy.force measurements)
      | "fig6" -> D.Experiments.Figures.fig6 (Lazy.force measurements)
      | "fig7" -> D.Experiments.Figures.fig7 (Lazy.force measurements)
      | "fig8" -> D.Experiments.Figures.fig8 (Lazy.force measurements)
      | "breakeven" -> D.Experiments.Figures.breakeven (Lazy.force measurements)
      | "shrink" -> D.Experiments.Ablations.shrink ()
      | "domination" -> D.Experiments.Ablations.domination ()
      | "pruning" -> D.Experiments.Ablations.pruning ()
      | "sharing" -> D.Experiments.Ablations.sharing (Lazy.force measurements)
      | "exhaustive" -> D.Experiments.Ablations.exhaustive ()
      | "midquery" -> D.Experiments.Ablations.midquery ()
      | "bounds" -> D.Experiments.Ablations.bounds ()
      | "execution" -> D.Experiments.Validation.report ()
      | id -> invalid_arg id
    in
    List.iter
      (fun id ->
        let report = report_of id in
        D.Experiments.Report.render Format.std_formatter report;
        match csv_dir with
        | None -> ()
        | Some dir ->
          let path = Filename.concat dir (id ^ ".csv") in
          let oc = open_out path in
          output_string oc (D.Experiments.Report.to_csv report);
          close_out oc;
          Printf.printf "wrote %s\n" path)
      ids
  in
  Cmd.v (Cmd.info "report" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ ids $ trials $ seed $ csv_dir)

(* --- optimize ------------------------------------------------------------ *)

let relations_arg =
  Arg.(value & opt int 4 & info [ "relations"; "n" ] ~doc:"Number of chain-joined relations.")

let optimize_cmd =
  let mode =
    Arg.(value & opt string "dynamic"
         & info [ "mode" ] ~doc:"static | dynamic | dynamic-mem | runtime")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~doc:"Write the plan DAG as Graphviz to this file.")
  in
  let decide =
    Arg.(value & opt (some string) None
         & info [ "decide" ]
             ~doc:"Comma-separated selectivities; shows every choose-plan \
                   decision under those bindings.")
  in
  let run relations mode verbose dot decide =
    setup_verbosity verbose;
    let q = D.Queries.chain ~relations in
    let mode =
      match mode with
      | "static" -> D.Optimizer.static
      | "dynamic" -> D.Optimizer.dynamic ()
      | "dynamic-mem" -> D.Optimizer.dynamic ~uncertain_memory:true ()
      | "runtime" ->
        let bindings =
          D.Paramgen.bindings ~seed:1 ~trials:1 ~host_vars:q.D.Queries.host_vars
            ~uncertain_memory:true ()
        in
        D.Optimizer.Run_time (List.hd bindings)
      | m ->
        Printf.eprintf "unknown mode %s\n" m;
        exit 2
    in
    match D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query with
    | Error e ->
      Printf.eprintf "optimization failed: %s\n" e;
      exit 1
    | Ok r ->
      Format.printf "query:@.%a@.@." D.Logical.pp q.D.Queries.query;
      Format.printf
        "optimized in %.4fs CPU: %d groups, %d logical exprs, %.3g logical \
         alternatives, %d candidates (%d pruned)@."
        r.D.Optimizer.stats.D.Optimizer.cpu_seconds
        r.D.Optimizer.stats.D.Optimizer.groups
        r.D.Optimizer.stats.D.Optimizer.logical_exprs
        r.D.Optimizer.stats.D.Optimizer.logical_alternatives
        r.D.Optimizer.stats.D.Optimizer.candidates
        r.D.Optimizer.stats.D.Optimizer.pruned;
      Format.printf "plan (%d nodes, %d choose-plan operators):@.%a@."
        (D.Plan.node_count r.D.Optimizer.plan)
        (D.Plan.choose_count r.D.Optimizer.plan)
        D.Plan.pp r.D.Optimizer.plan;
      (match dot with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        output_string oc (D.Plan.to_dot r.D.Optimizer.plan);
        close_out oc;
        Format.printf "wrote %s (render with: dot -Tsvg %s)@." path path);
      (match decide with
      | None -> ()
      | Some s ->
        let parts = String.split_on_char ',' s |> List.map float_of_string in
        if List.length parts <> relations then begin
          Printf.eprintf "expected %d selectivities\n" relations;
          exit 2
        end;
        let b =
          D.Bindings.make
            ~selectivities:(List.combine q.D.Queries.host_vars parts)
            ~memory_pages:64
        in
        let env = D.Env.of_bindings q.D.Queries.catalog b in
        Format.printf "@.start-up decisions under %a:@.@[<v>%a@]@." D.Bindings.pp b
          D.Startup.pp_decisions
          (D.Startup.explain env r.D.Optimizer.plan))
  in
  Cmd.v (Cmd.info "optimize" ~doc:"Optimize a chain query and print the plan.")
    Term.(const run $ relations_arg $ mode $ verbose_arg $ dot $ decide)

(* --- run ----------------------------------------------------------------- *)

(* Typed failures map to distinct exit codes so scripts and CI can
   discriminate outcomes without parsing output; 16 is reserved for
   session shedding (admission control, not reachable from `run`). *)
let failure_exit_code = function
  | D.Resilience.Infeasible _ -> 10
  | D.Resilience.Rejected _ -> 11
  | D.Resilience.Exhausted _ -> 12
  | D.Resilience.Deadline_exceeded _ -> 13
  | D.Resilience.Memory_exceeded _ -> 14
  | D.Resilience.Cancelled _ -> 15
  | D.Resilience.Estimate_busted _ -> 17

let failure_name = function
  | D.Resilience.Infeasible _ -> "infeasible"
  | D.Resilience.Rejected _ -> "rejected"
  | D.Resilience.Exhausted _ -> "exhausted"
  | D.Resilience.Deadline_exceeded _ -> "deadline_exceeded"
  | D.Resilience.Memory_exceeded _ -> "memory_exceeded"
  | D.Resilience.Cancelled _ -> "cancelled"
  | D.Resilience.Estimate_busted _ -> "estimate_busted"

let run_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Data and binding seed.") in
  let memory = Arg.(value & opt int 64 & info [ "memory" ] ~doc:"Memory pages at run time.") in
  let sels =
    Arg.(value & opt (some string) None
         & info [ "selectivities" ]
             ~doc:"Comma-separated selectivities for hv1..hvN, e.g. 0.1,0.9. \
                   Default: random per seed.")
  in
  let fault_rate =
    Arg.(value & opt float 0. & info [ "fault-rate" ]
           ~doc:"Transient fault probability per physical read/write.")
  in
  let fault_seed =
    Arg.(value & opt int 42 & info [ "fault-seed" ]
           ~doc:"Seed of the fault schedule (with --fault-rate > 0).")
  in
  let retries =
    Arg.(value & opt int 2 & info [ "retries" ]
           ~doc:"Transient-fault retries per chosen plan before failing over.")
  in
  let io_budget_factor =
    Arg.(value & opt (some float) None & info [ "io-budget-factor" ]
           ~doc:"Abort a run whose physical I/O exceeds the anticipated cost \
                 by this factor and fail over to another alternative. \
                 Default: guard off.")
  in
  let deadline_ms =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ]
             ~env:(Cmd.Env.info "DQEP_DEADLINE_MS")
             ~doc:"Wall-clock budget per plan execution in milliseconds; a \
                   run past it is cancelled cooperatively and fails with \
                   exit code 13.")
  in
  let memory_kb =
    Arg.(value & opt (some int) None
         & info [ "memory-kb" ]
             ~env:(Cmd.Env.info "DQEP_MEMORY_KB")
             ~doc:"Memory budget per plan execution in KiB; spilling \
                   operators degrade first, and a plan that still cannot \
                   fit fails with exit code 14 (the dynamic plan fails over \
                   to a lower-memory alternative before giving up).")
  in
  let checkpoints =
    Arg.(value & flag
         & info [ "checkpoints" ]
             ~doc:"Checkpoint intermediates at blocking points (hash-join \
                   builds, sort outputs). A cardinality observed there \
                   outside the plan's validity band becomes a typed \
                   estimate-busted fault: the query is replanned \
                   incrementally (reusing the optimizer's memo) and resumes \
                   from the checkpoints; with replans exhausted it fails \
                   with exit code 17. Also honors \\$DQEP_CHECKPOINTS=1.")
  in
  let replan_tolerance =
    Arg.(value & opt float D.Checkpoint.default_tolerance
         & info [ "replan-tolerance" ]
             ~doc:"Validity band half-width factor: an estimate e accepts \
                   observations in [e/T, (e+1)*T]. Must be > 1.")
  in
  let max_replans =
    Arg.(value & opt int 2
         & info [ "max-replans" ]
             ~doc:"Incremental re-optimizations per query before a busted \
                   estimate becomes the final outcome (with --checkpoints).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one JSON object per plan instead of text.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ]
             ~doc:"Write the observation trace (counters, spans, operator \
                   cardinality taps) as JSON lines to this file; validate \
                   with `dqep trace validate`.")
  in
  let run relations seed memory sels fault_rate fault_seed retries
      io_budget_factor deadline_ms memory_kb checkpoints
      replan_tolerance max_replans json trace risk =
    let q = D.Queries.chain ~relations in
    (* --risk steers both ends: the optimizer ranks plans under the
       posture, and start-up resolution scalarizes alternative costs the
       same way.  Without the flag both keep their defaults. *)
    let opt_options =
      Option.map (fun r -> { D.Optimizer.default_options with risk = r }) risk
    in
    let bindings =
      match sels with
      | None ->
        let b =
          List.hd
            (D.Paramgen.bindings ~seed ~trials:1 ~host_vars:q.D.Queries.host_vars
               ~uncertain_memory:false ())
        in
        D.Bindings.make ~selectivities:b.D.Bindings.selectivities
          ~memory_pages:memory
      | Some s ->
        let parts = String.split_on_char ',' s |> List.map float_of_string in
        if List.length parts <> relations then begin
          Printf.eprintf "expected %d selectivities\n" relations;
          exit 2
        end;
        D.Bindings.make
          ~selectivities:(List.combine q.D.Queries.host_vars parts)
          ~memory_pages:memory
    in
    if fault_rate < 0. || fault_rate > 1. then begin
      Printf.eprintf "dqep: --fault-rate must be in [0, 1] (got %g)\n"
        fault_rate;
      exit 2
    end;
    let db = D.Database.build ~seed q.D.Queries.catalog in
    if fault_rate > 0. then
      D.Disk.set_faults
        (D.Buffer_pool.disk (D.Database.pool db))
        (Some
           (D.Fault.create
              (D.Fault.config ~read_fault_rate:fault_rate
                 ~write_fault_rate:fault_rate ~seed:fault_seed ())));
    if replan_tolerance <= 1. then begin
      Printf.eprintf "dqep: --replan-tolerance must be > 1 (got %g)\n"
        replan_tolerance;
      exit 2
    end;
    if max_replans < 0 then begin
      Printf.eprintf "dqep: --max-replans must be >= 0 (got %d)\n" max_replans;
      exit 2
    end;
    let make_config ?replan () =
      (* The guard defaults off here so a plain `dqep run` matches the
         unsupervised executor's behavior.  Checkpointing stays on the
         config's env-var default unless --checkpoints forces it on. *)
      D.Resilience.config ~max_retries:retries
        ~io_budget_factor:(Option.value ~default:0. io_budget_factor)
        ?checkpoints:(if checkpoints then Some true else None)
        ~checkpoint_tolerance:replan_tolerance ~max_replans ?risk ?replan ()
    in
    (match deadline_ms with
    | Some d when d <= 0. ->
      Printf.eprintf "dqep: --deadline-ms must be > 0 (got %g)\n" d;
      exit 2
    | _ -> ());
    (match memory_kb with
    | Some k when k <= 0 ->
      Printf.eprintf "dqep: --memory-kb must be > 0 (got %d)\n" k;
      exit 2
    | _ -> ());
    (* Fresh governor per plan execution: the deadline clock starts when
       the plan does, and one plan's charges never bleed into the next. *)
    let governor () =
      match (deadline_ms, memory_kb) with
      | None, None -> D.Governor.none
      | d, m ->
        D.Governor.create
          ?deadline:(Option.map (fun ms -> ms /. 1000.) d)
          ?memory_bytes:(Option.map (fun kb -> kb * 1024) m)
          ()
    in
    if not json then Format.printf "bindings: %a@." D.Bindings.pp bindings;
    let trace_oc = Option.map open_out trace in
    let trace_sink = Option.map (fun oc -> D.Obs.Sink.channel oc) trace_oc in
    let show label mode =
      (* One trace per plan execution, sharing the file sink: each plan's
         events arrive inside a span named after it, with its counter and
         tap totals flushed before the next plan starts. *)
      let obs =
        match trace_sink with
        | Some sink -> D.Obs.Trace.create ~sink ~taps:true ()
        | None -> D.Obs.Trace.null
      in
      let finish code =
        D.Obs.Trace.flush obs;
        code
      in
      finish @@
      match
        D.Optimizer.optimize ?options:opt_options ~mode q.D.Queries.catalog
          q.D.Queries.query
      with
      | Error e ->
        Printf.eprintf "%s: %s\n" label e;
        1
      | Ok r -> (
        (* With checkpointing requested, retain a parallel optimization of
           the same query so a busted estimate can re-enter the memo
           incrementally instead of failing outright. *)
        let replan =
          if checkpoints then
            match
              D.Reoptimize.prepare ?options:opt_options ~mode
                q.D.Queries.catalog q.D.Queries.query
            with
            | Ok (rt, _) -> Some (D.Reoptimize.replan rt)
            | Error _ -> None
          else None
        in
        let config = make_config ?replan () in
        match
          D.Obs.Trace.span obs label (fun () ->
              D.Resilience.run ~config ~gov:(governor ()) ~obs db bindings
                r.D.Optimizer.plan)
        with
        | Ok (tuples, stats), rstats ->
          if json then
            print_endline
              (D.Json.to_string
                 (D.Json.Obj
                    [ ("plan", D.Json.String label);
                      ("status", D.Json.String "ok");
                      ("tuples", D.Json.Int (List.length tuples));
                      ( "physical_reads",
                        D.Json.Int
                          stats.D.Executor.io.D.Buffer_pool.physical_reads );
                      ( "physical_writes",
                        D.Json.Int
                          stats.D.Executor.io.D.Buffer_pool.physical_writes );
                      ("cpu_seconds", D.Json.Float stats.D.Executor.cpu_seconds);
                      ("retries", D.Json.Int stats.D.Executor.retries);
                      ( "faults_absorbed",
                        D.Json.Int stats.D.Executor.faults_absorbed );
                      ("budget_aborts", D.Json.Int stats.D.Executor.budget_aborts);
                      ( "memory_aborts",
                        D.Json.Int rstats.D.Resilience.memory_aborts );
                      ("failovers", D.Json.Int stats.D.Executor.failovers);
                      ("replans", D.Json.Int stats.D.Executor.replans);
                      ( "checkpoints_taken",
                        D.Json.Int rstats.D.Resilience.checkpoints_taken );
                      ("resume_hits", D.Json.Int rstats.D.Resilience.resume_hits);
                      ("choose_nodes", D.Json.Int stats.D.Executor.choose_nodes);
                      ( "alternatives_pruned",
                        D.Json.Int
                          r.D.Optimizer.stats.D.Optimizer.alternatives_pruned )
                    ]))
          else begin
            Format.printf
              "%-8s: %5d tuples, %5d physical reads, %5d writes, %.4fs CPU@."
              label (List.length tuples)
              stats.D.Executor.io.D.Buffer_pool.physical_reads
              stats.D.Executor.io.D.Buffer_pool.physical_writes
              stats.D.Executor.cpu_seconds;
            Format.printf
              "  resilience: %d retries, %d faults absorbed, %d budget \
               aborts, %d memory aborts, %d failovers, %d replans@."
              stats.D.Executor.retries stats.D.Executor.faults_absorbed
              stats.D.Executor.budget_aborts rstats.D.Resilience.memory_aborts
              stats.D.Executor.failovers stats.D.Executor.replans;
            if rstats.D.Resilience.checkpoints_taken > 0 then
              Format.printf "  checkpoints: %d taken, %d resume hits@."
                rstats.D.Resilience.checkpoints_taken
                rstats.D.Resilience.resume_hits;
            Format.printf
              "  plan: %d choose-plan operators, %d alternatives pruned@."
              stats.D.Executor.choose_nodes
              r.D.Optimizer.stats.D.Optimizer.alternatives_pruned;
            Format.printf "  exec: %a@." D.Exec_common.pp_profile
              stats.D.Executor.exec;
            Format.printf "  executed plan:@.  @[<v>%a@]@." D.Plan.pp
              stats.D.Executor.resolved_plan
          end;
          0
        | Error failure, rstats ->
          let code = failure_exit_code failure in
          if json then
            print_endline
              (D.Json.to_string
                 (D.Json.Obj
                    [ ("plan", D.Json.String label);
                      ("status", D.Json.String "error");
                      ("failure", D.Json.String (failure_name failure));
                      ( "detail",
                        D.Json.String
                          (Format.asprintf "%a" D.Resilience.pp_failure failure)
                      );
                      ("exit_code", D.Json.Int code);
                      ("attempts", D.Json.Int rstats.D.Resilience.attempts);
                      ("retries", D.Json.Int rstats.D.Resilience.retries);
                      ( "budget_aborts",
                        D.Json.Int rstats.D.Resilience.budget_aborts );
                      ( "memory_aborts",
                        D.Json.Int rstats.D.Resilience.memory_aborts );
                      ("failovers", D.Json.Int rstats.D.Resilience.failovers);
                      ("replans", D.Json.Int rstats.D.Resilience.replans);
                      ( "checkpoints_taken",
                        D.Json.Int rstats.D.Resilience.checkpoints_taken )
                    ]))
          else
            Format.printf
              "%-8s: failed (%a) after %d attempts, %d retries, %d budget \
               aborts, %d memory aborts, %d failovers [exit %d]@."
              label D.Resilience.pp_failure failure
              rstats.D.Resilience.attempts rstats.D.Resilience.retries
              rstats.D.Resilience.budget_aborts
              rstats.D.Resilience.memory_aborts rstats.D.Resilience.failovers
              code;
          code)
    in
    let static_code = show "static" D.Optimizer.static in
    let dynamic_code =
      show "dynamic" (D.Optimizer.dynamic ~uncertain_memory:true ())
    in
    (match trace_oc with
    | None -> ()
    | Some oc ->
      close_out oc;
      if not json then
        Format.printf "wrote trace %s (validate with: dqep trace validate %s)@."
          (Option.get trace) (Option.get trace));
    (* The dynamic plan is the headline result: its typed outcome is the
       process exit code (a static-only failure — e.g. no lower-memory
       alternative to fail over to — still reports through output and
       JSON). *)
    ignore static_code;
    if dynamic_code <> 0 then exit dynamic_code
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute a chain query on synthetic data with static and dynamic \
             plans, optionally under injected storage faults and per-query \
             resource budgets. Exit status follows the dynamic plan's typed \
             outcome: 0 ok, 10 infeasible, 11 rejected, 12 exhausted, 13 \
             deadline exceeded, 14 memory exceeded, 15 cancelled, 17 \
             estimate busted (16 is reserved for session shedding).")
    Term.(const run $ relations_arg $ seed $ memory $ sels $ fault_rate
          $ fault_seed $ retries $ io_budget_factor
          $ deadline_ms $ memory_kb $ checkpoints $ replan_tolerance
          $ max_replans $ json $ trace $ risk_arg)

(* --- sql ----------------------------------------------------------------- *)

let sql_cmd =
  let stmt =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"STATEMENT"
             ~doc:"e.g. \"SELECT * FROM R1, R2 WHERE R1.a <= :u AND R1.jr = R2.jl\"")
  in
  let run relations stmt =
    let catalog = D.Paper_catalog.make ~relations in
    match D.Sql.compile catalog stmt with
    | Error e ->
      Printf.eprintf "SQL error: %s\n" e;
      exit 1
    | Ok query -> (
      Format.printf "parsed query:@.%a@.@." D.Logical.pp query;
      match D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog query with
      | Error e ->
        Printf.eprintf "optimization failed: %s\n" e;
        exit 1
      | Ok r ->
        Format.printf "dynamic plan (%d nodes, %d choose-plan operators):@.%a@."
          (D.Plan.node_count r.D.Optimizer.plan)
          (D.Plan.choose_count r.D.Optimizer.plan)
          D.Plan.pp r.D.Optimizer.plan)
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Compile a SQL statement against the experimental catalog and \
             optimize it dynamically.")
    Term.(const run $ relations_arg $ stmt)

(* --- analyze ------------------------------------------------------------- *)

(* Static analysis over the whole query corpus: logical validation, an
   optimizer run with winner verification, the abstract-interpretation
   analyses (choose coverage, dead alternatives, resource certificates,
   fingerprint and pipeline lints), and a verification of the resolved
   plan under sample bindings — all without executing anything.

   Exit codes: 0 clean (or findings without --strict), 1 error-severity
   findings under --strict, 2 usage error, 3 internal JSON schema
   violation in --json output. *)
let analyze_cmd =
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit non-zero if any error-severity diagnostic is found.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit diagnostics as a JSON array.")
  in
  let modes_arg =
    Arg.(value & opt string "static,dynamic,dynamic-mem"
         & info [ "modes" ]
             ~doc:"Comma-separated optimizer modes to analyze under: any of \
                   static, dynamic, dynamic-mem.")
  in
  let budget_kb_arg =
    Arg.(value & opt (some int) None
         & info [ "budget-kb" ] ~docv:"KB"
             ~doc:"Check every plan's static resource certificate against a \
                   governor budget of $(docv) KiB: a plan whose guaranteed \
                   working set cannot fit is reported as DQEP503, and choose \
                   coverage treats alternatives over the budget as \
                   unselectable.")
  in
  let plangen_arg =
    Arg.(value & opt int 0
         & info [ "plangen" ] ~docv:"N"
             ~doc:"Additionally analyze $(docv) generated query instances \
                   (seeds 1..$(docv)) from the differential-test plan \
                   generator.")
  in
  let names =
    Arg.(value & pos_all string []
         & info [] ~docv:"QUERY"
             ~doc:"Corpus queries to analyze (default: all). See `dqep \
                   analyze --list`.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the corpus and exit.")
  in
  let run strict json modes names list_flag budget_kb plangen verbose risk =
    setup_verbosity verbose;
    let budget_bytes =
      match budget_kb with
      | None -> None
      | Some kb when kb > 0 -> Some (kb * 1024)
      | Some _ ->
        Printf.eprintf "--budget-kb must be positive\n";
        exit 2
    in
    if plangen < 0 then begin
      Printf.eprintf "--plangen must be non-negative\n";
      exit 2
    end;
    let corpus = D.Queries.corpus () in
    if list_flag then begin
      List.iter (fun (name, _) -> print_endline name) corpus;
      exit 0
    end;
    let corpus =
      match names with
      | [] -> corpus
      | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n corpus) then begin
              Printf.eprintf "unknown query %s (try --list)\n" n;
              exit 2
            end)
          names;
        List.filter (fun (n, _) -> List.mem n names) corpus
    in
    (* Generated instances ride through the same path as corpus queries;
       the id/relations fields are informational only. *)
    let generated =
      List.init plangen (fun i ->
          let inst = D.Plangen.generate ~seed:(i + 1) in
          ( Printf.sprintf "plangen-%d" inst.D.Plangen.seed,
            { D.Queries.id = 0; relations = 0;
              query = inst.D.Plangen.query;
              host_vars = inst.D.Plangen.host_vars;
              catalog = inst.D.Plangen.catalog } ))
    in
    let targets = corpus @ generated in
    let modes =
      String.split_on_char ',' modes
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun m ->
             match m with
             | "static" -> (m, D.Optimizer.static)
             | "dynamic" -> (m, D.Optimizer.dynamic ())
             | "dynamic-mem" -> (m, D.Optimizer.dynamic ~uncertain_memory:true ())
             | m ->
               Printf.eprintf "unknown mode %s\n" m;
               exit 2)
    in
    let findings = ref [] in
    let report name mode phase diags =
      List.iter (fun d -> findings := (name, mode, phase, d) :: !findings) diags
    in
    let analyze_one name (q : D.Queries.t) (mode_name, mode) =
      (match D.Logical.validate q.D.Queries.catalog q.D.Queries.query with
      | Ok () -> ()
      | Error diags -> report name mode_name "logical" diags);
      let options =
        let base = { D.Optimizer.default_options with verify = true } in
        match risk with
        | None -> base
        | Some r -> { base with D.Optimizer.risk = r }
      in
      match D.Optimizer.optimize ~options ~mode q.D.Queries.catalog q.D.Queries.query with
      | exception D.Verify.Failed diags -> report name mode_name "optimize" diags
      | Error e ->
        report name mode_name "optimize"
          [ D.Diagnostic.make ~site:D.Diagnostic.Query
              D.Diagnostic.Rels_mismatch
              (Printf.sprintf "optimization failed: %s" e) ]
      | Ok r ->
        report name mode_name "optimize" r.D.Optimizer.diagnostics;
        report name mode_name "absint"
          (D.Analyses.plan ?budget_bytes ~catalog:q.D.Queries.catalog
             r.D.Optimizer.env r.D.Optimizer.plan);
        (* Resolve under a selective and an unselective binding and
           verify the start-up-time plan too. *)
        List.iter
          (fun sel ->
            let bindings =
              D.Bindings.make
                ~selectivities:
                  (List.map (fun hv -> (hv, sel)) q.D.Queries.host_vars)
                ~memory_pages:64
            in
            let env = D.Env.of_bindings q.D.Queries.catalog bindings in
            let resolution = D.Startup.resolve env r.D.Optimizer.plan in
            report name mode_name
              (Printf.sprintf "resolved sel=%g" sel)
              (D.Verify.plan ~catalog:q.D.Queries.catalog
                 resolution.D.Startup.plan))
          [ 0.05; 0.9 ]
    in
    List.iter
      (fun (name, q) -> List.iter (analyze_one name q) modes)
      targets;
    let findings = List.rev !findings in
    let errors =
      List.length (List.filter (fun (_, _, _, d) -> D.Diagnostic.is_error d) findings)
    in
    let warnings = List.length findings - errors in
    if json then begin
      let record (name, mode, phase, d) =
        D.Json.Obj
          [ ("query", D.Json.String name);
            ("mode", D.Json.String mode);
            ("phase", D.Json.String phase);
            ("diagnostic", D.Diagnostic.to_jsonv d) ]
      in
      let out = D.Json.to_string (D.Json.List (List.map record findings)) in
      (* Self-check: the document we are about to print must round-trip
         through the project parser and match the record schema. *)
      let is_str k o =
        match D.Json.member k o with
        | Some (D.Json.String _) -> true
        | _ -> false
      in
      let check_record i r =
        let fail what =
          Error (Printf.sprintf "record %d: %s" i what)
        in
        match r with
        | D.Json.Obj _ ->
          if not (is_str "query" r && is_str "mode" r && is_str "phase" r)
          then fail "missing query/mode/phase string"
          else (
            match D.Json.member "diagnostic" r with
            | Some (D.Json.Obj _ as d) ->
              if not (is_str "code" d && is_str "name" d && is_str "message" d)
              then fail "diagnostic missing code/name/message"
              else (
                match D.Json.member "severity" d with
                | Some (D.Json.String ("error" | "warning")) -> Ok ()
                | _ -> fail "diagnostic severity not error|warning")
            | _ -> fail "missing diagnostic object")
        | _ -> fail "not an object"
      in
      let validated =
        match D.Json.parse out with
        | Error e -> Error ("does not parse: " ^ e)
        | Ok (D.Json.List records) ->
          List.fold_left
            (fun acc (i, r) ->
              match acc with Error _ -> acc | Ok () -> check_record i r)
            (Ok ())
            (List.mapi (fun i r -> (i, r)) records)
        | Ok _ -> Error "top level is not a list"
      in
      (match validated with
      | Ok () -> print_endline out
      | Error e ->
        Printf.eprintf "dqep analyze: internal JSON schema violation: %s\n" e;
        exit 3)
    end
    else begin
      List.iter
        (fun (name, mode, phase, d) ->
          Format.printf "%s [%s, %s]: %a@." name mode phase D.Diagnostic.pp d)
        findings;
      Format.printf "analyzed %d queries x %d modes: %d error(s), %d warning(s)@."
        (List.length targets) (List.length modes) errors warnings
    end;
    if strict && errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the static plan analyses over the query corpus (and \
             optionally generated instances): logical validation, \
             optimization with winner verification, abstract \
             interpretation (choose coverage, dead alternatives, \
             resource certificates, fingerprint and pipeline lints), and \
             verification of resolved plans.")
    Term.(const run $ strict $ json $ modes_arg $ names $ list_flag
          $ budget_kb_arg $ plangen_arg $ verbose_arg $ risk_arg)

(* --- trace --------------------------------------------------------------- *)

(* Validate a JSON-lines trace file against the event schema — the
   consumer-side contract check for `run --trace` output (CI's trace
   smoke job runs this over the corpus). *)
let trace_cmd =
  let action =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ACTION" ~doc:"Only 'validate' is supported.")
  in
  let file =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"FILE" ~doc:"JSON-lines trace file to check.")
  in
  let run action file =
    if action <> "validate" then begin
      Printf.eprintf "dqep trace: unknown action %s (try 'validate')\n" action;
      exit 2
    end;
    let ic =
      try open_in file
      with Sys_error e ->
        Printf.eprintf "dqep trace: %s\n" e;
        exit 2
    in
    let errors = ref 0 in
    let events = ref 0 in
    (try
       let line_no = ref 0 in
       while true do
         let line = input_line ic in
         incr line_no;
         if String.trim line <> "" then begin
           incr events;
           match D.Obs.Event.validate_json line with
           | Ok () -> ()
           | Error e ->
             incr errors;
             Printf.eprintf "%s:%d: %s\n" file !line_no e
         end
       done
     with End_of_file -> close_in ic);
    Printf.printf "%s: %d events, %d invalid\n" file !events !errors;
    if !errors > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Validate an observation trace written by `dqep run --trace` \
             against the event schema.")
    Term.(const run $ action $ file)

(* --- serve --------------------------------------------------------------- *)

(* A synthetic serving run: N requests over a handful of parameterized
   chain shapes, rendered as wire-protocol lines and dispatched to a
   Server from concurrent client domains.  Exercises the whole front
   door — plan cache, per-shape breakers, admission control, typed
   responses — and prints the outcome tally, or the server's stats
   document with --json (self-validated through the project JSON
   parser; exit 3 on a schema violation, like `analyze --json`). *)
let serve_cmd =
  let requests_arg =
    Arg.(value & opt int 200
         & info [ "requests" ] ~docv:"N" ~doc:"Requests to serve.")
  in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains.")
  in
  let shapes_arg =
    Arg.(value & opt int 3
         & info [ "shapes" ] ~docv:"N"
             ~doc:"Distinct query shapes (chains over 1..$(docv) relations \
                   of the experimental catalog).")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N" ~doc:"Data and binding seed.")
  in
  let deadline_ms_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline, granted before admission (the \
                   budget covers queue wait).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the server's stats document as JSON.")
  in
  let run requests clients shapes seed deadline_ms json risk =
    if requests < 1 || clients < 1 || shapes < 1 then begin
      Printf.eprintf "dqep serve: --requests, --clients and --shapes must be \
                      positive\n";
      exit 2
    end;
    (match deadline_ms with
    | Some d when d <= 0. ->
      Printf.eprintf "dqep serve: --deadline-ms must be positive\n";
      exit 2
    | _ -> ());
    let catalog = D.Paper_catalog.make ~relations:shapes in
    let sql_of_shape j =
      let rel i = D.Paper_catalog.rel_name i in
      let n = j + 1 in
      let tables = List.init n (fun i -> rel (i + 1)) in
      let joins =
        List.init (n - 1) (fun i ->
            Printf.sprintf "%s.%s = %s.%s" (rel (i + 1))
              D.Paper_catalog.join_right_attr (rel (i + 2))
              D.Paper_catalog.join_left_attr)
      in
      Printf.sprintf "SELECT * FROM %s WHERE %s"
        (String.concat ", " tables)
        (String.concat " AND "
           (Printf.sprintf "%s.%s <= :u" (rel 1) D.Paper_catalog.select_attr
           :: joins))
    in
    let acquire, release =
      D.Serve.Server.db_pool
        ~build:(fun () -> D.Database.build ~seed catalog)
        ~slots:(clients + 2) ()
    in
    let server =
      D.Serve.Server.create
        ~config:
          (D.Serve.Server.config
             ~session:
               (D.Session.config ~max_inflight:clients
                  ~max_queue:(4 * clients) ())
             ())
        ~acquire ~release catalog
    in
    let rng = D.Rng.create (seed * 65537) in
    let lines =
      Array.init requests (fun i ->
          D.Serve.Protocol.render_request
            (D.Serve.Protocol.Run
               { D.Serve.Protocol.id = Some i;
                 bindings = [ ("u", 0.05 +. D.Rng.uniform rng 0. 0.9) ];
                 memory_pages = None;
                 deadline_ms;
                 retries = None;
                 risk;
                 sql = sql_of_shape (i mod shapes) }))
    in
    let responses = D.Serve.Server.run_batch server ~clients lines in
    let ok = ref 0 and hits = ref 0 and errs = ref 0 and sheds = ref 0 in
    let untyped = ref 0 in
    Array.iter
      (fun line ->
        match D.Serve.Protocol.parse_response line with
        | Ok (D.Serve.Protocol.Ok_reply { cache; _ }) ->
          incr ok;
          if cache = D.Serve.Protocol.Hit then incr hits
        | Ok (D.Serve.Protocol.Error_reply _) -> incr errs
        | Ok (D.Serve.Protocol.Shed_reply _) -> incr sheds
        | Ok _ | Error _ -> incr untyped)
      responses;
    if json then begin
      let doc = D.Serve.Server.stats_json server in
      let out = D.Json.to_string doc in
      (* Self-check: the document must round-trip through the project
         parser and carry the documented members with the right types. *)
      let int_member k o =
        match D.Json.member k o with
        | Some (D.Json.Int _) -> true
        | _ -> false
      in
      let num_member k o =
        match D.Json.member k o with
        | Some (D.Json.Int _ | D.Json.Float _) -> true
        | _ -> false
      in
      let obj_member k o =
        match D.Json.member k o with
        | Some (D.Json.Obj _ as sub) -> Some sub
        | _ -> None
      in
      let validated =
        match D.Json.parse out with
        | Error e -> Error ("does not parse: " ^ e)
        | Ok (D.Json.Obj _ as o) ->
          if
            not
              (int_member "requests" o && int_member "completed" o
             && int_member "failed" o && int_member "errors" o)
          then Error "missing requests/completed/failed/errors integers"
          else (
            match (obj_member "sheds" o, obj_member "cache" o,
                   obj_member "breakers" o, obj_member "latency_ms" o)
            with
            | Some sheds, Some cache, Some breakers, Some latency ->
              if
                not
                  (int_member "queue_full" sheds
                  && int_member "breaker_open" sheds
                  && int_member "hits" cache
                  && num_member "hit_rate" cache
                  && int_member "trips" breakers
                  && num_member "hit_p95" latency
                  && num_member "throughput_rps" o)
              then Error "a nested member is missing or mistyped"
              else Ok ()
            | _ -> Error "missing sheds/cache/breakers/latency_ms objects")
        | Ok _ -> Error "top level is not an object"
      in
      match validated with
      | Ok () -> print_endline out
      | Error e ->
        Printf.eprintf "dqep serve: internal JSON schema violation: %s\n" e;
        exit 3
    end
    else begin
      let s = D.Serve.Server.stats server in
      Format.printf
        "%d requests over %d shapes, %d clients: %d ok (%d cache hits), %d \
         errors, %d shed, %d unparseable@."
        requests shapes clients !ok !hits !errs !sheds !untyped;
      Format.printf
        "cache: %d hits / %d misses (%d evicted, %d drift, %d replan); \
         breakers: %d trips, %d closes@."
        s.D.Serve.Server.cache_hits s.D.Serve.Server.cache_misses
        s.D.Serve.Server.cache_evictions
        s.D.Serve.Server.cache_invalidated_drift
        s.D.Serve.Server.cache_invalidated_replan
        s.D.Serve.Server.breaker_trips s.D.Serve.Server.breaker_closes;
      Format.printf
        "latency: hit p50 %.3f ms, p95 %.3f ms; cold p50 %.3f ms, p95 %.3f \
         ms; %.0f requests/s@."
        s.D.Serve.Server.hit_p50_ms s.D.Serve.Server.hit_p95_ms
        s.D.Serve.Server.miss_p50_ms s.D.Serve.Server.miss_p95_ms
        s.D.Serve.Server.throughput_rps
    end;
    if !untyped > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a synthetic parameterized workload through the \
             request-serving loop (wire protocol, plan cache, per-shape \
             circuit breakers, governed session) from concurrent client \
             domains, then report the outcome tally or the server stats \
             as self-validated JSON.")
    Term.(const run $ requests_arg $ clients_arg $ shapes_arg $ seed_arg
          $ deadline_ms_arg $ json $ risk_arg)

(* --- catalog ------------------------------------------------------------- *)

let catalog_cmd =
  let run relations =
    let q = D.Queries.chain ~relations in
    Format.printf "%a@." D.Catalog.pp q.D.Queries.catalog
  in
  Cmd.v (Cmd.info "catalog" ~doc:"Print the experimental catalog.")
    Term.(const run $ relations_arg)

let () =
  let doc = "Dynamic query evaluation plans: optimizer, executor, experiments." in
  let info = Cmd.info "dqep" ~doc in
  exit (Cmd.eval (Cmd.group info
       [ report_cmd; optimize_cmd; run_cmd; analyze_cmd; sql_cmd; trace_cmd;
         serve_cmd; catalog_cmd ]))
