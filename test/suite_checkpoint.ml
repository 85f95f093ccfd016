(* Checkpointed mid-query re-optimization: busted estimates as typed,
   recoverable faults.

   The acceptance demos run against skewed data: the bindings (and so
   the optimizer's priors) assume uniform attribute values, the stored
   data is skewed, so the cardinalities observed at blocking points
   escape the plan's validity band.  With a replanner wired in, the
   supervisor re-enters the retained memo incrementally and splices the
   checkpointed intermediates over the new plan; without one, the
   outcome is the typed [Estimate_busted] failure.

   The resume tests drive [Checkpoint] directly (injected fault
   schedules degrade the whole device, which would fault the resumed
   attempt too): a checkpointed first execution, then a re-execution
   spliced over the captured intermediates, asserting strictly fewer
   physical reads than a cold restart — and, with every consumed base
   page broken permanently, that the resumed run never touches them at
   all. *)

module D = Dqep

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok
    (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

let bindings_for (q : D.Queries.t) sel mem =
  D.Bindings.make
    ~selectivities:(List.map (fun hv -> (hv, sel)) q.D.Queries.host_vars)
    ~memory_pages:mem

let drain_pool db =
  let pool = D.Database.pool db in
  D.Buffer_pool.resize pool 1;
  D.Buffer_pool.resize pool 64

let physical_reads db =
  (D.Buffer_pool.stats (D.Database.pool db)).D.Buffer_pool.physical_reads

let normalized db (stats : D.Executor.run_stats) tuples =
  let schema =
    D.Plan.schema (D.Database.catalog db) stats.D.Executor.resolved_plan
  in
  D.Reference.normalize schema tuples

(* The start-up-time plan under [env], plus the relation set feeding the
   first hash join's build side — the base pages a resumed execution
   must not re-read. *)
let resolved_with_build_rels q env plan =
  let resolution = D.Startup.resolve env plan in
  let rplan = resolution.D.Startup.plan in
  let build_rels = ref None in
  D.Plan.iter
    (fun node ->
      match (node.D.Plan.op, node.D.Plan.inputs) with
      | D.Physical.Hash_join _, [ l; _ ] when !build_rels = None ->
        build_rels := Some l.D.Plan.rels
      | _ -> ())
    rplan;
  ignore q;
  (rplan, !build_rels)

(* --- acceptance: busted estimate -> incremental replan -> same rows ----- *)

let test_busted_estimate_replans_incrementally () =
  let q = D.Queries.chain ~relations:3 in
  let mode = D.Optimizer.dynamic ~uncertain_memory:true () in
  let r = optimize_exn ~mode q in
  let rt, _ =
    Result.get_ok
      (D.Reoptimize.prepare ~mode q.D.Queries.catalog q.D.Queries.query)
  in
  (* skew 3: a selection bound at s really matches s^(1/3) of the rows,
     so every estimate downstream of a selection is off by far more than
     the 1.2x band tolerates. *)
  let db = D.Database.build ~skew:3.0 ~seed:11 q.D.Queries.catalog in
  let b = bindings_for q 0.3 64 in
  let config =
    D.Resilience.config ~checkpoints:true ~checkpoint_tolerance:1.2
      ~max_replans:4
      ~replan:(D.Reoptimize.replan rt)
      ()
  in
  match D.Resilience.run ~config db b r.D.Optimizer.plan with
  | Error f, _ ->
    Alcotest.failf "recovery failed: %a" D.Resilience.pp_failure f
  | Ok (tuples, stats), rstats ->
    Alcotest.(check bool) "at least one replan" true
      (rstats.D.Resilience.replans >= 1);
    Alcotest.(check bool) "checkpoints were taken" true
      (rstats.D.Resilience.checkpoints_taken >= 1);
    (match D.Reoptimize.last_stats rt with
    | None -> Alcotest.fail "no incremental replan recorded"
    | Some s ->
      Alcotest.(check bool) "observations moved some group" true
        (s.D.Reoptimize.groups_moved >= 1);
      (* The memo-reuse assertion: the dirty closure is a strict subset
         of the memo, and clean winners were served as cache hits. *)
      Alcotest.(check bool) "re-costed groups < total groups" true
        (s.D.Reoptimize.groups_dirty < s.D.Reoptimize.groups_total);
      Alcotest.(check bool) "memoized winners were reused" true
        (s.D.Reoptimize.reused_winners > 0));
    let ref_schema, expected = D.Reference.eval db b q.D.Queries.query in
    Alcotest.(check bool) "replanned run matches the reference" true
      (D.Reference.multiset_equal
         (D.Reference.normalize ref_schema expected)
         (normalized db stats tuples))

let test_busted_without_replanner_is_typed () =
  let q = D.Queries.chain ~relations:3 in
  let mode = D.Optimizer.dynamic () in
  let r = optimize_exn ~mode q in
  let db = D.Database.build ~skew:3.0 ~seed:11 q.D.Queries.catalog in
  let b = bindings_for q 0.3 64 in
  let config =
    D.Resilience.config ~checkpoints:true ~checkpoint_tolerance:1.05 ()
  in
  match D.Resilience.run ~config db b r.D.Optimizer.plan with
  | Ok _, _ ->
    Alcotest.fail "estimates this far off must bust a 1.05x band"
  | Error (D.Resilience.Estimate_busted { observed; lo; hi; pid }), rstats ->
    Alcotest.(check bool) "observation really escapes the band" true
      (float_of_int observed < lo || float_of_int observed > hi);
    Alcotest.(check bool) "band is well-formed" true (lo <= hi);
    Alcotest.(check bool) "fault names a plan node" true (pid >= 0);
    Alcotest.(check bool) "the checkpoint was still taken" true
      (rstats.D.Resilience.checkpoints_taken >= 1);
    Alcotest.(check int) "no replan happened" 0 rstats.D.Resilience.replans
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f

let test_checkpoints_off_by_default () =
  (* Without opting in, the same busted-estimate setup sails through:
     checkpointing must not change any default behavior. *)
  let q = D.Queries.chain ~relations:3 in
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) q in
  let db = D.Database.build ~skew:3.0 ~seed:11 q.D.Queries.catalog in
  let b = bindings_for q 0.3 64 in
  match D.Resilience.run db b r.D.Optimizer.plan with
  | Ok _, rstats ->
    Alcotest.(check int) "no checkpoints" 0 rstats.D.Resilience.checkpoints_taken;
    Alcotest.(check int) "no replans" 0 rstats.D.Resilience.replans
  | Error f, _ -> Alcotest.failf "failed: %a" D.Resilience.pp_failure f

(* --- incremental re-entry mechanics ------------------------------------- *)

let test_replan_requires_moved_groups () =
  let q = D.Queries.chain ~relations:2 in
  let mode = D.Optimizer.dynamic () in
  let rt, plan =
    Result.get_ok
      (D.Reoptimize.prepare ~mode q.D.Queries.catalog q.D.Queries.query)
  in
  Alcotest.(check bool) "prepare yields a plan" true
    (D.Plan.node_count plan > 0);
  (* No observations, unknown keys: nothing moves, no replan. *)
  Alcotest.(check bool) "empty observations -> None" true
    (D.Reoptimize.replan rt ~rels_rows:[] = None);
  Alcotest.(check bool) "unknown relation set -> None" true
    (D.Reoptimize.replan rt ~rels_rows:[ ("NoSuchRel", 12.) ] = None);
  Alcotest.(check bool) "nothing recorded yet" true
    (D.Reoptimize.last_stats rt = None);
  (* A plausible observation for the join group moves it and re-plans
     incrementally. *)
  match D.Reoptimize.replan rt ~rels_rows:[ ("R1|R2", 2.) ] with
  | None -> Alcotest.fail "an in-prior join observation must move the group"
  | Some plan' ->
    Alcotest.(check bool) "replanned plan is well-formed" true
      (D.Plan.node_count plan' > 0);
    (match D.Reoptimize.last_stats rt with
    | None -> Alcotest.fail "stats not recorded"
    | Some s ->
      Alcotest.(check bool) "dirty closure is a strict subset" true
        (s.D.Reoptimize.groups_dirty < s.D.Reoptimize.groups_total);
      Alcotest.(check bool) "clean winners were reused" true
        (s.D.Reoptimize.reused_winners > 0))

let test_refine_rows_converges () =
  (* Refinement is an intersection: once an observation has narrowed a
     group to its point, repeating the same observation moves nothing —
     the replan loop cannot be driven forever by one fact.  (A key like
     "R1" may legitimately move a group on first sight: the *selection*
     group over R1 carries an interval prior even though the bare-scan
     group is a point.) *)
  let q = D.Queries.chain ~relations:2 in
  let rt, _ =
    Result.get_ok
      (D.Reoptimize.prepare ~mode:(D.Optimizer.dynamic ())
         q.D.Queries.catalog q.D.Queries.query)
  in
  let obs = [ ("R1", 1.0); ("R1|R2", 2.0) ] in
  (match D.Reoptimize.replan rt ~rels_rows:obs with
  | None -> Alcotest.fail "first observation must move interval priors"
  | Some _ -> ());
  Alcotest.(check bool) "repeating the same observation -> no replan" true
    (D.Reoptimize.replan rt ~rels_rows:obs = None)

(* --- incremental re-entry = fresh search --------------------------------- *)

let digest plan = Digest.to_hex (Digest.string (D.Access_module.encode plan))

(* [Reoptimize.replan] returns the plan a fresh search of the same
   refined memo returns.  Every group of chains, stars and cycles gets
   one observation at four points of its row interval, in both memory
   modes.  Stars matter: exploration adds joins whose child group was
   created after the parent, so the dirty closure needs a fixpoint. *)
let test_replan_equals_fresh_search () =
  let queries =
    [ D.Queries.chain ~relations:4; D.Queries.chain ~relations:5;
      D.Queries.star ~relations:4; D.Queries.star ~relations:5;
      D.Queries.star ~relations:6; D.Queries.cycle ~relations:4;
      D.Queries.cycle ~relations:5 ]
  in
  let replans = ref 0 in
  List.iter
    (fun (q : D.Queries.t) ->
      let catalog = q.D.Queries.catalog and query = q.D.Queries.query in
      List.iter
        (fun uncertain_memory ->
          let mode = D.Optimizer.dynamic ~uncertain_memory () in
          let env, config =
            Result.get_ok (D.Optimizer.search_config ~mode catalog query)
          in
          (* A memo explored to its fixpoint before it is refined: the
             retained one was, by its first search. *)
          let explored () =
            let memo = D.Memo.create env in
            let root = D.Memo.ingest memo query in
            D.Memo.explore memo root;
            (memo, root)
          in
          let shape, _ = explored () in
          for id = 0 to D.Memo.group_count shape - 1 do
            let g = D.Memo.group shape id in
            let key = String.concat "|" g.D.Memo.rels in
            let lo = g.D.Memo.rows.D.Interval.lo
            and hi = g.D.Memo.rows.D.Interval.hi in
            List.iter
              (fun f ->
                let obs = [ (key, lo +. (f *. (hi -. lo))) ] in
                let rt, _ =
                  Result.get_ok (D.Reoptimize.prepare ~mode catalog query)
                in
                let replanned = D.Reoptimize.replan rt ~rels_rows:obs in
                let memo, root = explored () in
                let moved = D.Memo.refine_rows memo obs in
                let fresh =
                  D.Search.optimize (D.Search.create config memo) root
                    D.Props.Any ~limit:Float.infinity
                in
                let name =
                  Printf.sprintf "%d-way %s at %s=%g (memory %b)"
                    q.D.Queries.relations
                    (D.Plan.rels_key (Option.get fresh)) key
                    (lo +. (f *. (hi -. lo))) uncertain_memory
                in
                incr replans;
                match (replanned, moved) with
                | None, [] -> ()
                | Some p, _ :: _ ->
                  Alcotest.(check string) name (digest (Option.get fresh))
                    (digest p)
                | None, _ :: _ | Some _, [] ->
                  Alcotest.failf "%s: replanned iff a group moved" name)
              [ 0.; 1. /. 3.; 2. /. 3.; 1. ]
          done)
        [ false; true ])
    queries;
  Alcotest.(check int) "replans" 1280 !replans

(* --- differential: replanned execution == reference over Plangen -------- *)

let test_differential_replanned_vs_reference () =
  Test_util.with_watchdog ~deadline:120. "checkpoint differential" @@ fun () ->
  let mode = D.Optimizer.dynamic () in
  let instances = 110 in
  let completed = ref 0 and busted = ref 0 and replans = ref 0 in
  let ckpts = ref 0 in
  for seed = 1 to instances do
    let inst = D.Plangen.generate ~seed in
    let db =
      D.Database.build ~skew:2.0 ~seed:((seed * 17) + 1) inst.D.Plangen.catalog
    in
    let b = D.Plangen.bindings inst ~seed:(seed + 3) in
    match D.Optimizer.optimize ~mode inst.D.Plangen.catalog inst.D.Plangen.query with
    | Error e -> Alcotest.failf "seed %d: optimizer failed: %s" seed e
    | Ok r ->
      let replan =
        match
          D.Reoptimize.prepare ~mode inst.D.Plangen.catalog inst.D.Plangen.query
        with
        | Ok (rt, _) -> Some (D.Reoptimize.replan rt)
        | Error _ -> None
      in
      let config =
        D.Resilience.config ~checkpoints:true ~checkpoint_tolerance:1.4
          ~max_replans:4 ?replan ()
      in
      (match D.Resilience.run ~config db b r.D.Optimizer.plan with
      | Error (D.Resilience.Estimate_busted _), _ ->
        (* Persistently busted beyond the replan budget: a legal typed
           outcome, but it must stay rare (counted below). *)
        incr busted
      | Error f, _ ->
        Alcotest.failf "seed %d: failed: %a" seed D.Resilience.pp_failure f
      | Ok (tuples, stats), rstats ->
        incr completed;
        replans := !replans + rstats.D.Resilience.replans;
        ckpts := !ckpts + rstats.D.Resilience.checkpoints_taken;
        let ref_schema, expected =
          D.Reference.eval db b inst.D.Plangen.query
        in
        if
          not
            (D.Reference.multiset_equal
               (D.Reference.normalize ref_schema expected)
               (normalized db stats tuples))
        then
          Alcotest.failf "seed %d: replanned result diverges from reference"
            seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most instances complete (%d/%d, %d busted)" !completed
       instances !busted)
    true
    (!completed >= instances - (instances / 10));
  Alcotest.(check bool) "the corpus took checkpoints" true (!ckpts > 0);
  Alcotest.(check bool) "the corpus exercised the replan path" true
    (!replans > 0)

(* --- resume from checkpoint --------------------------------------------- *)

let checkpointed_execution ?(seed = 7) ?(sel = 0.5) () =
  let q = D.Queries.chain ~relations:2 in
  let b = bindings_for q sel 64 in
  let env = D.Env.of_bindings q.D.Queries.catalog b in
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) q in
  let db = D.Database.build ~seed q.D.Queries.catalog in
  let rplan, build_rels = resolved_with_build_rels q env r.D.Optimizer.plan in
  let ckpt = D.Checkpoint.create ~tolerance:1e6 () in
  let tuples, _ = D.Executor.execute db env ~checkpoint:ckpt rplan in
  (db, env, rplan, build_rels, ckpt, tuples)

let test_resume_reads_strictly_fewer_pages_than_cold_restart () =
  let db, env, rplan, _, ckpt, tuples = checkpointed_execution () in
  Alcotest.(check bool) "blocking points were checkpointed" true
    (D.Checkpoint.entry_count ckpt >= 1);
  let resume = D.Checkpoint.resume_for ckpt db rplan in
  Alcotest.(check bool) "checkpoints serve resumable splices" true
    (resume <> []);
  drain_pool db;
  let before = physical_reads db in
  let cold_tuples, _ = D.Executor.execute db env rplan in
  let cold = physical_reads db - before in
  drain_pool db;
  let before = physical_reads db in
  let resumed_tuples, _ =
    D.Executor.execute db env ~materialized:resume rplan
  in
  let resumed = physical_reads db - before in
  Alcotest.(check bool)
    (Printf.sprintf "resume reads strictly fewer pages (%d < %d)" resumed cold)
    true (resumed < cold);
  Alcotest.(check bool) "cold restart reproduces the answer" true
    (D.Reference.multiset_equal tuples cold_tuples);
  Alcotest.(check bool) "resumed run reproduces the answer" true
    (D.Reference.multiset_equal tuples resumed_tuples)

let test_resume_never_rereads_consumed_base_pages () =
  (* Break every base page the hash join's build side consumed —
     permanently.  The resumed execution is served the build from its
     checkpoint, so it must complete without ever touching them; any
     re-read would surface as an [Io_fault]. *)
  let db, env, rplan, build_rels, ckpt, tuples = checkpointed_execution () in
  match build_rels with
  | None -> Alcotest.fail "premise: resolved plan has no hash join"
  | Some rels ->
    let resume = D.Checkpoint.resume_for ckpt db rplan in
    Alcotest.(check bool) "the build side is resumable" true (resume <> []);
    let consumed =
      List.concat_map
        (fun rel -> D.Heap_file.page_ids (D.Database.heap db rel))
        rels
    in
    Alcotest.(check bool) "the build side spans base pages" true
      (consumed <> []);
    drain_pool db;
    D.Disk.set_faults
      (D.Buffer_pool.disk (D.Database.pool db))
      (Some
         (D.Fault.create
            (D.Fault.config
               ~broken_pages:
                 (List.map (fun id -> (id, D.Fault.Permanent)) consumed)
               ~seed:1 ())));
    let resumed_tuples, _ =
      D.Executor.execute db env ~materialized:resume rplan
    in
    D.Disk.set_faults (D.Buffer_pool.disk (D.Database.pool db)) None;
    Alcotest.(check bool) "same answer without the consumed pages" true
      (D.Reference.multiset_equal tuples resumed_tuples)

let prop_resume_reads_fewer_pages =
  QCheck.Test.make
    ~name:"resume from checkpoint always reads fewer base pages" ~count:25
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 500))
    (fun seed ->
      let inst = D.Plangen.generate ~seed in
      let db = D.Database.build ~seed:(seed + 1) inst.D.Plangen.catalog in
      let b = D.Plangen.bindings inst ~seed:(seed + 2) in
      let env = D.Env.of_bindings inst.D.Plangen.catalog b in
      match
        D.Optimizer.optimize
          ~mode:(D.Optimizer.dynamic ())
          inst.D.Plangen.catalog inst.D.Plangen.query
      with
      | Error _ -> QCheck.Test.fail_reportf "seed %d: optimizer failed" seed
      | Ok r ->
        let resolution = D.Startup.resolve env r.D.Optimizer.plan in
        let rplan = resolution.D.Startup.plan in
        let ckpt = D.Checkpoint.create ~tolerance:1e6 () in
        let tuples, _ = D.Executor.execute db env ~checkpoint:ckpt rplan in
        let resume = D.Checkpoint.resume_for ckpt db rplan in
        if resume = [] then true (* no blocking point in this plan *)
        else begin
          drain_pool db;
          let before = physical_reads db in
          let _ = D.Executor.execute db env rplan in
          let cold = physical_reads db - before in
          drain_pool db;
          let before = physical_reads db in
          let resumed_tuples, _ =
            D.Executor.execute db env ~materialized:resume rplan
          in
          let resumed = physical_reads db - before in
          if not (D.Reference.multiset_equal tuples resumed_tuples) then
            QCheck.Test.fail_reportf "seed %d: resumed answer diverges" seed
          else if resumed >= cold then
            QCheck.Test.fail_reportf
              "seed %d: resume read %d pages, cold restart %d" seed resumed
              cold
          else true
        end)

let test_transient_fault_retries_from_checkpoint () =
  (* Integration: a seeded transient-fault schedule interrupts execution
     after blocking points have checkpointed; the supervised retry
     resumes from them.  The identical schedule replayed without
     checkpoints must re-read more pages over the whole supervised run. *)
  let q = D.Queries.chain ~relations:2 in
  let b = bindings_for q 0.5 64 in
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) q in
  let attempt ~checkpoints ~fault_seed =
    let db = D.Database.build ~seed:7 q.D.Queries.catalog in
    drain_pool db;
    (* The data spans a few hundred pages, so a 0.005/read fault rate
       injects a handful of transient faults per run — enough to
       interrupt after the build without exhausting the retry budget. *)
    D.Disk.set_faults
      (D.Buffer_pool.disk (D.Database.pool db))
      (Some
         (D.Fault.create
            (D.Fault.config ~read_fault_rate:0.005 ~seed:fault_seed ())));
    let config =
      D.Resilience.config ~max_retries:6 ~checkpoints
        ~checkpoint_tolerance:1e6 ()
    in
    (D.Resilience.run ~config db b r.D.Optimizer.plan, db)
  in
  (* Scan fault seeds for a schedule that interrupts after the build:
     the checkpointed run must retry at least once AND resume at least
     one blocking point, and the same schedule without checkpoints must
     survive on cold restarts alone (some schedules only complete thanks
     to the checkpoints — those cannot serve as a control).  Seeded
     schedules make the scan deterministic. *)
  let rec find_seed s =
    if s > 64 then Alcotest.fail "no fault seed interrupts after the build"
    else
      match attempt ~checkpoints:true ~fault_seed:s with
      | (Ok (tuples, stats), rstats), db
        when rstats.D.Resilience.retries >= 1
             && rstats.D.Resilience.resume_hits >= 1 -> (
        match attempt ~checkpoints:false ~fault_seed:s with
        | (Ok (cold_tuples, cold_stats), cold_rstats), cold_db ->
          ( tuples, stats, rstats, db,
            cold_tuples, cold_stats, cold_rstats, cold_db )
        | (Error _, _), _ -> find_seed (s + 1))
      | _ -> find_seed (s + 1)
  in
  let tuples, stats, rstats, db, cold_tuples, cold_stats, cold_rstats, cold_db
      =
    find_seed 1
  in
  Alcotest.(check bool) "checkpoints were taken before the fault" true
    (rstats.D.Resilience.checkpoints_taken >= 1);
  Alcotest.(check bool) "both runs absorbed faults" true
    (cold_rstats.D.Resilience.faults_absorbed >= 1
    && rstats.D.Resilience.faults_absorbed >= 1);
  (* Same schedule, no checkpoints: every retry was a cold restart, so
     the final successful attempt re-read pages the checkpointed run's
     final attempt was served from its checkpoints. *)
  Alcotest.(check bool)
    (Printf.sprintf "retry-from-checkpoint reads fewer pages (%d < %d)"
       stats.D.Executor.io.D.Buffer_pool.physical_reads
       cold_stats.D.Executor.io.D.Buffer_pool.physical_reads)
    true
    (stats.D.Executor.io.D.Buffer_pool.physical_reads
    < cold_stats.D.Executor.io.D.Buffer_pool.physical_reads);
  Alcotest.(check bool) "identical answers" true
    (D.Reference.multiset_equal
       (normalized db stats tuples)
       (normalized cold_db cold_stats cold_tuples))

let suite =
  ( "checkpoint",
    [ Alcotest.test_case "busted estimate replans incrementally" `Quick
        test_busted_estimate_replans_incrementally;
      Alcotest.test_case "busted estimate without replanner is typed" `Quick
        test_busted_without_replanner_is_typed;
      Alcotest.test_case "checkpoints are off by default" `Quick
        test_checkpoints_off_by_default;
      Alcotest.test_case "replan requires moved groups" `Quick
        test_replan_requires_moved_groups;
      Alcotest.test_case "refinement converges: repeated observations are inert"
        `Quick test_refine_rows_converges;
      Alcotest.test_case "replan equals a fresh search" `Slow
        test_replan_equals_fresh_search;
      Alcotest.test_case "differential: replanned execution == reference"
        `Slow test_differential_replanned_vs_reference;
      Alcotest.test_case "resume reads strictly fewer pages than cold restart"
        `Quick test_resume_reads_strictly_fewer_pages_than_cold_restart;
      Alcotest.test_case "resume never re-reads consumed base pages" `Quick
        test_resume_never_rereads_consumed_base_pages;
      QCheck_alcotest.to_alcotest prop_resume_reads_fewer_pages;
      Alcotest.test_case "transient fault retries from the checkpoint" `Quick
        test_transient_fault_retries_from_checkpoint ] )
