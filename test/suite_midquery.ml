(* Mid-query adaptation (Section 7): skewed data generation, cardinality
   overrides, shared-subplan discovery, and end-to-end adaptive runs. *)

module D = Dqep
module I = D.Interval

(* The Section 7 decision as the supervisor's attempt makes it: observe
   the shared subplan ([Resilience.observe]), resolve with and without
   its cardinality, and execute the adapted resolution with the
   observation spliced in.  The start-up choice is costed under the
   observation too, so both costs are comparable statements about
   reality. *)
type adapted = {
  observation : D.Resilience.observation option;
  default_cost : float;
  adapted_cost : float;
  switched : bool;
  resolved : D.Plan.t;
  tuples : D.Exec_common.tuple list;
}

let adapt ?(gov = D.Governor.none) db b plan =
  let env = D.Env.of_bindings (D.Database.catalog db) b in
  D.Buffer_pool.resize (D.Database.pool db) (D.Executor.memory_pages env);
  let registry = D.Checkpoint.create ~gov () in
  Fun.protect ~finally:(fun () -> D.Checkpoint.release registry) @@ fun () ->
  let observation = D.Resilience.observe db env ~gov registry plan in
  let overrides = D.Checkpoint.overrides_for registry db plan in
  let default = (D.Startup.resolve env plan).D.Startup.plan in
  let adapted = D.Startup.resolve ~overrides env plan in
  let resolved = adapted.D.Startup.plan in
  let tuples, _ =
    D.Executor.execute db env ~gov
      ~materialized:(D.Checkpoint.resume_for registry db resolved)
      resolved
  in
  { observation;
    default_cost = fst (D.Startup.evaluate ~overrides env default);
    adapted_cost = adapted.D.Startup.anticipated_cost;
    switched =
      D.Access_module.encode default <> D.Access_module.encode resolved;
    resolved;
    tuples }

(* The observation of [plan] on a throwaway registry. *)
let observe db b plan =
  let registry = D.Checkpoint.create () in
  let observation =
    D.Resilience.observe db (D.Env.of_bindings (D.Database.catalog db) b)
      registry plan
  in
  D.Checkpoint.release registry;
  observation

let test_actual_selectivity () =
  Alcotest.(check (float 1e-9)) "uniform" 0.3
    (D.Database.actual_selectivity ~skew:1.0 0.3);
  Alcotest.(check (float 1e-9)) "skew 3" (0.3 ** (1. /. 3.))
    (D.Database.actual_selectivity ~skew:3.0 0.3);
  Alcotest.(check (float 1e-9)) "zero" 0. (D.Database.actual_selectivity ~skew:3.0 0.)

let test_skewed_data_matches_model () =
  (* The realized matching fraction tracks s^(1/skew). *)
  let q = D.Queries.chain ~relations:1 in
  let skew = 3.0 in
  let db = D.Database.build ~seed:7 ~skew q.D.Queries.catalog in
  let card = (D.Catalog.relation_exn q.D.Queries.catalog "R1").D.Relation.cardinality in
  let dom = D.Catalog.domain_size q.D.Queries.catalog ~rel:"R1" ~attr:"a" in
  List.iter
    (fun s ->
      let cutoff = int_of_float (Float.round (s *. float_of_int dom)) in
      let matching = ref 0 in
      D.Heap_file.scan (D.Database.pool db) (D.Database.heap db "R1") (fun _ t ->
          if t.(0) < cutoff then incr matching);
      let fraction = float_of_int !matching /. float_of_int card in
      let expected = D.Database.actual_selectivity ~skew s in
      Alcotest.(check bool)
        (Printf.sprintf "fraction near model at s=%.2f (got %.3f, want %.3f)" s
           fraction expected)
        true
        (abs_float (fraction -. expected) < 0.1))
    [ 0.05; 0.2; 0.5 ]

let test_override_changes_costs () =
  let q = D.Queries.chain ~relations:2 in
  let dyn =
    Result.get_ok
      (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q.D.Queries.catalog
         q.D.Queries.query)
  in
  let b =
    D.Bindings.make ~selectivities:[ ("hv1", 0.05); ("hv2", 0.5) ] ~memory_pages:64
  in
  let env = D.Env.of_bindings q.D.Queries.catalog b in
  let db = D.Database.build ~seed:5 q.D.Queries.catalog in
  match observe db b dyn.D.Optimizer.plan with
  | None -> Alcotest.fail "expected a shared subplan"
  | Some { D.Resilience.sub; _ } ->
    let base, _ = D.Startup.evaluate env dyn.D.Optimizer.plan in
    (* Pretend the subplan produced far more rows than estimated. *)
    let inflated, _ =
      D.Startup.evaluate
        ~overrides:[ (sub.D.Plan.pid, 10. *. (1. +. D.Startup.estimated_rows env sub)) ]
        env dyn.D.Optimizer.plan
    in
    Alcotest.(check bool) "override moves the cost" true
      (abs_float (inflated -. base) > 1e-9)

let test_shared_subplan_none_for_static () =
  let q = D.Queries.chain ~relations:2 in
  let st =
    Result.get_ok
      (D.Optimizer.optimize ~mode:D.Optimizer.static q.D.Queries.catalog
         q.D.Queries.query)
  in
  let db = D.Database.build ~seed:5 q.D.Queries.catalog in
  let b =
    D.Bindings.make ~selectivities:[ ("hv1", 0.05); ("hv2", 0.5) ] ~memory_pages:64
  in
  Alcotest.(check bool) "static plan has no shared subplan" true
    (observe db b st.D.Optimizer.plan = None)

let test_adaptation_observes_skew () =
  (* On skewed data the observed cardinality diverges from the estimate,
     and across a spread of bindings adaptation switches plans at least
     once while never choosing a worse plan than the default. *)
  let q = D.Queries.chain ~relations:2 in
  let skew = 4.0 in
  let db = D.Database.build ~seed:5 ~skew q.D.Queries.catalog in
  let dyn =
    Result.get_ok
      (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q.D.Queries.catalog
         q.D.Queries.query)
  in
  let switched = ref 0 in
  let observed_diverges = ref 0 in
  List.iter
    (fun s1 ->
      let b =
        D.Bindings.make
          ~selectivities:[ ("hv1", s1); ("hv2", 0.3) ]
          ~memory_pages:64
      in
      let r = adapt db b dyn.D.Optimizer.plan in
      if r.switched then incr switched;
      (match r.observation with
      | Some { D.Resilience.sub; rows; _ } ->
        let est =
          D.Startup.estimated_rows (D.Env.of_bindings q.D.Queries.catalog b) sub
        in
        if est > 0. && float_of_int rows > 1.5 *. est then incr observed_diverges
      | None -> Alcotest.fail "expected a shared subplan");
      Alcotest.(check bool) "adapted cost never higher" true
        (r.adapted_cost <= r.default_cost +. 1e-9))
    [ 0.01; 0.02; 0.05; 0.1; 0.2; 0.4 ];
  Alcotest.(check bool) "observation diverges from estimate on skewed data" true
    (!observed_diverges >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "adaptation switched at least once (%d switches)" !switched)
    true (!switched >= 1)

let test_plain_fallback () =
  (* Without a choose-plan root there is nothing to observe; behaviour
     degenerates to a plain run: the start-up decision, the same rows. *)
  let q = D.Queries.chain ~relations:1 in
  let db = D.Database.build ~seed:5 q.D.Queries.catalog in
  let st =
    Result.get_ok
      (D.Optimizer.optimize ~mode:D.Optimizer.static q.D.Queries.catalog
         q.D.Queries.query)
  in
  let b = D.Bindings.make ~selectivities:[ ("hv1", 0.2) ] ~memory_pages:64 in
  let r = adapt db b st.D.Optimizer.plan in
  Alcotest.(check bool) "nothing materialized" true (r.observation = None);
  Alcotest.(check bool) "no switch" false r.switched;
  let plain, _ = D.Executor.run db b st.D.Optimizer.plan in
  Alcotest.(check bool) "the plain run's rows" true
    (D.Reference.multiset_equal plain r.tuples)

(* --- the unified observe -> decide -> splice path ------------------------- *)

(* Adaptation must never change the result, only the plan: the adapted
   run against the reference evaluator on Plangen instances, chains of
   2-5 relations and the two-selection query (whose R1 nodes share a
   relation set but not a result), all over skewed data. *)
let test_adaptive_run_correct_results () =
  Test_util.with_watchdog ~deadline:300. "midquery differential" @@ fun () ->
  let mode = D.Optimizer.dynamic ~uncertain_memory:true () in
  let check name catalog query db bindings =
    let plan =
      (Result.get_ok (D.Optimizer.optimize ~mode catalog query)).D.Optimizer.plan
    in
    List.iter
      (fun b ->
        let r = adapt db b plan in
        let schema = D.Plan.schema catalog r.resolved in
        if not (D.Reference.same_rows (D.Reference.eval db b query) (schema, r.tuples))
        then Alcotest.failf "%s: adapted result diverges from the reference" name)
      bindings
  in
  let at sels host_vars =
    List.map
      (fun sel ->
        D.Bindings.make
          ~selectivities:(List.map (fun hv -> (hv, sel)) host_vars)
          ~memory_pages:32)
      sels
  in
  let q2 = D.Queries.chain ~relations:2 in
  check "chain 2, random bindings" q2.D.Queries.catalog q2.D.Queries.query
    (D.Database.build ~seed:5 ~skew:3.0 q2.D.Queries.catalog)
    (D.Paramgen.bindings ~seed:13 ~trials:5 ~host_vars:q2.D.Queries.host_vars
       ~uncertain_memory:true ());
  for seed = 1 to 12 do
    let inst = D.Plangen.generate ~seed in
    check
      (Printf.sprintf "plangen %d" seed)
      inst.D.Plangen.catalog inst.D.Plangen.query
      (D.Database.build ~seed:(seed + 100) ~skew:3.0 inst.D.Plangen.catalog)
      [ D.Plangen.bindings inst ~seed:(seed * 7) ]
  done;
  List.iter
    (fun n ->
      let q = D.Queries.chain ~relations:n in
      check (Printf.sprintf "chain %d" n) q.D.Queries.catalog q.D.Queries.query
        (D.Database.build ~seed:5 ~skew:3.0 q.D.Queries.catalog)
        (* The 5-way join skips 0.15 to bound the suite's time: at 0.3
           it already returns 930 636 rows. *)
        (at (if n = 5 then [ 0.05; 0.3 ] else [ 0.05; 0.15; 0.3 ])
           q.D.Queries.host_vars))
    [ 2; 3; 4; 5 ];
  let catalog, query, host_vars = Test_util.two_selection_query () in
  check "two selections" catalog query
    (D.Database.build ~seed:5 ~skew:3.0 catalog)
    (at [ 0.05; 0.15 ] host_vars)

(* The registry's view of one observation of [plan]'s shared subplan:
   every override of [plan] that survives into [resolved] must be one
   of the splices served into [resolved].  Returns how many survived. *)
let overrides_spliced name db env plan resolved =
  let registry = D.Checkpoint.create () in
  ignore (D.Resilience.observe db env registry plan);
  let overrides = D.Checkpoint.overrides_for registry db plan in
  let splices = D.Checkpoint.resume_for registry db resolved in
  D.Checkpoint.release registry;
  let in_plan =
    D.Plan.fold (fun acc (n : D.Plan.t) -> n.D.Plan.pid :: acc) [] resolved
  in
  List.fold_left
    (fun kept (pid, _) ->
      if not (List.mem pid in_plan) then kept
      else if List.mem_assoc pid splices then kept + 1
      else Alcotest.failf "%s: overridden node #%d is never spliced" name pid)
    0 overrides

(* Startup keeps an overridden node's subtree verbatim, so the executor
   must be handed its tuples: an override never outruns the splice.
   Checked on [dqep report midquery]'s setting, and on failovers forced
   by breaking every B-tree page, whose re-resolution decides with the
   failover observation. *)
let test_every_override_is_spliced () =
  let q = D.Queries.chain ~relations:2 in
  let db = D.Database.build ~seed:66 ~skew:4.0 q.D.Queries.catalog in
  let plan =
    (Result.get_ok
       (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q.D.Queries.catalog
          q.D.Queries.query))
      .D.Optimizer.plan
  in
  let kept = ref 0 in
  List.iteri
    (fun i b ->
      let r = adapt db b plan in
      kept :=
        !kept
        + overrides_spliced
            (Printf.sprintf "midquery binding %d" i)
            db
            (D.Env.of_bindings q.D.Queries.catalog b)
            plan r.resolved)
    (D.Paramgen.bindings ~seed:67 ~trials:40 ~host_vars:q.D.Queries.host_vars
       ~uncertain_memory:false ());
  Alcotest.(check bool) "adapted plans keep overridden nodes" true (!kept > 0);
  let failover_kept = ref 0 in
  List.iter
    (fun (n, sel) ->
      let q = D.Queries.chain ~relations:n in
      let plan =
        (Result.get_ok
           (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ())
              q.D.Queries.catalog q.D.Queries.query))
          .D.Optimizer.plan
      in
      let b =
        D.Bindings.make
          ~selectivities:(List.map (fun hv -> (hv, sel)) q.D.Queries.host_vars)
          ~memory_pages:64
      in
      let db = D.Database.build ~seed:11 q.D.Queries.catalog in
      let pool = D.Database.pool db in
      D.Buffer_pool.resize pool 1;
      D.Buffer_pool.resize pool 64;
      D.Disk.set_faults (D.Buffer_pool.disk pool)
        (Some
           (D.Fault.create
              (D.Fault.config
                 ~broken_pages:
                   (List.map (fun id -> (id, D.Fault.Permanent))
                      (Test_util.btree_page_ids db))
                 ~seed:1 ())));
      match D.Resilience.run db b plan with
      | Error f, _ ->
        Alcotest.failf "chain %d at %g: %a" n sel D.Resilience.pp_failure f
      | Ok (_, stats), rstats ->
        Alcotest.(check bool)
          (Printf.sprintf "chain %d at %g failed over" n sel)
          true
          (rstats.D.Resilience.failovers >= 1);
        let clean = D.Database.build ~seed:11 q.D.Queries.catalog in
        failover_kept :=
          !failover_kept
          + overrides_spliced
              (Printf.sprintf "failover, chain %d at %g" n sel)
              clean
              (D.Env.of_bindings q.D.Queries.catalog b)
              plan stats.D.Executor.resolved_plan)
    [ (2, 0.01); (2, 0.02); (2, 0.1); (3, 0.05); (3, 0.1) ];
  Alcotest.(check bool) "failover plans keep overridden nodes" true
    (!failover_kept > 0)

(* An observation filed unordered serves a fingerprint-equal ordered
   node by sorting it: the merge join above reads it in order and
   computes the same answer as the unspliced plan. *)
let test_sorted_splice_feeds_merge_join () =
  let q = D.Queries.chain ~relations:2 in
  let catalog = q.D.Queries.catalog in
  let b =
    D.Bindings.make
      ~selectivities:(List.map (fun hv -> (hv, 0.6)) q.D.Queries.host_vars)
      ~memory_pages:64
  in
  let env = D.Env.of_bindings catalog b in
  let builder = D.Plan.Builder.create env in
  let op = D.Plan.Builder.operator builder in
  (* [Filter (scan rel)], and the same filter over the scan sorted on
     [key]: one logical result, unordered and ordered. *)
  let filtered rel hv key =
    let r = D.Catalog.relation_exn catalog rel in
    let card = float_of_int r.D.Relation.cardinality in
    let bytes_per_row = r.D.Relation.record_bytes in
    let pred = D.Predicate.select ~rel ~attr:"a" (D.Predicate.Host_var hv) in
    let col = D.Col.make ~rel ~attr:key in
    let scan =
      op (D.Physical.File_scan rel) ~inputs:[] ~rels:[ rel ]
        ~rows:(I.point card) ~bytes_per_row ~props:D.Props.unordered
    in
    let sorted =
      op (D.Physical.Sort [ col ]) ~inputs:[ scan ] ~rels:[ rel ]
        ~rows:(I.point card) ~bytes_per_row ~props:(D.Props.ordered [ col ])
    in
    let filter input props =
      op (D.Physical.Filter pred) ~inputs:[ input ] ~rels:[ rel ]
        ~rows:(I.make 0. card) ~bytes_per_row ~props
    in
    (filter scan D.Props.unordered, filter sorted (D.Props.ordered [ col ]), col)
  in
  let source, left, left_col = filtered "R1" "hv1" "jr" in
  let _, right, right_col = filtered "R2" "hv2" "jl" in
  let merge =
    op
      (D.Physical.Merge_join [ D.Predicate.equi ~left:left_col ~right:right_col ])
      ~inputs:[ left; right ] ~rels:[ "R1"; "R2" ] ~rows:(I.make 0. 1e6)
      ~bytes_per_row:(left.D.Plan.bytes_per_row + right.D.Plan.bytes_per_row)
      ~props:(D.Props.ordered [ left_col ])
  in
  let db = D.Database.build ~seed:9 catalog in
  let registry = D.Checkpoint.create () in
  let stored, _ = D.Executor.execute db env source in
  ignore
    (D.Checkpoint.file registry source
       ~schema:(D.Plan.schema catalog source)
       stored);
  let splices = D.Checkpoint.resume_for registry db merge in
  let served =
    match List.assoc_opt left.D.Plan.pid splices with
    | Some tuples -> tuples
    | None -> Alcotest.fail "the ordered input is not served"
  in
  let position = D.Schema.position_exn (D.Plan.schema catalog left) left_col in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      D.Exec_common.compare_on [ position ] a b <= 0 && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "served in the promised order" true (sorted served);
  Alcotest.(check bool) "premise: the stored tuples are not in that order"
    false (sorted stored);
  let expected, _ = D.Executor.execute db env merge in
  let got, _ = D.Executor.execute db env ~materialized:splices merge in
  D.Checkpoint.release registry;
  Alcotest.(check bool) "premise: the join is not empty" true (expected <> []);
  Alcotest.(check bool) "same answer as the unspliced merge join" true
    (D.Reference.multiset_equal expected got)

(* An observation the governor's memory budget cannot hold is refused:
   the run says so, and decides as at start-up.  [dqep report
   midquery]'s first binding reads 628 rows; ungoverned they switch the
   plan, under a 100 000-byte budget they do not fit. *)
let test_refused_observation_is_reported () =
  let q = D.Queries.chain ~relations:2 in
  let db = D.Database.build ~seed:66 ~skew:4.0 q.D.Queries.catalog in
  let plan =
    (Result.get_ok
       (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q.D.Queries.catalog
          q.D.Queries.query))
      .D.Optimizer.plan
  in
  let b =
    List.hd
      (D.Paramgen.bindings ~seed:67 ~trials:40 ~host_vars:q.D.Queries.host_vars
         ~uncertain_memory:false ())
  in
  let free = adapt db b plan in
  let tight =
    adapt ~gov:(D.Governor.create ~memory_bytes:100_000 ()) db b plan
  in
  let observed name r =
    match r.observation with
    | Some o -> o
    | None -> Alcotest.failf "%s: nothing observed" name
  in
  let free_o = observed "ungoverned" free
  and tight_o = observed "governed" tight in
  Alcotest.(check int) "ungoverned: rows observed" 628 free_o.D.Resilience.rows;
  Alcotest.(check bool) "ungoverned: kept" true free_o.D.Resilience.kept;
  Alcotest.(check bool) "ungoverned: switched" true free.switched;
  Alcotest.(check int) "governed: rows observed" 628 tight_o.D.Resilience.rows;
  Alcotest.(check bool) "governed: refused" false tight_o.D.Resilience.kept;
  Alcotest.(check bool) "governed: not switched" false tight.switched;
  Alcotest.(check (float 0.)) "governed: the start-up decision"
    tight.default_cost tight.adapted_cost

let suite =
  ( "midquery",
    [ Alcotest.test_case "actual selectivity model" `Quick test_actual_selectivity;
      Alcotest.test_case "skewed data matches model" `Quick
        test_skewed_data_matches_model;
      Alcotest.test_case "overrides change costs" `Quick test_override_changes_costs;
      Alcotest.test_case "no shared subplan in static plans" `Quick
        test_shared_subplan_none_for_static;
      Alcotest.test_case "adaptive runs stay correct" `Quick
        test_adaptive_run_correct_results;
      Alcotest.test_case "adaptation observes skew and switches" `Quick
        test_adaptation_observes_skew;
      Alcotest.test_case "plain fallback" `Quick test_plain_fallback;
      Alcotest.test_case "every override is spliced" `Quick
        test_every_override_is_spliced;
      Alcotest.test_case "sorted splice feeds a merge join" `Quick
        test_sorted_splice_feeds_merge_join;
      Alcotest.test_case "refused observation is reported" `Quick
        test_refused_observation_is_reported ] )
