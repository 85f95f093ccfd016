(* Plan feasibility validation (activation-time catalog checks). *)

module D = Dqep

let base_query = D.Queries.chain ~relations:2

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

(* The same schema minus the index on R1.a (as if it were dropped after
   compile time). *)
let catalog_without_index ~rel ~attr =
  Test_util.without_index base_query.D.Queries.catalog ~rel ~attr

let catalog_without_relation name =
  let c = base_query.D.Queries.catalog in
  D.Catalog.create ~page_bytes:(D.Catalog.page_bytes c)
    ~relations:(List.filter (fun (r : D.Relation.t) -> r.D.Relation.name <> name) (D.Catalog.relations c))
    ~indexes:(List.filter (fun (i : D.Index.t) -> i.D.Index.relation <> name) (D.Catalog.indexes c))
    ()

let test_valid_plan_checks () =
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  match D.Validate.check base_query.D.Queries.catalog r.D.Optimizer.plan with
  | Ok () -> ()
  | Error ps ->
    Alcotest.failf "valid plan rejected: %a" D.Validate.pp_problem (List.hd ps)

let test_dropped_index_detected () =
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  match D.Validate.check catalog r.D.Optimizer.plan with
  | Ok () -> Alcotest.fail "missing index not detected"
  | Error problems ->
    Alcotest.(check bool) "mentions the index" true
      (List.mem (D.Validate.Missing_index { rel = "R1"; attr = "a" }) problems)

let test_dropped_relation_detected () =
  let r = optimize_exn ~mode:D.Optimizer.static base_query in
  let catalog = catalog_without_relation "R2" in
  match D.Validate.check catalog r.D.Optimizer.plan with
  | Ok () -> Alcotest.fail "missing relation not detected"
  | Error problems ->
    Alcotest.(check bool) "mentions the relation" true
      (List.mem (D.Validate.Missing_relation "R2") problems)

let test_prune_keeps_feasible_alternatives () =
  (* Dropping one index invalidates only the alternatives that use it:
     the pruned dynamic plan still runs and still adapts. *)
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  let env = D.Env.dynamic catalog in
  match D.Validate.prune_infeasible env catalog r.D.Optimizer.plan with
  | None -> Alcotest.fail "everything pruned"
  | Some pruned ->
    (match D.Validate.check catalog pruned with
    | Ok () -> ()
    | Error ps ->
      Alcotest.failf "pruned plan still infeasible: %a" D.Validate.pp_problem
        (List.hd ps));
    Alcotest.(check bool) "smaller than the original" true
      (D.Plan.node_count pruned < D.Plan.node_count r.D.Optimizer.plan);
    (* The pruned plan must still produce correct results.  The data was
       generated under the original catalog; the dropped index only
       removes access paths. *)
    let db = D.Database.build ~seed:3 base_query.D.Queries.catalog in
    let b =
      D.Bindings.make
        ~selectivities:[ ("hv1", 0.1); ("hv2", 0.5) ]
        ~memory_pages:64
    in
    let tuples, stats = D.Executor.run db b pruned in
    let schema =
      D.Plan.schema base_query.D.Queries.catalog stats.D.Executor.resolved_plan
    in
    let ref_schema, expected =
      D.Reference.eval db b base_query.D.Queries.query
    in
    Alcotest.(check bool) "pruned plan result correct" true
      (D.Reference.multiset_equal
         (D.Reference.normalize ref_schema expected)
         (D.Reference.normalize schema tuples))

let test_prune_everything () =
  let r = optimize_exn ~mode:D.Optimizer.static base_query in
  let catalog = catalog_without_relation "R1" in
  let env = D.Env.dynamic catalog in
  Alcotest.(check bool) "nothing survives" true
    (D.Validate.prune_infeasible env catalog r.D.Optimizer.plan = None)

let test_static_plan_brittleness () =
  (* The contrast the paper draws: a static plan that used the dropped
     index is dead, while the dynamic plan survives by pruning. *)
  let static = optimize_exn ~mode:D.Optimizer.static base_query in
  let dynamic = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  let static_ok = D.Validate.check catalog static.D.Optimizer.plan = Ok () in
  let dynamic_survives =
    D.Validate.prune_infeasible (D.Env.dynamic catalog) catalog
      dynamic.D.Optimizer.plan
    <> None
  in
  Alcotest.(check bool) "static plan became infeasible" false static_ok;
  Alcotest.(check bool) "dynamic plan survives" true dynamic_survives

let suite =
  ( "validate",
    [ Alcotest.test_case "valid plan passes" `Quick test_valid_plan_checks;
      Alcotest.test_case "dropped index detected" `Quick test_dropped_index_detected;
      Alcotest.test_case "dropped relation detected" `Quick
        test_dropped_relation_detected;
      Alcotest.test_case "pruning keeps feasible alternatives" `Quick
        test_prune_keeps_feasible_alternatives;
      Alcotest.test_case "pruning can empty a plan" `Quick test_prune_everything;
      Alcotest.test_case "static brittle, dynamic survives" `Quick
        test_static_plan_brittleness ] )
