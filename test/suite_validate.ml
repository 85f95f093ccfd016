(* Plan feasibility validation (activation-time catalog checks). *)

module D = Dqep

let base_query = D.Queries.chain ~relations:2

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

(* The same schema minus the index on R1.a (as if it were dropped after
   compile time). *)
let catalog_without_index ~rel ~attr =
  Test_util.without_index base_query.D.Queries.catalog ~rel ~attr

let without_relation c name =
  D.Catalog.create ~page_bytes:(D.Catalog.page_bytes c)
    ~relations:(List.filter (fun (r : D.Relation.t) -> r.D.Relation.name <> name) (D.Catalog.relations c))
    ~indexes:(List.filter (fun (i : D.Index.t) -> i.D.Index.relation <> name) (D.Catalog.indexes c))
    ()

let catalog_without_relation = without_relation base_query.D.Queries.catalog

(* Activation-time pruning as the executor does it: the nodes naming a
   dropped object are dead. *)
let prune env catalog plan =
  let dag = D.Plan.Dag.of_plan plan in
  D.Plan.rewrite env
    ~dead:(D.Verify.drifted dag (D.Verify.feasibility ~catalog plan))
    dag

let test_valid_plan_checks () =
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  match D.Verify.feasibility ~catalog:base_query.D.Queries.catalog r.D.Optimizer.plan with
  | [] -> ()
  | diags -> Alcotest.failf "valid plan rejected: %s" (D.Diagnostic.list_to_string diags)

let test_dropped_index_detected () =
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  match D.Verify.feasibility ~catalog r.D.Optimizer.plan with
  | [] -> Alcotest.fail "missing index not detected"
  | diags ->
    Alcotest.(check bool) "mentions the index" true
      (Test_util.reports D.Diagnostic.Missing_index "R1.a" diags)

let test_dropped_relation_detected () =
  let r = optimize_exn ~mode:D.Optimizer.static base_query in
  let catalog = catalog_without_relation "R2" in
  match D.Verify.feasibility ~catalog r.D.Optimizer.plan with
  | [] -> Alcotest.fail "missing relation not detected"
  | diags ->
    Alcotest.(check bool) "mentions the relation" true
      (Test_util.reports D.Diagnostic.Missing_relation "R2" diags)

let test_prune_keeps_feasible_alternatives () =
  (* Dropping one index invalidates only the alternatives that use it:
     the pruned dynamic plan still runs and still adapts. *)
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  let env = D.Env.dynamic catalog in
  match prune env catalog r.D.Optimizer.plan with
  | None -> Alcotest.fail "everything pruned"
  | Some pruned ->
    (match D.Verify.feasibility ~catalog pruned with
    | [] -> ()
    | diags ->
      Alcotest.failf "pruned plan still infeasible: %s"
        (D.Diagnostic.list_to_string diags));
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
    (prune env catalog r.D.Optimizer.plan = None)

let test_static_plan_brittleness () =
  (* The contrast the paper draws: a static plan that used the dropped
     index is dead, while the dynamic plan survives by pruning. *)
  let static = optimize_exn ~mode:D.Optimizer.static base_query in
  let dynamic = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  let static_ok = D.Verify.feasibility ~catalog static.D.Optimizer.plan = [] in
  let dynamic_survives =
    prune (D.Env.dynamic catalog) catalog dynamic.D.Optimizer.plan <> None
  in
  Alcotest.(check bool) "static plan became infeasible" false static_ok;
  Alcotest.(check bool) "dynamic plan survives" true dynamic_survives

(* --- resolver agreement ------------------------------------------------- *)

type drift = Relation of string | Attribute of string * string | Index of string * string

(* Every catalog object [plan] names, each as one drift. *)
let drifts plan =
  let found = ref [] in
  let add d = found := d :: !found in
  let column (c : D.Col.t) = add (Attribute (c.D.Col.rel, c.D.Col.attr)) in
  let equi (e : D.Predicate.equi) =
    column e.D.Predicate.left;
    column e.D.Predicate.right
  in
  let index rel attr =
    add (Relation rel);
    add (Index (rel, attr));
    column (D.Col.make ~rel ~attr)
  in
  D.Plan.iter
    (fun (p : D.Plan.t) ->
      match p.D.Plan.op with
      | D.Physical.File_scan r -> add (Relation r)
      | D.Physical.Btree_scan { rel; attr } -> index rel attr
      | D.Physical.Filter_btree_scan { rel; attr; pred } ->
        index rel attr;
        column pred.D.Predicate.target
      | D.Physical.Filter pred -> column pred.D.Predicate.target
      | D.Physical.Sort cols -> List.iter column cols
      | D.Physical.Hash_join preds | D.Physical.Merge_join preds ->
        List.iter equi preds
      | D.Physical.Index_join { inner_rel; inner_attr; inner_filter; preds } ->
        index inner_rel inner_attr;
        Option.iter (fun (s : D.Predicate.select) -> column s.D.Predicate.target)
          inner_filter;
        List.iter equi preds
      | D.Physical.Choose_plan -> ())
    plan;
  List.sort_uniq compare !found

let apply catalog = function
  | Relation r -> without_relation catalog r
  | Attribute (rel, attr) -> Test_util.without_attribute catalog ~rel ~attr
  | Index (rel, attr) -> Test_util.without_index catalog ~rel ~attr

let drift_name = function
  | Relation r -> "drop " ^ r
  | Attribute (r, a) -> Printf.sprintf "drop %s.%s" r a
  | Index (r, a) -> Printf.sprintf "drop index %s.%s" r a

(* Every dynamic plan of the paper queries and of Plangen seeds 1..120. *)
let corpus () =
  let plan catalog query =
    ( catalog,
      (Result.get_ok
         (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog query))
        .D.Optimizer.plan )
  in
  List.map
    (fun (q : D.Queries.t) ->
      (Printf.sprintf "paper query %d" q.D.Queries.id,
       plan q.D.Queries.catalog q.D.Queries.query))
    (D.Queries.paper_queries ())
  @ List.init 120 (fun i ->
        let inst = D.Plangen.generate ~seed:(i + 1) in
        (Printf.sprintf "plangen %d" (i + 1),
         plan inst.D.Plangen.catalog inst.D.Plangen.query))

(* [Verify.feasibility] is exactly the feasibility subset of
   [Verify.semantics], and activation ([Executor.check_feasible]) reaches
   the verdict the old [Validate.check]/[prune_infeasible] pair reached:
   unchanged, pruned to the same shape, or infeasible over the same
   objects — for every corpus plan under no drift and under every
   single-object drift. *)
let test_resolver_agreement () =
  Test_util.with_watchdog ~deadline:300. "resolver agreement" @@ fun () ->
  List.iter
    (fun (name, (catalog, plan)) ->
      List.iter
        (fun drift ->
          let name =
            Printf.sprintf "%s, %s" name
              (Option.fold ~none:"intact" ~some:drift_name drift)
          in
          let catalog = Option.fold ~none:catalog ~some:(apply catalog) drift in
          let semantic_feasibility =
            List.filter
              (fun (d : D.Diagnostic.t) ->
                D.Diagnostic.is_feasibility d.D.Diagnostic.code)
              (D.Verify.semantics ~catalog plan)
          in
          let feasibility = D.Verify.feasibility ~catalog plan in
          if feasibility <> semantic_feasibility then
            Alcotest.failf "%s: feasibility %s, semantics %s" name
              (D.Diagnostic.list_to_string feasibility)
              (D.Diagnostic.list_to_string semantic_feasibility);
          let db = D.Database.build ~seed:1 catalog in
          let env = D.Env.dynamic catalog in
          let got =
            match D.Executor.check_feasible db env plan with
            | p -> `Plan p
            | exception D.Executor.Infeasible diags -> `Infeasible diags
            | exception D.Executor.Invalid_plan _ -> `Rejected
          in
          let ok =
            match (Legacy_rewrites.activation env catalog plan, got) with
            | Legacy_rewrites.Unchanged, `Plan p -> p == plan
            | Legacy_rewrites.Pruned want, `Plan p ->
              let shape = Test_util.shape () in
              p != plan && shape p = shape want
            | Legacy_rewrites.Infeasible problems, `Infeasible diags ->
              List.for_all
                (fun (problem : Legacy_rewrites.problem) ->
                  match problem with
                  | Legacy_rewrites.Missing_relation r ->
                    Test_util.reports D.Diagnostic.Missing_relation r diags
                  | Legacy_rewrites.Missing_attribute { rel; attr } ->
                    Test_util.reports D.Diagnostic.Missing_attribute
                      (rel ^ "." ^ attr) diags
                  | Legacy_rewrites.Missing_index { rel; attr } ->
                    Test_util.reports D.Diagnostic.Missing_index
                      (rel ^ "." ^ attr) diags)
                problems
            | Legacy_rewrites.Rejected, `Rejected -> true
            | _ -> false
          in
          if not ok then Alcotest.failf "%s: activation verdicts differ" name)
        (None :: List.map Option.some (drifts plan)))
    (corpus ())

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
        test_static_plan_brittleness;
      Alcotest.test_case "resolver agrees with the old catalog check" `Slow
        test_resolver_agreement ] )
