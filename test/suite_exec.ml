(* Execution engine: every physical operator against the naive reference
   evaluator, plan-space equivalence (all plans of a query produce the
   same result multiset), sort order, spilling, and iterator protocol. *)

module D = Dqep

let db_for (q : D.Queries.t) = D.Database.build ~seed:17 q.D.Queries.catalog

let bindings_for (q : D.Queries.t) ?(seed = 9) n =
  D.Paramgen.bindings ~seed ~trials:n ~host_vars:q.D.Queries.host_vars
    ~uncertain_memory:true ()

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

let run_normalized db plan b =
  let tuples, stats = D.Executor.run db b plan in
  let schema = D.Plan.schema (D.Database.catalog db) stats.D.Executor.resolved_plan in
  D.Reference.normalize schema tuples

let reference_normalized db (q : D.Queries.t) b =
  let schema, tuples = D.Reference.eval db b q.D.Queries.query in
  D.Reference.normalize schema tuples

let test_all_strategies_match_reference () =
  List.iter
    (fun n ->
      let q = D.Queries.chain ~relations:n in
      let db = db_for q in
      let dyn = optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q in
      let st = optimize_exn ~mode:D.Optimizer.static q in
      List.iter
        (fun b ->
          let expected = reference_normalized db q b in
          Alcotest.(check bool)
            (Printf.sprintf "static matches (n=%d)" n)
            true
            (D.Reference.multiset_equal expected (run_normalized db st.D.Optimizer.plan b));
          Alcotest.(check bool)
            (Printf.sprintf "dynamic matches (n=%d)" n)
            true
            (D.Reference.multiset_equal expected (run_normalized db dyn.D.Optimizer.plan b));
          let rt = optimize_exn ~mode:(D.Optimizer.Run_time b) q in
          Alcotest.(check bool)
            (Printf.sprintf "runtime matches (n=%d)" n)
            true
            (D.Reference.multiset_equal expected (run_normalized db rt.D.Optimizer.plan b)))
        (bindings_for q 4))
    [ 1; 2; 3 ]

(* Build a one-off plan for a specific operator and compare against the
   reference. *)
let manual_plan_env (q : D.Queries.t) b =
  D.Env.of_bindings q.D.Queries.catalog b

let test_operator_zoo () =
  (* Force specific operators through hand-built plans over R1, R2. *)
  let q = D.Queries.chain ~relations:2 in
  let db = db_for q in
  let b =
    D.Bindings.make
      ~selectivities:[ ("hv1", 0.4); ("hv2", 0.6) ]
      ~memory_pages:64
  in
  let env = manual_plan_env q b in
  let builder = D.Plan.Builder.create env in
  let catalog = q.D.Queries.catalog in
  let pred i =
    D.Predicate.select ~rel:(D.Paper_catalog.rel_name i) ~attr:"a"
      (D.Predicate.Host_var (D.Queries.host_var i))
  in
  let join =
    D.Predicate.equi
      ~left:(D.Col.make ~rel:"R1" ~attr:"jr")
      ~right:(D.Col.make ~rel:"R2" ~attr:"jl")
  in
  let rows r = D.Estimate.base_rows env r in
  let scan r =
    D.Plan.Builder.operator builder (D.Physical.File_scan r) ~inputs:[] ~rels:[ r ]
      ~rows:(rows r) ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let filter i p =
    D.Plan.Builder.operator builder (D.Physical.Filter (pred i)) ~inputs:[ p ]
      ~rels:p.D.Plan.rels
      ~rows:(D.Estimate.select_rows env (pred i) p.D.Plan.rows)
      ~bytes_per_row:512 ~props:p.D.Plan.props
  in
  let fbs i =
    D.Plan.Builder.operator builder
      (D.Physical.Filter_btree_scan
         { rel = D.Paper_catalog.rel_name i; attr = "a"; pred = pred i })
      ~inputs:[] ~rels:[ D.Paper_catalog.rel_name i ]
      ~rows:(D.Estimate.select_rows env (pred i) (rows (D.Paper_catalog.rel_name i)))
      ~bytes_per_row:512
      ~props:(D.Props.ordered [ D.Col.make ~rel:(D.Paper_catalog.rel_name i) ~attr:"a" ])
  in
  let btree_scan r attr =
    D.Plan.Builder.operator builder (D.Physical.Btree_scan { rel = r; attr })
      ~inputs:[] ~rels:[ r ] ~rows:(rows r) ~bytes_per_row:512
      ~props:(D.Props.ordered [ D.Col.make ~rel:r ~attr ])
  in
  let sort col p =
    D.Plan.Builder.operator builder (D.Physical.Sort [ col ]) ~inputs:[ p ]
      ~rels:p.D.Plan.rels ~rows:p.D.Plan.rows ~bytes_per_row:p.D.Plan.bytes_per_row
      ~props:(D.Props.ordered [ col ])
  in
  let binary op l r props =
    D.Plan.Builder.operator builder op ~inputs:[ l; r ] ~rels:[ "R1"; "R2" ]
      ~rows:(D.Estimate.join_rows env [ join ] l.D.Plan.rows r.D.Plan.rows)
      ~bytes_per_row:1024 ~props
  in
  let logical =
    D.Logical.Join
      ( D.Logical.Select (D.Logical.Get_set "R1", pred 1),
        D.Logical.Select (D.Logical.Get_set "R2", pred 2),
        [ join ] )
  in
  let schema_ref, ref_tuples = D.Reference.eval db b logical in
  let expected = D.Reference.normalize schema_ref ref_tuples in
  let check label plan =
    let got = run_normalized db plan b in
    Alcotest.(check bool) label true (D.Reference.multiset_equal expected got)
  in
  let l_filter = filter 1 (scan "R1") in
  let r_filter = filter 2 (scan "R2") in
  check "hash join / filters / file scans"
    (binary (D.Physical.Hash_join [ join ]) l_filter r_filter D.Props.unordered);
  check "hash join / filter-btree-scans"
    (binary (D.Physical.Hash_join [ join ]) (fbs 1) (fbs 2) D.Props.unordered);
  check "merge join over sorts"
    (binary
       (D.Physical.Merge_join [ join ])
       (sort (D.Col.make ~rel:"R1" ~attr:"jr") l_filter)
       (sort (D.Col.make ~rel:"R2" ~attr:"jl") r_filter)
       (D.Props.ordered [ D.Col.make ~rel:"R1" ~attr:"jr" ]))
  ;
  check "merge join over btree scans (filtered)"
    (binary
       (D.Physical.Merge_join [ join ])
       (sort (D.Col.make ~rel:"R1" ~attr:"jr") (filter 1 (btree_scan "R1" "a")))
       (filter 2 (btree_scan "R2" "jl"))
       (D.Props.ordered [ D.Col.make ~rel:"R1" ~attr:"jr" ]));
  let index_join =
    D.Plan.Builder.operator builder
      (D.Physical.Index_join
         { preds = [ join ]; inner_rel = "R2"; inner_attr = "jl";
           inner_filter = Some (pred 2) })
      ~inputs:[ l_filter ] ~rels:[ "R1"; "R2" ]
      ~rows:
        (D.Estimate.join_rows env [ join ] l_filter.D.Plan.rows
           (D.Estimate.select_rows env (pred 2) (rows "R2")))
      ~bytes_per_row:1024 ~props:D.Props.unordered
  in
  check "index join with inner filter" index_join;
  ignore catalog

let test_sort_produces_order () =
  let q = D.Queries.chain ~relations:1 in
  let db = db_for q in
  let b = D.Bindings.make ~selectivities:[ ("hv1", 1.0) ] ~memory_pages:64 in
  let env = manual_plan_env q b in
  let builder = D.Plan.Builder.create env in
  let scan =
    D.Plan.Builder.operator builder (D.Physical.File_scan "R1") ~inputs:[]
      ~rels:[ "R1" ] ~rows:(D.Estimate.base_rows env "R1") ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  let col = D.Col.make ~rel:"R1" ~attr:"a" in
  let sorted =
    D.Plan.Builder.operator builder (D.Physical.Sort [ col ]) ~inputs:[ scan ]
      ~rels:[ "R1" ] ~rows:scan.D.Plan.rows ~bytes_per_row:512
      ~props:(D.Props.ordered [ col ])
  in
  let it = D.Executor.compile db env sorted in
  let tuples = D.Batch_exec.consume it in
  let pos = D.Schema.position_exn it.D.Batch_exec.schema col in
  let rec is_sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.(pos) <= b.(pos) && is_sorted rest
  in
  Alcotest.(check bool) "sorted output" true (is_sorted tuples);
  Alcotest.(check int) "all tuples" 467 (List.length tuples)

let test_btree_scan_ordered () =
  let q = D.Queries.chain ~relations:1 in
  let db = db_for q in
  let b = D.Bindings.make ~selectivities:[ ("hv1", 1.0) ] ~memory_pages:64 in
  let env = manual_plan_env q b in
  let builder = D.Plan.Builder.create env in
  let col = D.Col.make ~rel:"R1" ~attr:"a" in
  let scan =
    D.Plan.Builder.operator builder
      (D.Physical.Btree_scan { rel = "R1"; attr = "a" })
      ~inputs:[] ~rels:[ "R1" ] ~rows:(D.Estimate.base_rows env "R1")
      ~bytes_per_row:512 ~props:(D.Props.ordered [ col ])
  in
  let it = D.Executor.compile db env scan in
  let tuples = D.Batch_exec.consume it in
  let pos = D.Schema.position_exn it.D.Batch_exec.schema col in
  let rec is_sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.(pos) <= b.(pos) && is_sorted rest
  in
  Alcotest.(check bool) "index order" true (is_sorted tuples);
  Alcotest.(check int) "complete" 467 (List.length tuples)

let test_spilling_happens_under_low_memory () =
  (* Same query, two memory grants: the small one must write temp pages
     (Grace partitioning / external sort), the large one can avoid it. *)
  let q = D.Queries.chain ~relations:2 in
  let db = db_for q in
  let sels = List.map (fun v -> (v, 1.0)) q.D.Queries.host_vars in
  let dyn = optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q in
  let writes memory_pages =
    let b = D.Bindings.make ~selectivities:sels ~memory_pages in
    let _, stats = D.Executor.run db b dyn.D.Optimizer.plan in
    stats.D.Executor.io.D.Buffer_pool.physical_writes
  in
  let small = writes 16 in
  let large = writes 4096 in
  Alcotest.(check bool) "small memory spills" true (small > 0);
  Alcotest.(check int) "large memory avoids spilling" 0 large

let test_iterator_of_list () =
  let schema = D.Schema.of_relation
      (D.Relation.make ~name:"T" ~cardinality:1 ~record_bytes:8
         ~attributes:[ D.Attribute.make ~name:"x" ~domain_size:10 ]) in
  let it = D.Batch_exec.of_tuples ~capacity:1 schema [ [| 1 |]; [| 2 |] ] in
  Alcotest.(check int) "count" 2 (List.length (D.Batch_exec.consume it));
  (* Reopening restarts. *)
  Alcotest.(check int) "count again" 2 (List.length (D.Batch_exec.consume it))

let test_empty_results () =
  let q = D.Queries.chain ~relations:2 in
  let db = db_for q in
  let b =
    D.Bindings.make
      ~selectivities:(List.map (fun v -> (v, 0.)) q.D.Queries.host_vars)
      ~memory_pages:64
  in
  let dyn = optimize_exn ~mode:(D.Optimizer.dynamic ()) q in
  let tuples, stats = D.Executor.run db b dyn.D.Optimizer.plan in
  Alcotest.(check int) "no tuples" 0 (List.length tuples);
  Alcotest.(check int) "stats agree" 0 stats.D.Executor.tuples

let test_reference_multiset () =
  Alcotest.(check bool) "equal" true
    (D.Reference.multiset_equal [ [| 1 |]; [| 2 |] ] [ [| 2 |]; [| 1 |] ]);
  Alcotest.(check bool) "missing dup" false
    (D.Reference.multiset_equal [ [| 1 |]; [| 1 |] ] [ [| 1 |] ])

(* The oracle's oracle: the hashing reference evaluator agrees, as a
   multiset, with the nested-loop one it replaced, on Plangen queries
   over their small relations; [same_rows] agrees with
   [multiset_equal] and sees a changed value. *)
let prop_reference_matches_nested_loops =
  QCheck.Test.make ~name:"hash-join reference = nested-loop reference" ~count:40
    QCheck.(pair (int_range 1 200) small_nat)
    (fun (seed, bseed) ->
      let inst = D.Plangen.generate ~seed in
      let db = D.Database.build ~seed:(seed + bseed) inst.D.Plangen.catalog in
      let b = D.Plangen.bindings inst ~seed:bseed in
      let hs, hashed = D.Reference.eval db b inst.D.Plangen.query in
      let ns, nested = Legacy_rewrites.reference_eval db b inst.D.Plangen.query in
      let bumped =
        match nested with
        | t :: rest ->
          let t = Array.copy t in
          t.(0) <- t.(0) + 1_000_000;
          t :: rest
        | [] -> []
      in
      D.Schema.columns hs = D.Schema.columns ns
      && D.Reference.multiset_equal hashed nested
      && D.Reference.same_rows (hs, hashed) (ns, List.rev nested)
      && (nested = [] || not (D.Reference.same_rows (hs, hashed) (ns, bumped))))

let suite =
  ( "exec",
    [ Alcotest.test_case "all strategies match reference" `Slow
        test_all_strategies_match_reference;
      Alcotest.test_case "operator zoo vs reference" `Quick test_operator_zoo;
      Alcotest.test_case "sort produces order" `Quick test_sort_produces_order;
      Alcotest.test_case "btree scan ordered" `Quick test_btree_scan_ordered;
      Alcotest.test_case "low memory spills, high memory does not" `Quick
        test_spilling_happens_under_low_memory;
      Alcotest.test_case "iterator of_list protocol" `Quick test_iterator_of_list;
      Alcotest.test_case "empty results" `Quick test_empty_results;
      Alcotest.test_case "reference multiset equality" `Quick test_reference_multiset;
      QCheck_alcotest.to_alcotest prop_reference_matches_nested_loops ] )
