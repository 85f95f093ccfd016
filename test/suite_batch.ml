(* The execution engine's guard rails.

   1. Randomized differential harness: seeded random catalogs and queries
      (Plangen), optimized in static and dynamic modes, every plan run
      through the executor, at tiny batch capacities, and through the
      naive reference evaluator, asserting multiset-equal results — and
      asserting the buffer pool holds zero pins after every single run.
   2. qcheck properties of Batch.t: selection-vector refinement keeps
      exactly the selected multiset, of_tuples/to_tuples round-trips the
      very arrays it was given, remap permutes columns by name, and
      capacity is never exceeded.
   3. Scans share their page's tuples: every tuple a file scan returns,
      fused filter or not, is physically one of the arrays on the
      relation's heap pages.
   4. Iterator re-open semantics: consuming twice — or closing
      half-drained and consuming again — yields the same result. *)

module D = Dqep

let optimize_exn ~mode catalog query =
  Result.get_ok (D.Optimizer.optimize ~mode catalog query)

(* --- randomized differential harness ------------------------------------- *)

let differential_seeds = 50

let assert_no_leaks label db =
  match D.Buffer_pool.leak_check (D.Database.pool db) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let run_differential () =
  let runs = ref 0 in
  for seed = 1 to differential_seeds do
    let inst = D.Plangen.generate ~seed in
    let catalog = inst.D.Plangen.catalog in
    let query = inst.D.Plangen.query in
    let db = D.Database.build ~seed:(seed * 7919) catalog in
    let modes =
      [ ("static", D.Optimizer.static);
        ("dynamic", D.Optimizer.dynamic ~uncertain_memory:true ()) ]
    in
    List.iter
      (fun (mode_name, mode) ->
        let plan = (optimize_exn ~mode catalog query).D.Optimizer.plan in
        List.iter
          (fun bseed ->
            let b = D.Plangen.bindings inst ~seed:bseed in
            let expected =
              let schema, tuples = D.Reference.eval db b query in
              D.Reference.normalize schema tuples
            in
            let env = D.Env.of_bindings catalog b in
            let fail label got =
              Alcotest.failf
                "seed %d, %s plan, bindings %d, %s: %d rows differ from the \
                 reference's %d"
                seed mode_name bseed label (List.length got)
                (List.length expected)
            in
            let check label tuples schema =
              incr runs;
              let got = D.Reference.normalize schema tuples in
              if not (D.Reference.multiset_equal expected got) then
                fail label got
            in
            let tuples, stats = D.Executor.run db b plan in
            check "executor" tuples
              (D.Plan.schema catalog stats.D.Executor.resolved_plan);
            assert_no_leaks (Printf.sprintf "seed %d: pin leak" seed) db;
            (* Resolve choose nodes up front so the result's column order
               is known, then drive Batch_exec directly: tiny capacities
               exercise batch boundaries everywhere. *)
            let resolved =
              if D.Plan.contains_choose plan then
                (D.Startup.resolve env plan).D.Startup.plan
              else plan
            in
            let resolved_schema = D.Plan.schema catalog resolved in
            let tuples, _ =
              D.Batch_exec.run_plan db env ~capacity:13 resolved
            in
            check "capacity 13" tuples resolved_schema;
            assert_no_leaks "capacity 13: pin leak" db;
            if seed mod 5 = 0 then begin
              let tuples, _ =
                D.Batch_exec.run_plan db env ~capacity:64 resolved
              in
              check "capacity 64" tuples resolved_schema;
              assert_no_leaks "capacity 64: pin leak" db
            end)
          [ 1; 2 ])
      modes
  done;
  (* The acceptance bar: at least 200 randomized differential plan runs. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough differential runs (%d)" !runs)
    true (!runs >= 200)

let test_differential () =
  Test_util.with_watchdog ~deadline:300.
    "batch: randomized differential harness" run_differential

(* --- qcheck properties of Batch.t ----------------------------------------- *)

let batch_schema =
  D.Schema.of_relation
    (D.Relation.make ~name:"Q" ~cardinality:1 ~record_bytes:24
       ~attributes:
         [ D.Attribute.make ~name:"x" ~domain_size:100;
           D.Attribute.make ~name:"y" ~domain_size:100;
           D.Attribute.make ~name:"z" ~domain_size:100 ])

let tuple_gen =
  QCheck.Gen.(map Array.of_list (list_size (return 3) (int_bound 99)))

let arb_batch_input =
  QCheck.make
    ~print:(fun (cap, tuples) ->
      Printf.sprintf "capacity=%d tuples=%d" cap (List.length tuples))
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_bound 40) tuple_gen))

let multiset tuples = List.sort compare (List.map Array.to_list tuples)

let prop_refine_preserves_multiset =
  QCheck.Test.make ~name:"refine keeps the selected multiset" ~count:200
    arb_batch_input (fun (cap, tuples) ->
      let batches = D.Batch.of_tuples ~capacity:cap batch_schema tuples in
      let keep t = t.(0) mod 2 = 0 in
      let survivors =
        List.concat_map
          (fun b ->
            D.Batch.refine b (fun r ->
                D.Batch.get_phys b ~col:0 ~row:r mod 2 = 0);
            (* A second refinement composes with the first selection. *)
            D.Batch.refine b (fun r -> D.Batch.get_phys b ~col:1 ~row:r < 50);
            D.Batch.to_tuples b)
          batches
      in
      multiset survivors
      = multiset (List.filter (fun t -> keep t && t.(1) < 50) tuples))

let prop_tuples_roundtrip_shares =
  QCheck.Test.make ~name:"of_tuples/to_tuples round-trip"
    ~count:200 arb_batch_input (fun (cap, tuples) ->
      let back =
        List.concat_map D.Batch.to_tuples
          (D.Batch.of_tuples ~capacity:cap batch_schema tuples)
      in
      List.length back = List.length tuples && List.for_all2 ( == ) back tuples)

(* The same three columns under two layouts: (x, y | z) and (z | x, y). *)
let remap_schemas =
  let rel name attrs =
    D.Schema.of_relation
      (D.Relation.make ~name ~cardinality:1 ~record_bytes:8
         ~attributes:
           (List.map (fun a -> D.Attribute.make ~name:a ~domain_size:100) attrs))
  in
  let p = rel "P" [ "x"; "y" ] and q = rel "Q" [ "z" ] in
  (D.Schema.concat p q, D.Schema.concat q p)

let prop_remap_permutes_by_name =
  QCheck.Test.make ~name:"remap permutes columns by name" ~count:200
    arb_batch_input (fun (cap, tuples) ->
      let source, target = remap_schemas in
      let remapped =
        List.concat_map
          (fun b ->
            D.Batch.refine b (fun r -> D.Batch.get_phys b ~col:2 ~row:r >= 20);
            D.Batch.to_tuples (D.Batch.remap ~target b))
          (D.Batch.of_tuples ~capacity:cap source tuples)
      in
      remapped
      = List.filter_map
          (fun t -> if t.(2) >= 20 then Some [| t.(2); t.(0); t.(1) |] else None)
          tuples
      && List.for_all
           (fun b -> D.Batch.remap ~target:source b == b)
           (D.Batch.of_tuples ~capacity:cap source tuples))

let prop_capacity_never_exceeded =
  QCheck.Test.make ~name:"capacity never exceeded" ~count:200 arb_batch_input
    (fun (cap, tuples) ->
      let batches = D.Batch.of_tuples ~capacity:cap batch_schema tuples in
      List.for_all
        (fun b ->
          D.Batch.physical_length b <= D.Batch.capacity b
          && D.Batch.length b <= D.Batch.capacity b)
        batches
      &&
      (* Pushing into a full batch must raise, not silently drop. *)
      match batches with
      | [] -> true
      | b :: _ ->
        (not (D.Batch.is_full b))
        || (match D.Batch.push b [| 0; 0; 0 |] with
           | () -> false
           | exception Invalid_argument _ -> true))

(* --- iterator re-open semantics ------------------------------------------ *)

(* A hand-built index-join plan: the operator buffers pending probe
   results across [next] calls, which is exactly the state a re-open must
   discard (a partial drain followed by a fresh consume used to replay
   stale tuples). *)
let reopen_fixture () =
  let q = D.Queries.chain ~relations:2 in
  let db = D.Database.build ~seed:17 q.D.Queries.catalog in
  let b =
    D.Bindings.make
      ~selectivities:[ ("hv1", 0.6); ("hv2", 0.7) ]
      ~memory_pages:64
  in
  let env = D.Env.of_bindings q.D.Queries.catalog b in
  let builder = D.Plan.Builder.create env in
  let join =
    D.Predicate.equi
      ~left:(D.Col.make ~rel:"R1" ~attr:"jr")
      ~right:(D.Col.make ~rel:"R2" ~attr:"jl")
  in
  let pred i =
    D.Predicate.select ~rel:(D.Paper_catalog.rel_name i) ~attr:"a"
      (D.Predicate.Host_var (D.Queries.host_var i))
  in
  let scan =
    D.Plan.Builder.operator builder (D.Physical.File_scan "R1") ~inputs:[]
      ~rels:[ "R1" ]
      ~rows:(D.Estimate.base_rows env "R1")
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let filtered =
    D.Plan.Builder.operator builder
      (D.Physical.Filter (pred 1))
      ~inputs:[ scan ] ~rels:[ "R1" ]
      ~rows:(D.Estimate.select_rows env (pred 1) scan.D.Plan.rows)
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let plan =
    D.Plan.Builder.operator builder
      (D.Physical.Index_join
         { preds = [ join ]; inner_rel = "R2"; inner_attr = "jl";
           inner_filter = Some (pred 2) })
      ~inputs:[ filtered ] ~rels:[ "R1"; "R2" ]
      ~rows:
        (D.Estimate.join_rows env [ join ] filtered.D.Plan.rows
           (D.Estimate.base_rows env "R2"))
      ~bytes_per_row:1024 ~props:D.Props.unordered
  in
  (db, env, plan)

(* Capacity 1 delivers one tuple per batch, so a two-batch partial drain
   stops the index join mid-stream with probe results still buffered. *)
let test_tuple_at_a_time_reopen () =
  let db, env, plan = reopen_fixture () in
  let it = D.Batch_exec.compile_with db env ~capacity:1 plan in
  let first = D.Batch_exec.consume it in
  Alcotest.(check bool) "fixture produces rows" true (List.length first > 2);
  let second = D.Batch_exec.consume it in
  Alcotest.(check bool) "full reconsume equals first run" true
    (D.Reference.multiset_equal first second);
  it.D.Batch_exec.open_ ();
  ignore (it.D.Batch_exec.next ());
  ignore (it.D.Batch_exec.next ());
  it.D.Batch_exec.close ();
  let third = D.Batch_exec.consume it in
  Alcotest.(check bool) "consume after partial drain equals first run" true
    (D.Reference.multiset_equal first third)

let test_batch_reopen () =
  let db, env, plan = reopen_fixture () in
  let it = D.Batch_exec.compile_with db env ~capacity:4 plan in
  let first = D.Batch_exec.consume it in
  Alcotest.(check bool) "fixture produces rows" true (List.length first > 2);
  let second = D.Batch_exec.consume it in
  Alcotest.(check bool) "full reconsume equals first run" true
    (D.Reference.multiset_equal first second);
  it.D.Batch_exec.open_ ();
  ignore (it.D.Batch_exec.next ());
  it.D.Batch_exec.close ();
  let third = D.Batch_exec.consume it in
  Alcotest.(check bool) "consume after partial drain equals first run" true
    (D.Reference.multiset_equal first third)

(* Batch boundaries do not change the fixture's answer. *)
let test_reopen_fixture_differential () =
  let db, env, plan = reopen_fixture () in
  let whole = D.Batch_exec.consume (D.Executor.compile db env plan) in
  List.iter
    (fun capacity ->
      let got, _ = D.Batch_exec.run_plan db env ~capacity plan in
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d agrees" capacity)
        true
        (D.Reference.multiset_equal whole got))
    [ 1; 4 ]

(* --- scans share their page's tuples ------------------------------------ *)

(* A scan hands on the arrays its heap pages hold rather than copies:
   spilled pages stay resident, so a copying scan doubles the live heap
   wherever results are retained. *)
let test_scans_share_page_tuples () =
  let q = D.Queries.chain ~relations:1 in
  let catalog = q.D.Queries.catalog in
  let db = D.Database.build ~seed:5 catalog in
  let b = D.Bindings.make ~selectivities:[ ("hv1", 0.5) ] ~memory_pages:64 in
  let env = D.Env.of_bindings catalog b in
  let on_pages = ref [] in
  D.Heap_file.scan (D.Database.pool db) (D.Database.heap db "R1")
    (fun _ t -> on_pages := t :: !on_pages);
  let builder = D.Plan.Builder.create env in
  let scan =
    D.Plan.Builder.operator builder (D.Physical.File_scan "R1") ~inputs:[]
      ~rels:[ "R1" ]
      ~rows:(D.Estimate.base_rows env "R1")
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let pred =
    D.Predicate.select ~rel:"R1" ~attr:"a"
      (D.Predicate.Host_var (D.Queries.host_var 1))
  in
  let filtered =
    D.Plan.Builder.operator builder (D.Physical.Filter pred) ~inputs:[ scan ]
      ~rels:[ "R1" ]
      ~rows:(D.Estimate.select_rows env pred scan.D.Plan.rows)
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  List.iter
    (fun (label, plan, expect_all) ->
      let got, _ = D.Batch_exec.run_plan db env plan in
      Alcotest.(check bool) (label ^ ": rows returned") true
        (got <> []
        && (not expect_all || List.length got = List.length !on_pages));
      List.iter
        (fun t ->
          if not (List.exists (fun p -> p == t) !on_pages) then
            Alcotest.failf "%s: a returned tuple is a copy, not the page's"
              label)
        got)
    [ ("file scan", scan, true); ("fused filter", filtered, false) ]

let suite =
  ( "batch",
    [ Alcotest.test_case "randomized differential vs reference" `Slow
        test_differential;
      QCheck_alcotest.to_alcotest prop_refine_preserves_multiset;
      QCheck_alcotest.to_alcotest prop_tuples_roundtrip_shares;
      QCheck_alcotest.to_alcotest prop_remap_permutes_by_name;
      QCheck_alcotest.to_alcotest prop_capacity_never_exceeded;
      Alcotest.test_case "tuple-at-a-time re-open semantics" `Quick
        test_tuple_at_a_time_reopen;
      Alcotest.test_case "batch iterator re-open semantics" `Quick
        test_batch_reopen;
      Alcotest.test_case "re-open fixture differential" `Quick
        test_reopen_fixture_differential;
      Alcotest.test_case "scans share page tuples, never copy" `Quick
        test_scans_share_page_tuples ] )
