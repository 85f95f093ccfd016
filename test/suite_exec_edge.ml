(* Execution-engine edge cases: duplicate join keys, Grace partitioning
   recursion, external sort with many runs, index joins without residual
   filters, choose-plan re-resolution per run. *)

module D = Dqep

(* A tiny catalog engineered for edge cases: small domains produce many
   duplicate join keys; small memory forces spilling. *)
let edge_catalog ~cardinality ~domain =
  let rel name =
    D.Relation.make ~name ~cardinality ~record_bytes:256
      ~attributes:
        [ D.Attribute.make ~name:"k" ~domain_size:domain;
          D.Attribute.make ~name:"v" ~domain_size:1000 ]
  in
  D.Catalog.create
    ~relations:[ rel "A"; rel "B" ]
    ~indexes:
      [ D.Index.make ~relation:"A" ~attribute:"k" ();
        D.Index.make ~relation:"B" ~attribute:"k" () ]
    ()

let join_pred =
  D.Predicate.equi ~left:(D.Col.make ~rel:"A" ~attr:"k")
    ~right:(D.Col.make ~rel:"B" ~attr:"k")

let join_query = D.Logical.Join (D.Logical.Get_set "A", D.Logical.Get_set "B", [ join_pred ])

let env_of catalog mem =
  D.Env.of_bindings catalog (D.Bindings.make ~selectivities:[] ~memory_pages:mem)

let builder_bits catalog mem =
  let env = env_of catalog mem in
  let b = D.Plan.Builder.create env in
  let scan name =
    D.Plan.Builder.operator b (D.Physical.File_scan name) ~inputs:[] ~rels:[ name ]
      ~rows:(D.Estimate.base_rows env name) ~bytes_per_row:256
      ~props:D.Props.unordered
  in
  (env, b, scan)

let reference db catalog mem =
  let bindings = D.Bindings.make ~selectivities:[] ~memory_pages:mem in
  let schema, tuples = D.Reference.eval db bindings join_query in
  ignore catalog;
  D.Reference.normalize schema tuples

let run_plan db env plan =
  let it = D.Executor.compile db env plan in
  let tuples = D.Batch_exec.consume it in
  D.Reference.normalize it.D.Batch_exec.schema tuples

let test_duplicate_join_keys () =
  (* Domain 3 over 60 rows: every key duplicated ~20x on both sides; the
     join explodes quadratically per key.  Hash and merge joins must both
     produce the exact multiset. *)
  let catalog = edge_catalog ~cardinality:60 ~domain:3 in
  let db = D.Database.build ~seed:9 catalog in
  let env, b, scan = builder_bits catalog 64 in
  let expected = reference db catalog 64 in
  let rows =
    D.Estimate.join_rows env [ join_pred ]
      (D.Estimate.base_rows env "A") (D.Estimate.base_rows env "B")
  in
  let hash =
    D.Plan.Builder.operator b (D.Physical.Hash_join [ join_pred ])
      ~inputs:[ scan "A"; scan "B" ] ~rels:[ "A"; "B" ] ~rows ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  Alcotest.(check bool) "hash join with duplicates" true
    (D.Reference.multiset_equal expected (run_plan db env hash));
  let sorted name col =
    D.Plan.Builder.operator b (D.Physical.Sort [ col ]) ~inputs:[ scan name ]
      ~rels:[ name ] ~rows:(D.Estimate.base_rows env name) ~bytes_per_row:256
      ~props:(D.Props.ordered [ col ])
  in
  let merge =
    D.Plan.Builder.operator b (D.Physical.Merge_join [ join_pred ])
      ~inputs:
        [ sorted "A" (D.Col.make ~rel:"A" ~attr:"k");
          sorted "B" (D.Col.make ~rel:"B" ~attr:"k") ]
      ~rels:[ "A"; "B" ] ~rows ~bytes_per_row:512
      ~props:(D.Props.ordered [ D.Col.make ~rel:"A" ~attr:"k" ])
  in
  Alcotest.(check bool) "merge join with duplicates" true
    (D.Reference.multiset_equal expected (run_plan db env merge));
  let index =
    D.Plan.Builder.operator b
      (D.Physical.Index_join
         { preds = [ join_pred ]; inner_rel = "B"; inner_attr = "k";
           inner_filter = None })
      ~inputs:[ scan "A" ] ~rels:[ "A"; "B" ] ~rows ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  Alcotest.(check bool) "index join without filter" true
    (D.Reference.multiset_equal expected (run_plan db env index))

let test_grace_partitioning_correct () =
  (* 2000 rows of 256 bytes = 250 pages per side, memory 4 pages: the
     hash join must partition recursively and still be exact. *)
  let catalog = edge_catalog ~cardinality:2000 ~domain:500 in
  let db = D.Database.build ~seed:4 catalog in
  let mem = 4 in
  let env, b, scan = builder_bits catalog mem in
  let expected = reference db catalog mem in
  let rows =
    D.Estimate.join_rows env [ join_pred ]
      (D.Estimate.base_rows env "A") (D.Estimate.base_rows env "B")
  in
  let hash =
    D.Plan.Builder.operator b (D.Physical.Hash_join [ join_pred ])
      ~inputs:[ scan "A"; scan "B" ] ~rels:[ "A"; "B" ] ~rows ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  let pool = D.Database.pool db in
  D.Buffer_pool.resize pool (Int.max 2 mem);
  let before = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_writes in
  let got = run_plan db env hash in
  let after = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_writes in
  Alcotest.(check bool) "grace join exact" true
    (D.Reference.multiset_equal expected got);
  Alcotest.(check bool) "grace join spilled" true (after > before)

(* The spill path pinned: a hash join on two equi-predicates that Grace
   partitions twice (fanout 5, then 5 again per partition) under a
   6-page grant.  Its rows equal the reference's; its tuple order, its
   physical I/O and its spilled tuples and partitions equal what the
   engine produced before spill writes filled a page at a time (values
   recorded by running this same plan on that engine). *)
let test_spill_path_pinned () =
  let rel name =
    D.Relation.make ~name ~cardinality:600 ~record_bytes:256
      ~attributes:
        [ D.Attribute.make ~name:"k" ~domain_size:40;
          D.Attribute.make ~name:"v" ~domain_size:10 ]
  in
  let catalog = D.Catalog.create ~relations:[ rel "A"; rel "B" ] ~indexes:[] () in
  let db = D.Database.build ~seed:5 catalog in
  let mem = 6 in
  let bindings = D.Bindings.make ~selectivities:[] ~memory_pages:mem in
  let env, b, scan = builder_bits catalog mem in
  let col rel attr = D.Col.make ~rel ~attr in
  let preds =
    [ D.Predicate.equi ~left:(col "A" "k") ~right:(col "B" "k");
      D.Predicate.equi ~left:(col "A" "v") ~right:(col "B" "v") ]
  in
  let rows =
    D.Estimate.join_rows env preds (D.Estimate.base_rows env "A")
      (D.Estimate.base_rows env "B")
  in
  let plan =
    D.Plan.Builder.operator b (D.Physical.Hash_join preds)
      ~inputs:[ scan "A"; scan "B" ] ~rels:[ "A"; "B" ] ~rows ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  let obs = D.Obs.Trace.create () in
  let tuples, stats = D.Executor.run db ~obs bindings plan in
  let digest =
    List.map
      (fun t -> String.concat "," (Array.to_list (Array.map string_of_int t)))
      tuples
    |> String.concat ";" |> Digest.string |> Digest.to_hex
  in
  let io = stats.D.Executor.io in
  Alcotest.(check bool) "rows equal the reference" true
    (D.Reference.same_rows
       (D.Reference.eval db bindings
          (D.Logical.Join (D.Logical.Get_set "A", D.Logical.Get_set "B", preds)))
       (D.Plan.schema catalog plan, tuples));
  Alcotest.(check int) "rows" 924 (List.length tuples);
  Alcotest.(check string) "tuple order" "4eb0b5a361ccafc9a054857890339992" digest;
  Alcotest.(check int) "physical reads" 475 io.D.Buffer_pool.physical_reads;
  Alcotest.(check int) "physical writes" 325 io.D.Buffer_pool.physical_writes;
  Alcotest.(check int) "spilled tuples" 2400
    (D.Obs.Trace.get obs D.Obs.Counter.Spilled_tuples);
  Alcotest.(check int) "spill partitions" 30
    (D.Obs.Trace.get obs D.Obs.Counter.Spill_partitions);
  (* The one count that moved: 2815 before, when every spilled tuple
     re-pinned the page being filled. *)
  Alcotest.(check int) "logical reads" 475 io.D.Buffer_pool.logical_reads

(* The join of the spill-path test: 600 x 600 rows Grace-partitioned
   twice under a 6-page grant. *)
let spilling_join () =
  let rel name =
    D.Relation.make ~name ~cardinality:600 ~record_bytes:256
      ~attributes:
        [ D.Attribute.make ~name:"k" ~domain_size:40;
          D.Attribute.make ~name:"v" ~domain_size:10 ]
  in
  let catalog = D.Catalog.create ~relations:[ rel "A"; rel "B" ] ~indexes:[] () in
  let db = D.Database.build ~seed:5 catalog in
  let mem = 6 in
  let env, b, scan = builder_bits catalog mem in
  let col rel attr = D.Col.make ~rel ~attr in
  let preds =
    [ D.Predicate.equi ~left:(col "A" "k") ~right:(col "B" "k");
      D.Predicate.equi ~left:(col "A" "v") ~right:(col "B" "v") ]
  in
  let rows =
    D.Estimate.join_rows env preds (D.Estimate.base_rows env "A")
      (D.Estimate.base_rows env "B")
  in
  let plan =
    D.Plan.Builder.operator b (D.Physical.Hash_join preds)
      ~inputs:[ scan "A"; scan "B" ] ~rels:[ "A"; "B" ] ~rows ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  (db, D.Bindings.make ~selectivities:[] ~memory_pages:mem, plan)

let digest_rows tuples =
  List.map
    (fun t -> String.concat "," (Array.to_list (Array.map string_of_int t)))
    tuples
  |> String.concat ";" |> Digest.string |> Digest.to_hex

(* No leak on the abort path: a spilling join stopped, whether it is
   writing its partitions or reading them back, leaves no pin and
   releases every spill page it allocated.  [run db bindings plan obs
   point] runs the join armed to abort at [point]; every point must
   abort, at least two after spilling began.  The database then runs
   the join to completion as before. *)
let check_spill_aborts ~what ~points run =
  let db, bindings, plan = spilling_join () in
  let pool = D.Database.pool db in
  let live = D.Buffer_pool.live_pages pool in
  let spilled = ref 0 in
  List.iter
    (fun point ->
      let label what' = Printf.sprintf "%s %d: %s" what point what' in
      let obs = D.Obs.Trace.create () in
      (match run db bindings plan obs point with
      | _ -> Alcotest.fail (label "the run completed")
      | exception (D.Fault.Io_fault _ | D.Governor.Cancelled _) -> ());
      if D.Obs.Trace.get obs D.Obs.Counter.Spill_partitions > 0 then incr spilled;
      Alcotest.(check (result unit string))
        (label "no pins") (Ok ()) (D.Buffer_pool.leak_check pool);
      Alcotest.(check int) (label "live pages") live (D.Buffer_pool.live_pages pool))
    points;
  Alcotest.(check bool) "aborts after spilling" true (!spilled >= 2);
  let tuples, _ = D.Executor.run db bindings plan in
  Alcotest.(check string) "then completes unchanged"
    "4eb0b5a361ccafc9a054857890339992" (digest_rows tuples);
  Alcotest.(check int) "live pages after the clean run" live
    (D.Buffer_pool.live_pages pool)

(* Points spread over the run's 800 physical I/Os. *)
let test_fault_abort_releases_spills () =
  check_spill_aborts ~what:"fault after I/O" ~points:[ 40; 150; 300; 450; 600; 750 ]
    (fun db bindings plan obs n ->
      let disk = D.Buffer_pool.disk (D.Database.pool db) in
      D.Disk.set_faults disk
        (Some (D.Fault.create (D.Fault.config ~fail_after:(n, D.Fault.Permanent) ~seed:1 ())));
      Fun.protect
        ~finally:(fun () -> D.Disk.set_faults disk None)
        (fun () -> D.Executor.run db ~obs bindings plan))

(* Points spread over the probe checks of the partitions' joins. *)
let test_cancel_abort_releases_spills () =
  check_spill_aborts ~what:"cancel after check" ~points:[ 1; 60; 300; 700 ]
    (fun db bindings plan obs n ->
      let gov = D.Governor.create ~cancel_after_checks:n () in
      D.Executor.run db ~gov ~obs bindings plan)

(* Flat heap: the spilling join replayed 50 times on one database
   returns the same rows every time, and recycles its spill pages, so
   the disk holds no more pages after run 50 than after run 1. *)
let test_spill_pages_recycled () =
  let db, bindings, plan = spilling_join () in
  let pool = D.Database.pool db in
  let disk = D.Buffer_pool.disk pool in
  let live = D.Buffer_pool.live_pages pool in
  let after_first = ref 0 in
  for run = 1 to 50 do
    let tuples, _ = D.Executor.run db bindings plan in
    let label what = Printf.sprintf "run %d: %s" run what in
    Alcotest.(check int) (label "rows") 924 (List.length tuples);
    Alcotest.(check string) (label "digest") "4eb0b5a361ccafc9a054857890339992"
      (digest_rows tuples);
    Alcotest.(check int) (label "live pages") live (D.Buffer_pool.live_pages pool);
    if run = 1 then after_first := D.Disk.page_count disk
  done;
  Alcotest.(check int) "disk pages after run 50 = after run 1" !after_first
    (D.Disk.page_count disk)

let test_external_sort_many_runs () =
  let catalog = edge_catalog ~cardinality:3000 ~domain:750 in
  let db = D.Database.build ~seed:8 catalog in
  let mem = 4 in
  let env, b, scan = builder_bits catalog mem in
  let col = D.Col.make ~rel:"A" ~attr:"k" in
  let sorted =
    D.Plan.Builder.operator b (D.Physical.Sort [ col ]) ~inputs:[ scan "A" ]
      ~rels:[ "A" ] ~rows:(D.Estimate.base_rows env "A") ~bytes_per_row:256
      ~props:(D.Props.ordered [ col ])
  in
  D.Buffer_pool.resize (D.Database.pool db) (Int.max 2 mem);
  let it = D.Executor.compile db env sorted in
  let tuples = D.Batch_exec.consume it in
  Alcotest.(check int) "complete" 3000 (List.length tuples);
  let pos = D.Schema.position_exn it.D.Batch_exec.schema col in
  let rec is_sorted = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) -> a.(pos) <= b.(pos) && is_sorted rest
  in
  Alcotest.(check bool) "fully sorted across runs" true (is_sorted tuples)

let test_choose_plan_redecides_per_run () =
  (* The same dynamic plan run under two bindings picks different scans —
     the executor resolves per invocation. *)
  let q = D.Queries.chain ~relations:1 in
  let db = D.Database.build ~seed:2 q.D.Queries.catalog in
  let dyn =
    Result.get_ok
      (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q.D.Queries.catalog
         q.D.Queries.query)
  in
  let op_of sel =
    let b = D.Bindings.make ~selectivities:[ ("hv1", sel) ] ~memory_pages:64 in
    let _, stats = D.Executor.run db b dyn.D.Optimizer.plan in
    D.Physical.name stats.D.Executor.resolved_plan.D.Plan.op
  in
  Alcotest.(check string) "selective -> index scan" "Filter-B-tree-Scan" (op_of 0.001);
  Alcotest.(check string) "unselective -> file scan" "Filter" (op_of 0.95)

let suite =
  ( "exec-edge",
    [ Alcotest.test_case "duplicate join keys" `Quick test_duplicate_join_keys;
      Alcotest.test_case "grace partitioning" `Quick test_grace_partitioning_correct;
      Alcotest.test_case "spill path: order and I/O pinned" `Quick
        test_spill_path_pinned;
      Alcotest.test_case "spill abort on a fault releases its pages" `Quick
        test_fault_abort_releases_spills;
      Alcotest.test_case "spill abort on cancel releases its pages" `Quick
        test_cancel_abort_releases_spills;
      Alcotest.test_case "spill pages recycled over 50 runs" `Quick
        test_spill_pages_recycled;
      Alcotest.test_case "external sort, many runs" `Quick
        test_external_sort_many_runs;
      Alcotest.test_case "choose-plan re-decides per run" `Quick
        test_choose_plan_redecides_per_run ] )
