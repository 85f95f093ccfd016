(* Cost model: environments and their scenario grid, cardinality
   estimation, interval cost functions and their monotonicity (the
   paper's Section 5 assumption). *)

module D = Dqep
module I = D.Interval

let catalog () = D.Paper_catalog.make ~relations:2

let sel_pred ?(rel = "R1") spec = D.Predicate.select ~rel ~attr:"a" spec

let join_pred =
  D.Predicate.equi
    ~left:(D.Col.make ~rel:"R1" ~attr:"jr")
    ~right:(D.Col.make ~rel:"R2" ~attr:"jl")

let test_env_modes () =
  let c = catalog () in
  let dynamic = D.Env.dynamic c in
  let s = D.Env.selectivity dynamic (sel_pred (D.Predicate.Host_var "h")) in
  Alcotest.(check bool) "dynamic hostvar is [0,1]" true (s.I.lo = 0. && s.I.hi = 1.);
  let b = D.Env.selectivity dynamic (sel_pred (D.Predicate.Bound 0.3)) in
  Alcotest.(check bool) "bound is a point" true (I.is_point b && b.I.lo = 0.3);
  let static = D.Env.static c in
  let s = D.Env.selectivity static (sel_pred (D.Predicate.Host_var "h")) in
  Alcotest.(check bool) "static default 0.05" true (I.is_point s && s.I.lo = 0.05);
  Alcotest.(check bool) "static memory 64" true
    (I.is_point (D.Env.memory_pages static) && (D.Env.memory_pages static).I.lo = 64.);
  let bindings = D.Bindings.make ~selectivities:[ ("h", 0.7) ] ~memory_pages:32 in
  let rt = D.Env.of_bindings c bindings in
  let s = D.Env.selectivity rt (sel_pred (D.Predicate.Host_var "h")) in
  Alcotest.(check bool) "runtime binding" true (I.is_point s && s.I.lo = 0.7)

let test_bindings_validation () =
  Alcotest.check_raises "bad selectivity"
    (Invalid_argument "Bindings.make: selectivity of h out of [0, 1]") (fun () ->
      ignore (D.Bindings.make ~selectivities:[ ("h", 2.) ] ~memory_pages:64));
  Alcotest.check_raises "bad memory"
    (Invalid_argument "Bindings.make: memory_pages <= 0") (fun () ->
      ignore (D.Bindings.make ~selectivities:[] ~memory_pages:0))

let test_estimate () =
  let c = catalog () in
  let env = D.Env.dynamic c in
  let r1 = (D.Catalog.relation_exn c "R1").D.Relation.cardinality in
  let r2 = (D.Catalog.relation_exn c "R2").D.Relation.cardinality in
  let base = D.Estimate.base_rows env "R1" in
  Alcotest.(check bool) "base exact" true
    (I.is_point base && base.I.lo = float_of_int r1);
  let selected =
    D.Estimate.select_rows env (sel_pred (D.Predicate.Host_var "h")) base
  in
  Alcotest.(check bool) "select widens to [0, |R|]" true
    (selected.I.lo = 0. && selected.I.hi = float_of_int r1);
  (* Join selectivity: 1 / max(domain sizes) (paper, Section 6). *)
  let dl = D.Catalog.domain_size c ~rel:"R1" ~attr:"jr" in
  let dr = D.Catalog.domain_size c ~rel:"R2" ~attr:"jl" in
  let js = D.Estimate.join_selectivity env [ join_pred ] in
  Alcotest.(check (float 1e-12)) "join selectivity"
    (1. /. float_of_int (Int.max dl dr))
    js.I.lo;
  let joined =
    D.Estimate.join_rows env [ join_pred ] base (D.Estimate.base_rows env "R2")
  in
  Alcotest.(check (float 1e-6)) "join rows"
    (float_of_int r1 *. float_of_int r2 /. float_of_int (Int.max dl dr))
    joined.I.hi;
  Alcotest.(check int) "row bytes"
    1024
    (D.Estimate.row_bytes env
       (D.Logical.Join (D.Logical.Get_set "R1", D.Logical.Get_set "R2", [ join_pred ])))

let own env op ~inputs ~output_rows =
  D.Cost_model.own_cost env op ~inputs ~output_rows

let test_scan_costs () =
  let env = D.Env.static (catalog ()) in
  let fs = own env (D.Physical.File_scan "R1") ~inputs:[] ~output_rows:(I.point 467.) in
  Alcotest.(check bool) "file scan point cost" true (I.is_point fs && fs.I.lo > 0.);
  (* A full unclustered B-tree scan costs more than a file scan: one
     random I/O per record. *)
  let bs =
    own env (D.Physical.Btree_scan { rel = "R1"; attr = "a" }) ~inputs:[]
      ~output_rows:(I.point 467.)
  in
  Alcotest.(check bool) "btree scan dearer" true (bs.I.lo > fs.I.hi)

let test_filter_btree_crossover () =
  (* The Figure 1 economics: index scan wins at low selectivity, file
     scan at high selectivity. *)
  let c = catalog () in
  let card = float_of_int (D.Catalog.relation_exn c "R1").D.Relation.cardinality in
  let cost sel =
    let b = D.Bindings.make ~selectivities:[ ("h", sel) ] ~memory_pages:64 in
    let env = D.Env.of_bindings c b in
    let fbs =
      own env
        (D.Physical.Filter_btree_scan
           { rel = "R1"; attr = "a"; pred = sel_pred (D.Predicate.Host_var "h") })
        ~inputs:[] ~output_rows:(I.point (sel *. card))
    in
    let scan =
      I.add
        (own env (D.Physical.File_scan "R1") ~inputs:[] ~output_rows:(I.point card))
        (own env
           (D.Physical.Filter (sel_pred (D.Predicate.Host_var "h")))
           ~inputs:[ { D.Cost_model.rows = I.point card; bytes_per_row = 512 } ]
           ~output_rows:(I.point (sel *. card)))
    in
    (I.mid fbs, I.mid scan)
  in
  let fbs_low, scan_low = cost 0.01 in
  Alcotest.(check bool) "index wins when selective" true (fbs_low < scan_low);
  let fbs_high, scan_high = cost 0.9 in
  Alcotest.(check bool) "file scan wins when unselective" true (fbs_high > scan_high)

let test_hash_join_memory () =
  (* Hash join cost falls when the build input fits in memory. *)
  let c = catalog () in
  let cost mem =
    let b = D.Bindings.make ~selectivities:[] ~memory_pages:mem in
    let env = D.Env.of_bindings c b in
    I.mid
      (own env
         (D.Physical.Hash_join [ join_pred ])
         ~inputs:
           [ { D.Cost_model.rows = I.point 800.; bytes_per_row = 512 };
             { D.Cost_model.rows = I.point 800.; bytes_per_row = 512 } ]
         ~output_rows:(I.point 100.))
  in
  Alcotest.(check bool) "more memory, cheaper" true (cost 256 < cost 8);
  Alcotest.(check bool) "in-memory plateau" true (cost 256 = cost 512)

let test_choose_plan_cost () =
  let env = D.Env.dynamic (catalog ()) in
  (* The paper's Section 5 example: [0,10] and [1,1] with overhead 0.01
     combine to [0.01, 1.01]. *)
  let combined = D.Cost_model.choose_plan_cost env [ I.make 0. 10.; I.point 1. ] in
  Alcotest.(check (float 1e-9)) "lo" 0.01 combined.I.lo;
  Alcotest.(check (float 1e-9)) "hi" 1.01 combined.I.hi

let test_interval_cost_brackets_points () =
  (* The interval cost at [0,1] selectivity brackets every point cost. *)
  let c = catalog () in
  let dyn_env = D.Env.dynamic c in
  let card = float_of_int (D.Catalog.relation_exn c "R1").D.Relation.cardinality in
  let pred = sel_pred (D.Predicate.Host_var "h") in
  let fbs sel_rows env =
    own env
      (D.Physical.Filter_btree_scan { rel = "R1"; attr = "a"; pred })
      ~inputs:[] ~output_rows:sel_rows
  in
  let wide = fbs (I.make 0. card) dyn_env in
  List.iter
    (fun s ->
      let b = D.Bindings.make ~selectivities:[ ("h", s) ] ~memory_pages:64 in
      let env = D.Env.of_bindings c b in
      let point = I.mid (fbs (I.point (s *. card)) env) in
      Alcotest.(check bool)
        (Printf.sprintf "bracket at %.2f" s)
        true
        (point >= wide.I.lo -. 1e-9 && point <= wide.I.hi +. 1e-9))
    [ 0.; 0.1; 0.5; 0.9; 1. ]

(* Monotonicity property over all binary operators: cost must not
   decrease when input cardinalities grow. *)
let prop_monotone_in_rows =
  let gen = QCheck.(pair (QCheck.int_range 1 2000) (QCheck.int_range 1 2000)) in
  QCheck.Test.make ~name:"join costs monotone in input rows" ~count:200 gen
    (fun (n1, n2) ->
      let lo = float_of_int (Int.min n1 n2) and hi = float_of_int (Int.max n1 n2) in
      let env = D.Env.static (catalog ()) in
      List.for_all
        (fun op ->
          let cost rows =
            I.mid
              (own env op
                 ~inputs:
                   [ { D.Cost_model.rows = I.point rows; bytes_per_row = 512 };
                     { D.Cost_model.rows = I.point 500.; bytes_per_row = 512 } ]
                 ~output_rows:(I.point (rows /. 10.)))
          in
          cost lo <= cost hi +. 1e-9)
        [ D.Physical.Hash_join [ join_pred ]; D.Physical.Merge_join [ join_pred ] ])

(* --- the scenario grid --------------------------------------------------- *)

(* A dynamic environment with host variable "h" in [s_lo, s_hi] and
   memory in [m_lo, m_hi] pages, from unordered draws. *)
let arb_interval_env =
  QCheck.make
    ~print:(fun ((a, b), (m, n)) -> Printf.sprintf "sel %h %h, mem %d %d" a b m n)
    QCheck.Gen.(
      pair
        (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.))
        (pair (int_range 1 200) (int_range 1 200)))

let interval_env ((a, b), (m, n)) =
  D.Env.dynamic
    ~memory:(I.make (float_of_int (Int.min m n)) (float_of_int (Int.max m n)))
    ~selectivity_bounds:[ ("h", I.make (Float.min a b) (Float.max a b)) ]
    (catalog ())

let scenario_envs env = List.map snd (D.Env.scenarios env)

(* A selection on R1 joined to R2: the selection's rows come from the
   environment's selectivity, the hash join's cost from its memory. *)
let select_join_cost env =
  let base1 = D.Estimate.base_rows env "R1" and base2 = D.Estimate.base_rows env "R2" in
  let rows = D.Estimate.select_rows env (sel_pred (D.Predicate.Host_var "h")) base1 in
  own env (D.Physical.Hash_join [ join_pred ])
    ~inputs:
      [ { D.Cost_model.rows; bytes_per_row = 512 };
        { D.Cost_model.rows = base2; bytes_per_row = 512 } ]
    ~output_rows:(D.Estimate.join_rows env [ join_pred ] rows base2)

let prop_scenario_corners =
  QCheck.Test.make ~name:"extreme scenarios are the interval cost corners"
    ~count:200 arb_interval_env (fun draw ->
      let env = interval_env draw in
      let envs = scenario_envs env in
      let first = List.hd envs and last = List.nth envs (List.length envs - 1) in
      let cost = select_join_cost env in
      List.length envs = 8
      && I.equal (select_join_cost first) (I.point cost.I.lo)
      && I.equal (select_join_cost last) (I.point cost.I.hi))

let prop_scenario_monotone_in_hull =
  QCheck.Test.make ~name:"scenario values monotone in level, inside the hull"
    ~count:200 arb_interval_env (fun draw ->
      let env = interval_env draw in
      let sel e = D.Env.host_selectivity e "h" and mem e = D.Env.memory_pages e in
      let rec ordered = function
        | a :: (b :: _ as rest) -> a <= b && ordered rest
        | [ _ ] | [] -> true
      in
      let inside hull i = I.is_point i && I.contains hull i.I.lo in
      let envs = scenario_envs env in
      List.for_all (fun e -> inside (sel env) (sel e) && inside (mem env) (mem e)) envs
      && ordered (List.map (fun e -> (sel e).I.lo) envs)
      && ordered (List.rev_map (fun e -> (mem e).I.lo) envs))

let test_scenario_point () =
  let c = catalog () in
  let check env =
    List.iter
      (fun (w, e) ->
        Alcotest.(check (float 0.)) "weight" 0.125 w;
        Alcotest.(check (float 0.)) "selectivity" 0.3
          (D.Env.host_selectivity e "h").I.lo;
        Alcotest.(check bool) "selectivity is a point" true
          (I.is_point (D.Env.host_selectivity e "h"));
        Alcotest.(check bool) "memory is the point" true
          (I.equal (D.Env.memory_pages e) (I.point 48.)))
      (D.Env.scenarios env)
  in
  check
    (D.Env.of_bindings c
       (D.Bindings.make ~selectivities:[ ("h", 0.3) ] ~memory_pages:48));
  check
    (D.Env.dynamic ~memory:(I.point 48.)
       ~selectivity_bounds:[ ("h", I.point 0.3) ] c)

(* The grid's values for [0, 1], [0.001, 0.011] and memory [16, 112],
   as the distribution-valued environment computed them. *)
let test_scenario_values () =
  let env =
    D.Env.dynamic ~memory:(I.make 16. 112.)
      ~selectivity_bounds:[ ("a", I.make 0. 1.); ("b", I.make 0.001 0.011) ]
      (catalog ())
  in
  let envs = scenario_envs env in
  let values f = List.map (fun e -> Printf.sprintf "%h" (f e).I.lo) envs in
  Alcotest.(check (list string)) "[0, 1]"
    [ "0x0p+0"; "0x0p+0"; "0x1.249249249249p-4"; "0x1.6db6db6db6db6p-2";
      "0x1.4924924924924p-1"; "0x1.db6db6db6db6ep-1"; "0x1p+0"; "0x1p+0" ]
    (values (fun e -> D.Env.host_selectivity e "a"));
  Alcotest.(check (list string)) "[0.001, 0.011]"
    [ "0x1.0624dd2f1a9fcp-10"; "0x1.0624dd2f1a9fcp-10";
      "0x1.c163c450bfed2p-10"; "0x1.2b97d835d548cp-8";
      "0x1.e6d6bf577a964p-8"; "0x1.510ad33c8ff1ep-7";
      "0x1.6872b020c49bap-7"; "0x1.6872b020c49bap-7" ]
    (values (fun e -> D.Env.host_selectivity e "b"));
  Alcotest.(check (list string)) "memory [16, 112]"
    [ "0x1.cp+6"; "0x1.cp+6"; "0x1.a492492492492p+6"; "0x1.36db6db6db6dbp+6";
      "0x1.924924924924ap+5"; "0x1.6db6db6db6db6p+4"; "0x1p+4"; "0x1p+4" ]
    (values D.Env.memory_pages)

let suite =
  ( "cost",
    [ Alcotest.test_case "environment modes" `Quick test_env_modes;
      Alcotest.test_case "bindings validation" `Quick test_bindings_validation;
      Alcotest.test_case "cardinality estimation" `Quick test_estimate;
      Alcotest.test_case "scan costs" `Quick test_scan_costs;
      Alcotest.test_case "index/file-scan crossover (Figure 1)" `Quick
        test_filter_btree_crossover;
      Alcotest.test_case "hash join memory sensitivity" `Quick test_hash_join_memory;
      Alcotest.test_case "choose-plan cost (Section 5 example)" `Quick
        test_choose_plan_cost;
      Alcotest.test_case "interval cost brackets point costs" `Quick
        test_interval_cost_brackets_points;
      QCheck_alcotest.to_alcotest prop_monotone_in_rows;
      QCheck_alcotest.to_alcotest prop_scenario_corners;
      QCheck_alcotest.to_alcotest prop_scenario_monotone_in_hull;
      Alcotest.test_case "scenario grid of a point is the point" `Quick
        test_scenario_point;
      Alcotest.test_case "scenario values pinned" `Quick test_scenario_values ] )
