(* The optimizer: memo/rule exhaustiveness, Pareto sets, static
   optimality against a brute-force oracle, the dynamic-plan optimality
   guarantee (paper, Section 3: "for all i, gi = di"), and
   branch-and-bound safety. *)

module D = Dqep
module I = D.Interval

let optimize_exn ?options ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ?options ~mode q.D.Queries.catalog q.D.Queries.query)

(* --- memo and rules ------------------------------------------------------ *)

(* Number of (ordered) bushy join trees over a chain of n relations:
   T(1) = 1, T(n) = sum over splits k of 2 choices... computed directly
   by the recurrence P(l) = sum_{k=1}^{l-1} P(k) * P(l-k) * 1 for each
   ordered split; orderedness doubles each split because left/right
   assignment matters. *)
let rec chain_trees n =
  if n = 1 then 1.
  else begin
    let total = ref 0. in
    for k = 1 to n - 1 do
      (* Prefix [1..k] against suffix [k+1..n], in either operand order
         (join commutativity): factor 2. *)
      total := !total +. (2. *. chain_trees k *. chain_trees (n - k))
    done;
    !total
  end

let test_logical_alternatives_match_formula () =
  List.iter
    (fun n ->
      let q = D.Queries.chain ~relations:n in
      let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) q in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%d-chain alternatives" n)
        (chain_trees n)
        r.D.Optimizer.stats.D.Optimizer.logical_alternatives)
    [ 1; 2; 3; 4; 5 ]

let test_rules_reach_fixpoint () =
  (* Exploring twice adds nothing. *)
  let q = D.Queries.chain ~relations:4 in
  let env = D.Env.dynamic q.D.Queries.catalog in
  let memo = D.Memo.create env in
  let root = D.Memo.ingest memo q.D.Queries.query in
  D.Memo.explore memo root;
  let exprs = D.Memo.lexpr_count memo in
  D.Memo.explore memo root;
  Alcotest.(check int) "idempotent" exprs (D.Memo.lexpr_count memo);
  (* Chain of 4: groups = contiguous segments with selections: 4 base
     gets + 4 selects + 3 + 2 + 1 join segments = 14. *)
  Alcotest.(check int) "group count" 14 (D.Memo.group_count memo)

let test_commutativity_generates_mirror () =
  let q = D.Queries.chain ~relations:2 in
  let env = D.Env.dynamic q.D.Queries.catalog in
  let memo = D.Memo.create env in
  let root = D.Memo.ingest memo q.D.Queries.query in
  D.Memo.explore memo root;
  let g = D.Memo.group memo root in
  Alcotest.(check int) "two join orders" 2 (List.length (D.Memo.lexprs g))

let test_cross_products_rejected () =
  let q = D.Queries.chain ~relations:2 in
  let env = D.Env.dynamic q.D.Queries.catalog in
  let memo = D.Memo.create env in
  let cross =
    D.Logical.Join (D.Logical.Get_set "R1", D.Logical.Get_set "R2", [])
  in
  Alcotest.check_raises "cross product"
    (Invalid_argument "Memo.ingest: cross product (no connecting predicate)")
    (fun () -> ignore (D.Memo.ingest memo cross))

(* The memo's shape after exploration: a join group's join expressions
   are exactly the ordered pairs that split its relations into two
   connected halves joined by a predicate (connected-subgraph/complement
   pairs, each in both operand orders), and no other group has one. *)
let test_memo_shape () =
  (* Every split of a relation list into two non-empty parts, each
     ordered pair once. *)
  let splits rels =
    List.init ((1 lsl List.length rels) - 2) (fun m ->
        let inside i = (m + 1) land (1 lsl i) <> 0 in
        ( List.filteri (fun i _ -> inside i) rels,
          List.filteri (fun i _ -> not (inside i)) rels ))
  in
  List.iter
    (fun (name, (q : D.Queries.t), groups, joins) ->
      let env = D.Env.dynamic q.D.Queries.catalog in
      let memo = D.Memo.create env in
      let root = D.Memo.ingest memo q.D.Queries.query in
      D.Memo.explore memo root;
      let edges =
        List.map
          (fun (p : D.Predicate.equi) -> (p.left.D.Col.rel, p.right.D.Col.rel))
          (D.Logical.join_predicates q.D.Queries.query)
      in
      let joined a b =
        List.exists
          (fun (x, y) ->
            (List.mem x a && List.mem y b) || (List.mem x b && List.mem y a))
          edges
      in
      (* Grow a component from the first relation along the edges. *)
      let connected rels =
        let rec grow seen =
          match
            List.filter
              (fun r -> (not (List.mem r seen)) && joined [ r ] seen)
              rels
          with
          | [] -> seen
          | more -> grow (more @ seen)
        in
        rels <> [] && List.length (grow [ List.hd rels ]) = List.length rels
      in
      let rels id = (D.Memo.group memo id).D.Memo.rels in
      let total = ref 0 in
      for id = 0 to D.Memo.group_count memo - 1 do
        let g = D.Memo.group memo id in
        let got =
          List.filter_map
            (fun (e : D.Lmexpr.t) ->
              match e.D.Lmexpr.op with
              | D.Lmexpr.Join _ ->
                let c = e.D.Lmexpr.children in
                Some (rels c.(0), rels c.(1))
              | D.Lmexpr.Get _ | D.Lmexpr.Select _ -> None)
            (D.Memo.lexprs g)
        in
        let want =
          List.filter
            (fun (a, b) -> connected a && connected b && joined a b)
            (if List.length g.D.Memo.rels < 2 then [] else splits g.D.Memo.rels)
        in
        total := !total + List.length got;
        Alcotest.(check (list (pair (list string) (list string))))
          (Printf.sprintf "%s group %d joins" name id)
          (List.sort compare want) (List.sort compare got)
      done;
      Alcotest.(check int) (name ^ " groups") groups (D.Memo.group_count memo);
      Alcotest.(check int) (name ^ " join expressions") joins !total)
    [ ("chain4", D.Queries.chain ~relations:4, 14, 20);
      ("chain5", D.Queries.chain ~relations:5, 20, 40);
      ("chain6", D.Queries.chain ~relations:6, 27, 70);
      ("chain10", D.Queries.chain ~relations:10, 65, 330);
      ("star4", D.Queries.star ~relations:4, 15, 24);
      ("star5", D.Queries.star ~relations:5, 25, 64);
      ("star6", D.Queries.star ~relations:6, 43, 160);
      ("cycle4", D.Queries.cycle ~relations:4, 17, 36);
      ("cycle5", D.Queries.cycle ~relations:5, 26, 80);
      ("cycle6", D.Queries.cycle ~relations:6, 37, 150) ]

(* --- pareto --------------------------------------------------------------- *)

let test_pareto () =
  let q = D.Queries.chain ~relations:1 in
  let env = D.Env.dynamic q.D.Queries.catalog in
  let b = D.Plan.Builder.create env in
  let mk name rows lo hi =
    (* Fabricate plans with controlled costs via scans of different
       relations (cost comes from the model; we only need distinct
       structures), then judge by total_cost replacing is impractical —
       use scans with given rows instead. *)
    ignore (name, rows, lo, hi);
    assert false
  in
  ignore mk;
  (* Drive Pareto purely through structural plans with known costs:
     File_scan R1 has a point cost; build two identical-cost plans and an
     incomparable one via a filter. *)
  let scan =
    D.Plan.Builder.operator b (D.Physical.File_scan "R1") ~inputs:[] ~rels:[ "R1" ]
      ~rows:(I.point 467.) ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let pred = D.Predicate.select ~rel:"R1" ~attr:"a" (D.Predicate.Host_var "h") in
  let fbs =
    D.Plan.Builder.operator b
      (D.Physical.Filter_btree_scan { rel = "R1"; attr = "a"; pred })
      ~inputs:[] ~rels:[ "R1" ] ~rows:(I.make 0. 467.) ~bytes_per_row:512
      ~props:(D.Props.ordered [ D.Col.make ~rel:"R1" ~attr:"a" ])
  in
  (* scan point cost and fbs interval overlap -> incomparable, both kept. *)
  let set, added = D.Pareto.insert ~keep_equal:true [] scan in
  Alcotest.(check bool) "first added" true added;
  let set, added = D.Pareto.insert ~keep_equal:true set fbs in
  Alcotest.(check bool) "incomparable added" true added;
  Alcotest.(check int) "both kept" 2 (List.length set);
  (* Re-inserting the same plan is a no-op. *)
  let set, added = D.Pareto.insert ~keep_equal:true set scan in
  Alcotest.(check bool) "duplicate rejected" false added;
  Alcotest.(check int) "still two" 2 (List.length set)

(* --- brute-force oracle ---------------------------------------------------- *)

(* Enumerate every logical bushy tree of a chain query and every physical
   implementation the optimizer's rule set can produce, and return the
   set of all complete plans' costs under a point environment.  Small
   queries only. *)
module Oracle = struct
  module L = D.Logical

  let rec segments_trees (q : D.Queries.t) lo hi =
    (* All logical join trees over relations lo..hi (1-based). *)
    if lo = hi then
      [ L.Select
          ( L.Get_set (D.Paper_catalog.rel_name lo),
            D.Predicate.select ~rel:(D.Paper_catalog.rel_name lo)
              ~attr:D.Paper_catalog.select_attr
              (D.Predicate.Host_var (D.Queries.host_var lo)) ) ]
    else begin
      let out = ref [] in
      for k = lo to hi - 1 do
        let lefts = segments_trees q lo k and rights = segments_trees q (k + 1) hi in
        List.iter
          (fun l ->
            List.iter
              (fun r ->
                let pred =
                  D.Predicate.equi
                    ~left:
                      (D.Col.make ~rel:(D.Paper_catalog.rel_name k)
                         ~attr:D.Paper_catalog.join_right_attr)
                    ~right:
                      (D.Col.make
                         ~rel:(D.Paper_catalog.rel_name (k + 1))
                         ~attr:D.Paper_catalog.join_left_attr)
                in
                (* Both argument orders: join commutativity. *)
                out := L.Join (l, r, [ pred ]) :: L.Join (r, l, [ D.Predicate.mirror pred ]) :: !out)
              rights)
          lefts
      done;
      !out
    end

  (* All physical plans for a logical tree under a point env; returns
     plans as (cost, sort-order witness) — we only need costs. *)
  let rec plans env builder catalog tree : (D.Plan.t * bool) list =
    (* bool: whether output is sorted on some column we track is implicit
       in plan props. *)
    let module P = D.Physical in
    let rows = D.Estimate.logical_rows env tree in
    let rels = List.sort compare (L.relations tree) in
    let width = D.Estimate.row_bytes env tree in
    let mk op inputs props =
      D.Plan.Builder.operator builder op ~inputs ~rels ~rows ~bytes_per_row:width
        ~props
    in
    match tree with
    | L.Get_set rel ->
      (mk (P.File_scan rel) [] D.Props.unordered, false)
      :: List.map
           (fun (ix : D.Index.t) ->
             ( mk
                 (P.Btree_scan { rel; attr = ix.D.Index.attribute })
                 []
                 (D.Props.ordered [ D.Col.make ~rel ~attr:ix.D.Index.attribute ]),
               true ))
           (D.Catalog.indexes_of catalog rel)
    | L.Select (inner, pred) ->
      let filters =
        List.map
          (fun (p, _) -> (mk (P.Filter pred) [ p ] p.D.Plan.props, false))
          (plans env builder catalog inner)
      in
      let direct =
        match inner with
        | L.Get_set rel
          when D.Catalog.has_index catalog ~rel
                 ~attr:pred.D.Predicate.target.D.Col.attr ->
          [ ( mk
                (P.Filter_btree_scan
                   { rel; attr = pred.D.Predicate.target.D.Col.attr; pred })
                []
                (D.Props.ordered [ pred.D.Predicate.target ]),
              true ) ]
        | _ -> []
      in
      filters @ direct
    | L.Join (l, r, preds) ->
      let lplans = plans env builder catalog l in
      let rplans = plans env builder catalog r in
      let sorted_on plans col =
        (* Plans sorted on col, plus Sort enforcer over every plan. *)
        List.filter_map
          (fun ((p : D.Plan.t), _) ->
            if D.Props.satisfies p.D.Plan.props (D.Props.Sorted col) then
              Some p
            else None)
          plans
        @ List.map
            (fun ((p : D.Plan.t), _) ->
              D.Plan.Builder.operator builder (P.Sort [ col ]) ~inputs:[ p ]
                ~rels:p.D.Plan.rels ~rows:p.D.Plan.rows
                ~bytes_per_row:p.D.Plan.bytes_per_row
                ~props:(D.Props.ordered [ col ]))
            plans
      in
      let first = List.hd preds in
      let hash =
        List.concat_map
          (fun (lp, _) ->
            List.map
              (fun (rp, _) -> (mk (P.Hash_join preds) [ lp; rp ] D.Props.unordered, false))
              rplans)
          lplans
      in
      let merge =
        List.concat_map
          (fun lp ->
            List.map
              (fun rp ->
                ( mk (P.Merge_join preds) [ lp; rp ]
                    (D.Props.ordered [ first.D.Predicate.left ]),
                  true ))
              (sorted_on rplans first.D.Predicate.right))
          (sorted_on lplans first.D.Predicate.left)
      in
      let index =
        match r with
        | L.Select (L.Get_set rel, ipred)
          when D.Catalog.has_index catalog ~rel
                 ~attr:first.D.Predicate.right.D.Col.attr ->
          List.map
            (fun (lp, _) ->
              ( mk
                  (P.Index_join
                     { preds;
                       inner_rel = rel;
                       inner_attr = first.D.Predicate.right.D.Col.attr;
                       inner_filter = Some ipred })
                  [ lp ] D.Props.unordered,
                false ))
            lplans
        | _ -> []
      in
      hash @ merge @ index

  let best_cost (q : D.Queries.t) env =
    let builder = D.Plan.Builder.create env in
    let trees = segments_trees q 1 q.D.Queries.relations in
    List.fold_left
      (fun acc tree ->
        List.fold_left
          (fun acc ((p : D.Plan.t), _) -> Float.min acc (I.mid p.D.Plan.total_cost))
          acc
          (plans env builder q.D.Queries.catalog tree))
      Float.infinity trees
end

let test_static_matches_bruteforce () =
  List.iter
    (fun n ->
      let q = D.Queries.chain ~relations:n in
      let env = D.Env.static q.D.Queries.catalog in
      let oracle = Oracle.best_cost q env in
      let r = optimize_exn ~mode:D.Optimizer.static q in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%d-chain optimal cost" n)
        oracle
        (I.mid r.D.Optimizer.plan.D.Plan.total_cost))
    [ 1; 2; 3 ]

let test_runtime_matches_bruteforce () =
  let q = D.Queries.chain ~relations:3 in
  let bindings =
    D.Paramgen.bindings ~seed:31 ~trials:10 ~host_vars:q.D.Queries.host_vars
      ~uncertain_memory:true ()
  in
  List.iter
    (fun b ->
      let env = D.Env.of_bindings q.D.Queries.catalog b in
      let oracle = Oracle.best_cost q env in
      let r = optimize_exn ~mode:(D.Optimizer.Run_time b) q in
      Alcotest.(check (float 1e-6)) "run-time optimal" oracle
        (I.mid r.D.Optimizer.plan.D.Plan.total_cost))
    bindings

(* The paper's central guarantee: the dynamic plan contains the optimal
   plan for every run-time binding, up to the choose-plan decision
   overheads its cost model charges. *)
let test_dynamic_plan_optimality_guarantee () =
  List.iter
    (fun n ->
      let q = D.Queries.chain ~relations:n in
      let dyn = optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q in
      let overhead = D.Device.default.D.Device.choose_plan_overhead in
      let slack =
        (* One decision per choose operator could inflate pruning margins
           at most this much. *)
        float_of_int (D.Plan.choose_count dyn.D.Optimizer.plan) *. overhead
      in
      let bindings =
        D.Paramgen.bindings ~seed:(100 + n) ~trials:15
          ~host_vars:q.D.Queries.host_vars ~uncertain_memory:true ()
      in
      List.iter
        (fun b ->
          let env = D.Env.of_bindings q.D.Queries.catalog b in
          let g = (D.Startup.resolve env dyn.D.Optimizer.plan).D.Startup.anticipated_cost in
          let d =
            let rt = optimize_exn ~mode:(D.Optimizer.Run_time b) q in
            fst (D.Startup.evaluate env rt.D.Optimizer.plan)
          in
          Alcotest.(check bool)
            (Printf.sprintf "g within slack of d (n=%d, g=%f d=%f)" n g d)
            true
            (g <= d +. slack +. 1e-9);
          Alcotest.(check bool) "d is a lower bound" true (d <= g +. 1e-9))
        bindings)
    [ 1; 2; 3; 4 ]

let test_static_and_runtime_plans_have_no_choose () =
  let q = D.Queries.chain ~relations:3 in
  let s = optimize_exn ~mode:D.Optimizer.static q in
  Alcotest.(check int) "static has no choose" 0
    (D.Plan.choose_count s.D.Optimizer.plan);
  let b =
    List.hd
      (D.Paramgen.bindings ~seed:2 ~trials:1 ~host_vars:q.D.Queries.host_vars
         ~uncertain_memory:false ())
  in
  let r = optimize_exn ~mode:(D.Optimizer.Run_time b) q in
  Alcotest.(check int) "runtime has no choose" 0
    (D.Plan.choose_count r.D.Optimizer.plan)

(* Branch-and-bound is sound: switching it on never changes the plan.
   The four modes of the paper's comparisons, under each risk posture. *)
let modes ~host_vars =
  let b =
    List.hd
      (D.Paramgen.bindings ~seed:3 ~trials:1 ~host_vars ~uncertain_memory:false ())
  in
  [ ("static", D.Optimizer.static);
    ("dynamic", D.Optimizer.dynamic ());
    ("dynamic-memory", D.Optimizer.dynamic ~uncertain_memory:true ());
    ("run-time", D.Optimizer.Run_time b) ]

let postures = [ D.Risk.Worst_case; D.Risk.Expected; D.Risk.Quantile 0.9 ]

let optimize_pruned ~prune ~risk ~mode catalog query =
  Result.get_ok
    (D.Optimizer.optimize
       ~options:{ D.Optimizer.default_options with D.Optimizer.prune; risk }
       ~mode catalog query)

let prune_agrees ~risk ~mode catalog query =
  let on = optimize_pruned ~prune:true ~risk ~mode catalog query in
  let off = optimize_pruned ~prune:false ~risk ~mode catalog query in
  Test_util.same_plan on.D.Optimizer.plan off.D.Optimizer.plan

(* The corpus and chains of 2-10 (the paper queries are the chains of
   1, 2, 4, 6 and 10). *)
let pruning_queries () =
  D.Queries.corpus ()
  @ List.map
      (fun n -> (Printf.sprintf "chain%d" n, D.Queries.chain ~relations:n))
      [ 3; 5; 7; 8; 9 ]

let test_pruning_is_safe () =
  List.iter
    (fun (name, (q : D.Queries.t)) ->
      List.iter
        (fun (mode_name, mode) ->
          List.iter
            (fun risk ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, %s, %s: same plan" name mode_name
                   (D.Risk.to_string risk))
                true
                (prune_agrees ~risk ~mode q.D.Queries.catalog q.D.Queries.query))
            postures)
        (modes ~host_vars:q.D.Queries.host_vars))
    (pruning_queries ())

(* On generated queries the pruned search may keep more than the full
   one, never anything different: a candidate built over a child answer
   the limit cut short (one plan, cheaper than the full answer's
   choose-plan) can survive beside plans the full search finds
   dominating it.  Such an alternative is never chosen: the root cost
   is the same bit for bit and start-up resolves both plans to the same
   plan.  Seen under interval costs only (Plangen seeds 3, 79, 176 and
   183 of 1-200, dynamic modes, worst case). *)
let plangen_plans (seed, m, k) =
  let inst = D.Plangen.generate ~seed in
  let catalog = inst.D.Plangen.catalog and query = inst.D.Plangen.query in
  let _, mode = List.nth (modes ~host_vars:inst.D.Plangen.host_vars) m in
  let risk = List.nth postures k in
  let plan prune = (optimize_pruned ~prune ~risk ~mode catalog query).D.Optimizer.plan in
  (inst, risk, plan true, plan false)

let plangen_prune_agrees instance =
  let inst, risk, on, off = plangen_plans instance in
  let resolves_alike bseed =
    let env =
      D.Env.of_bindings inst.D.Plangen.catalog (D.Plangen.bindings inst ~seed:bseed)
    in
    Test_util.same_plan (D.Startup.resolve ~risk env on).D.Startup.plan
      (D.Startup.resolve ~risk env off).D.Startup.plan
  in
  Test_util.same_plan on off
  || I.equal on.D.Plan.total_cost off.D.Plan.total_cost
     && D.Plan.node_count off < D.Plan.node_count on
     && List.for_all resolves_alike [ 1; 2; 3; 4; 5 ]

let prop_pruning_is_safe =
  QCheck.Test.make ~name:"branch-and-bound is safe on plangen queries" ~count:80
    QCheck.(triple (int_range 1 200) (int_bound 3) (int_bound 2))
    plangen_prune_agrees

(* Where the pruned search keeps an extra alternative: (seed, mode)
   under the worst case. *)
let test_pruning_extras () =
  List.iter
    (fun (seed, m) ->
      let name = Printf.sprintf "plangen seed %d, mode %d" seed m in
      let _, _, on, off = plangen_plans (seed, m, 0) in
      Alcotest.(check bool) (name ^ ": pruned plan is larger") true
        (D.Plan.node_count off < D.Plan.node_count on);
      Alcotest.(check bool) (name ^ ": extras never chosen") true
        (plangen_prune_agrees (seed, m, 0)))
    [ (3, 1); (3, 2); (79, 1); (176, 1); (183, 1) ]

(* A goal asked again under a larger limit is searched again, so on a
   query that joins, pruning costs candidates rather than saving them:
   the default (unpruned) search never considers more.  A one-relation
   query has no goal to search twice; there a limit only stops a
   child's answer from becoming a candidate (q1-chain1: 24 unpruned
   candidates against 21, fig1-selection: 8 against 7), so those two
   are left out. *)
let test_default_search_no_larger () =
  List.iter
    (fun (name, (q : D.Queries.t)) ->
      List.iter
        (fun (mode_name, mode) ->
          let candidates prune =
            (optimize_pruned ~prune ~risk:D.Risk.Worst_case ~mode
               q.D.Queries.catalog q.D.Queries.query)
              .D.Optimizer.stats.D.Optimizer.candidates
          in
          let r = optimize_exn ~mode q in
          let default = r.D.Optimizer.stats.D.Optimizer.candidates in
          Alcotest.(check int) (name ^ ": default is unpruned") (candidates false)
            default;
          if List.length r.D.Optimizer.plan.D.Plan.rels > 1 then
            Alcotest.(check bool)
              (Printf.sprintf "%s, %s: %d candidates <= pruned %d" name
                 mode_name default (candidates true))
              true
              (default <= candidates true))
        (modes ~host_vars:q.D.Queries.host_vars))
    (D.Queries.corpus ())

let test_uncertain_memory_superset () =
  (* Making memory uncertain can only preserve or enlarge the dynamic
     plan: more incomparability, never less. *)
  List.iter
    (fun n ->
      let q = D.Queries.chain ~relations:n in
      let base = optimize_exn ~mode:(D.Optimizer.dynamic ()) q in
      let mem = optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q in
      Alcotest.(check bool) "not smaller" true
        (D.Plan.node_count mem.D.Optimizer.plan
        >= D.Plan.node_count base.D.Optimizer.plan))
    [ 2; 3; 4 ]

let test_sampled_domination_shrinks_plans () =
  let q = D.Queries.chain ~relations:4 in
  let full = optimize_exn ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ()) q in
  let sampled =
    optimize_exn
      ~options:
        { D.Optimizer.default_options with D.Optimizer.sample_domination = Some 8 }
      ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
      q
  in
  Alcotest.(check bool) "sampling never grows the plan" true
    (D.Plan.node_count sampled.D.Optimizer.plan
    <= D.Plan.node_count full.D.Optimizer.plan);
  Alcotest.(check bool) "sampling evaluated plans" true
    (sampled.D.Optimizer.stats.D.Optimizer.sample_evaluations > 0)

let test_static_plan_is_point_cost () =
  let q = D.Queries.chain ~relations:3 in
  let s = optimize_exn ~mode:D.Optimizer.static q in
  Alcotest.(check bool) "point interval" true
    (I.is_point s.D.Optimizer.plan.D.Plan.total_cost)

let test_invalid_query_rejected () =
  let q = D.Queries.chain ~relations:2 in
  match
    D.Optimizer.optimize ~mode:D.Optimizer.static q.D.Queries.catalog
      (D.Logical.Get_set "nope")
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted invalid query"

(* The memo numbers relations and selections in an [int] bitset. *)
let test_too_many_relations_rejected () =
  let q = D.Queries.chain ~relations:(D.Memo.max_relations + 1) in
  match
    D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) q.D.Queries.catalog
      q.D.Queries.query
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a query the memo cannot number"

let suite =
  ( "optimizer",
    [ Alcotest.test_case "logical alternatives = chain formula" `Quick
        test_logical_alternatives_match_formula;
      Alcotest.test_case "rules reach fixpoint" `Quick test_rules_reach_fixpoint;
      Alcotest.test_case "commutativity mirror" `Quick
        test_commutativity_generates_mirror;
      Alcotest.test_case "cross products rejected" `Quick test_cross_products_rejected;
      Alcotest.test_case "memo joins = connected splits" `Quick test_memo_shape;
      Alcotest.test_case "pareto sets" `Quick test_pareto;
      Alcotest.test_case "static = brute force (1-3 way)" `Slow
        test_static_matches_bruteforce;
      Alcotest.test_case "run-time = brute force" `Slow test_runtime_matches_bruteforce;
      Alcotest.test_case "dynamic plans stay optimal (gi = di)" `Slow
        test_dynamic_plan_optimality_guarantee;
      Alcotest.test_case "static/runtime plans have no choose" `Quick
        test_static_and_runtime_plans_have_no_choose;
      Alcotest.test_case "branch-and-bound is safe" `Quick test_pruning_is_safe;
      Alcotest.test_case "uncertain memory grows plans" `Quick
        test_uncertain_memory_superset;
      Alcotest.test_case "sampled domination shrinks plans" `Quick
        test_sampled_domination_shrinks_plans;
      Alcotest.test_case "static plans have point costs" `Quick
        test_static_plan_is_point_cost;
      Alcotest.test_case "invalid queries rejected" `Quick test_invalid_query_rejected;
      Alcotest.test_case "too many relations rejected" `Quick
        test_too_many_relations_rejected;
      QCheck_alcotest.to_alcotest prop_pruning_is_safe;
      Alcotest.test_case "pruned extras are never chosen" `Quick
        test_pruning_extras;
      Alcotest.test_case "default search considers no more candidates" `Quick
        test_default_search_no_larger ] )
