(* The static plan verifier: every diagnostic code fired on a
   deliberately corrupted plan, clean plans passing, the executor's
   activation-time hook, and property tests for the interval and
   hash-consing invariants the verifier assumes. *)

module D = Dqep
module I = D.Interval
module Dg = D.Diagnostic

let col rel attr = D.Col.make ~rel ~attr

let rel name =
  D.Relation.make ~name ~cardinality:100 ~record_bytes:512
    ~attributes:
      [ D.Attribute.make ~name:"a" ~domain_size:10;
        D.Attribute.make ~name:"j" ~domain_size:10 ]

let catalog () =
  D.Catalog.create ~relations:[ rel "R"; rel "S" ]
    ~indexes:[ D.Index.make ~relation:"R" ~attribute:"a" () ]
    ()

let builder () =
  let c = catalog () in
  (c, D.Plan.Builder.create (D.Env.dynamic c))

let scan b name =
  D.Plan.Builder.operator b (D.Physical.File_scan name) ~inputs:[]
    ~rels:[ name ] ~rows:(I.point 100.) ~bytes_per_row:512
    ~props:D.Props.unordered

let raw_scan b ?(rows = I.point 100.) ?(bytes = 512) ?(own = I.point 10.)
    ?total name =
  let total = Option.value ~default:own total in
  D.Plan.Builder.raw b ~op:(D.Physical.File_scan name) ~inputs:[]
    ~rels:[ name ] ~rows ~bytes_per_row:bytes ~own_cost:own ~total_cost:total
    ~props:D.Props.unordered

let raw_choose b ?(props = D.Props.unordered) alts =
  let first = List.hd alts in
  let total =
    List.fold_left
      (fun acc (p : D.Plan.t) -> I.combine_min acc p.D.Plan.total_cost)
      (List.hd alts).D.Plan.total_cost (List.tl alts)
  in
  D.Plan.Builder.raw b ~op:D.Physical.Choose_plan ~inputs:alts
    ~rels:first.D.Plan.rels ~rows:first.D.Plan.rows
    ~bytes_per_row:first.D.Plan.bytes_per_row ~own_cost:(I.point 0.)
    ~total_cost:total ~props

let fires name code diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s: %s" name (Dg.id code)
       (Dg.list_to_string diags))
    true
    (List.exists (fun d -> d.Dg.code = code) diags)

let no_errors name diags =
  Alcotest.(check bool)
    (Printf.sprintf "%s is clean: %s" name (Dg.list_to_string diags))
    true
    (Dg.errors diags = [])

(* --- acceptance trio: corrupted plans fire their codes ------------------- *)

let test_inverted_cost_interval () =
  let c, b = builder () in
  let bad = I.unchecked ~lo:5. ~hi:1. in
  let p = raw_scan b ~own:bad ~total:bad "R" in
  let diags = D.Verify.plan ~catalog:c p in
  fires "inverted interval" Dg.Cost_interval_inverted diags;
  Alcotest.(check bool) "it is an error" true (Dg.has_errors diags)

let test_single_alternative_choose () =
  let c, b = builder () in
  let p = raw_choose b [ scan b "R" ] in
  let diags = D.Verify.plan ~catalog:c p in
  fires "1-ary choose" Dg.Choose_arity diags

let test_choose_rels_mismatch () =
  let c, b = builder () in
  let p = raw_choose b [ scan b "R"; scan b "S" ] in
  let diags = D.Verify.plan ~catalog:c p in
  fires "mixed-relation choose" Dg.Choose_rels_mismatch diags

(* --- structure ------------------------------------------------------------ *)

let test_operator_arity () =
  let _, b = builder () in
  let pred = D.Predicate.select ~rel:"R" ~attr:"a" (D.Predicate.Bound 0.5) in
  let p =
    D.Plan.Builder.raw b ~op:(D.Physical.Filter pred) ~inputs:[] ~rels:[ "R" ]
      ~rows:(I.point 50.) ~bytes_per_row:512 ~own_cost:(I.point 1.)
      ~total_cost:(I.point 1.) ~props:D.Props.unordered
  in
  fires "input-less filter" Dg.Operator_arity (D.Verify.structure p)

let test_sharing_lost_is_warning () =
  (* Structurally equal nodes from two builders: legal (it happens when
     plans are rebuilt), but sharing is gone — a warning, not an error. *)
  let c, b1 = builder () in
  let b2 = D.Plan.Builder.create (D.Env.dynamic c) in
  let p = raw_choose b2 [ scan b1 "R"; scan b2 "R" ] in
  let diags = D.Verify.structure p in
  fires "duplicate structure" Dg.Sharing_lost diags;
  List.iter
    (fun d ->
      if d.Dg.code = Dg.Sharing_lost then
        Alcotest.(check string) "warning severity" "warning"
          (Dg.severity_string d.Dg.severity))
    diags;
  no_errors "sharing loss alone" diags

let test_pid_aliasing () =
  (* No builder makes this: a copy of a node under the original's pid,
     as a faulty deserializer might produce.  The numbering meets the
     pid twice and reports the second node. *)
  let c, b = builder () in
  let s = scan b "R" in
  let alias : D.Plan.t = Obj.obj (Obj.dup (Obj.repr s)) in
  let p = raw_choose b [ s; alias ] in
  Alcotest.(check bool) "numbering lists the alias" true
    (match (D.Plan.Dag.of_plan p).D.Plan.Dag.aliased with
    | [ a ] -> a == alias
    | _ -> false);
  fires "aliased pid" Dg.Pid_aliasing (D.Verify.plan ~catalog:c p)

(* --- interval costs ------------------------------------------------------- *)

let test_rows_and_width_invalid () =
  let c, b = builder () in
  let p = raw_scan b ~rows:(I.unchecked ~lo:(-3.) ~hi:2.) ~bytes:0 "R" in
  let diags = D.Verify.cost p in
  fires "negative rows" Dg.Rows_invalid diags;
  fires "zero width" Dg.Width_invalid diags;
  ignore c

let test_total_cost_mismatch () =
  let _, b = builder () in
  let p = raw_scan b ~own:(I.point 10.) ~total:(I.point 99.) "R" in
  fires "cooked total" Dg.Total_cost_mismatch (D.Verify.cost p)

let test_rows_exceed_inputs () =
  let _, b = builder () in
  let s = scan b "R" in
  let pred = D.Predicate.select ~rel:"R" ~attr:"a" (D.Predicate.Bound 0.5) in
  let p =
    D.Plan.Builder.raw b ~op:(D.Physical.Filter pred) ~inputs:[ s ]
      ~rels:[ "R" ] ~rows:(I.point 1000.) ~bytes_per_row:512
      ~own_cost:(I.point 1.)
      ~total_cost:(I.add (I.point 1.) s.D.Plan.total_cost)
      ~props:D.Props.unordered
  in
  let diags = D.Verify.cost p in
  fires "filter outgrows input" Dg.Rows_exceed_inputs diags;
  no_errors "row-sanity is advisory" diags

let test_pareto_dominated_is_warning () =
  let _, b = builder () in
  let cheap = raw_scan b ~own:(I.make 1. 2.) ~total:(I.make 1. 2.) "R" in
  let dear =
    D.Plan.Builder.raw b ~op:(D.Physical.Btree_scan { rel = "R"; attr = "a" })
      ~inputs:[] ~rels:[ "R" ] ~rows:(I.point 100.) ~bytes_per_row:512
      ~own_cost:(I.make 50. 60.) ~total_cost:(I.make 50. 60.)
      ~props:D.Props.unordered
  in
  let p = raw_choose b [ cheap; dear ] in
  let diags = D.Verify.cost p in
  fires "dominated alternative" Dg.Pareto_dominated diags;
  no_errors "domination is advisory" diags

(* --- semantics ------------------------------------------------------------ *)

let test_catalog_resolution () =
  let c, b = builder () in
  fires "ghost relation" Dg.Missing_relation
    (D.Verify.semantics ~catalog:c (raw_scan b "Nope"));
  let btree rel attr =
    D.Plan.Builder.raw b ~op:(D.Physical.Btree_scan { rel; attr }) ~inputs:[]
      ~rels:[ rel ] ~rows:(I.point 100.) ~bytes_per_row:512
      ~own_cost:(I.point 5.) ~total_cost:(I.point 5.) ~props:D.Props.unordered
  in
  fires "ghost attribute" Dg.Missing_attribute
    (D.Verify.semantics ~catalog:c (btree "R" "zz"));
  fires "unindexed scan" Dg.Missing_index
    (D.Verify.semantics ~catalog:c (btree "S" "j"))

let test_attribute_out_of_scope () =
  let c, b = builder () in
  let pred = D.Predicate.select ~rel:"S" ~attr:"a" (D.Predicate.Bound 0.5) in
  let p =
    D.Plan.Builder.operator b (D.Physical.Filter pred) ~inputs:[ scan b "R" ]
      ~rels:[ "R" ] ~rows:(I.point 50.) ~bytes_per_row:512
      ~props:D.Props.unordered
  in
  fires "filter on foreign column" Dg.Attribute_out_of_scope
    (D.Verify.semantics ~catalog:c p)

let test_join_pred_span () =
  let c, b = builder () in
  let bad = D.Predicate.equi ~left:(col "R" "a") ~right:(col "R" "j") in
  let p =
    D.Plan.Builder.operator b (D.Physical.Hash_join [ bad ])
      ~inputs:[ scan b "R"; scan b "S" ]
      ~rels:[ "R"; "S" ] ~rows:(I.point 100.) ~bytes_per_row:1024
      ~props:D.Props.unordered
  in
  fires "one-sided predicate" Dg.Join_pred_span (D.Verify.semantics ~catalog:c p)

let test_rels_mismatch () =
  let c, b = builder () in
  let p =
    D.Plan.Builder.raw b ~op:(D.Physical.File_scan "R") ~inputs:[]
      ~rels:[ "R"; "S" ] ~rows:(I.point 100.) ~bytes_per_row:512
      ~own_cost:(I.point 10.) ~total_cost:(I.point 10.)
      ~props:D.Props.unordered
  in
  fires "over-claimed relations" Dg.Rels_mismatch
    (D.Verify.semantics ~catalog:c p)

let test_choose_order_unsupported () =
  let c, b = builder () in
  let p =
    raw_choose b
      ~props:(D.Props.ordered [ col "R" "a" ])
      [ scan b "R"; raw_scan b ~own:(I.point 20.) "R" ]
  in
  fires "unbacked order claim" Dg.Choose_order_unsupported
    (D.Verify.semantics ~catalog:c p)

(* --- memo and winners ----------------------------------------------------- *)

let gv gid rels exprs = { D.Verify.gid; rels; exprs }
let ev label base children = { D.Verify.label; base; children }

let test_memo_checks () =
  let get = gv 0 [ "R" ] [ ev "get" (Some "R") [] ] in
  fires "dangling child group" Dg.Dangling_group_ref
    (D.Verify.memo [ get; gv 1 [ "R"; "S" ] [ ev "join" None [ 0; 7 ] ] ]);
  fires "self-joined group" Dg.Group_rels_mismatch
    (D.Verify.memo [ get; gv 1 [ "R"; "S" ] [ ev "join" None [ 0; 0 ] ] ]);
  fires "short-derived group" Dg.Group_rels_mismatch
    (D.Verify.memo [ get; gv 1 [ "R"; "S" ] [ ev "select" None [ 0 ] ] ]);
  no_errors "well-formed memo"
    (D.Verify.memo
       [ get;
         gv 1 [ "S" ] [ ev "get" (Some "S") [] ];
         gv 2 [ "R"; "S" ] [ ev "join" None [ 0; 1 ] ] ])

let test_winner_checks () =
  let c, b = builder () in
  let p = scan b "R" in
  fires "winner outside its group" Dg.Winner_group_mismatch
    (D.Verify.winner ~catalog:c ~group_rels:[ "R"; "S" ] ~required:D.Props.Any p);
  fires "unsorted winner" Dg.Winner_order_mismatch
    (D.Verify.winner ~catalog:c ~group_rels:[ "R" ]
       ~required:(D.Props.Sorted (col "R" "a"))
       p);
  no_errors "winner in place"
    (D.Verify.winner ~catalog:c ~group_rels:[ "R" ] ~required:D.Props.Any p)

(* --- clean plans ---------------------------------------------------------- *)

let test_optimizer_plans_are_clean () =
  let options = { D.Optimizer.default_options with verify = true } in
  List.iter
    (fun (q : D.Queries.t) ->
      List.iter
        (fun mode ->
          match D.Optimizer.optimize ~options ~mode q.D.Queries.catalog q.D.Queries.query with
          | Error e -> Alcotest.failf "optimize failed: %s" e
          | Ok r ->
            no_errors "optimize diagnostics" r.D.Optimizer.diagnostics;
            no_errors "re-verified plan"
              (D.Verify.plan ~catalog:q.D.Queries.catalog r.D.Optimizer.plan))
        [ D.Optimizer.static; D.Optimizer.dynamic () ])
    [ D.Queries.chain ~relations:2; D.Queries.star ~relations:4 ]

let test_check_exn () =
  let c, b = builder () in
  D.Verify.check_exn ~catalog:c (scan b "R");
  let bad = I.unchecked ~lo:5. ~hi:1. in
  match D.Verify.check_exn ~catalog:c (raw_scan b ~own:bad ~total:bad "S") with
  | () -> Alcotest.fail "corrupt plan passed check_exn"
  | exception D.Verify.Failed diags ->
    fires "check_exn payload" Dg.Cost_interval_inverted diags

(* --- the executor's activation hook --------------------------------------- *)

let test_executor_rejects_corrupt_plan () =
  let c, b = builder () in
  let bad = I.unchecked ~lo:5. ~hi:1. in
  let corrupt = raw_scan b ~own:bad ~total:bad "R" in
  let db = D.Database.build ~seed:7 c in
  let bindings = D.Bindings.make ~selectivities:[] ~memory_pages:64 in
  (match D.Executor.run db bindings corrupt with
  | _ -> Alcotest.fail "corrupt plan executed"
  | exception D.Executor.Invalid_plan diags ->
    fires "executor rejection" Dg.Cost_interval_inverted diags);
  match D.Resilience.run db bindings corrupt with
  | Ok _, _ -> Alcotest.fail "corrupt plan executed (supervised)"
  | Error (D.Resilience.Rejected diags), _ ->
    fires "supervisor rejection" Dg.Cost_interval_inverted diags
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f

let test_missing_relation_stays_infeasible () =
  (* Catalog drift is the feasibility regime: the classic typed
     [Infeasible] error, not a verifier rejection. *)
  let c, b = builder () in
  let plan = raw_scan b "Nope" in
  let db = D.Database.build ~seed:7 c in
  let bindings = D.Bindings.make ~selectivities:[] ~memory_pages:64 in
  match D.Executor.run db bindings plan with
  | _ -> Alcotest.fail "plan over a missing relation executed"
  | exception D.Executor.Infeasible diags ->
    Alcotest.(check bool) "names the relation" true
      (Test_util.reports Dg.Missing_relation "Nope" diags)

(* --- catalog drift on columns --------------------------------------------- *)

let no_bindings = D.Bindings.make ~selectivities:[] ~memory_pages:64

(* SELECT * FROM R1 WHERE R1.a <= 5 over the 2-relation paper catalog:
   a Filter-B-tree-Scan on R1.a. *)
let index_selection catalog =
  let q =
    Result.get_ok (D.Sql.compile catalog "SELECT * FROM R1 WHERE R1.a <= 5")
  in
  let plan =
    (Result.get_ok (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog q))
      .D.Optimizer.plan
  in
  (match plan.D.Plan.op with
  | D.Physical.Filter_btree_scan { rel = "R1"; attr = "a"; _ } -> ()
  | _ ->
    Alcotest.failf "expected a B-tree filter scan on R1.a: %s"
      (Format.asprintf "%a" D.Plan.pp plan));
  plan

let test_dropped_attribute_is_infeasible () =
  let catalog = D.Paper_catalog.make ~relations:2 in
  let plan = index_selection catalog in
  let drifted = Test_util.without_attribute catalog ~rel:"R1" ~attr:"a" in
  let db = D.Database.build ~seed:7 drifted in
  let names diags =
    Alcotest.(check bool) "names the attribute" true
      (Test_util.reports Dg.Missing_attribute "R1.a" diags)
  in
  (match D.Executor.run db no_bindings plan with
  | _ -> Alcotest.fail "plan over a dropped attribute executed"
  | exception D.Executor.Infeasible diags -> names diags);
  match D.Resilience.run db no_bindings plan with
  | Error (D.Resilience.Infeasible diags), _ -> names diags
  | Ok _, _ -> Alcotest.fail "plan over a dropped attribute executed (supervised)"
  | Error f, _ ->
    Alcotest.failf "wrong failure kind: %a" D.Resilience.pp_failure f

let test_dropped_columns_are_drift () =
  (* Filter, sort and join columns whose attribute left the catalog get
     the feasibility code, not a scope or span error. *)
  let c, b = builder () in
  let op op inputs rels =
    D.Plan.Builder.operator b op ~inputs ~rels ~rows:(I.point 50.)
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let r = scan b "R" and s = scan b "S" in
  let plans =
    [ ( "filter",
        op
          (D.Physical.Filter
             (D.Predicate.select ~rel:"R" ~attr:"j" (D.Predicate.Bound 0.5)))
          [ r ] [ "R" ] );
      ("sort", op (D.Physical.Sort [ col "R" "j" ]) [ r ] [ "R" ]);
      ( "join",
        op
          (D.Physical.Hash_join
             [ D.Predicate.equi ~left:(col "S" "a") ~right:(col "R" "j") ])
          [ s; r ] [ "R"; "S" ] ) ]
  in
  let drifted = Test_util.without_attribute c ~rel:"R" ~attr:"j" in
  List.iter
    (fun (name, p) ->
      no_errors name (D.Verify.semantics ~catalog:c p);
      let diags = D.Verify.semantics ~catalog:drifted p in
      fires name Dg.Missing_attribute diags;
      Alcotest.(check (list string))
        (name ^ ": only feasibility errors") []
        (List.filter_map
           (fun d ->
             if Dg.is_feasibility d.Dg.code then None else Some (Dg.id d.Dg.code))
           (Dg.errors diags)))
    plans

(* --- the activation verdict memo ------------------------------------------ *)

(* What one activation check returned.  Pruned plans are compared by
   shape: pruning rebuilds the nodes above a dropped alternative under
   fresh pids. *)
type activation =
  | Unchanged
  | Pruned of string
  | Infeasible of Dg.t list
  | Rejected of Dg.t list

let rec sketch (p : D.Plan.t) =
  Format.asprintf "%a(%s)" D.Physical.pp p.D.Plan.op
    (String.concat ", " (List.map sketch p.D.Plan.inputs))

let classify plan f =
  match f () with
  | p when p == plan -> Unchanged
  | p -> Pruned (sketch p)
  | exception D.Executor.Infeasible ps -> Infeasible ps
  | exception D.Executor.Invalid_plan ds -> Rejected ds

(* The activation check as specified, with no memo: the verifier's
   errors split into corruption and drift, drifted nodes pruned. *)
let reference_activation db env plan =
  let catalog = D.Database.catalog db in
  classify plan (fun () ->
      let drift, corrupt =
        List.partition
          (fun d -> Dg.is_feasibility d.Dg.code)
          (Dg.errors (D.Verify.plan ~catalog plan))
      in
      if corrupt <> [] then raise (D.Executor.Invalid_plan corrupt);
      if drift = [] then plan
      else
        let dag = D.Plan.Dag.of_plan plan in
        match D.Plan.rewrite env ~dead:(D.Verify.drifted dag drift) dag with
        | Some pruned -> pruned
        | None -> raise (D.Executor.Infeasible drift))

let kind = function
  | Unchanged -> "unchanged"
  | Pruned _ -> "pruned"
  | Infeasible _ -> "infeasible"
  | Rejected _ -> "rejected"

(* Activate [plan] on [db] and check the memoized answer against the
   reference; returns it. *)
let activate name db plan =
  let env = D.Env.dynamic (D.Database.catalog db) in
  let got = classify plan (fun () -> D.Executor.check_feasible db env plan) in
  let want = reference_activation db env plan in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s, reference %s" name (kind got) (kind want))
    true (got = want);
  got

let expect name want got =
  Alcotest.(check string) name want (kind got)

let test_memo_keyed_on_catalog () =
  let catalog = D.Paper_catalog.make ~relations:2 in
  let plan = index_selection catalog in
  let intact = D.Database.build ~seed:7 catalog in
  let drifted =
    D.Database.build ~seed:7
      (Test_util.without_attribute catalog ~rel:"R1" ~attr:"a")
  in
  for round = 1 to 2 do
    let name what = Printf.sprintf "round %d, %s" round what in
    expect (name "intact") "unchanged" (activate (name "intact") intact plan);
    expect (name "again") "unchanged" (activate (name "again") intact plan);
    expect (name "drifted") "infeasible"
      (activate (name "drifted") drifted plan)
  done

(* A plan the optimizer certified skips the full verifier only against
   the catalog it was built for; after DDL it is verified in full, and
   drift prunes it or makes it infeasible exactly as for any plan. *)
let test_certified_plan_meets_drift () =
  let q = D.Queries.chain ~relations:2 in
  let catalog = q.D.Queries.catalog in
  let r =
    Result.get_ok
      (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog
         q.D.Queries.query)
  in
  D.Executor.admit r.D.Optimizer.certificate;
  let plan = r.D.Optimizer.plan in
  Alcotest.(check bool) "certificate names the plan" true
    (D.Optimizer.certified_plan r.D.Optimizer.certificate == plan);
  Alcotest.(check bool) "certificate names the catalog" true
    (D.Optimizer.certified_catalog r.D.Optimizer.certificate == catalog);
  let no_index =
    D.Database.build ~seed:7 (Test_util.without_index catalog ~rel:"R1" ~attr:"a")
  in
  let no_relation =
    D.Database.build ~seed:7
      (D.Catalog.create ~page_bytes:(D.Catalog.page_bytes catalog)
         ~relations:
           (List.filter
              (fun (r : D.Relation.t) -> r.D.Relation.name <> "R2")
              (D.Catalog.relations catalog))
         ~indexes:
           (List.filter
              (fun (i : D.Index.t) -> i.D.Index.relation <> "R2")
              (D.Catalog.indexes catalog))
         ())
  in
  expect "index dropped" "pruned" (activate "index dropped" no_index plan);
  expect "relation dropped" "infeasible"
    (activate "relation dropped" no_relation plan);
  expect "served catalog" "unchanged"
    (activate "served catalog" (D.Database.build ~seed:7 catalog) plan)

let test_memo_rechecks_corrupt_plans () =
  let c, b = builder () in
  let bad = I.unchecked ~lo:5. ~hi:1. in
  let corrupt = raw_scan b ~own:bad ~total:bad "R" in
  let db = D.Database.build ~seed:7 c in
  expect "first activation" "rejected" (activate "first" db corrupt);
  expect "second activation" "rejected" (activate "second" db corrupt)

let test_memo_skips_pruned_plans () =
  let q = D.Queries.chain ~relations:2 in
  let catalog = q.D.Queries.catalog in
  let plan =
    (Result.get_ok
       (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog
          q.D.Queries.query))
      .D.Optimizer.plan
  in
  let intact = D.Database.build ~seed:7 catalog in
  let drifted =
    D.Database.build ~seed:7 (Test_util.without_index catalog ~rel:"R1" ~attr:"a")
  in
  let first = activate "drifted" drifted plan in
  expect "drifted db prunes" "pruned" first;
  List.iter
    (fun (name, db) ->
      let got = activate name db plan in
      if db == intact then expect name "unchanged" got
      else
        Alcotest.(check bool) (name ^ " prunes the same way") true (got = first))
    [ ("drifted again", drifted); ("intact", intact);
      ("drifted after intact", drifted); ("intact again", intact) ]

let test_memo_slot_collisions () =
  (* Three plans whose root pids share one slot, activated in turn: each
     evicts the previous verdict, and none borrows another's. *)
  let c = catalog () in
  let db = D.Database.build ~seed:7 c in
  let fresh () = D.Plan.Builder.create (D.Env.dynamic c) in
  let slot (p : D.Plan.t) = p.D.Plan.pid mod D.Executor.verdict_slots in
  let first = scan (fresh ()) "R" in
  let rec sharing mk =
    let p = mk () in
    if slot p = slot first then p else sharing mk
  in
  let second = sharing (fun () -> scan (fresh ()) "S") in
  let bad = I.unchecked ~lo:5. ~hi:1. in
  let corrupt = sharing (fun () -> raw_scan (fresh ()) ~own:bad ~total:bad "R") in
  for round = 1 to 3 do
    List.iter
      (fun (name, p, want) ->
        let name = Printf.sprintf "round %d, %s" round name in
        expect name want (activate name db p))
      [ ("first", first, "unchanged");
        ("second", second, "unchanged");
        ("corrupt", corrupt, "rejected") ]
  done

(* Verify a plan nobody else holds; only [probe] sees it afterwards. *)
let verify_and_drop db probe =
  let env = D.Env.dynamic (D.Database.catalog db) in
  let p = scan (D.Plan.Builder.create env) "R" in
  ignore (D.Executor.check_feasible db env p : D.Plan.t);
  Weak.set probe 0 (Some p)
[@@inline never]

let test_memo_keeps_no_plan_alive () =
  let db = D.Database.build ~seed:7 (catalog ()) in
  let probe = Weak.create 1 in
  verify_and_drop db probe;
  Gc.full_major ();
  Alcotest.(check bool) "the dropped plan was collected" false
    (Weak.check probe 0)

let verify_fresh db n =
  let env = D.Env.dynamic (D.Database.catalog db) in
  for _ = 1 to n do
    let p = scan (D.Plan.Builder.create env) "R" in
    ignore (D.Executor.check_feasible db env p : D.Plan.t)
  done
[@@inline never]

let test_memo_footprint_is_flat () =
  let db = D.Database.build ~seed:7 (catalog ()) in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  (* Fill every slot first, so the fixed table is in the baseline. *)
  verify_fresh db (4 * D.Executor.verdict_slots);
  let before = live_words () in
  verify_fresh db 10_000;
  let after = live_words () in
  Alcotest.(check bool)
    (Printf.sprintf "live words %d -> %d after 10k verified plans" before after)
    true
    (after - before < 8192)

(* --- diagnostics as data -------------------------------------------------- *)

let test_validate_collects_all () =
  let c = catalog () in
  let q =
    D.Logical.Select
      ( D.Logical.Select
          ( D.Logical.Get_set "R",
            D.Predicate.select ~rel:"R" ~attr:"zz" (D.Predicate.Bound 0.5) ),
        D.Predicate.select ~rel:"R" ~attr:"ww" (D.Predicate.Bound 0.5) )
  in
  match D.Logical.validate c q with
  | Ok () -> Alcotest.fail "two unknown attributes accepted"
  | Error diags ->
    Alcotest.(check int) "both problems reported" 2 (List.length diags);
    List.iter
      (fun d ->
        Alcotest.(check string) "code" "DQEP002" (Dg.id d.Dg.code))
      diags

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_json_rendering () =
  let d =
    Dg.make ~site:(Dg.Node 12) Dg.Cost_interval_inverted "lo 5 > hi 1"
  in
  let j = Dg.to_json d in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" fragment) true
        (contains j fragment))
    [ {|"code":"DQEP203"|}; {|"severity":"error"|} ]

(* --- the DQEP5xx block: every analysis code on a corrupted plan ---------- *)

(* DQEP501: every alternative of the choose scans a relation the catalog
   has never heard of, so no region of the parameter space has a
   feasible pick — startup would fail everywhere. *)
let test_choose_uncovered () =
  let c, b = builder () in
  let ghost rows =
    D.Plan.Builder.raw b ~op:(D.Physical.File_scan "Ghost") ~inputs:[]
      ~rels:[ "Ghost" ] ~rows:(I.point rows) ~bytes_per_row:512
      ~own_cost:(I.point 10.) ~total_cost:(I.point 10.)
      ~props:D.Props.unordered
  in
  let p = raw_choose b [ ghost 100.; ghost 50. ] in
  fires "all-infeasible choose" Dg.Choose_uncovered
    (D.Analyses.choose_space ~catalog:c (D.Env.dynamic c) p)

(* A drifted plan whose feasible alternative nests a choose with a scan
   of a relation the catalog lacks: the analyses report it instead of
   raising.  The Ghost alternative is infeasible, so the inner choose is
   covered by its R scan, no choose is uncovered, and no dead verdict
   names the Ghost scan. *)
let test_nested_choose_over_dropped_relation () =
  let c, b = builder () in
  let ghost =
    D.Plan.Builder.raw b ~op:(D.Physical.File_scan "Ghost") ~inputs:[]
      ~rels:[ "Ghost" ] ~rows:(I.point 100.) ~bytes_per_row:512
      ~own_cost:(I.point 10.) ~total_cost:(I.point 10.)
      ~props:D.Props.unordered
  in
  let r = scan b "R" in
  let p = raw_choose b [ raw_choose b [ ghost; r ]; r ] in
  let env = D.Env.dynamic c in
  let check name diags =
    Alcotest.(check bool)
      (Printf.sprintf "%s: no uncovered choose (%s)" name
         (Dg.list_to_string diags))
      false
      (List.exists (fun d -> d.Dg.code = Dg.Choose_uncovered) diags);
    Alcotest.(check bool)
      (Printf.sprintf "%s: the Ghost scan is never called dead" name)
      false
      (List.exists
         (fun d ->
           d.Dg.code = Dg.Choose_dead_alternative
           && contains d.Dg.message (Printf.sprintf "#%d " ghost.D.Plan.pid))
         diags)
  in
  check "choose_space" (D.Analyses.choose_space ~catalog:c env p);
  check "plan" (D.Analyses.plan ~catalog:c env p);
  check "plan under a budget"
    (D.Analyses.plan ~budget_bytes:(1 lsl 20) ~catalog:c env p);
  fires "the Ghost scan is infeasible" Dg.Missing_relation
    (D.Verify.plan ~catalog:c p)

(* DQEP502: a redundant sort makes one alternative strictly dearer than
   its sibling in every region. *)
let test_choose_dead_alternative () =
  let c, b = builder () in
  let s = scan b "S" in
  let col = D.Col.make ~rel:"S" ~attr:"a" in
  let sorted =
    D.Plan.Builder.operator b (D.Physical.Sort [ col ]) ~inputs:[ s ]
      ~rels:[ "S" ] ~rows:(I.point 100.) ~bytes_per_row:512
      ~props:(D.Props.ordered [ col ])
  in
  let p = raw_choose b [ s; sorted ] in
  let diags = D.Analyses.choose_space ~catalog:c (D.Env.dynamic c) p in
  fires "dominated alternative" Dg.Choose_dead_alternative diags;
  Alcotest.(check bool) "it is a warning" true (Dg.errors diags = [])

(* DQEP503: a merge join materializes its right side, and with no filter
   below it the data-sound floor is the whole relation — far beyond a
   2 KB budget. *)
let test_budget_unsatisfiable () =
  let c, b = builder () in
  let r = scan b "R" and s = scan b "S" in
  let join =
    D.Plan.Builder.raw b
      ~op:
        (D.Physical.Merge_join
           [ D.Predicate.equi
               ~left:(col "R" "j")
               ~right:(col "S" "j") ])
      ~inputs:[ r; s ] ~rels:[ "R"; "S" ] ~rows:(I.point 100.)
      ~bytes_per_row:1024 ~own_cost:(I.point 10.) ~total_cost:(I.point 30.)
      ~props:D.Props.unordered
  in
  let diags =
    D.Analyses.budget_check (D.Env.dynamic c) ~budget_bytes:(2 * 1024) join
  in
  fires "starved merge join" Dg.Budget_unsatisfiable diags;
  Alcotest.(check bool) "it is an error" true (Dg.has_errors diags)

(* DQEP504: two scans of the same relation with disagreeing cardinality
   estimates share a checkpoint fingerprint — a resumed run could splice
   the wrong intermediate. *)
let test_fingerprint_collision () =
  let c, b = builder () in
  let scan_at rows =
    D.Plan.Builder.raw b ~op:(D.Physical.File_scan "R") ~inputs:[]
      ~rels:[ "R" ] ~rows:(I.point rows) ~bytes_per_row:512
      ~own_cost:(I.point 10.) ~total_cost:(I.point 10.)
      ~props:D.Props.unordered
  in
  let p =
    D.Plan.Builder.raw b
      ~op:
        (D.Physical.Hash_join
           [ D.Predicate.equi ~left:(col "R" "j") ~right:(col "R" "j") ])
      ~inputs:[ scan_at 100.; scan_at 7. ] ~rels:[ "R" ]
      ~rows:(I.point 100.) ~bytes_per_row:1024 ~own_cost:(I.point 10.)
      ~total_cost:(I.point 30.) ~props:D.Props.unordered
  in
  fires "disagreeing twins" Dg.Fingerprint_collision
    (D.Analyses.fingerprints ~catalog:c p)

(* DQEP505: three streaming filters between the choose and the root,
   with no blocking point to recheck the resolution against. *)
let test_unchecked_pipeline () =
  let c, b = builder () in
  let p = raw_choose b [ scan b "R"; raw_scan b "R" ] in
  let filtered =
    List.fold_left
      (fun acc i ->
        D.Plan.Builder.operator b
          (D.Physical.Filter
             (D.Predicate.select ~rel:"R" ~attr:"a"
                (D.Predicate.Host_var (Printf.sprintf "hv%d" i))))
          ~inputs:[ acc ] ~rels:[ "R" ] ~rows:(I.point 100.)
          ~bytes_per_row:512 ~props:D.Props.unordered)
      p [ 1; 2; 3 ]
  in
  let diags = D.Analyses.pipeline filtered in
  fires "unchecked streaming pipeline" Dg.Unchecked_pipeline diags;
  Alcotest.(check bool) "it is a warning" true (Dg.errors diags = []);
  ignore c

(* The aggregate [Analyses.plan] bundle renders to schema-valid JSON:
   parse back and check the typed fields of every record. *)
let test_dqep5_json_roundtrip () =
  let c, b = builder () in
  let s = scan b "S" in
  let col = D.Col.make ~rel:"S" ~attr:"a" in
  let sorted =
    D.Plan.Builder.operator b (D.Physical.Sort [ col ]) ~inputs:[ s ]
      ~rels:[ "S" ] ~rows:(I.point 100.) ~bytes_per_row:512
      ~props:(D.Props.ordered [ col ])
  in
  let p = raw_choose b [ s; sorted ] in
  let diags =
    D.Analyses.plan ~budget_bytes:(64 * 1024 * 1024) ~catalog:c
      (D.Env.dynamic c) p
  in
  Alcotest.(check bool) "the fixture produces findings" true (diags <> []);
  match D.Json.parse (Dg.list_to_json diags) with
  | Error e -> Alcotest.failf "diagnostics JSON does not parse: %s" e
  | Ok (D.Json.List records) ->
    List.iter
      (fun r ->
        let str key =
          match
            Option.bind (D.Json.member key r) D.Json.to_string_opt
          with
          | Some s -> s
          | None -> Alcotest.failf "record lacks string %S" key
        in
        Alcotest.(check bool) "code is DQEP5xx" true
          (String.length (str "code") = 7
          && String.sub (str "code") 0 5 = "DQEP5");
        Alcotest.(check bool) "severity is typed" true
          (match str "severity" with
          | "error" | "warning" -> true
          | _ -> false);
        ignore (str "name");
        ignore (str "message"))
      records
  | Ok _ -> Alcotest.fail "diagnostics JSON is not a list"

(* --- properties ----------------------------------------------------------- *)

let interval_gen =
  QCheck.Gen.(
    map2
      (fun a b -> I.make (Float.min a b) (Float.max a b))
      (float_bound_inclusive 1000.) (float_bound_inclusive 1000.))

let arb_interval = QCheck.make ~print:I.to_string interval_gen

let prop_interval_ops_stay_valid =
  QCheck.Test.make ~name:"interval ops preserve is_valid" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      I.is_valid (I.add a b)
      && I.is_valid (I.combine_min a b)
      && I.is_valid (I.mul a b)
      && I.is_valid (I.union a b))

let prop_hash_consing_shares =
  QCheck.Test.make ~name:"same subplan interns to the same pid" ~count:100
    (QCheck.make QCheck.Gen.(float_range 1. 10000.)) (fun rows ->
      let _, b = builder () in
      let mk () =
        D.Plan.Builder.operator b (D.Physical.File_scan "R") ~inputs:[]
          ~rels:[ "R" ] ~rows:(I.point rows) ~bytes_per_row:512
          ~props:D.Props.unordered
      in
      let s1 = mk () and s2 = mk () in
      s1.D.Plan.pid = s2.D.Plan.pid && D.Plan.Builder.created b = 1)

(* Verification by construction: what the optimizer builds passes the
   full verifier with no diagnostic at all, under every mode and risk
   posture — the proof behind [Executor.admit]'s feasibility-only
   activation. *)
type source = Plangen of int | Corpus of (string * D.Queries.t)

let prop_optimizer_output_verifies =
  let corpus = Array.of_list (D.Queries.corpus ()) in
  let postures = [| D.Risk.Worst_case; D.Risk.Expected; D.Risk.Quantile 0.9 |] in
  QCheck.Test.make ~name:"optimizer output verifies clean" ~count:150
    (QCheck.make
       ~print:(fun (src, m, k) ->
         Printf.sprintf "%s, mode %d, %s"
           (match src with
           | Plangen seed -> Printf.sprintf "plangen seed %d" seed
           | Corpus (name, _) -> name)
           m
           (D.Risk.to_string postures.(k)))
       QCheck.Gen.(
         triple
           (oneof
              [ map (fun s -> Plangen s) (int_range 1 200);
                map (fun i -> Corpus corpus.(i)) (int_bound (Array.length corpus - 1)) ])
           (int_bound 3) (int_bound 2)))
    (fun (src, m, k) ->
      let catalog, query, host_vars =
        match src with
        | Plangen seed ->
          let inst = D.Plangen.generate ~seed in
          (inst.D.Plangen.catalog, inst.D.Plangen.query, inst.D.Plangen.host_vars)
        | Corpus (_, q) -> (q.D.Queries.catalog, q.D.Queries.query, q.D.Queries.host_vars)
      in
      let mode =
        match m with
        | 0 -> D.Optimizer.static
        | 1 -> D.Optimizer.dynamic ()
        | 2 -> D.Optimizer.dynamic ~uncertain_memory:true ()
        | _ ->
          D.Optimizer.Run_time
            (List.hd
               (D.Paramgen.bindings ~seed:5 ~trials:1 ~host_vars
                  ~uncertain_memory:true ()))
      in
      let options = { D.Optimizer.default_options with risk = postures.(k) } in
      let r = Result.get_ok (D.Optimizer.optimize ~options ~mode catalog query) in
      D.Verify.plan ~catalog r.D.Optimizer.plan = [])

let suite =
  ( "analysis",
    [ Alcotest.test_case "inverted cost interval (DQEP203)" `Quick
        test_inverted_cost_interval;
      Alcotest.test_case "single-alternative choose (DQEP101)" `Quick
        test_single_alternative_choose;
      Alcotest.test_case "choose rels mismatch (DQEP307)" `Quick
        test_choose_rels_mismatch;
      Alcotest.test_case "operator arity (DQEP102)" `Quick test_operator_arity;
      Alcotest.test_case "sharing lost is a warning (DQEP104)" `Quick
        test_sharing_lost_is_warning;
      Alcotest.test_case "pid aliasing (DQEP103)" `Quick test_pid_aliasing;
      Alcotest.test_case "rows and width invalid (DQEP201/202)" `Quick
        test_rows_and_width_invalid;
      Alcotest.test_case "total cost mismatch (DQEP204)" `Quick
        test_total_cost_mismatch;
      Alcotest.test_case "rows exceed inputs (DQEP205)" `Quick
        test_rows_exceed_inputs;
      Alcotest.test_case "pareto domination is a warning (DQEP206)" `Quick
        test_pareto_dominated_is_warning;
      Alcotest.test_case "catalog resolution (DQEP301-303)" `Quick
        test_catalog_resolution;
      Alcotest.test_case "attribute out of scope (DQEP304)" `Quick
        test_attribute_out_of_scope;
      Alcotest.test_case "join predicate span (DQEP305)" `Quick
        test_join_pred_span;
      Alcotest.test_case "rels mismatch (DQEP306)" `Quick test_rels_mismatch;
      Alcotest.test_case "choose order unsupported (DQEP308)" `Quick
        test_choose_order_unsupported;
      Alcotest.test_case "memo view checks (DQEP401/402)" `Quick
        test_memo_checks;
      Alcotest.test_case "winner checks (DQEP403/404)" `Quick
        test_winner_checks;
      Alcotest.test_case "optimizer plans are clean" `Quick
        test_optimizer_plans_are_clean;
      Alcotest.test_case "check_exn" `Quick test_check_exn;
      Alcotest.test_case "executor rejects corrupt plans" `Quick
        test_executor_rejects_corrupt_plan;
      Alcotest.test_case "missing relation stays infeasible" `Quick
        test_missing_relation_stays_infeasible;
      Alcotest.test_case "dropped attribute is infeasible" `Quick
        test_dropped_attribute_is_infeasible;
      Alcotest.test_case "dropped columns are drift" `Quick
        test_dropped_columns_are_drift;
      Alcotest.test_case "verdict memo is keyed on the catalog" `Quick
        test_memo_keyed_on_catalog;
      Alcotest.test_case "verdict memo re-checks corrupt plans" `Quick
        test_memo_rechecks_corrupt_plans;
      Alcotest.test_case "verdict memo skips pruned plans" `Quick
        test_memo_skips_pruned_plans;
      Alcotest.test_case "verdict memo slot collisions" `Quick
        test_memo_slot_collisions;
      Alcotest.test_case "verdict memo keeps no plan alive" `Quick
        test_memo_keeps_no_plan_alive;
      Alcotest.test_case "verdict memo footprint is flat" `Quick
        test_memo_footprint_is_flat;
      Alcotest.test_case "validate collects every diagnostic" `Quick
        test_validate_collects_all;
      Alcotest.test_case "JSON rendering" `Quick test_json_rendering;
      Alcotest.test_case "uncovered choose space (DQEP501)" `Quick
        test_choose_uncovered;
      Alcotest.test_case "nested choose over a dropped relation" `Quick
        test_nested_choose_over_dropped_relation;
      Alcotest.test_case "dead alternative (DQEP502)" `Quick
        test_choose_dead_alternative;
      Alcotest.test_case "budget unsatisfiable (DQEP503)" `Quick
        test_budget_unsatisfiable;
      Alcotest.test_case "fingerprint collision (DQEP504)" `Quick
        test_fingerprint_collision;
      Alcotest.test_case "unchecked pipeline (DQEP505)" `Quick
        test_unchecked_pipeline;
      Alcotest.test_case "DQEP5xx JSON round-trip" `Quick
        test_dqep5_json_roundtrip;
      QCheck_alcotest.to_alcotest prop_interval_ops_stay_valid;
      QCheck_alcotest.to_alcotest prop_hash_consing_shares;
      QCheck_alcotest.to_alcotest prop_optimizer_output_verifies;
      Alcotest.test_case "certified plan meets drift" `Quick
        test_certified_plan_meets_drift ] )
