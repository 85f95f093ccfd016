(* The SQL front-end: lexing, parsing, name resolution, and equivalence
   of compiled statements with hand-built logical expressions. *)

module D = Dqep

let catalog () = D.Paper_catalog.make ~relations:4

let compile_exn stmt =
  match D.Sql.compile (catalog ()) stmt with
  | Ok q -> q
  | Error e -> Alcotest.failf "compile failed: %s" e

let expect_error stmt fragment =
  match D.Sql.compile (catalog ()) stmt with
  | Ok _ -> Alcotest.failf "accepted: %s" stmt
  | Error e ->
    let lower = String.lowercase_ascii e in
    Alcotest.(check bool)
      (Printf.sprintf "error for %S mentions %S (got %S)" stmt fragment e)
      true
      (let frag = String.lowercase_ascii fragment in
       let rec contains i =
         if i + String.length frag > String.length lower then false
         else String.sub lower i (String.length frag) = frag || contains (i + 1)
       in
       contains 0)

let test_single_table () =
  let q = compile_exn "SELECT * FROM R1 WHERE R1.a <= :hv1" in
  Alcotest.(check (list string)) "relations" [ "R1" ] (D.Logical.relations q);
  Alcotest.(check (list string)) "host vars" [ "hv1" ] (D.Logical.host_vars q);
  match D.Logical.validate (catalog ()) q with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (D.Diagnostic.list_to_string e)

let test_literal_selectivity () =
  let q = compile_exn "SELECT * FROM R1 WHERE R1.a <= 23" in
  match D.Logical.selections q with
  | [ p ] -> (
    match p.D.Predicate.selectivity with
    | D.Predicate.Bound s ->
      let dom = D.Catalog.domain_size (catalog ()) ~rel:"R1" ~attr:"a" in
      Alcotest.(check (float 1e-9)) "literal/domain" (23. /. float_of_int dom) s
    | D.Predicate.Host_var _ -> Alcotest.fail "expected bound")
  | _ -> Alcotest.fail "expected one selection"

let test_join_query_matches_builder () =
  let stmt =
    "select * from R1, R2 where R1.a <= :hv1 and R2.a <= :hv2 and R1.jr = R2.jl"
  in
  let q = compile_exn stmt in
  (match D.Logical.validate (catalog ()) q with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid: %s" (D.Diagnostic.list_to_string e));
  (* Optimizing the SQL form gives the same cost as the builder form. *)
  let built = (D.Queries.chain ~relations:2).D.Queries.query in
  let cost query =
    (Result.get_ok (D.Optimizer.optimize ~mode:D.Optimizer.static (catalog ()) query))
      .D.Optimizer.plan
      .D.Plan.total_cost
  in
  Alcotest.(check bool) "same optimal cost" true
    (D.Interval.equal (cost q) (cost built))

let test_from_order_irrelevant () =
  (* Tables listed in any connected order build a valid query. *)
  let a =
    compile_exn
      "SELECT * FROM R3, R2, R1 WHERE R1.jr = R2.jl AND R2.jr = R3.jl"
  in
  let b =
    compile_exn
      "SELECT * FROM R1, R2, R3 WHERE R1.jr = R2.jl AND R2.jr = R3.jl"
  in
  let cost q =
    (Result.get_ok (D.Optimizer.optimize ~mode:D.Optimizer.static (catalog ()) q))
      .D.Optimizer.plan
      .D.Plan.total_cost
  in
  Alcotest.(check bool) "same optimum from either order" true
    (D.Interval.equal (cost a) (cost b))

let test_case_insensitive_keywords () =
  ignore (compile_exn "SeLeCt * FrOm R1 wHeRe R1.a <= 5")

let test_errors () =
  expect_error "SELECT a FROM R1" "select * from";
  expect_error "SELECT * FROM" "table name";
  expect_error "SELECT * FROM R1 WHERE R1.a < 3" "<=";
  expect_error "SELECT * FROM R1 WHERE R1.a <= :" "";
  expect_error "SELECT * FROM Rx WHERE Rx.a <= 1" "unknown table";
  expect_error "SELECT * FROM R1 WHERE R1.zz <= 1" "unknown column";
  expect_error "SELECT * FROM R1, R2" "not connected";
  expect_error "SELECT * FROM R1, R1 WHERE R1.a <= 1" "twice";
  expect_error "SELECT * FROM R1 WHERE R2.a <= 1" "not in FROM";
  expect_error "SELECT * FROM R1 WHERE R1.a <= 99999" "outside the domain";
  expect_error "SELECT * FROM R1 WHERE R1.a <= 99999999999999999999" "out of range";
  expect_error "SELECT * FROM R1 WHERE R1.a <= 1 nonsense" "trailing"

let test_end_to_end_execution () =
  (* A SQL statement, optimized dynamically and executed, matches the
     reference evaluator. *)
  let catalog = catalog () in
  let q =
    compile_exn
      "SELECT * FROM R1, R2 WHERE R1.a <= :u AND R2.a <= :v AND R1.jr = R2.jl"
  in
  let db = D.Database.build ~seed:3 catalog in
  let b =
    D.Bindings.make ~selectivities:[ ("u", 0.5); ("v", 0.7) ] ~memory_pages:64
  in
  let r = Result.get_ok (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog q) in
  let tuples, stats = D.Executor.run db b r.D.Optimizer.plan in
  let schema = D.Plan.schema catalog stats.D.Executor.resolved_plan in
  let ref_schema, expected = D.Reference.eval db b q in
  Alcotest.(check bool) "matches reference" true
    (D.Reference.multiset_equal
       (D.Reference.normalize ref_schema expected)
       (D.Reference.normalize schema tuples))

(* Rendering is the cache-key codomain (Plan_cache.key renders the
   generalized shape), so parse . render must be the identity on every
   AST the parser accepts. *)
let test_render_roundtrip () =
  let roundtrip stmt =
    let ast =
      match D.Sql.parse stmt with
      | Ok ast -> ast
      | Error e -> Alcotest.failf "parse %S: %s" stmt e
    in
    let rendered = D.Sql.render ast in
    match D.Sql.parse rendered with
    | Ok ast' ->
      if ast' <> ast then
        Alcotest.failf "%S round-tripped to %S differently" stmt rendered
    | Error e -> Alcotest.failf "rendered %S does not parse: %s" rendered e
  in
  List.iter roundtrip
    [ "SELECT * FROM R1";
      "SELECT * FROM R1 WHERE R1.a <= 23";
      "SELECT * FROM R1 WHERE R1.a <= :u";
      "select * from R2, R1 where R1.a <= :u and R2.jl = R1.jr";
      "SELECT * FROM R1, R2 WHERE R2.a <= 7 AND R1.a <= :u AND R1.jr = \
       R2.jl AND R1.a <= :v" ]

let suite =
  ( "sql",
    [ Alcotest.test_case "render round-trips through parse" `Quick
        test_render_roundtrip; Alcotest.test_case "single table" `Quick test_single_table;
      Alcotest.test_case "literal selectivity" `Quick test_literal_selectivity;
      Alcotest.test_case "join query = builder query" `Quick
        test_join_query_matches_builder;
      Alcotest.test_case "FROM order irrelevant" `Quick test_from_order_irrelevant;
      Alcotest.test_case "case-insensitive keywords" `Quick
        test_case_insensitive_keywords;
      Alcotest.test_case "error reporting" `Quick test_errors;
      Alcotest.test_case "end-to-end execution" `Quick test_end_to_end_execution ] )
