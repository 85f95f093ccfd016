(* Workload generators and the experiment harness (small-scale smoke
   with structural assertions on every report). *)

module D = Dqep
module E = D.Experiments

let test_queries_structure () =
  let qs = D.Queries.paper_queries () in
  Alcotest.(check (list int)) "five queries, paper sizes" [ 1; 2; 4; 6; 10 ]
    (List.map (fun (q : D.Queries.t) -> q.D.Queries.relations) qs);
  List.iter
    (fun (q : D.Queries.t) ->
      (match D.Logical.validate q.D.Queries.catalog q.D.Queries.query with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "q%d invalid: %s" q.D.Queries.id
          (D.Diagnostic.list_to_string e));
      Alcotest.(check int) "one host var per relation" q.D.Queries.relations
        (List.length q.D.Queries.host_vars);
      Alcotest.(check int) "uncertain vars with memory"
        (q.D.Queries.relations + 1)
        (D.Queries.uncertain_variables q ~uncertain_memory:true))
    qs

let test_paramgen () =
  let bs =
    D.Paramgen.bindings ~seed:1 ~trials:50 ~host_vars:[ "a"; "b" ]
      ~uncertain_memory:true ()
  in
  Alcotest.(check int) "trials" 50 (List.length bs);
  List.iter
    (fun (b : D.Bindings.t) ->
      Alcotest.(check bool) "memory in [16,112]" true
        (b.D.Bindings.memory_pages >= 16 && b.D.Bindings.memory_pages <= 112);
      List.iter
        (fun (_, s) ->
          Alcotest.(check bool) "sel in [0,1]" true (s >= 0. && s <= 1.))
        b.D.Bindings.selectivities)
    bs;
  (* Certain memory pins 64 pages. *)
  let fixed =
    D.Paramgen.bindings ~seed:1 ~trials:5 ~host_vars:[ "a" ] ~uncertain_memory:false ()
  in
  List.iter
    (fun (b : D.Bindings.t) ->
      Alcotest.(check int) "fixed memory" 64 b.D.Bindings.memory_pages)
    fixed;
  (* Determinism. *)
  let again =
    D.Paramgen.bindings ~seed:1 ~trials:50 ~host_vars:[ "a"; "b" ]
      ~uncertain_memory:true ()
  in
  Alcotest.(check bool) "deterministic" true (bs = again)

let measurements =
  lazy
    (List.map
       (fun (q, u) -> E.Common.measure ~trials:8 q u)
       [ (D.Queries.chain ~relations:1, E.Common.Sel_only);
         (D.Queries.chain ~relations:2, E.Common.Sel_and_memory) ])

let test_measurement_sanity () =
  List.iter
    (fun (m : E.Common.measurement) ->
      Alcotest.(check int) "trials" 8 (List.length m.E.Common.static_exec);
      Alcotest.(check int) "trials dynamic" 8 (List.length m.E.Common.dynamic_exec);
      Alcotest.(check bool) "times positive" true
        (m.E.Common.static_opt_time > 0. && m.E.Common.dynamic_opt_time > 0.);
      Alcotest.(check bool) "dynamic plan at least as large" true
        (m.E.Common.dynamic_nodes >= m.E.Common.static_nodes);
      (* Robustness: dynamic average never worse than static average. *)
      Alcotest.(check bool) "dynamic execution no worse on average" true
        (E.Common.mean m.E.Common.dynamic_exec
        <= E.Common.mean m.E.Common.static_exec +. 1e-9);
      (* gi matches di up to decision overhead. *)
      List.iter2
        (fun g d ->
          Alcotest.(check bool) "g near d" true
            (g <= d +. 0.01 *. float_of_int (D.Plan.choose_count m.E.Common.dynamic_plan)
             && d <= g +. 1e-9))
        m.E.Common.dynamic_exec m.E.Common.runtime_exec)
    (Lazy.force measurements)

let non_empty_report (r : E.Report.t) =
  Alcotest.(check bool) (r.E.Report.id ^ " has rows") true (r.E.Report.rows <> []);
  let cols = List.length r.E.Report.header in
  List.iter
    (fun row -> Alcotest.(check int) (r.E.Report.id ^ " row width") cols (List.length row))
    r.E.Report.rows

let test_figures_structure () =
  let ms = Lazy.force measurements in
  List.iter non_empty_report (E.Figures.all ms);
  non_empty_report (E.Table1.report ());
  non_empty_report (E.Ablations.sharing ms)

let test_report_rendering () =
  let r =
    E.Report.make ~id:"t" ~title:"T" ~header:[ "a"; "b" ]
      ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ] ~notes:[ "n" ] ()
  in
  let text = Format.asprintf "%a" E.Report.render r in
  Alcotest.(check bool) "mentions title" true
    (String.length text > 0
    && String.index_opt text 'T' <> None);
  let csv = E.Report.to_csv r in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,4\n" csv;
  let quoted = E.Report.to_csv (E.Report.make ~id:"q" ~title:"q" ~header:[ "x,y" ] ~rows:[] ()) in
  Alcotest.(check string) "csv quoting" "\"x,y\"\n" quoted

let test_shrink_ablation_smoke () =
  let r = E.Ablations.shrink ~relations:2 ~train:10 ~test:10 () in
  non_empty_report r

let test_pruning_ablation_smoke () =
  let r = E.Ablations.pruning ~relations:3 () in
  non_empty_report r

let test_domination_ablation_smoke () =
  let r = E.Ablations.domination ~relations:2 ~samples:[ 2 ] ~trials:5 () in
  non_empty_report r

(* The Section 7 report, both columns, exactly as [dqep report midquery]
   prints it: ungoverned, observation switches 38 of 40 decisions;
   under the 100 000-byte budget every observation is refused and the
   start-up decisions stand. *)
let test_midquery_report () =
  let r = E.Ablations.midquery () in
  Alcotest.(check (list (list string)))
    "midquery table"
    [ [ "invocations"; "40"; "40" ];
      [ "plan switches after observation"; "38"; "0" ];
      [ "observations refused (over the memory budget)"; "0"; "40" ];
      [ "avg cost, start-up decision only"; "2.79"; "2.07" ];
      [ "avg cost, adapted decision"; "1.68"; "2.07" ];
      [ "improvement"; "39.7%"; "0.0%" ] ]
    r.E.Report.rows

let suite =
  ( "experiments",
    [ Alcotest.test_case "paper queries structure" `Quick test_queries_structure;
      Alcotest.test_case "parameter generation" `Quick test_paramgen;
      Alcotest.test_case "measurement sanity" `Slow test_measurement_sanity;
      Alcotest.test_case "figure reports well-formed" `Slow test_figures_structure;
      Alcotest.test_case "report rendering and CSV" `Quick test_report_rendering;
      Alcotest.test_case "shrink ablation smoke" `Slow test_shrink_ablation_smoke;
      Alcotest.test_case "pruning ablation smoke" `Slow test_pruning_ablation_smoke;
      Alcotest.test_case "domination ablation smoke" `Slow test_domination_ablation_smoke;
      Alcotest.test_case "midquery report table" `Quick test_midquery_report ] )
