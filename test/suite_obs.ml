(* The observation pipeline: trace cost discipline (null is free,
   counters are atomic adds, taps opt-in), the event wire format and its
   validator, the feedback cache, and — the acceptance criterion — the
   closed loop: executing a query under a session deposits observations
   that refine the cost environment, and re-optimizing under the refined
   environment never raises the plan's cost upper bound for the observed
   parameter values. *)

module D = Dqep
module Trace = D.Obs.Trace
module Counter = D.Obs.Counter
module Event = D.Obs.Event
module Sink = D.Obs.Sink
module Feedback = D.Obs.Feedback

let near = Alcotest.check (Alcotest.float 1e-9)

(* --- trace primitives ----------------------------------------------------- *)

let test_null_trace () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Alcotest.(check bool) "no taps" false (Trace.taps_enabled t);
  Trace.add t Counter.Rows_out 5;
  Trace.incr t Counter.Attempts;
  Trace.tap t ~pid:1 ~op:"scan" ~rows:10;
  Trace.gauge t "g" 1.;
  Alcotest.(check int) "counter stays zero" 0 (Trace.get t Counter.Rows_out);
  Alcotest.(check bool) "no tap recorded" true (Trace.tap_rows t 1 = None);
  Alcotest.(check (list (pair string (float 0.)))) "no gauges" []
    (Trace.gauges t);
  (* span still runs its body *)
  Alcotest.(check int) "span transparent" 42 (Trace.span t "s" (fun () -> 42))

let test_counters () =
  let t = Trace.create () in
  Trace.add t Counter.Rows_out 3;
  Trace.incr t Counter.Rows_out;
  Trace.incr t Counter.Attempts;
  Alcotest.(check int) "accumulates" 4 (Trace.get t Counter.Rows_out);
  Alcotest.(check int) "independent" 1 (Trace.get t Counter.Attempts);
  Alcotest.(check int) "untouched" 0 (Trace.get t Counter.Retries);
  let counts = Trace.counts t in
  Alcotest.(check int) "only non-zero counters listed" 2 (List.length counts);
  Alcotest.(check bool) "rows_out listed" true
    (List.mem_assoc Counter.Rows_out counts)

let test_spans_and_clock () =
  (* Injected clock: deterministic timestamps and elapsed times. *)
  let now = ref 0. in
  let sink, events = Sink.memory () in
  let t = Trace.create ~clock:(fun () -> !now) ~sink () in
  Trace.span t "outer" (fun () ->
      now := 1.0;
      Trace.span t "inner" (fun () -> now := 1.5));
  (match events () with
  | [ b_outer; b_inner; e_inner; e_outer ] ->
    (match (b_outer.Event.payload, b_inner.Event.payload) with
    | Event.Span_begin { name = n1 }, Event.Span_begin { name = n2 } ->
      Alcotest.(check string) "outer first" "outer" n1;
      Alcotest.(check string) "inner nested" "inner" n2;
      Alcotest.(check bool) "outer has no parent" true
        (b_outer.Event.span = None);
      Alcotest.(check bool) "inner has a parent" true
        (b_inner.Event.span <> None)
    | _ -> Alcotest.fail "expected two span_begin events");
    (match (e_inner.Event.payload, e_outer.Event.payload) with
    | Event.Span_end { elapsed = e1; _ }, Event.Span_end { elapsed = e2; _ } ->
      near "inner elapsed" 0.5 e1;
      near "outer elapsed" 1.5 e2
    | _ -> Alcotest.fail "expected two span_end events");
    (* Sequence numbers are dense from zero. *)
    Alcotest.(check (list int)) "seqs" [ 0; 1; 2; 3 ]
      (List.map (fun e -> e.Event.seq) (events ()))
  | es -> Alcotest.failf "expected 4 events, got %d" (List.length es));
  (* A span body that raises still closes its span. *)
  (try Trace.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  let kinds = List.map (fun e -> Event.kind e.Event.payload) (events ()) in
  Alcotest.(check (list string)) "span closed on exception"
    [ "span_begin"; "span_begin"; "span_end"; "span_end"; "span_begin";
      "span_end" ]
    kinds

let test_gauges () =
  let t = Trace.create () in
  Trace.gauge t "cpu_seconds" 1.0;
  Trace.gauge t "cpu_seconds" 2.0;
  Trace.gauge t "backoff" 0.5;
  Alcotest.(check (list (pair string (float 0.)))) "latest value per name"
    [ ("backoff", 0.5); ("cpu_seconds", 2.0) ]
    (Trace.gauges t)

let test_taps () =
  let off = Trace.create () in
  Trace.tap off ~pid:7 ~op:"scan" ~rows:10;
  Alcotest.(check bool) "taps are opt-in" true (Trace.tap_rows off 7 = None);
  let t = Trace.create ~taps:true () in
  Trace.tap t ~pid:7 ~op:"scan" ~rows:10;
  Trace.tap t ~pid:7 ~op:"scan" ~rows:5;
  Trace.tap t ~pid:9 ~op:"filter" ~rows:0;
  Alcotest.(check (option int)) "rows accumulate" (Some 15) (Trace.tap_rows t 7);
  Alcotest.(check (option int)) "zero-row tap recorded" (Some 0)
    (Trace.tap_rows t 9);
  Alcotest.(check bool) "untapped node absent" true (Trace.tap_rows t 8 = None);
  Alcotest.(check bool) "batches counted" true
    (List.mem (7, "scan", 15, 2) (Trace.taps t))

(* --- event wire format ----------------------------------------------------- *)

let test_flush_emits_valid_events () =
  (* Everything a real run emits — spans, gauges, then counter and tap
     totals at flush — must pass the validator the CI smoke job uses. *)
  let sink, events = Sink.memory () in
  let t = Trace.create ~clock:(fun () -> 0.) ~sink ~taps:true () in
  Trace.span t "run" (fun () ->
      Trace.add t Counter.Rows_out 42;
      Trace.incr t Counter.Logical_reads;
      Trace.tap t ~pid:3 ~op:"hash_join" ~rows:42;
      Trace.gauge t "cpu_seconds" 0.25);
  Trace.flush t;
  let es = events () in
  Alcotest.(check bool) "flush emitted counter totals" true
    (List.exists
       (fun e ->
         match e.Event.payload with
         | Event.Count { counter; total; _ } ->
           counter = Counter.Rows_out && total = 42
         | _ -> false)
       es);
  Alcotest.(check bool) "flush emitted tap totals" true
    (List.exists
       (fun e ->
         match e.Event.payload with
         | Event.Tap { pid = 3; rows = 42; _ } -> true
         | _ -> false)
       es);
  List.iter
    (fun e ->
      match Event.validate_json (Event.to_json e) with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "event failed validation: %s (%s)" (Event.to_json e) msg)
    es

let test_validate_rejects () =
  let bad line =
    match Event.validate_json line with
    | Ok () -> Alcotest.failf "validator accepted: %s" line
    | Error _ -> ()
  in
  bad "not json";
  bad "{\"seq\": 0}";
  bad "{\"seq\": -1, \"at\": 0, \"kind\": \"gauge\", \"name\": \"g\", \"value\": 1}";
  bad "{\"seq\": 0, \"at\": 0, \"kind\": \"nonsense\"}";
  (* counter outside the closed taxonomy *)
  bad
    "{\"seq\": 0, \"at\": 0, \"kind\": \"count\", \"counter\": \"bogus\", \
     \"delta\": 1, \"total\": 1}";
  (* wrong field type *)
  bad
    "{\"seq\": 0, \"at\": 0, \"kind\": \"span_end\", \"name\": \"s\", \
     \"elapsed\": \"fast\"}"

(* --- the feedback cache ----------------------------------------------------- *)

let test_feedback_bands () =
  let f = Feedback.create () in
  Alcotest.(check bool) "empty" true (Feedback.selectivity_band f "hv1" = None);
  Feedback.observe_selectivity f "hv1" 0.3;
  Feedback.observe_selectivity f "hv1" 0.5;
  Feedback.observe_selectivity f "hv1" Float.nan;
  (* ignored *)
  Feedback.observe_selectivity f "hv1" (-1.);
  (* ignored *)
  (match Feedback.selectivity_band f "hv1" with
  | Some band ->
    near "band lo" 0.3 band.D.Interval.lo;
    near "band hi" 0.5 band.D.Interval.hi
  | None -> Alcotest.fail "band missing");
  Feedback.observe_rows f ~key:"R|S" 120;
  Feedback.observe_rows f ~key:"R|S" 80;
  Alcotest.(check int) "observation count" 4 (Feedback.observations f);
  Feedback.clear f;
  Alcotest.(check bool) "cleared" true (Feedback.selectivity_band f "hv1" = None)

(* A plain reference for [Feedback]'s bands: mutable float fields moved
   by [Float.min]/[Float.max], which the array version must match bit
   for bit (signed zeros too). *)
module Ref_feedback = struct
  type band = { mutable lo : float; mutable hi : float; mutable n : int }

  let observe table key v =
    if not (Float.is_nan v) && v >= 0. then
      match Hashtbl.find_opt table key with
      | Some b ->
        b.lo <- Float.min b.lo v;
        b.hi <- Float.max b.hi v;
        b.n <- b.n + 1
      | None -> Hashtbl.add table key { lo = v; hi = v; n = 1 }

  let band table key =
    Option.map (fun b -> D.Interval.make b.lo b.hi) (Hashtbl.find_opt table key)

  let bands table =
    Hashtbl.fold (fun k b acc -> (k, D.Interval.make b.lo b.hi) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let observations sels rows =
    let tally t = Hashtbl.fold (fun _ b acc -> acc + b.n) t 0 in
    tally sels + tally rows
end

type fb_op =
  | Sel of string * float
  | Sels of (string * float) list
  | Rows of string * int
  | Read

let show_fb_op = function
  | Sel (var, v) -> Printf.sprintf "Sel %s %h" var v
  | Sels l ->
    Printf.sprintf "Sels [%s]"
      (String.concat "; " (List.map (fun (var, v) -> Printf.sprintf "%s %h" var v) l))
  | Rows (key, n) -> Printf.sprintf "Rows %s %d" key n
  | Read -> "Read"

let fb_vars = [ "p1"; "p2"; "p3" ]

let fb_op_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [ (3, oneofl [ Float.nan; -1.; -0.; 0.; 0.001; 0.25; 0.5; 1.; infinity ]);
        (6, float_bound_inclusive 1.);
        (1, map (fun i -> float_of_int i /. 16.) (int_bound 16)) ]
  in
  let var = oneofl fb_vars in
  frequency
    [ (8, map2 (fun var v -> Sel (var, v)) var value);
      (2, map (fun l -> Sels l) (list_size (int_bound 4) (pair var value)));
      (2, map2 (fun key n -> Rows (key, n))
            (oneofl [ "R1"; "R1|R2" ]) (int_range (-3) 500));
      (1, return Read) ]

let prop_feedback_matches_list_reference =
  QCheck.Test.make ~name:"feedback bands = list reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_fb_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 150) fb_op_gen))
    (fun ops ->
      let f = Feedback.create () in
      let sels = Hashtbl.create 7 and rows = Hashtbl.create 7 in
      (* Marshalled, floats compare bit for bit (signed zeros too). *)
      let bits v = Marshal.to_string v [] in
      let agree () =
        List.for_all
          (fun var ->
            bits (Feedback.selectivity_band f var)
            = bits (Ref_feedback.band sels var))
          fb_vars
        && bits (Feedback.selectivity_dists f) = bits (Ref_feedback.bands sels)
        && Feedback.observations f = Ref_feedback.observations sels rows
      in
      List.for_all
        (function
          | Sel (var, v) ->
            Feedback.observe_selectivity f var v;
            Ref_feedback.observe sels var v;
            true
          | Sels l ->
            Feedback.observe_selectivities f l;
            List.iter (fun (var, v) -> Ref_feedback.observe sels var v) l;
            true
          | Rows (key, n) ->
            Feedback.observe_rows f ~key n;
            Ref_feedback.observe rows key (float_of_int n);
            true
          | Read -> agree ())
        ops
      && agree ())

(* --- observation through the executor --------------------------------------- *)

let scan_instance () =
  let rel =
    D.Relation.make ~name:"S" ~cardinality:500 ~record_bytes:32
      ~attributes:[ D.Attribute.make ~name:"a" ~domain_size:100 ]
  in
  let catalog =
    D.Catalog.create ~page_bytes:1024 ~relations:[ rel ] ~indexes:[] ()
  in
  let query =
    D.Logical.Select
      ( D.Logical.Get_set "S",
        D.Predicate.select ~rel:"S" ~attr:"a" (D.Predicate.Host_var "hv1") )
  in
  (catalog, query)

let test_executor_taps_observe_cardinality () =
  (* Operator taps on the run trace report the true root cardinality —
     the raw material Resilience.observe and Session feedback consume. *)
  let catalog, query = scan_instance () in
  let plan =
    (Result.get_ok (D.Optimizer.optimize ~mode:D.Optimizer.static catalog query))
      .D.Optimizer.plan
  in
  let db = D.Database.build ~seed:5 catalog in
  let env =
    D.Env.of_bindings catalog
      (D.Bindings.make ~selectivities:[ ("hv1", 0.4) ] ~memory_pages:64)
  in
  let obs = Trace.create ~taps:true () in
  (* Tee the pool's I/O into the run trace for the duration, the way
     Executor.run does. *)
  D.Buffer_pool.attach_obs (D.Database.pool db) obs;
  let tuples, _profile =
    Fun.protect
      ~finally:(fun () -> D.Buffer_pool.detach_obs (D.Database.pool db))
      (fun () -> D.Executor.execute db env ~obs plan)
  in
  let n = List.length tuples in
  Alcotest.(check bool) "query produced rows" true (n > 0);
  Alcotest.(check int) "Rows_out counter" n (Trace.get obs Counter.Rows_out);
  Alcotest.(check (option int)) "root tap matches result" (Some n)
    (Trace.tap_rows obs plan.D.Plan.pid);
  Alcotest.(check bool) "I/O teed into the run trace" true
    (Trace.get obs Counter.Logical_reads > 0)

let q2 = D.Queries.chain ~relations:2

let optimize_dynamic ?refine () =
  Result.get_ok
    (D.Optimizer.optimize ?refine
       ~mode:(D.Optimizer.dynamic ())
       q2.D.Queries.catalog q2.D.Queries.query)

(* The two session tests run once on the default supervisor and once
   with checkpoints on, so the closed loop holds whichever way the
   supervisor takes its observations. *)
let checkpoints_on = D.Resilience.config ~checkpoints:true ()

let test_session_deposits_feedback ?resilience () =
  let session = D.Session.create () in
  let plan = (optimize_dynamic ()).D.Optimizer.plan in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let bindings =
    D.Bindings.make
      ~selectivities:(List.map (fun hv -> (hv, 0.3)) q2.D.Queries.host_vars)
      ~memory_pages:64
  in
  (match D.Session.submit session ?resilience db bindings plan with
  | D.Session.Completed (_, _, rstats) ->
    Alcotest.(check bool) "checkpoints taken iff on" (resilience <> None)
      (rstats.D.Resilience.checkpoints_taken > 0)
  | D.Session.Failed f ->
    Alcotest.failf "unexpected failure: %a" D.Resilience.pp_failure f
  | D.Session.Shed _ -> Alcotest.fail "an idle session must admit");
  let fb = D.Session.feedback session in
  List.iter
    (fun hv ->
      match Feedback.selectivity_band fb hv with
      | Some band ->
        near (hv ^ " band lo") 0.3 band.D.Interval.lo;
        near (hv ^ " band hi") 0.3 band.D.Interval.hi
      | None -> Alcotest.failf "no selectivity band for %s" hv)
    q2.D.Queries.host_vars;
  (* The run trace Session.submit makes for itself has no taps, and a
     completed run files only its bound selectivities: one observation
     per host variable, no operator cardinalities. *)
  Alcotest.(check int) "the serve path files no cardinalities"
    (List.length q2.D.Queries.host_vars)
    (Feedback.observations fb);
  (* The session trace aggregates the run's counters and lifecycle. *)
  let obs = D.Session.obs session in
  Alcotest.(check int) "submitted" 1 (Trace.get obs Counter.Submitted);
  Alcotest.(check int) "completed" 1 (Trace.get obs Counter.Completed);
  Alcotest.(check bool) "run counters folded in" true
    (Trace.get obs Counter.Rows_out > 0)

(* --- acceptance: the closed loop -------------------------------------------- *)

let test_feedback_refines_reoptimization ?resilience () =
  (* Execute a query under a session, then re-optimize the same query
     with the session's refined environment: for the observed parameter
     values the refined plan's interval cost upper bound must not exceed
     the original's — observation can only sharpen the dynamic plan. *)
  let session = D.Session.create () in
  let first = optimize_dynamic () in
  let plan1 = first.D.Optimizer.plan in
  let db = D.Database.build ~seed:11 q2.D.Queries.catalog in
  let bindings =
    D.Bindings.make
      ~selectivities:(List.map (fun hv -> (hv, 0.2)) q2.D.Queries.host_vars)
      ~memory_pages:64
  in
  (match D.Session.submit session ?resilience db bindings plan1 with
  | D.Session.Completed _ -> ()
  | D.Session.Failed f ->
    Alcotest.failf "unexpected failure: %a" D.Resilience.pp_failure f
  | D.Session.Shed _ -> Alcotest.fail "an idle session must admit");
  let second =
    optimize_dynamic ~refine:(D.Session.refined_env session) ()
  in
  let plan2 = second.D.Optimizer.plan in
  let c1 = plan1.D.Plan.total_cost and c2 = plan2.D.Plan.total_cost in
  Alcotest.(check bool)
    (Printf.sprintf "refined hi %.2f <= original hi %.2f" c2.D.Interval.hi
       c1.D.Interval.hi)
    true
    (c2.D.Interval.hi <= c1.D.Interval.hi +. 1e-9);
  Alcotest.(check bool) "refined lo within original contract" true
    (c2.D.Interval.lo >= c1.D.Interval.lo -. 1e-9)

let suite =
  ( "obs",
    [ Alcotest.test_case "null trace is free and inert" `Quick test_null_trace;
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "spans and injected clock" `Quick test_spans_and_clock;
      Alcotest.test_case "gauges" `Quick test_gauges;
      Alcotest.test_case "operator taps" `Quick test_taps;
      Alcotest.test_case "flush emits schema-valid events" `Quick
        test_flush_emits_valid_events;
      Alcotest.test_case "validator rejects malformed events" `Quick
        test_validate_rejects;
      Alcotest.test_case "feedback bands" `Quick test_feedback_bands;
      QCheck_alcotest.to_alcotest prop_feedback_matches_list_reference;
      Alcotest.test_case "executor taps observe cardinality" `Quick
        test_executor_taps_observe_cardinality;
      Alcotest.test_case "session deposits feedback" `Quick
        (test_session_deposits_feedback ?resilience:None);
      Alcotest.test_case "feedback refines re-optimization (acceptance)"
        `Quick (test_feedback_refines_reoptimization ?resilience:None);
      Alcotest.test_case "session deposits feedback, checkpoints on" `Quick
        (test_session_deposits_feedback ~resilience:checkpoints_on);
      Alcotest.test_case "feedback refines re-optimization, checkpoints on"
        `Quick (test_feedback_refines_reoptimization ~resilience:checkpoints_on)
    ] )
