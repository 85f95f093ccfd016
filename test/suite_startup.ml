(* Start-up-time machinery: decision procedures, memoized evaluation,
   resolution, plan shrinking, access-module round-trips. *)

module D = Dqep
module I = D.Interval

let query relations = D.Queries.chain ~relations

let dynamic_plan (q : D.Queries.t) =
  (Result.get_ok
     (D.Optimizer.optimize
        ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
        q.D.Queries.catalog q.D.Queries.query))
    .D.Optimizer.plan

let bindings_for (q : D.Queries.t) ?(seed = 5) n =
  D.Paramgen.bindings ~seed ~trials:n ~host_vars:q.D.Queries.host_vars
    ~uncertain_memory:true ()

let test_resolution_removes_choose () =
  let q = query 3 in
  let plan = dynamic_plan q in
  Alcotest.(check bool) "dynamic plan has choose" true (D.Plan.contains_choose plan);
  List.iter
    (fun b ->
      let env = D.Env.of_bindings q.D.Queries.catalog b in
      let r = D.Startup.resolve env plan in
      Alcotest.(check bool) "no choose after resolve" false
        (D.Plan.contains_choose r.D.Startup.plan);
      Alcotest.(check bool) "resolved plan is smaller" true
        (D.Plan.node_count r.D.Startup.plan <= D.Plan.node_count plan);
      (* Choices are recorded only for choose operators on chosen paths:
         nested alternatives under an unchosen branch decide nothing. *)
      Alcotest.(check bool) "at least one choice" true
        (List.length r.D.Startup.choices >= 1);
      Alcotest.(check bool) "no more choices than operators" true
        (List.length r.D.Startup.choices <= D.Plan.choose_count plan))
    (bindings_for q 5)

let test_evaluation_memoized () =
  (* Every DAG node's cost function is evaluated exactly once (paper,
     Section 4): evaluations = non-choose nodes. *)
  let q = query 3 in
  let plan = dynamic_plan q in
  let b = List.hd (bindings_for q 1) in
  let env = D.Env.of_bindings q.D.Queries.catalog b in
  let _, stats = D.Startup.evaluate env plan in
  let nodes = D.Plan.node_count plan in
  let chooses = D.Plan.choose_count plan in
  Alcotest.(check int) "all nodes visited" nodes stats.D.Startup.nodes_evaluated;
  Alcotest.(check int) "one evaluation per operator node" (nodes - chooses)
    stats.D.Startup.cost_evaluations;
  Alcotest.(check int) "one decision per choose node" chooses
    stats.D.Startup.choose_decisions

let test_resolution_is_minimal () =
  (* The resolved plan's cost equals the evaluated cost of the dynamic
     plan minus decision overheads: the decision procedure picked the
     cheapest alternative everywhere. *)
  let q = query 3 in
  let plan = dynamic_plan q in
  List.iter
    (fun b ->
      let env = D.Env.of_bindings q.D.Queries.catalog b in
      let r = D.Startup.resolve env plan in
      let direct, _ = D.Startup.evaluate env r.D.Startup.plan in
      Alcotest.(check (float 1e-9)) "anticipated = evaluate(resolved)"
        r.D.Startup.anticipated_cost direct)
    (bindings_for q 10)

let test_static_plan_resolves_to_itself () =
  let q = query 2 in
  let static =
    (Result.get_ok
       (D.Optimizer.optimize ~mode:D.Optimizer.static q.D.Queries.catalog
          q.D.Queries.query))
      .D.Optimizer.plan
  in
  let b = List.hd (bindings_for q 1) in
  let env = D.Env.of_bindings q.D.Queries.catalog b in
  let r = D.Startup.resolve env static in
  Alcotest.(check int) "same plan" static.D.Plan.pid r.D.Startup.plan.D.Plan.pid;
  Alcotest.(check (list (pair int int))) "no choices" [] r.D.Startup.choices

(* --- access modules ------------------------------------------------------ *)

let test_access_module_roundtrip () =
  let q = query 3 in
  let plan = dynamic_plan q in
  let encoded = D.Access_module.encode plan in
  let env = D.Env.dynamic q.D.Queries.catalog in
  match D.Access_module.decode env encoded with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
    Alcotest.(check int) "node count preserved" (D.Plan.node_count plan)
      (D.Plan.node_count decoded);
    Alcotest.(check int) "choose count preserved" (D.Plan.choose_count plan)
      (D.Plan.choose_count decoded);
    Alcotest.(check bool) "total cost preserved" true
      (I.equal plan.D.Plan.total_cost decoded.D.Plan.total_cost);
    (* Round-trip is the identity on the encoding. *)
    Alcotest.(check string) "stable encoding" encoded (D.Access_module.encode decoded);
    (* The decoded plan resolves identically. *)
    List.iter
      (fun b ->
        let env = D.Env.of_bindings q.D.Queries.catalog b in
        let a = D.Startup.resolve env plan in
        let d = D.Startup.resolve env decoded in
        Alcotest.(check (float 1e-9)) "same resolution cost"
          a.D.Startup.anticipated_cost d.D.Startup.anticipated_cost)
      (bindings_for q 5)

let test_access_module_escaping () =
  (* Names with spaces, percent signs and unicode survive. *)
  let rel =
    D.Relation.make ~name:"weird rel%name" ~cardinality:10 ~record_bytes:64
      ~attributes:[ D.Attribute.make ~name:"a b" ~domain_size:5 ]
  in
  let catalog = D.Catalog.create ~relations:[ rel ] ~indexes:[] () in
  let query =
    D.Logical.Select
      ( D.Logical.Get_set "weird rel%name",
        D.Predicate.select ~rel:"weird rel%name" ~attr:"a b"
          (D.Predicate.Host_var "host var") )
  in
  let r =
    Result.get_ok (D.Optimizer.optimize ~mode:(D.Optimizer.dynamic ()) catalog query)
  in
  let encoded = D.Access_module.encode r.D.Optimizer.plan in
  match D.Access_module.decode (D.Env.dynamic catalog) encoded with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
    Alcotest.(check string) "stable" encoded (D.Access_module.encode decoded)

let test_access_module_rejects_garbage () =
  let env = D.Env.dynamic (query 1).D.Queries.catalog in
  (match D.Access_module.decode env "not a module" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage");
  match D.Access_module.decode env "dqep-access-module 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted empty module"

let test_sizes () =
  let q = query 2 in
  let plan = dynamic_plan q in
  Alcotest.(check int) "modelled bytes"
    (128 * D.Plan.node_count plan)
    (D.Access_module.modelled_bytes D.Device.default plan);
  Alcotest.(check bool) "real encoding is non-trivial" true
    (D.Access_module.encoded_bytes plan > 100);
  let io = D.Access_module.activation_io_time D.Device.default plan in
  Alcotest.(check (float 1e-12)) "io time at 2MB/s"
    (float_of_int (128 * D.Plan.node_count plan) /. 2e6)
    io

(* --- shrinking ------------------------------------------------------------ *)

let test_shrink_keeps_used_choices () =
  let q = query 3 in
  let plan = dynamic_plan q in
  let catalog = q.D.Queries.catalog in
  let adapt = D.Adapt.create plan in
  let bindings = bindings_for q 50 in
  List.iter
    (fun b ->
      let env = D.Env.of_bindings catalog b in
      D.Adapt.record adapt (D.Startup.resolve env plan))
    bindings;
  Alcotest.(check int) "invocations counted" 50 (D.Adapt.invocations adapt);
  let shrunk = D.Adapt.shrink (D.Env.dynamic catalog) adapt in
  Alcotest.(check bool) "shrunk not larger" true
    (D.Plan.node_count shrunk <= D.Plan.node_count plan);
  (* On the training bindings the shrunk plan must resolve to exactly the
     same costs: every used alternative was kept. *)
  List.iter
    (fun b ->
      let env = D.Env.of_bindings catalog b in
      let full = (D.Startup.resolve env plan).D.Startup.anticipated_cost in
      let small = (D.Startup.resolve env shrunk).D.Startup.anticipated_cost in
      Alcotest.(check (float 1e-9)) "no regret on trained bindings" full small)
    bindings

let test_shrink_without_stats_keeps_all () =
  let q = query 2 in
  let plan = dynamic_plan q in
  let adapt = D.Adapt.create plan in
  let shrunk = D.Adapt.shrink (D.Env.dynamic q.D.Queries.catalog) adapt in
  Alcotest.(check int) "unchanged without statistics" (D.Plan.node_count plan)
    (D.Plan.node_count shrunk)

let test_maybe_replace_threshold () =
  let q = query 2 in
  let plan = dynamic_plan q in
  let catalog = q.D.Queries.catalog in
  let adapt = D.Adapt.create plan in
  let env_dyn = D.Env.dynamic catalog in
  Alcotest.(check bool) "below threshold" false
    (D.Adapt.maybe_replace ~threshold:1 env_dyn adapt);
  let b = List.hd (bindings_for q 1) in
  D.Adapt.record adapt (D.Startup.resolve (D.Env.of_bindings catalog b) plan);
  Alcotest.(check bool) "at threshold" true
    (D.Adapt.maybe_replace ~threshold:1 env_dyn adapt);
  Alcotest.(check int) "stats reset" 0 (D.Adapt.invocations adapt)

(* --- the unified rewrite against the walks it replaced -------------------- *)

let bits (f : float) = Int64.bits_of_float f

let interval_bits (i : I.t) = (bits i.I.lo, bits i.I.hi)

(* Host variables alternate between [sel] and [1 - sel], so multi-way
   plans see skewed as well as uniform bindings. *)
let grid (inst : D.Plangen.instance) =
  List.concat_map
    (fun sel ->
      List.map
        (fun memory_pages ->
          D.Bindings.make ~memory_pages
            ~selectivities:
              (List.mapi
                 (fun i hv -> (hv, if i mod 2 = 0 then sel else 1. -. sel))
                 inst.D.Plangen.host_vars))
        [ 4; 16; 64 ])
    [ 0.05; 0.5; 0.95 ]

(* Compiled start-up programs, [Startup.resolve] and [Adapt.shrink] on
   [Plan.rewrite] reproduce the interpreted evaluator and the old
   extraction and shrinking walks bit for bit: Plangen seeds 1..120, each
   optimized and resolved under the Expected, Worst_case and Quantile
   0.9 postures over a bindings grid, under the bound memory grant and
   under an interval one, and once more with every selectivity unbound —
   plain, with the first choice excluded, and with the first chosen
   alternative overridden.  [evaluate] (cost and stats), [explain] and
   [estimated_rows] are pinned alongside [resolve]. *)
let test_rewrite_matches_legacy_walks () =
  Test_util.with_watchdog ~deadline:300. "rewrite oracle" @@ fun () ->
  let outcome f =
    match f () with
    | v -> Ok v
    | exception D.Startup.Exhausted pid -> Error (Printf.sprintf "exhausted %d" pid)
    | exception Not_found -> Error "not found"
  in
  let evaluations_both name ?overrides ?excluded ~risk env plan =
    let got =
      outcome (fun () ->
          let c, (st : D.Startup.stats) =
            D.Startup.evaluate ~risk ?overrides ?excluded env plan
          in
          (bits c, (st.nodes_evaluated, st.cost_evaluations, st.choose_decisions)))
    in
    let want =
      outcome (fun () ->
          let c, st = Legacy_rewrites.evaluate ~risk ?overrides ?excluded env plan in
          (bits c, st))
    in
    Alcotest.(check bool) (name ^ ": same evaluation") true (got = want);
    let decisions l =
      List.map
        (fun (pid, alts, chosen) ->
          (pid, List.map (fun (a, op, c) -> (a, op, bits c)) alts, chosen))
        l
    in
    let got =
      outcome (fun () ->
          decisions
            (List.map
               (fun (d : D.Startup.decision) ->
                 (d.choose_pid, d.alternatives, d.chosen_pid))
               (D.Startup.explain ~risk ?overrides ?excluded env plan)))
    in
    let want =
      outcome (fun () ->
          decisions (Legacy_rewrites.explain ~risk ?overrides ?excluded env plan))
    in
    Alcotest.(check bool) (name ^ ": same decisions") true (got = want);
    if excluded = None then
      Alcotest.(check bool) (name ^ ": same estimated rows") true
        (bits (D.Startup.estimated_rows ?overrides env plan)
        = bits (Legacy_rewrites.estimated_rows ?overrides env plan))
  in
  let resolve_both name ?overrides ?excluded ~risk env plan =
    evaluations_both name ?overrides ?excluded ~risk env plan;
    let got =
      match D.Startup.resolve ~risk ?overrides ?excluded env plan with
      | r -> Ok r
      | exception D.Startup.Exhausted pid -> Error pid
    in
    let want =
      match Legacy_rewrites.resolve ~risk ?overrides ?excluded env plan with
      | r -> Ok r
      | exception D.Startup.Exhausted pid -> Error pid
    in
    match (got, want) with
    | Error a, Error b -> Alcotest.(check int) (name ^ ": exhausted at") b a
    | Ok r, Ok (chosen, cost, choices) ->
      let shape = Test_util.shape () in
      Alcotest.(check bool) (name ^ ": same shape") true
        (shape r.D.Startup.plan = shape chosen);
      Alcotest.(check int) (name ^ ": same node count")
        (D.Plan.node_count chosen) (D.Plan.node_count r.D.Startup.plan);
      Alcotest.(check (list (pair int int))) (name ^ ": same choices") choices
        r.D.Startup.choices;
      Alcotest.(check bool) (name ^ ": same anticipated cost") true
        (bits cost = bits r.D.Startup.anticipated_cost)
    | _ -> Alcotest.failf "%s: only one side raised Exhausted" name
  in
  (* Plain, with the first choice excluded, with the first chosen
     alternative overridden, with it overridden twice (the first binding
     wins), with overrides and exclusions naming pids outside the plan
     (ignored), and with an override below the excluded alternative. *)
  let check_cases name ~risk env plan =
    resolve_both name ~risk env plan;
    match (D.Startup.resolve ~risk env plan).D.Startup.choices with
    | [] -> ()
    | (_, alt) :: _ ->
      resolve_both (name ^ ", excluded") ~excluded:[ alt ] ~risk env plan;
      resolve_both (name ^ ", overridden") ~overrides:[ (alt, 7.) ] ~risk env plan;
      resolve_both (name ^ ", overridden twice")
        ~overrides:[ (alt, 7.); (alt, 11.) ] ~risk env plan;
      resolve_both (name ^ ", foreign pids")
        ~overrides:[ (-1, 3.); (alt, 7.) ] ~excluded:[ -2; max_int ] ~risk env
        plan;
      let below = ref None in
      D.Plan.iter
        (fun (p : D.Plan.t) ->
          match p.D.Plan.inputs with
          | (c : D.Plan.t) :: _ when p.D.Plan.pid = alt ->
            below := Some c.D.Plan.pid
          | _ -> ())
        plan;
      Option.iter
        (fun child ->
          resolve_both (name ^ ", overridden below the exclusion")
            ~overrides:[ (child, 5.) ] ~excluded:[ alt ] ~risk env plan)
        !below
  in
  List.iter
    (fun seed ->
      let inst = D.Plangen.generate ~seed in
      let catalog = inst.D.Plangen.catalog in
      let bindings = grid inst in
      List.iter
        (fun risk ->
          let options = { D.Optimizer.default_options with risk } in
          let plan =
            (Result.get_ok
               (D.Optimizer.optimize ~options ~mode:(D.Optimizer.dynamic ())
                  catalog inst.D.Plangen.query))
              .D.Optimizer.plan
          in
          let adapt = D.Adapt.create plan in
          List.iteri
            (fun i b ->
              let name =
                Printf.sprintf "seed %d, %s, bindings %d" seed
                  (D.Risk.to_string risk) i
              in
              let point = D.Env.of_bindings catalog b in
              let r = D.Startup.resolve ~risk point plan in
              (* Train on a third of the grid, so some choose nodes keep
                 every alternative for lack of statistics. *)
              if i mod 3 = 0 then D.Adapt.record adapt r;
              check_cases name ~risk point plan;
              check_cases (name ^ ", interval memory") ~risk
                (D.Env.with_memory_pages point (I.make 16. 112.))
                plan)
            bindings;
          (* Unbound selectivities too: interval rows reach the cost
             formulas' two corners with different inputs. *)
          check_cases
            (Printf.sprintf "seed %d, %s, unbound" seed (D.Risk.to_string risk))
            ~risk
            (D.Env.dynamic ~memory:(I.make 16. 112.) catalog)
            plan;
          let name = Printf.sprintf "seed %d, %s, shrink" seed (D.Risk.to_string risk) in
          let used =
            List.concat_map
              (fun b ->
                (D.Startup.resolve ~risk (D.Env.of_bindings catalog b) plan)
                  .D.Startup.choices)
              (List.filteri (fun i _ -> i mod 3 = 0) bindings)
          in
          let env = D.Env.dynamic catalog in
          let got = D.Adapt.shrink env adapt in
          let want = Legacy_rewrites.shrink env ~used plan in
          Alcotest.(check int) (name ^ ": node count") (D.Plan.node_count want)
            (D.Plan.node_count got);
          Alcotest.(check int) (name ^ ": choose count")
            (D.Plan.choose_count want) (D.Plan.choose_count got);
          Alcotest.(check bool) (name ^ ": root cost") true
            (interval_bits got.D.Plan.total_cost
            = interval_bits want.D.Plan.total_cost);
          List.iter
            (fun b ->
              let env = D.Env.of_bindings catalog b in
              let cost p = (D.Startup.resolve ~risk env p).D.Startup.anticipated_cost in
              Alcotest.(check bool) (name ^ ": resolved cost") true
                (bits (cost got) = bits (cost want)))
            bindings)
        [ D.Risk.Expected; D.Risk.Worst_case; D.Risk.Quantile 0.9 ])
    (List.init 120 (fun i -> i + 1))

(* [explain] with one override on each node that has a choose node
   below it, on the 3- to 5-way chains.  A choose node only that
   override reaches was never evaluated: it made no decision and is not
   listed (it used to raise [Not_found] while [evaluate] and [resolve]
   succeeded).  Every listing matches the interpreted oracle's. *)
let test_explain_skips_unevaluated_chooses () =
  let skipped = ref 0 in
  List.iter
    (fun relations ->
      let q = query relations in
      let plan = dynamic_plan q in
      let env = D.Env.of_bindings q.D.Queries.catalog (List.hd (bindings_for q 1)) in
      let is_choose (p : D.Plan.t) = p.D.Plan.op = D.Physical.Choose_plan in
      let below = Hashtbl.create 64 in
      let rec choose_below (p : D.Plan.t) =
        match Hashtbl.find_opt below p.D.Plan.pid with
        | Some b -> b
        | None ->
          let b =
            List.exists (fun c -> is_choose c || choose_below c) p.D.Plan.inputs
          in
          Hashtbl.add below p.D.Plan.pid b;
          b
      in
      let decided l =
        List.map (fun (d : D.Startup.decision) -> d.D.Startup.choose_pid) l
      in
      let everywhere = decided (D.Startup.explain env plan) in
      D.Plan.iter
        (fun (p : D.Plan.t) ->
          if choose_below p then begin
            let overrides = [ (p.D.Plan.pid, 10.) ] in
            let name = Printf.sprintf "%d-way, override #%d" relations p.D.Plan.pid in
            let got = D.Startup.explain ~overrides env plan in
            let want = Legacy_rewrites.explain ~overrides env plan in
            let listing (pid, alts, chosen) =
              (pid, List.map (fun (a, op, c) -> (a, op, bits c)) alts, chosen)
            in
            Alcotest.(check bool) (name ^ ": same decisions as the oracle") true
              (List.map
                 (fun (d : D.Startup.decision) ->
                   listing
                     ( d.D.Startup.choose_pid,
                       d.D.Startup.alternatives,
                       d.D.Startup.chosen_pid ))
                 got
              = List.map listing want);
            Alcotest.(check bool) (name ^ ": the override decides nothing") false
              (List.mem p.D.Plan.pid (decided got));
            let listed = decided got in
            skipped :=
              !skipped
              + List.length
                  (List.filter
                     (fun pid -> pid <> p.D.Plan.pid && not (List.mem pid listed))
                     everywhere);
            ignore (D.Startup.evaluate ~overrides env plan);
            ignore (D.Startup.resolve ~overrides env plan)
          end)
        plan)
    [ 3; 4; 5 ];
  Alcotest.(check bool) "some overrides hide a choose node" true (!skipped > 0)

(* --- the program memo ------------------------------------------------------ *)

(* One resolution as the oracle computes it, in comparable form. *)
let summary shape (plan, cost, choices) = (shape plan, choices, bits cost)

let resolution_summary shape (r : D.Startup.resolution) =
  summary shape (r.D.Startup.plan, r.D.Startup.anticipated_cost, r.D.Startup.choices)

let rescaled catalog factor =
  let module C = D.Catalog in
  let module R = D.Relation in
  C.create ~page_bytes:(C.page_bytes catalog)
    ~relations:
      (List.map
         (fun (r : R.t) ->
           R.make ~name:r.R.name ~cardinality:(r.R.cardinality * factor)
             ~record_bytes:r.R.record_bytes ~attributes:r.R.attributes)
         (C.relations catalog))
    ~indexes:(C.indexes catalog) ()

(* A program is memoized per (plan, catalog): resolving under catalog A,
   then a rescaled catalog B, then A again answers each time as the
   interpreted oracle does under that activation's own catalog — through
   the uncached first activation, the compiling second and the memoized
   third. *)
let test_memo_follows_the_catalog () =
  let q = query 3 in
  let plan = dynamic_plan q in
  let a = q.D.Queries.catalog in
  let b = rescaled a 7 in
  let shape = Test_util.shape () in
  let differs = ref false in
  List.iter
    (fun bnd ->
      let under catalog = D.Env.of_bindings catalog bnd in
      let want catalog = summary shape (Legacy_rewrites.resolve (under catalog) plan) in
      differs := !differs || want a <> want b;
      List.iter
        (fun (name, catalog) ->
          let env = under catalog in
          for activation = 1 to 3 do
            Alcotest.(check bool)
              (Printf.sprintf "catalog %s, activation %d" name activation)
              true
              (resolution_summary shape (D.Startup.resolve env plan) = want catalog)
          done;
          Alcotest.(check bool) (name ^ ": program kept") true
            (D.Startup.retained env plan))
        [ ("A", a); ("B", b); ("A again", a) ])
    (bindings_for q 4);
  Alcotest.(check bool) "the rescaled catalog changes some resolution" true
    !differs

(* Eight plans shaped like the hit_point workload's (2- to 5-way chains,
   with and without an uncertain memory grant), resolved by four domains
   at once while their programs are compiled, stored and shared: every
   domain gets the sequential answer. *)
let test_memo_shared_across_domains () =
  let cases =
    List.concat_map
      (fun relations ->
        let q = query relations in
        List.concat_map
          (fun uncertain_memory ->
            let plan =
              (Result.get_ok
                 (D.Optimizer.optimize
                    ~mode:(D.Optimizer.dynamic ~uncertain_memory ())
                    q.D.Queries.catalog q.D.Queries.query))
                .D.Optimizer.plan
            in
            List.map
              (fun b -> (D.Env.of_bindings q.D.Queries.catalog b, plan))
              (bindings_for q 4))
          [ true; false ])
      [ 2; 3; 4; 5 ]
  in
  let shape = Test_util.shape () in
  let want =
    List.map (fun (env, plan) -> summary shape (Legacy_rewrites.resolve env plan)) cases
  in
  let rounds = 25 in
  let resolve_all start =
    (* Each domain walks the cases from its own offset, so first and
       second activations of a plan race across domains. *)
    let n = List.length cases in
    let arr = Array.of_list cases in
    List.init (rounds * n) (fun k ->
        let i = (start + k) mod n in
        let env, plan = arr.(i) in
        let r = D.Startup.resolve env plan in
        (i, (r.D.Startup.plan, r.D.Startup.anticipated_cost, r.D.Startup.choices)))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (fun () -> resolve_all (d * 5))) in
  let want = Array.of_list want in
  List.iter
    (fun d ->
      List.iter
        (fun (i, got) ->
          Alcotest.(check bool)
            (Printf.sprintf "case %d matches the sequential answer" i)
            true
            (summary shape got = want.(i)))
        (Domain.join d))
    domains

(* The first activation of a plan compiles, runs and keeps nothing: N
   fresh plans each resolved once leave only the memo's bounded markers
   behind, while resolving them again keeps a program per plan. *)
let test_memo_keeps_no_once_activated_program () =
  let q = query 2 in
  let env = D.Env.of_bindings q.D.Queries.catalog (List.hd (bindings_for q 1)) in
  let n = 64 in
  let plans = Array.init n (fun _ -> dynamic_plan q) in
  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let resolve_all () = Array.iter (fun p -> ignore (D.Startup.resolve env p)) plans in
  let before = live_words () in
  resolve_all ();
  let once = live_words () in
  Alcotest.(check int) "no program kept after one activation" 0
    (Array.fold_left
       (fun acc p -> if D.Startup.retained env p then acc + 1 else acc)
       0 plans);
  resolve_all ();
  let twice = live_words () in
  let kept =
    Array.fold_left
      (fun acc p -> if D.Startup.retained env p then acc + 1 else acc)
      0 plans
  in
  Alcotest.(check bool) "second activations keep programs" true (kept > n / 2);
  (* A marker is one small ephemeron per memo slot; a program holds
     arrays over all of a plan's nodes. *)
  Alcotest.(check bool)
    (Printf.sprintf "once-activated plans add at most 16 words each (%d)"
       (once - before))
    true
    (once - before <= 16 * n);
  Alcotest.(check bool)
    (Printf.sprintf "a kept program outweighs a marker (%d words for %d)"
       (twice - once) kept)
    true
    (twice - once > 64 * kept);
  ignore (Sys.opaque_identity plans)

(* The serving soak's drifted shape borrows databases that lack an index
   its cached plan uses; with programs memoized per (plan, catalog) its
   requests still complete on a pruned plan or end infeasible, and none
   is rejected as a corrupt plan. *)
let test_memo_drifted_serve_soak () =
  let t =
    Test_util.with_watchdog ~deadline:120. "startup: drifted serve soak"
      (fun () ->
        D.Experiments.Chaos.serve_soak ~clients:2 ~requests:240 ~seed:3 ())
  in
  Alcotest.(check int) "no drifted request rejected" 0
    t.D.Experiments.Chaos.drifted_rejected;
  Alcotest.(check bool) "drifted requests reached activation" true
    (t.D.Experiments.Chaos.drifted_ok + t.D.Experiments.Chaos.drifted_infeasible > 0)

let suite =
  ( "startup",
    [ Alcotest.test_case "resolution removes choose" `Quick
        test_resolution_removes_choose;
      Alcotest.test_case "evaluation memoized per node" `Quick
        test_evaluation_memoized;
      Alcotest.test_case "resolution picks the minimum" `Quick
        test_resolution_is_minimal;
      Alcotest.test_case "static plans resolve to themselves" `Quick
        test_static_plan_resolves_to_itself;
      Alcotest.test_case "access module round-trip" `Quick
        test_access_module_roundtrip;
      Alcotest.test_case "access module escaping" `Quick test_access_module_escaping;
      Alcotest.test_case "access module rejects garbage" `Quick
        test_access_module_rejects_garbage;
      Alcotest.test_case "access module sizes" `Quick test_sizes;
      Alcotest.test_case "shrink keeps used choices" `Quick
        test_shrink_keeps_used_choices;
      Alcotest.test_case "shrink without stats keeps all" `Quick
        test_shrink_without_stats_keeps_all;
      Alcotest.test_case "maybe_replace threshold" `Quick test_maybe_replace_threshold;
      Alcotest.test_case "rewrite matches the legacy walks" `Slow
        test_rewrite_matches_legacy_walks;
      Alcotest.test_case "explain skips choose nodes an override hides" `Quick
        test_explain_skips_unevaluated_chooses;
      Alcotest.test_case "program memo follows the catalog" `Quick
        test_memo_follows_the_catalog;
      Alcotest.test_case "program memo shared across domains" `Quick
        test_memo_shared_across_domains;
      Alcotest.test_case "program memo keeps no once-activated program" `Quick
        test_memo_keeps_no_once_activated_program;
      Alcotest.test_case "program memo: drifted serve soak" `Quick
        test_memo_drifted_serve_soak ] )
