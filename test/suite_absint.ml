(* The abstract interpreter's soundness contracts, enforced by running
   real executions against the static verdicts:

   1. Certificate soundness fuzz (qcheck over Plangen):
      a plan certified at [worst_bytes] runs to completion under a
      governor granted exactly that — never [Memory_exceeded].
   2. Doom differential: when the demand floor exceeds a budget, the
      run under that budget really does die with [Memory_exceeded]
      (the lower bound is a bound on every execution, not a guess).
   3. Checkpointed variant: with the registry holding materializations,
      the [~checkpoints:true] certificate still rules out memory death.
   4. Session admission precheck: a statically doomed plan is rejected
      (DQEP503) without executing; with [precheck:false] the same
      submission dies at run time instead.
   5. Fingerprint oracle: [Plan.fingerprints]' one pass equals the
      subtree walk it replaced on every node of Plangen, corpus and
      two-selection plans.
   6. Region values: the start-up program evaluated over boxes
      reproduces the region evaluator it replaced, value and miss count
      alike, on every box an analysis sweeps.
   7. Point in box (qcheck over Plangen and the corpus): start-up's
      point total and rows at any point of a box lie within the box's
      values. *)

module D = Dqep
module I = D.Interval
module Dg = D.Diagnostic

let optimize_exn ~mode catalog query =
  Result.get_ok (D.Optimizer.optimize ~mode catalog query)

let modes =
  [ ("static", D.Optimizer.static);
    ("dynamic", D.Optimizer.dynamic ~uncertain_memory:true ()) ]

(* --- 1. certificate soundness fuzz --------------------------------------- *)

(* One Plangen instance, both modes, three binding draws:
   execution under a governor granted exactly [worst_bytes] must never
   hit the memory budget.  Checkpoints stay off (the certificate's
   default contract) and the I/O guard is irrelevant — the governor
   carries only memory. *)
let certificate_sound_for ~seed =
  let inst = D.Plangen.generate ~seed in
  let catalog = inst.D.Plangen.catalog in
  let db = D.Database.build ~seed:((seed * 31) + 1) catalog in
  List.iter
    (fun (mode_name, mode) ->
      let r = optimize_exn ~mode catalog inst.D.Plangen.query in
      let cert =
        D.Absint.certificate ~checkpoints:false r.D.Optimizer.env
          r.D.Optimizer.plan
      in
      List.iter
        (fun bseed ->
          let b = D.Plangen.bindings inst ~seed:bseed in
          let grant = Int.max 1 cert.D.Absint.worst_bytes in
          match
            D.Executor.run db
              ~gov:(D.Governor.create ~memory_bytes:grant ())
              b r.D.Optimizer.plan
          with
          | tuples, _ ->
            let n = float_of_int (List.length tuples) in
            if
              n < cert.D.Absint.rows.I.lo -. 0.5
              || n > cert.D.Absint.rows.I.hi +. 0.5
            then
              Alcotest.failf
                "seed %d %s: %d rows escape the certificate's data-sound \
                 band %s"
                seed mode_name (List.length tuples)
                (I.to_string cert.D.Absint.rows)
          | exception D.Governor.Memory_exceeded { budget; in_use; requested }
            ->
            Alcotest.failf
              "seed %d %s: certified at %d bytes but the run demanded %d \
               over %d in use"
              seed mode_name budget requested in_use)
        [ seed + 1; seed + 2; seed + 3 ])
    modes

let prop_certificate_sound =
  QCheck.Test.make ~name:"certificate admits its own executions" ~count:25
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "plangen seed %d" s)
       QCheck.Gen.(int_range 1 500))
    (fun seed ->
      certificate_sound_for ~seed;
      true)

(* --- 2. doom differential ------------------------------------------------- *)

(* An unselective join: no filter sits between the scans and the join,
   so the data-sound row lower bounds stay at the catalog cardinalities
   and the blocking operators' demand floor is genuinely positive.
   (Under a filter the floor correctly collapses to ~0 — real data may
   select nothing, and then nothing is ever materialized.) *)
let unfiltered_join () =
  let rel name =
    D.Relation.make ~name ~cardinality:200 ~record_bytes:256
      ~attributes:[ D.Attribute.make ~name:"j" ~domain_size:8 ]
  in
  let catalog =
    D.Catalog.create ~relations:[ rel "R"; rel "S" ] ~indexes:[] ()
  in
  let query =
    D.Logical.Join
      ( D.Logical.Get_set "R",
        D.Logical.Get_set "S",
        [ D.Predicate.equi
            ~left:(D.Col.make ~rel:"R" ~attr:"j")
            ~right:(D.Col.make ~rel:"S" ~attr:"j") ] )
  in
  (catalog, query)

(* Sweep budgets from starvation upward, over Plangen plans (where
   filters keep the floor at zero) and the unfiltered join (where they
   don't).  Whenever the static floor says "doomed" the run must die
   with [Memory_exceeded]; the sweep also has to find at least one
   doomed and one undoomed case or it proves nothing. *)
let test_doomed_floor_kills () =
  let doomed = ref 0 and undoomed = ref 0 in
  let budgets = [ 2 * 1024; 16 * 1024; 256 * 1024; 4 * 1024 * 1024 ] in
  let sweep name catalog query b db =
    let r =
      optimize_exn
        ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
        catalog query
    in
    List.iter
      (fun budget ->
        let floor =
          D.Absint.guaranteed_bytes r.D.Optimizer.env ~budget_bytes:budget
            (D.Plan.Dag.of_plan r.D.Optimizer.plan)
        in
        if floor > budget then begin
          incr doomed;
          match
            D.Executor.run db
              ~gov:(D.Governor.create ~memory_bytes:budget ())
              b r.D.Optimizer.plan
          with
          | _ ->
            Alcotest.failf
              "%s: floor %d > budget %d yet the run completed" name floor
              budget
          | exception D.Governor.Memory_exceeded _ -> ()
        end
        else incr undoomed)
      budgets
  in
  let catalog, query = unfiltered_join () in
  sweep "unfiltered join" catalog query
    (D.Bindings.make ~selectivities:[] ~memory_pages:64)
    (D.Database.build ~seed:5 catalog);
  for seed = 1 to 12 do
    let inst = D.Plangen.generate ~seed in
    sweep
      (Printf.sprintf "plangen %d" seed)
      inst.D.Plangen.catalog inst.D.Plangen.query
      (D.Plangen.bindings inst ~seed:(seed + 7))
      (D.Database.build ~seed:((seed * 31) + 1) inst.D.Plangen.catalog)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "sweep saw both verdicts (%d doomed, %d ok)" !doomed
       !undoomed)
    true
    (!doomed > 0 && !undoomed > 0)

(* --- 3. checkpointed certificate ------------------------------------------ *)

let test_checkpointed_certificate () =
  for seed = 1 to 8 do
    let inst = D.Plangen.generate ~seed in
    let catalog = inst.D.Plangen.catalog in
    let db = D.Database.build ~seed:((seed * 31) + 1) catalog in
    let r =
      optimize_exn
        ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
        catalog inst.D.Plangen.query
    in
    let cert =
      D.Absint.certificate ~checkpoints:true r.D.Optimizer.env
        r.D.Optimizer.plan
    in
    let plain =
      D.Absint.certificate ~checkpoints:false r.D.Optimizer.env
        r.D.Optimizer.plan
    in
    Alcotest.(check bool)
      "checkpoint bytes only add" true
      (cert.D.Absint.worst_bytes >= plain.D.Absint.worst_bytes);
    let b = D.Plangen.bindings inst ~seed:(seed + 7) in
    let config =
      D.Resilience.config ~checkpoints:true ~io_budget_factor:0.
        ~max_retries:0 ()
    in
    let outcome, _ =
      D.Resilience.run ~config
        ~gov:
          (D.Governor.create
             ~memory_bytes:(Int.max 1 cert.D.Absint.worst_bytes)
             ())
        db b r.D.Optimizer.plan
    in
    match outcome with
    | Ok _ -> ()
    | Error (D.Resilience.Memory_exceeded _ as f) ->
      Alcotest.failf "seed %d: checkpointed run broke its certificate: %a"
        seed D.Resilience.pp_failure f
    | Error f ->
      Alcotest.failf "seed %d: unexpected non-memory failure: %a" seed
        D.Resilience.pp_failure f
  done

(* --- 4. session admission precheck ---------------------------------------- *)

let doomed_submission () =
  let catalog, query = unfiltered_join () in
  let r =
    optimize_exn
      ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
      catalog query
  in
  let budget = 2 * 1024 in
  let floor =
    D.Absint.guaranteed_bytes r.D.Optimizer.env ~budget_bytes:budget
      (D.Plan.Dag.of_plan r.D.Optimizer.plan)
  in
  Alcotest.(check bool) "fixture is statically doomed" true (floor > budget);
  let db = D.Database.build ~seed:11 catalog in
  let b = D.Bindings.make ~selectivities:[] ~memory_pages:64 in
  (db, b, r.D.Optimizer.plan, budget)

let test_session_precheck_rejects () =
  let db, b, plan, budget = doomed_submission () in
  let session = D.Session.create () in
  (match
     D.Session.submit session
       ~gov:(D.Governor.create ~memory_bytes:budget ())
       db b plan
   with
  | D.Session.Failed (D.Resilience.Rejected diags) ->
    Alcotest.(check bool)
      (Printf.sprintf "DQEP503 named: %s" (Dg.list_to_string diags))
      true
      (List.exists (fun d -> d.Dg.code = Dg.Budget_unsatisfiable) diags)
  | D.Session.Failed f ->
    Alcotest.failf "expected a precheck rejection, got %a"
      D.Resilience.pp_failure f
  | D.Session.Completed _ -> Alcotest.fail "a doomed plan completed"
  | D.Session.Shed _ -> Alcotest.fail "an idle session must admit");
  Alcotest.(check int) "rejection counted" 1
    (D.Obs.Trace.get (D.Session.obs session) D.Obs.Counter.Rejected_precheck)

let test_session_precheck_off_dies_at_runtime () =
  let db, b, plan, budget = doomed_submission () in
  let session =
    D.Session.create ~config:(D.Session.config ~precheck:false ()) ()
  in
  match
    D.Session.submit session
      ~gov:(D.Governor.create ~memory_bytes:budget ())
      db b plan
  with
  | D.Session.Failed (D.Resilience.Memory_exceeded _) -> ()
  | D.Session.Failed f ->
    Alcotest.failf "expected a run-time memory death, got %a"
      D.Resilience.pp_failure f
  | D.Session.Completed _ -> Alcotest.fail "a doomed plan completed"
  | D.Session.Shed _ -> Alcotest.fail "an idle session must admit"

(* --- 5. fingerprint oracle -------------------------------------------------- *)

(* The one-pass fingerprints equal a subtree walk per node on every node
   of the Plangen plans, the corpus and the two-selection query, static
   and dynamic. *)
let test_fingerprint_oracle () =
  let two_catalog, two_query, _ = Test_util.two_selection_query () in
  let targets =
    List.init 20 (fun i ->
        let inst = D.Plangen.generate ~seed:(i + 1) in
        ( Printf.sprintf "plangen-%d" (i + 1),
          inst.D.Plangen.catalog,
          inst.D.Plangen.query ))
    @ List.map
        (fun (name, (q : D.Queries.t)) ->
          (name, q.D.Queries.catalog, q.D.Queries.query))
        (D.Queries.corpus ())
    @ [ ("two selections", two_catalog, two_query) ]
  in
  List.iter
    (fun (name, catalog, query) ->
      List.iter
        (fun (_, mode) ->
          let dag =
            D.Plan.Dag.of_plan (optimize_exn ~mode catalog query).D.Optimizer.plan
          in
          Array.iteri
            (fun i got ->
              let node = dag.D.Plan.Dag.nodes.(i) in
              let want = Legacy_rewrites.fingerprint node in
              if got <> want then
                Alcotest.failf "%s pid %d: one pass %S vs subtree walk %S" name
                  node.D.Plan.pid got want)
            (D.Plan.fingerprints dag))
        modes)
    targets

(* --- 6. region values against the evaluator they replaced ----------------- *)

(* Plangen seeds and the corpus, each optimized with uncertain memory
   under the three postures: the plans `dqep analyze` sweeps. *)
let analyzed_plans ~seeds =
  let targets =
    List.map
      (fun seed ->
        let inst = D.Plangen.generate ~seed in
        ( Printf.sprintf "plangen-%d" seed,
          inst.D.Plangen.catalog,
          inst.D.Plangen.query ))
      seeds
    @ List.map
        (fun (name, (q : D.Queries.t)) ->
          (name, q.D.Queries.catalog, q.D.Queries.query))
        (D.Queries.corpus ())
  in
  List.concat_map
    (fun (name, catalog, query) ->
      List.map
        (fun risk ->
          let options = { D.Optimizer.default_options with risk } in
          let r =
            Result.get_ok
              (D.Optimizer.optimize ~options
                 ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
                 catalog query)
          in
          ( Printf.sprintf "%s, %s" name (D.Risk.to_string risk),
            r.D.Optimizer.env,
            r.D.Optimizer.plan ))
        [ D.Risk.Worst_case; D.Risk.Expected; D.Risk.Quantile 0.9 ])
    targets

let bits = Int64.bits_of_float
let interval_bits (i : I.t) = (bits i.I.lo, bits i.I.hi)

let value_bits (v : D.Absint.value) =
  (interval_bits v.D.Absint.rows, interval_bits v.D.Absint.total)

let region_bits (r : D.Absint.region) =
  ( List.map (fun (v, iv) -> (v, interval_bits iv)) r.D.Absint.sels,
    interval_bits r.D.Absint.memory )

(* Every node's rows and total, compared as bits, on the full region and
   every box of its subdivision, in the analyses' order: full region
   first, then box by box.  The miss counts must agree after every
   region, since the analyses' work budgets are counted in them.  Then
   two fresh evaluators answer two regions' lookups interleaved, root
   first. *)
let test_region_values_match_legacy () =
  Test_util.with_watchdog ~deadline:300. "region value oracle" @@ fun () ->
  List.iter
    (fun (name, env, plan) ->
      let dag = D.Plan.Dag.of_plan plan in
      let n = dag.D.Plan.Dag.length in
      let got = D.Absint.evaluator ~infeasible:(fun _ -> false) env dag in
      let want = Legacy_rewrites.Region.evaluator env dag in
      let full = got.D.Absint.full in
      Alcotest.(check bool) (name ^ ": same full region") true
        (region_bits full = region_bits (Legacy_rewrites.Region.full_region env plan));
      let regions = full :: D.Absint.subdivide full ~max_regions:64 in
      List.iteri
        (fun r region ->
          let g = got.D.Absint.value region
          and w = want.Legacy_rewrites.Region.value region in
          for i = 0 to n - 1 do
            if value_bits (g i) <> value_bits (w i) then
              Alcotest.failf "%s: region %d (%a), node %d: %s/%s, want %s/%s"
                name r D.Absint.pp_region region i
                (I.to_string (g i).D.Absint.rows)
                (I.to_string (g i).D.Absint.total)
                (I.to_string (w i).D.Absint.rows)
                (I.to_string (w i).D.Absint.total)
          done;
          Alcotest.(check int)
            (Printf.sprintf "%s: work after region %d" name r)
            (want.Legacy_rewrites.Region.work ())
            (got.D.Absint.work ()))
        regions;
      match regions with
      | _ :: a :: b :: _ ->
        let got = D.Absint.evaluator ~infeasible:(fun _ -> false) env dag in
        let want = Legacy_rewrites.Region.evaluator env dag in
        let ga = got.D.Absint.value a and gb = got.D.Absint.value b in
        let wa = want.Legacy_rewrites.Region.value a
        and wb = want.Legacy_rewrites.Region.value b in
        for i = n - 1 downto 0 do
          if
            value_bits (ga i) <> value_bits (wa i)
            || value_bits (gb i) <> value_bits (wb i)
          then Alcotest.failf "%s: interleaved regions, node %d" name i
        done;
        Alcotest.(check int) (name ^ ": interleaved work")
          (want.Legacy_rewrites.Region.work ())
          (got.D.Absint.work ())
      | _ -> ())
    (analyzed_plans ~seeds:(List.init 120 (fun i -> i + 1)))

(* The same comparison against catalogs that drifted after optimization
   (an attribute dropped, or a whole relation): nodes the catalog cannot
   resolve keep their recorded rows, and a node whose cost cannot be
   formed raises, on both sides, at the same lookups and miss counts. *)
let test_region_values_match_legacy_drifted () =
  let outcome f =
    match f () with
    | v -> Ok (value_bits v)
    | exception e -> Error (Printexc.to_string e)
  in
  for seed = 1 to 30 do
    let inst = D.Plangen.generate ~seed in
    let catalog = inst.D.Plangen.catalog in
    let plan =
      (optimize_exn
         ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
         catalog inst.D.Plangen.query)
        .D.Optimizer.plan
    in
    let dag = D.Plan.Dag.of_plan plan in
    let drifts =
      match D.Catalog.relations catalog with
      | (r : D.Relation.t) :: rest ->
        let module C = D.Catalog in
        (match r.D.Relation.attributes with
        | a :: _ ->
          [ Test_util.without_attribute catalog ~rel:r.D.Relation.name
              ~attr:a.D.Attribute.name ]
        | [] -> [])
        @ [ C.create ~page_bytes:(C.page_bytes catalog) ~relations:rest
              ~indexes:
                (List.filter
                   (fun (i : D.Index.t) ->
                     i.D.Index.relation <> r.D.Relation.name)
                   (C.indexes catalog))
              () ]
      | [] -> []
    in
    List.iteri
      (fun d drifted ->
        let name = Printf.sprintf "seed %d, drift %d" seed d in
        let env = D.Env.dynamic ~memory:(I.make 16. 112.) drifted in
        let got = D.Absint.evaluator ~infeasible:(fun _ -> false) env dag in
        let want = Legacy_rewrites.Region.evaluator env dag in
        let full = got.D.Absint.full in
        List.iteri
          (fun r region ->
            let g = got.D.Absint.value region
            and w = want.Legacy_rewrites.Region.value region in
            for i = dag.D.Plan.Dag.length - 1 downto 0 do
              if outcome (fun () -> g i) <> outcome (fun () -> w i) then
                Alcotest.failf "%s: region %d, node %d differs" name r i
            done;
            Alcotest.(check int)
              (Printf.sprintf "%s: work after region %d" name r)
              (want.Legacy_rewrites.Region.work ())
              (got.D.Absint.work ()))
          (full :: D.Absint.subdivide full ~max_regions:8))
      drifts
  done

(* --- 7. start-up's point values lie in the box values --------------------- *)

(* A box of [full] with random bounds inside each dimension, and a
   random point inside the box. *)
let box_and_point rand (full : D.Absint.region) =
  let draw (iv : I.t) =
    let at u = iv.I.lo +. (u *. (iv.I.hi -. iv.I.lo)) in
    let a = at (Random.State.float rand 1.)
    and b = at (Random.State.float rand 1.) in
    let box = I.make (Float.min a b) (Float.max a b) in
    let x = at (Random.State.float rand 1.) in
    (box, Float.max box.I.lo (Float.min box.I.hi x))
  in
  let sels = List.map (fun (v, iv) -> (v, draw iv)) full.D.Absint.sels in
  let memory, mem = draw full.D.Absint.memory in
  ( { D.Absint.sels = List.map (fun (v, (box, _)) -> (v, box)) sels; memory },
    List.map (fun (v, (_, x)) -> (v, x)) sels,
    mem )

let prop_point_in_box =
  let cases =
    lazy
      (Array.of_list
         (List.map
            (fun (name, env, plan) ->
              let dag = D.Plan.Dag.of_plan plan in
              ( name,
                env,
                plan,
                dag.D.Plan.Dag.length - 1,
                D.Absint.evaluator ~infeasible:(fun _ -> false) env dag ))
            (analyzed_plans ~seeds:(List.init 40 (fun i -> i + 1)))))
  in
  QCheck.Test.make ~name:"start-up's point values lie within the box values"
    ~count:400
    QCheck.(pair small_nat int)
    (fun (c, seed) ->
      let cases = Lazy.force cases in
      let name, env, plan, root, ev = cases.(c mod Array.length cases) in
      let rand = Random.State.make [| seed |] in
      let region, sels, mem = box_and_point rand ev.D.Absint.full in
      let point =
        D.Env.make ~catalog:(D.Env.catalog env) ~device:(D.Env.device env)
          ~selectivity:(fun v ->
            I.point (Option.value ~default:0.5 (List.assoc_opt v sels)))
          ~memory_pages:(I.point mem) ()
      in
      let total, _ = D.Startup.evaluate point plan in
      let rows = D.Startup.estimated_rows point plan in
      let v = ev.D.Absint.value region root in
      let inside (iv : I.t) x = iv.I.lo <= x && x <= iv.I.hi in
      inside v.D.Absint.total total && inside v.D.Absint.rows rows
      || QCheck.Test.fail_reportf
           "%s: box %a, point mem=%g: total %h in %a, rows %h in %a" name
           D.Absint.pp_region region mem total I.pp v.D.Absint.total rows I.pp
           v.D.Absint.rows)

let suite =
  ( "absint",
    [ QCheck_alcotest.to_alcotest prop_certificate_sound;
      Alcotest.test_case "doomed floors kill their runs" `Slow
        test_doomed_floor_kills;
      Alcotest.test_case "checkpointed certificate holds" `Slow
        test_checkpointed_certificate;
      Alcotest.test_case "session precheck rejects doomed plans" `Quick
        test_session_precheck_rejects;
      Alcotest.test_case "precheck off: same plan dies at run time" `Quick
        test_session_precheck_off_dies_at_runtime;
      Alcotest.test_case "fingerprints: one pass == subtree walk" `Quick
        test_fingerprint_oracle;
      Alcotest.test_case "region values match the legacy evaluator" `Slow
        test_region_values_match_legacy;
      Alcotest.test_case "region values match it under catalog drift" `Quick
        test_region_values_match_legacy_drifted;
      QCheck_alcotest.to_alcotest prop_point_in_box ] )
