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
   4. Dead-alternative pruning: a seeded plan with a dominated
      alternative is pruned, and the pruned plan is result-equivalent
      across a grid of bindings; survivors never returns an empty set.
   5. Session admission precheck: a statically doomed plan is rejected
      (DQEP503) without executing; with [precheck:false] the same
      submission dies at run time instead.
   6. Fingerprint lockstep: [Analyses.fingerprint] (analysis layer) and
      [Checkpoint.fingerprint] (execution layer) agree on every node of
      every optimized Plangen plan. *)

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
              ~workers:1 b r.D.Optimizer.plan
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
            r.D.Optimizer.plan
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

(* --- 4. dead-alternative pruning ------------------------------------------ *)

let pruning_catalog () =
  D.Catalog.create
    ~relations:
      [ D.Relation.make ~name:"S" ~cardinality:50 ~record_bytes:64
          ~attributes:
            [ D.Attribute.make ~name:"a" ~domain_size:10;
              D.Attribute.make ~name:"j" ~domain_size:10 ] ]
    ~indexes:[] ()

(* A choose between a bare scan and the same scan behind a redundant
   sort: the analysis costs alternatives through the cost model, so the
   sort's strictly positive own cost makes that alternative dominated in
   every region — it must be pruned, and pruning cannot change the
   delivered multiset, checked over a binding grid. *)
let seeded_choose () =
  let c = pruning_catalog () in
  let b = D.Plan.Builder.create (D.Env.dynamic c) in
  let scan =
    D.Plan.Builder.operator b (D.Physical.File_scan "S") ~inputs:[]
      ~rels:[ "S" ] ~rows:(I.point 50.) ~bytes_per_row:64
      ~props:D.Props.unordered
  in
  let col = D.Col.make ~rel:"S" ~attr:"a" in
  let sorted =
    D.Plan.Builder.operator b (D.Physical.Sort [ col ]) ~inputs:[ scan ]
      ~rels:[ "S" ] ~rows:(I.point 50.) ~bytes_per_row:64
      ~props:(D.Props.ordered [ col ])
  in
  let choose =
    D.Plan.Builder.raw b ~op:D.Physical.Choose_plan ~inputs:[ scan; sorted ]
      ~rels:[ "S" ] ~rows:(I.point 50.) ~bytes_per_row:64
      ~own_cost:(I.point 0.)
      ~total_cost:
        (I.combine_min scan.D.Plan.total_cost sorted.D.Plan.total_cost)
      ~props:D.Props.unordered
  in
  (c, choose, scan, sorted)

let test_prune_dead_seeded () =
  let c, choose, scan, sorted = seeded_choose () in
  let env = D.Env.dynamic c in
  let kept = D.Analyses.survivors env choose.D.Plan.inputs in
  Alcotest.(check bool) "redundant sort dies" true
    (not (List.memq sorted kept));
  Alcotest.(check bool) "bare scan survives" true (List.memq scan kept);
  let pruned, dropped = D.Analyses.prune_dead env choose in
  Alcotest.(check bool) "at least the dominated one dropped" true
    (dropped >= 1);
  let db = D.Database.build ~seed:3 c in
  List.iter
    (fun pages ->
      let b = D.Bindings.make ~selectivities:[] ~memory_pages:pages in
      let reference, _ = D.Executor.run db b choose in
      let got, _ = D.Executor.run db b pruned in
      Alcotest.(check bool)
        (Printf.sprintf "equivalent at %d pages" pages)
        true
        (D.Reference.multiset_equal reference got))
    [ 16; 64; 112 ]

(* Alternatives with identical modelled costs dominate nothing: both
   sort orders survive, and a singleton input survives trivially. *)
let test_survivors_never_empty () =
  let c, choose, _, _ = seeded_choose () in
  let env = D.Env.dynamic c in
  let b = D.Plan.Builder.create env in
  let scan =
    D.Plan.Builder.operator b (D.Physical.File_scan "S") ~inputs:[]
      ~rels:[ "S" ] ~rows:(I.point 50.) ~bytes_per_row:64
      ~props:D.Props.unordered
  in
  let sort_on attr =
    let col = D.Col.make ~rel:"S" ~attr in
    D.Plan.Builder.operator b (D.Physical.Sort [ col ]) ~inputs:[ scan ]
      ~rels:[ "S" ] ~rows:(I.point 50.) ~bytes_per_row:64
      ~props:(D.Props.ordered [ col ])
  in
  let twins = [ sort_on "a"; sort_on "j" ] in
  Alcotest.(check int) "equal costs: both survive" 2
    (List.length (D.Analyses.survivors env twins));
  List.iter
    (fun alts ->
      Alcotest.(check bool) "non-empty" true
        (D.Analyses.survivors env alts <> []))
    [ choose.D.Plan.inputs; [ List.hd choose.D.Plan.inputs ] ]

(* The optimizer-side hook: [prune_dead] threads through search and the
   stats report what it dropped; the pruned plan still verifies clean. *)
let test_optimizer_prune_hook () =
  let q = D.Queries.chain ~relations:4 in
  let options = { D.Optimizer.default_options with prune_dead = true } in
  let r =
    Result.get_ok
      (D.Optimizer.optimize ~options
         ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
         q.D.Queries.catalog q.D.Queries.query)
  in
  Alcotest.(check bool) "pruned count is reported" true
    (r.D.Optimizer.stats.D.Optimizer.alternatives_pruned >= 0);
  Alcotest.(check bool) "pruned plan verifies clean" true
    (Dg.errors (D.Verify.plan ~catalog:q.D.Queries.catalog r.D.Optimizer.plan)
    = [])

(* --- 5. session admission precheck ---------------------------------------- *)

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
      r.D.Optimizer.plan
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

(* --- 6. fingerprint lockstep ---------------------------------------------- *)

let test_fingerprint_lockstep () =
  for seed = 1 to 20 do
    let inst = D.Plangen.generate ~seed in
    List.iter
      (fun (_, mode) ->
        let r = optimize_exn ~mode inst.D.Plangen.catalog inst.D.Plangen.query in
        D.Plan.iter
          (fun node ->
            let a = D.Analyses.fingerprint node in
            let e = D.Checkpoint.fingerprint node in
            if a <> e then
              Alcotest.failf
                "seed %d pid %d: analysis %S vs execution %S" seed
                node.D.Plan.pid a e)
          r.D.Optimizer.plan)
      modes
  done

let suite =
  ( "absint",
    [ QCheck_alcotest.to_alcotest prop_certificate_sound;
      Alcotest.test_case "doomed floors kill their runs" `Slow
        test_doomed_floor_kills;
      Alcotest.test_case "checkpointed certificate holds" `Slow
        test_checkpointed_certificate;
      Alcotest.test_case "seeded plan: dead alternative pruned, results kept"
        `Quick test_prune_dead_seeded;
      Alcotest.test_case "survivors never empty" `Quick
        test_survivors_never_empty;
      Alcotest.test_case "optimizer prune hook" `Quick
        test_optimizer_prune_hook;
      Alcotest.test_case "session precheck rejects doomed plans" `Quick
        test_session_precheck_rejects;
      Alcotest.test_case "precheck off: same plan dies at run time" `Quick
        test_session_precheck_off_dies_at_runtime;
      Alcotest.test_case "fingerprints: analysis == execution" `Quick
        test_fingerprint_lockstep ] )
