(* The serving layer: wire protocol round-trips, the circuit breaker's
   state machine under a fake clock, plan-cache shape normalization and
   invalidation, and the server loop end to end — cache hits skipping
   the optimizer, cached plans matching the reference evaluator across
   bindings, catalog drift forcing re-optimization, a poisoned shape
   tripping its breaker while healthy shapes keep serving, and overload
   shedding with typed responses. *)

module D = Dqep
module S = D.Serve
module P = S.Protocol

(* --- shared workload helpers --------------------------------------------- *)

(* A parameterized chain over the paper catalog's first [n] relations:
   SELECT * FROM R1..Rn WHERE R1.a <= :u AND R1.jr = R2.jl AND ... *)
let chain_sql n =
  let rel i = D.Paper_catalog.rel_name i in
  let tables = List.init n (fun i -> rel (i + 1)) in
  let joins =
    List.init (n - 1) (fun i ->
        Printf.sprintf "%s.%s = %s.%s" (rel (i + 1))
          D.Paper_catalog.join_right_attr (rel (i + 2))
          D.Paper_catalog.join_left_attr)
  in
  Printf.sprintf "SELECT * FROM %s WHERE %s"
    (String.concat ", " tables)
    (String.concat " AND "
       (Printf.sprintf "%s.%s <= :u" (rel 1) D.Paper_catalog.select_attr
       :: joins))

let run_request ?(u = 0.3) ?id ?deadline_ms ?retries ?risk sql =
  P.Run
    { P.id;
      bindings = [ ("u", u) ];
      memory_pages = Some 64;
      deadline_ms;
      retries;
      risk;
      sql }

let make_server ?config catalog =
  let acquire, release =
    S.Server.db_pool ~build:(fun () -> D.Database.build ~seed:11 catalog)
      ~slots:4 ()
  in
  S.Server.create ?config ~acquire ~release catalog

let counter server c =
  D.Obs.Trace.get (D.Session.obs (S.Server.session server)) c

(* --- protocol ------------------------------------------------------------ *)

let request_gen =
  let open QCheck.Gen in
  let name = map (Printf.sprintf "hv%d") (int_range 0 99) in
  let sel = float_range 0. 1. in
  let risk =
    opt
      (oneof
         [ return D.Risk.Expected;
           return D.Risk.Worst_case;
           map (fun p -> D.Risk.Quantile p) (float_range 0. 1.) ])
  in
  let run =
    map
      (fun ((id, bindings, memory, deadline, retries), risk) ->
        P.Run
          { P.id;
            bindings;
            memory_pages = memory;
            deadline_ms = deadline;
            retries;
            risk;
            sql = "SELECT * FROM R1, R2 WHERE R1.a <= :hv0 AND R1.jr = R2.jl" })
      (pair
         (tup5 (opt (int_range 0 10000))
            (list_size (int_range 0 4) (pair name sel))
            (opt (int_range 1 512))
            (opt (float_range 0.001 5000.))
            (opt (int_range 0 9)))
         risk)
  in
  frequency [ (6, run); (1, return P.Stats); (1, return P.Ping); (1, return P.Quit) ]

let response_gen =
  let open QCheck.Gen in
  let id = opt (int_range 0 10000) in
  frequency
    [ ( 3,
        map
          (fun (id, rows, hit, latency) ->
            P.Ok_reply
              { id; rows; cache = (if hit then P.Hit else P.Miss);
                latency_ms = latency })
          (tup4 id (int_range 0 100000) bool (float_range 0. 1e4)) );
      ( 3,
        map
          (fun (id, class_, detail) ->
            P.Error_reply { id; class_; detail })
          (tup3 id
             (oneofl
                [ "parse"; "semantic"; "bind"; "optimize"; "deadline_exceeded";
                  "exhausted"; "internal" ])
             (oneofl
                [ "boom"; "unknown relation R9"; "no binding for :u (spaces ok)" ])) );
      ( 2,
        map
          (fun (id, reason) -> P.Shed_reply { id; reason })
          (pair id (oneofl [ "queue_full"; "queue_timeout"; "breaker_open" ])) );
      (1, return P.Pong);
      (1, map (fun n -> P.Stats_reply (Printf.sprintf "{\"requests\":%d}" n))
            (int_range 0 1000));
      (1, return P.Bye) ]

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire request round-trips" ~count:300
    (QCheck.make request_gen) (fun r ->
      match P.parse_request (P.render_request r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire response round-trips" ~count:300
    (QCheck.make response_gen) (fun r ->
      match P.parse_response (P.render_response r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let test_protocol_errors () =
  let bad l =
    match P.parse_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parsed malformed line %S" l
  in
  bad "";
  bad "FROB sql=SELECT * FROM R1";
  bad "RUN";  (* no sql= field *)
  bad "RUN id=notanint sql=SELECT * FROM R1";
  bad "RUN set=u:notafloat sql=SELECT * FROM R1";
  bad "RUN deadline_ms=1s sql=SELECT * FROM R1";
  (match P.parse_response "OK rows=zero cache=hit latency_ms=0x1p-3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed malformed response");
  (* sql= swallows the rest of the line, including '=' and spaces. *)
  match P.parse_request "RUN id=3 sql=SELECT * FROM R1, R2 WHERE R1.a <= :u" with
  | Ok (P.Run r) ->
    Alcotest.(check string) "sql runs to end of line"
      "SELECT * FROM R1, R2 WHERE R1.a <= :u" r.P.sql
  | Ok _ | Error _ -> Alcotest.fail "RUN line did not parse"

(* --- breaker ------------------------------------------------------------- *)

let test_breaker_state_machine () =
  let now = ref 0. in
  let tripped = ref 0 and closed = ref 0 in
  let b =
    S.Breaker.create ~clock:(fun () -> !now)
      ~on_trip:(fun () -> incr tripped)
      ~on_close:(fun () -> incr closed)
      (S.Breaker.config ~failure_threshold:3 ~cooldown:10. ~probes:2 ())
  in
  let admit_exn () =
    match S.Breaker.admit b with
    | S.Breaker.Admit -> ()
    | S.Breaker.Reject _ -> Alcotest.fail "unexpected rejection"
  in
  Alcotest.(check string) "starts closed" "closed"
    (S.Breaker.state_name (S.Breaker.state b));
  (* A success resets the consecutive-failure count. *)
  admit_exn (); S.Breaker.failure b;
  admit_exn (); S.Breaker.failure b;
  admit_exn (); S.Breaker.success b;
  admit_exn (); S.Breaker.failure b;
  admit_exn (); S.Breaker.failure b;
  Alcotest.(check string) "still closed below threshold" "closed"
    (S.Breaker.state_name (S.Breaker.state b));
  (* Third consecutive failure trips it. *)
  admit_exn (); S.Breaker.failure b;
  Alcotest.(check string) "tripped open" "open"
    (S.Breaker.state_name (S.Breaker.state b));
  Alcotest.(check int) "one trip" 1 (S.Breaker.trips b);
  Alcotest.(check int) "on_trip fired" 1 !tripped;
  (* Open rejects fast with the remaining cooldown. *)
  now := 4.;
  (match S.Breaker.admit b with
  | S.Breaker.Reject { retry_after } ->
    Alcotest.(check (float 1e-9)) "retry_after = remaining cooldown" 6.
      retry_after
  | S.Breaker.Admit -> Alcotest.fail "open breaker admitted");
  (* Cooldown over: bounded probes. *)
  now := 10.5;
  admit_exn ();
  Alcotest.(check string) "half-open after cooldown" "half_open"
    (S.Breaker.state_name (S.Breaker.state b));
  admit_exn ();
  (match S.Breaker.admit b with
  | S.Breaker.Reject { retry_after } ->
    Alcotest.(check (float 0.)) "probe slots are bounded" 0. retry_after
  | S.Breaker.Admit -> Alcotest.fail "admitted a third concurrent probe");
  (* Both probes succeed: closed again. *)
  S.Breaker.success b;
  S.Breaker.success b;
  Alcotest.(check string) "closed after probes" "closed"
    (S.Breaker.state_name (S.Breaker.state b));
  Alcotest.(check int) "one close" 1 (S.Breaker.closes b);
  Alcotest.(check int) "on_close fired" 1 !closed;
  (* A probe failure re-trips for a fresh cooldown. *)
  admit_exn (); S.Breaker.failure b;
  admit_exn (); S.Breaker.failure b;
  admit_exn (); S.Breaker.failure b;
  now := 21.;
  admit_exn ();
  S.Breaker.failure b;
  Alcotest.(check string) "probe failure re-opens" "open"
    (S.Breaker.state_name (S.Breaker.state b));
  Alcotest.(check int) "three trips total" 3 (S.Breaker.trips b)

(* --- plan cache ---------------------------------------------------------- *)

let parse_exn sql =
  match D.Sql.parse sql with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "bad test sql %S: %s" sql e

let test_cache_key_normalization () =
  let key sql = S.Plan_cache.key (parse_exn sql) in
  let a = key "SELECT * FROM R1, R2 WHERE R1.a <= :u AND R1.jr = R2.jl" in
  (* Table order, join side order, clause order, host-variable names and
     literal-vs-host values are all shape-irrelevant. *)
  Alcotest.(check string) "table/clause order irrelevant" a
    (key "SELECT * FROM R2, R1 WHERE R2.jl = R1.jr AND R1.a <= :frobozz");
  Alcotest.(check string) "literal and host share a shape" a
    (key "SELECT * FROM R1, R2 WHERE R1.a <= 42 AND R1.jr = R2.jl");
  (* Structure is shape-relevant. *)
  Alcotest.(check bool) "selection target distinguishes shapes" false
    (a = key "SELECT * FROM R1, R2 WHERE R2.a <= :u AND R1.jr = R2.jl");
  Alcotest.(check bool) "join structure distinguishes shapes" false
    (a = key "SELECT * FROM R1, R2 WHERE R1.a <= :u AND R1.jl = R2.jr");
  Alcotest.(check (list string)) "positional parameter names"
    [ "p1"; "p2" ]
    (S.Plan_cache.param_names
       (parse_exn
          "SELECT * FROM R1, R2 WHERE R2.a <= 7 AND R1.a <= :u AND R1.jr = \
           R2.jl"))

let test_replan_storm_evicts () =
  let cache = S.Plan_cache.create ~replan_threshold:2 () in
  let catalog = D.Paper_catalog.make ~relations:2 in
  let fingerprint = S.Plan_cache.fingerprint catalog in
  let ast = parse_exn (chain_sql 2) in
  let key = S.Plan_cache.key ast in
  let plan =
    let q =
      Result.get_ok (D.Sql.to_logical catalog (S.Plan_cache.generalize ast))
    in
    (Result.get_ok
       (D.Optimizer.optimize
          ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
          catalog q))
      .D.Optimizer.plan
  in
  S.Plan_cache.store cache ~fingerprint ~key plan;
  Alcotest.(check bool) "stored" true (S.Plan_cache.mem cache ~key);
  Alcotest.(check bool) "first replan below threshold" false
    (S.Plan_cache.note_replan cache ~key);
  Alcotest.(check bool) "still cached" true (S.Plan_cache.mem cache ~key);
  Alcotest.(check bool) "threshold replan evicts" true
    (S.Plan_cache.note_replan cache ~key);
  Alcotest.(check bool) "gone" false (S.Plan_cache.mem cache ~key);
  (match S.Plan_cache.find cache ~fingerprint ~key with
  | S.Plan_cache.Miss -> ()
  | S.Plan_cache.Hit _ | S.Plan_cache.Invalidated_drift ->
    Alcotest.fail "evicted entry still found");
  let s = S.Plan_cache.stats cache in
  Alcotest.(check int) "replan invalidation counted" 1
    s.S.Plan_cache.invalidated_replan

(* --- server: cache behaviour --------------------------------------------- *)

let test_cache_hit_skips_optimizer () =
  let server = make_server (D.Paper_catalog.make ~relations:2) in
  let sql = chain_sql 2 in
  let first_cache, first_rows =
    match S.Server.handle server (run_request ~id:1 sql) with
    | P.Ok_reply { cache; rows; _ } -> (cache, rows)
    | r -> Alcotest.failf "first request: %s" (P.render_response r)
  in
  let second_cache, second_rows =
    match S.Server.handle server (run_request ~id:2 sql) with
    | P.Ok_reply { cache; rows; _ } -> (cache, rows)
    | r -> Alcotest.failf "second request: %s" (P.render_response r)
  in
  Alcotest.(check string) "first is a miss" "miss"
    (P.cache_role_name first_cache);
  Alcotest.(check string) "second is a hit" "hit"
    (P.cache_role_name second_cache);
  Alcotest.(check int) "same answer" first_rows second_rows;
  Alcotest.(check int) "one optimizer run" 1
    (counter server D.Obs.Counter.Cache_miss);
  Alcotest.(check int) "one cache hit" 1
    (counter server D.Obs.Counter.Cache_hit);
  (* A differently spelled statement of the same shape also hits. *)
  (match
     S.Server.handle server
       (run_request ~id:3
          "SELECT * FROM R2, R1 WHERE R2.jl = R1.jr AND R1.a <= :u")
   with
  | P.Ok_reply { cache = P.Hit; _ } -> ()
  | r -> Alcotest.failf "respelled shape: %s" (P.render_response r));
  Alcotest.(check int) "still one optimizer run" 1
    (counter server D.Obs.Counter.Cache_miss)

let test_latency_window () =
  (* Latency percentiles cover only the most recent 4096 requests of a
     class.  The fake clock advances [!step] seconds per reading, so a
     request's latency is proportional to the step in force: 3000 slow
     hits are followed by 4096 fast ones that push them all out. *)
  let step = ref 1.0 and now = ref 0. in
  let clock () = now := !now +. !step; !now in
  let server =
    make_server ~config:(S.Server.config ~clock ()) (D.Paper_catalog.make ~relations:2)
  in
  let sql = chain_sql 2 in
  let serve n =
    for id = 1 to n do
      match S.Server.handle server (run_request ~u:0.001 ~id sql) with
      | P.Ok_reply _ -> ()
      | r -> Alcotest.failf "request %d: %s" id (P.render_response r)
    done
  in
  serve 3001;
  let slow = S.Server.stats server in
  Alcotest.(check bool) "slow hits recorded" true (slow.S.Server.hit_p50_ms >= 1000.);
  step := 1e-6;
  serve 4096;
  let fast = S.Server.stats server in
  Alcotest.(check bool)
    (Printf.sprintf "slow hits aged out (p95 %g ms)" fast.S.Server.hit_p95_ms)
    true (fast.S.Server.hit_p95_ms < 1.);
  Alcotest.(check int) "every request still counted" 7097 fast.S.Server.completed

let test_drift_invalidation () =
  let server = make_server (D.Paper_catalog.make ~relations:2) in
  let sql = chain_sql 2 in
  (match S.Server.handle server (run_request ~id:1 sql) with
  | P.Ok_reply { cache = P.Miss; _ } -> ()
  | r -> Alcotest.failf "warm-up: %s" (P.render_response r));
  (match S.Server.handle server (run_request ~id:2 sql) with
  | P.Ok_reply { cache = P.Hit; _ } -> ()
  | r -> Alcotest.failf "pre-drift: %s" (P.render_response r));
  (* DDL: the catalog grows a relation, so its fingerprint moves and the
     cached plan may no longer be cost-valid.  The next lookup evicts. *)
  S.Server.swap_catalog server (D.Paper_catalog.make ~relations:3);
  (match S.Server.handle server (run_request ~id:3 sql) with
  | P.Ok_reply { cache = P.Miss; _ } -> ()
  | r -> Alcotest.failf "post-drift: %s" (P.render_response r));
  let s = S.Server.stats server in
  Alcotest.(check int) "drift invalidation counted" 1
    s.S.Server.cache_invalidated_drift;
  Alcotest.(check int) "counter matches" 1
    (counter server D.Obs.Counter.Cache_invalidated_drift);
  (* And the re-optimized entry serves hits again. *)
  match S.Server.handle server (run_request ~id:4 sql) with
  | P.Ok_reply { cache = P.Hit; _ } -> ()
  | r -> Alcotest.failf "post-reoptimize: %s" (P.render_response r)

let test_dropped_attribute_infeasible () =
  (* The database the server borrows has lost R1.a and its index while
     the server's catalog, and so its fingerprint, still has them: the
     cached plan is drift, answered [infeasible] and evicted, not
     rejected as corrupt. *)
  let catalog = D.Paper_catalog.make ~relations:2 in
  let drifted = Test_util.without_attribute catalog ~rel:"R1" ~attr:"a" in
  let drift = ref false in
  let acquire ~shape:_ =
    D.Database.build ~seed:11 (if !drift then drifted else catalog)
  in
  let server =
    S.Server.create ~acquire ~release:(fun ~shape:_ _ -> ()) catalog
  in
  let sql = "SELECT * FROM R1 WHERE R1.a <= 5" in
  let serve id =
    S.Server.handle server
      (P.Run
         { P.id = Some id; bindings = []; memory_pages = Some 64;
           deadline_ms = None; retries = None; risk = None; sql })
  in
  (match serve 1 with
  | P.Ok_reply { cache = P.Miss; _ } -> ()
  | r -> Alcotest.failf "warm-up: %s" (P.render_response r));
  (match serve 2 with
  | P.Ok_reply { cache = P.Hit; _ } -> ()
  | r -> Alcotest.failf "pre-drift hit: %s" (P.render_response r));
  drift := true;
  (match serve 3 with
  | P.Error_reply { class_ = "infeasible"; _ } -> ()
  | r -> Alcotest.failf "drifted hit: %s" (P.render_response r));
  let s = S.Server.stats server in
  Alcotest.(check int) "cache entry invalidated" 1
    s.S.Server.cache_invalidated_drift;
  Alcotest.(check int) "cache empty" 0 s.S.Server.cache_size;
  drift := false;
  match serve 4 with
  | P.Ok_reply { cache = P.Miss; _ } -> ()
  | r -> Alcotest.failf "post-drift: %s" (P.render_response r)

let test_concurrent_hits_agree () =
  (* Four domains serve the same cached shapes at once; the verdict memo
     they share must not change any answer. *)
  Test_util.with_watchdog ~deadline:120. "serve concurrent hits" @@ fun () ->
  let server =
    make_server
      ~config:
        (S.Server.config
           ~session:(D.Session.config ~max_inflight:4 ~max_queue:256 ())
           ())
      (D.Paper_catalog.make ~relations:3)
  in
  let lines =
    List.init 3 (fun i ->
        P.render_request (run_request ~id:i (chain_sql (i + 1))))
  in
  let rows line =
    match P.parse_response (S.Server.handle_line server line) with
    | Ok (P.Ok_reply { rows; _ }) -> rows
    | Ok r -> Alcotest.failf "%s -> %s" line (P.render_response r)
    | Error e -> Alcotest.failf "%s -> unparseable: %s" line e
  in
  let expected = List.map rows lines in
  let rounds = 25 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> List.init rounds (fun _ -> List.map rows lines)))
  in
  List.iteri
    (fun d dom ->
      List.iteri
        (fun round got ->
          Alcotest.(check (list int))
            (Printf.sprintf "domain %d round %d" d round)
            expected got)
        (Domain.join dom))
    domains;
  let s = S.Server.stats server in
  Alcotest.(check int) "every concurrent request hit the cache"
    (4 * rounds * List.length lines)
    s.S.Server.cache_hits

(* --- server: differential against the reference evaluator ---------------- *)

(* Random Plangen instances, served through the cache: optimize the
   generalized shape once, then resolve the cached dynamic plan under
   several point bindings and compare the tuples with the naive
   reference evaluator on the instance's own logical query. *)

let ast_of_logical q =
  let tables = ref [] and sels = ref [] and joins = ref [] in
  let rec walk = function
    | D.Logical.Get_set r -> tables := r :: !tables
    | D.Logical.Select (child, sel) ->
      (match sel.D.Predicate.selectivity with
      | D.Predicate.Host_var hv ->
        sels :=
          ( sel.D.Predicate.target.D.Col.rel,
            sel.D.Predicate.target.D.Col.attr,
            D.Sql.Host hv )
          :: !sels
      | D.Predicate.Bound _ ->
        (* Plangen only emits host-var selections; a Bound one would have
           no SQL spelling here. *)
        Alcotest.fail "unexpected Bound selection in a Plangen instance");
      walk child
    | D.Logical.Join (l, r, equis) ->
      List.iter
        (fun (e : D.Predicate.equi) ->
          joins :=
            ( (e.D.Predicate.left.D.Col.rel, e.D.Predicate.left.D.Col.attr),
              (e.D.Predicate.right.D.Col.rel, e.D.Predicate.right.D.Col.attr) )
            :: !joins)
        equis;
      walk l;
      walk r
  in
  walk q;
  { D.Sql.tables = List.rev !tables;
    selections = List.rev !sels;
    joins = List.rev !joins }

let test_cached_plan_matches_reference () =
  Test_util.with_watchdog ~deadline:120. "serve differential" @@ fun () ->
  for seed = 1 to 8 do
    (* Shapes from different instances can coincide (tiny catalogs), so
       each instance gets its own cache. *)
    let cache = S.Plan_cache.create () in
    let inst = D.Plangen.generate ~seed in
    let catalog = inst.D.Plangen.catalog in
    let fingerprint = S.Plan_cache.fingerprint catalog in
    let ast = ast_of_logical inst.D.Plangen.query in
    let key = S.Plan_cache.key ast in
    (* Cold: optimize the generalized shape, as the server does. *)
    (match S.Plan_cache.find cache ~fingerprint ~key with
    | S.Plan_cache.Miss -> ()
    | _ -> Alcotest.failf "seed %d: shape unexpectedly cached" seed);
    let shape =
      Result.get_ok (D.Sql.to_logical catalog (S.Plan_cache.generalize ast))
    in
    let plan =
      (Result.get_ok
         (D.Optimizer.optimize
            ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
            catalog shape))
        .D.Optimizer.plan
    in
    S.Plan_cache.store cache ~fingerprint ~key plan;
    let plan =
      match S.Plan_cache.find cache ~fingerprint ~key with
      | S.Plan_cache.Hit p -> p
      | _ -> Alcotest.failf "seed %d: stored plan not found" seed
    in
    let db = D.Database.build ~seed:(seed * 7919) catalog in
    List.iter
      (fun bseed ->
        let rng = D.Rng.create ((seed * 131) + bseed) in
        let sels =
          List.map
            (fun hv -> (hv, 0.05 +. D.Rng.uniform rng 0. 0.9))
            inst.D.Plangen.host_vars
        in
        let cached_bindings =
          match
            S.Plan_cache.bind catalog ast ~bindings:sels ~memory_pages:64
          with
          | Ok b -> b
          | Error e -> Alcotest.failf "seed %d: bind failed: %s" seed e
        in
        let tuples, stats = D.Executor.run db cached_bindings plan in
        let schema =
          D.Plan.schema catalog stats.D.Executor.resolved_plan
        in
        let ref_schema, expected =
          D.Reference.eval db
            (D.Bindings.make ~selectivities:sels ~memory_pages:64)
            inst.D.Plangen.query
        in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d binding %d matches reference" seed bseed)
          true
          (D.Reference.multiset_equal
             (D.Reference.normalize ref_schema expected)
             (D.Reference.normalize schema tuples)))
      [ 1; 2; 3 ]
  done

(* --- server: breaker integration and overload ---------------------------- *)

let poison db =
  D.Disk.set_faults
    (D.Buffer_pool.disk (D.Database.pool db))
    (Some
       (D.Fault.create
          (D.Fault.config ~fail_after:(0, D.Fault.Permanent) ~seed:1 ())))

let test_poisoned_shape_trips_breaker () =
  Test_util.with_watchdog ~deadline:120. "serve breaker integration"
  @@ fun () ->
  let catalog = D.Paper_catalog.make ~relations:2 in
  let poisoned_sql = chain_sql 2 in
  let healthy_sql =
    Printf.sprintf "SELECT * FROM %s WHERE %s.%s <= :u"
      (D.Paper_catalog.rel_name 1) (D.Paper_catalog.rel_name 1)
      D.Paper_catalog.select_attr
  in
  let poisoned_key = S.Plan_cache.key (parse_exn poisoned_sql) in
  let acquire ~shape =
    let db = D.Database.build ~seed:11 catalog in
    if shape = poisoned_key then poison db;
    db
  in
  let release ~shape:_ _ = () in
  let server =
    S.Server.create
      ~config:
        (S.Server.config
           ~breaker:
             (S.Breaker.config ~failure_threshold:2 ~cooldown:60. ())
           ~resilience:
             (D.Resilience.config ~max_retries:0 ~max_failovers:1 ())
           ())
      ~acquire ~release catalog
  in
  (* Dead storage: each poisoned request ends in a typed failure that
     counts against the shape, until the breaker trips. *)
  let classes = ref [] in
  for i = 1 to 4 do
    match S.Server.handle server (run_request ~id:i poisoned_sql) with
    | P.Error_reply { class_; _ } -> classes := class_ :: !classes
    | P.Shed_reply { reason; _ } -> classes := ("shed:" ^ reason) :: !classes
    | r -> Alcotest.failf "poisoned request %d: %s" i (P.render_response r)
  done;
  (match List.rev !classes with
  | [ c1; c2; "shed:breaker_open"; "shed:breaker_open" ] ->
    List.iter
      (fun c ->
        if c <> "exhausted" && c <> "optimize" then
          Alcotest.failf "poisoned failure class %s" c)
      [ c1; c2 ]
  | cs -> Alcotest.failf "unexpected outcome sequence: %s" (String.concat ", " cs));
  (match S.Server.breaker_state server ~shape:poisoned_key with
  | Some (S.Breaker.Open _) -> ()
  | s ->
    Alcotest.failf "poisoned breaker not open: %s"
      (match s with
      | None -> "absent"
      | Some s -> S.Breaker.state_name s));
  Alcotest.(check int) "one trip" 1
    (match S.Server.breaker server ~shape:poisoned_key with
    | Some b -> S.Breaker.trips b
    | None -> 0);
  Alcotest.(check int) "trip counted" 1
    (counter server D.Obs.Counter.Breaker_opened);
  Alcotest.(check int) "breaker sheds counted" 2
    (counter server D.Obs.Counter.Shed_breaker_open);
  (* The healthy shape is unaffected. *)
  (match S.Server.handle server (run_request ~id:9 healthy_sql) with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "healthy request: %s" (P.render_response r));
  match
    S.Server.breaker_state server
      ~shape:(S.Plan_cache.key (parse_exn healthy_sql))
  with
  | Some S.Breaker.Closed -> ()
  | _ -> Alcotest.fail "healthy breaker not closed"

let test_overload_sheds_typed () =
  Test_util.with_watchdog ~deadline:120. "serve overload" @@ fun () ->
  let catalog = D.Paper_catalog.make ~relations:2 in
  let server =
    let acquire, release =
      S.Server.db_pool ~build:(fun () -> D.Database.build ~seed:11 catalog)
        ~slots:6 ()
    in
    S.Server.create
      ~config:
        (S.Server.config
           ~session:(D.Session.config ~max_inflight:1 ~max_queue:0 ())
           ())
      ~acquire ~release catalog
  in
  let sql = chain_sql 2 in
  (* Warm the cache so the storm measures admission, not optimization. *)
  (match S.Server.handle server (run_request ~id:0 sql) with
  | P.Ok_reply _ -> ()
  | r -> Alcotest.failf "warm-up: %s" (P.render_response r));
  (* Enough requests that the spawned clients overlap the first one:
     it starts serving while the other domains are still spawning, and
     a short storm can end before they arrive. *)
  let n = 200 in
  let lines =
    Array.init n (fun i -> P.render_request (run_request ~id:i sql))
  in
  let responses = S.Server.run_batch server ~clients:4 lines in
  let ok = ref 0 and shed = ref 0 in
  Array.iteri
    (fun i line ->
      match P.parse_response line with
      | Ok (P.Ok_reply _) -> incr ok
      | Ok (P.Shed_reply { reason = "queue_full"; _ }) -> incr shed
      | Ok r ->
        Alcotest.failf "request %d: unexpected outcome %s" i
          (P.render_response r)
      | Error e -> Alcotest.failf "request %d: unparseable response: %s" i e)
    responses;
  Alcotest.(check int) "every request answered" n (!ok + !shed);
  Alcotest.(check bool) "single-slot session made progress" true (!ok >= 1);
  Alcotest.(check bool) "zero-queue overload shed at the door" true
    (!shed >= 1);
  Alcotest.(check int) "shed taxonomy matches the counter" !shed
    (counter server D.Obs.Counter.Shed_queue_full)

(* --- server: request-side error classes ----------------------------------- *)

let test_request_error_classes () =
  let server = make_server (D.Paper_catalog.make ~relations:2) in
  let class_of line =
    match P.parse_response (S.Server.handle_line server line) with
    | Ok (P.Error_reply { class_; _ }) -> class_
    | Ok r -> Alcotest.failf "expected ERR, got %s" (P.render_response r)
    | Error e -> Alcotest.failf "unparseable response: %s" e
  in
  Alcotest.(check string) "malformed line" "protocol" (class_of "FLY TO THE MOON");
  Alcotest.(check string) "malformed sql" "parse"
    (class_of "RUN sql=SELEC * FORM R1");
  Alcotest.(check string) "unknown relation" "semantic"
    (class_of "RUN sql=SELECT * FROM R9");
  Alcotest.(check string) "missing binding" "bind"
    (class_of
       (Printf.sprintf "RUN sql=SELECT * FROM R1 WHERE R1.%s <= :u"
          D.Paper_catalog.select_attr));
  (* Client errors never open the shape's breaker. *)
  (match
     S.Server.breaker_state server
       ~shape:
         (S.Plan_cache.key
            (parse_exn
               (Printf.sprintf "SELECT * FROM R1 WHERE R1.%s <= :u"
                  D.Paper_catalog.select_attr)))
   with
  | Some S.Breaker.Closed -> ()
  | _ -> Alcotest.fail "client error affected the breaker");
  (* PING and STATS still answer. *)
  (match P.parse_response (S.Server.handle_line server "PING") with
  | Ok P.Pong -> ()
  | _ -> Alcotest.fail "PING did not PONG");
  match P.parse_response (S.Server.handle_line server "STATS") with
  | Ok (P.Stats_reply json) -> (
    match D.Json.parse json with
    | Ok (D.Json.Obj _) -> ()
    | _ -> Alcotest.fail "STATS payload is not a JSON object")
  | _ -> Alcotest.fail "STATS did not reply"

let suite =
  ( "serve",
    [ QCheck_alcotest.to_alcotest prop_request_roundtrip;
      QCheck_alcotest.to_alcotest prop_response_roundtrip;
      Alcotest.test_case "protocol rejects malformed lines" `Quick
        test_protocol_errors;
      Alcotest.test_case "breaker state machine" `Quick
        test_breaker_state_machine;
      Alcotest.test_case "cache key normalization" `Quick
        test_cache_key_normalization;
      Alcotest.test_case "replan storm evicts the entry" `Quick
        test_replan_storm_evicts;
      Alcotest.test_case "cache hit skips the optimizer" `Quick
        test_cache_hit_skips_optimizer;
      Alcotest.test_case "latency percentiles keep a bounded window" `Quick
        test_latency_window;
      Alcotest.test_case "catalog drift invalidates cached plans" `Quick
        test_drift_invalidation;
      Alcotest.test_case "dropped attribute answers infeasible" `Quick
        test_dropped_attribute_infeasible;
      Alcotest.test_case "concurrent cache hits agree" `Quick
        test_concurrent_hits_agree;
      Alcotest.test_case "cached plans match the reference evaluator" `Slow
        test_cached_plan_matches_reference;
      Alcotest.test_case "poisoned shape trips its breaker" `Quick
        test_poisoned_shape_trips_breaker;
      Alcotest.test_case "overload sheds with typed responses" `Quick
        test_overload_sheds_typed;
      Alcotest.test_case "request-side error classes" `Quick
        test_request_error_classes ] )
