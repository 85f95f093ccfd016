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
  Alcotest.(check int) "three trips total" 3 (S.Breaker.trips b);
  (* Tickets: an admission from before the trip is not a probe, and a
     ticket settles once. *)
  let b =
    S.Breaker.create ~clock:(fun () -> !now)
      (S.Breaker.config ~failure_threshold:1 ~cooldown:0. ~probes:1 ())
  in
  let enter () =
    match S.Breaker.enter b with
    | Ok ticket -> ticket
    | Error _ -> Alcotest.fail "unexpected rejection"
  in
  let first = enter () in
  let straggler = enter () in
  S.Breaker.failed first;
  let probe = enter () in
  S.Breaker.succeeded straggler;
  Alcotest.(check string) "a straggler does not close" "half_open"
    (S.Breaker.state_name (S.Breaker.state b));
  Alcotest.(check bool) "nor free the probe slot" true
    (Result.is_error (S.Breaker.enter b));
  S.Breaker.succeeded probe;
  Alcotest.(check string) "the probe closes" "closed"
    (S.Breaker.state_name (S.Breaker.state b));
  Alcotest.check_raises "a ticket settles once"
    (Invalid_argument "Breaker: an admission settled twice") (fun () ->
      S.Breaker.succeeded probe)

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

(* What a warm hit allocates beyond its run: minor words of
   [Server.handle_line] less those of the bare run ([Startup.resolve]
   and [Executor.execute]) on the same plan and bindings, the least
   such difference over five requests.  The warm-up creates each
   binding's band, so every measured request files three values twice
   into existing ones.  A fresh trace per request costs 181 words, so
   the bound, set about a hundred words above what a hit costs, catches
   it coming back. *)
let hit_overhead_words = 750.

let test_hit_allocation () =
  let catalog = D.Paper_catalog.make ~relations:3 in
  let db = D.Database.build ~seed:11 catalog in
  let server =
    S.Server.create ~acquire:(fun ~shape:_ -> db)
      ~release:(fun ~shape:_ _ -> ()) catalog
  in
  let rel = D.Paper_catalog.rel_name in
  let sql =
    Printf.sprintf
      "SELECT * FROM %s, %s, %s WHERE %s.a <= :v1 AND %s.a <= :v2 AND %s.a \
       <= :v3 AND %s.%s = %s.%s AND %s.%s = %s.%s"
      (rel 1) (rel 2) (rel 3) (rel 1) (rel 2) (rel 3) (rel 1)
      D.Paper_catalog.join_right_attr (rel 2) D.Paper_catalog.join_left_attr
      (rel 2) D.Paper_catalog.join_right_attr (rel 3)
      D.Paper_catalog.join_left_attr
  in
  let vars x = [ ("v1", x); ("v2", 2. *. x); ("v3", 3. *. x) ] in
  let line x =
    P.render_request
      (P.Run
         { P.id = Some 1; bindings = vars x; memory_pages = Some 64;
           deadline_ms = None; retries = None; risk = None; sql })
  in
  for i = 0 to 24 do
    let l = line (0.001 *. float_of_int (i + 1)) in
    match P.parse_response (S.Server.handle_line server l) with
    | Ok (P.Ok_reply _) -> ()
    | _ -> Alcotest.fail "warm-up request failed"
  done;
  let ast = Result.get_ok (D.Sql.parse sql) in
  let plan =
    match
      S.Plan_cache.find (S.Server.cache server)
        ~fingerprint:(S.Plan_cache.fingerprint catalog)
        ~key:(S.Plan_cache.key ast)
    with
    | S.Plan_cache.Hit plan -> plan
    | S.Plan_cache.Miss | S.Plan_cache.Invalidated_drift ->
      Alcotest.fail "the shape is not cached"
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let overhead =
    List.fold_left Float.min infinity
      (List.init 5 (fun i ->
           let x = 0.0101 +. (0.0001 *. float_of_int i) in
           let bindings =
             Result.get_ok
               (S.Plan_cache.bind catalog ast ~bindings:(vars x) ~memory_pages:64)
           in
           let l = line x in
           let hit =
             words (fun () -> ignore (S.Server.handle_line server l : string))
           in
           let run =
             words (fun () ->
                 let env = D.Env.of_bindings catalog bindings in
                 let resolution = D.Startup.resolve env plan in
                 ignore (D.Executor.execute db env resolution.D.Startup.plan))
           in
           hit -. run))
  in
  if overhead > hit_overhead_words then
    Alcotest.failf "a hit allocates %.0f words beyond its run (bound %.0f)"
      overhead hit_overhead_words

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

(* A memory grant sizes the executing pool's frame array, so grants
   outside [1, max_memory_pages] are refused before anything runs. *)
let test_memory_grant_bounded () =
  let catalog = D.Paper_catalog.make ~relations:1 in
  let ast = parse_exn "SELECT * FROM R1" in
  let bind memory_pages =
    Result.is_ok (S.Plan_cache.bind catalog ast ~bindings:[] ~memory_pages)
  in
  Alcotest.(check bool) "the ceiling is accepted" true
    (bind S.Plan_cache.max_memory_pages);
  Alcotest.(check bool) "one page more is refused" false
    (bind (S.Plan_cache.max_memory_pages + 1));
  Alcotest.(check bool) "zero pages are refused" false (bind 0);
  let server = make_server catalog in
  List.iter
    (fun memory ->
      match
        P.parse_response
          (S.Server.handle_line server
             (Printf.sprintf "RUN memory=%d sql=SELECT * FROM R1" memory))
      with
      | Ok (P.Error_reply { class_; _ }) ->
        Alcotest.(check string) (Printf.sprintf "memory=%d" memory) "bind" class_
      | Ok r -> Alcotest.failf "memory=%d answered %s" memory (P.render_response r)
      | Error e -> Alcotest.failf "unparseable response: %s" e)
    [ 0; S.Plan_cache.max_memory_pages + 1; 4_000_000; max_int ]

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
  Alcotest.(check string) "negative deadline" "protocol"
    (class_of "RUN deadline_ms=-5 sql=SELECT * FROM R1");
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

(* --- the statement memo ------------------------------------------------- *)

(* A random statement over a chain of the paper catalog's first three
   relations: the tables in any order, each join written either way
   round, some selections with literals and some with host variables,
   and the WHERE clauses in any order.  [hvs] names the host variables
   it uses.  A request may leave one of them unbound, and a literal may
   fall outside its domain, so bind errors are compared too. *)
type statement_case = { sql : string; hvs : string list }

let statement_gen =
  let open QCheck.Gen in
  let rel = D.Paper_catalog.rel_name in
  let* first = int_range 1 3 in
  let* len = int_range 1 (4 - first) in
  let rels = List.init len (fun k -> first + k) in
  let* tables = shuffle_l (List.map rel rels) in
  let* joins =
    flatten_l
      (List.init (len - 1) (fun k ->
           let l =
             Printf.sprintf "%s.%s" (rel (first + k)) D.Paper_catalog.join_right_attr
           and r =
             Printf.sprintf "%s.%s" (rel (first + k + 1))
               D.Paper_catalog.join_left_attr
           in
           map (fun flip -> if flip then r ^ " = " ^ l else l ^ " = " ^ r) bool))
  in
  let* sels =
    flatten_l
      (List.map
         (fun i ->
           let col = Printf.sprintf "%s.%s" (rel i) D.Paper_catalog.select_attr in
           frequency
             [ (1, return None);
               (2, map (fun v -> Some (`Lit v, col)) (int_range 0 20));
               (1, return (Some (`Lit 100_000, col)));
               (3, map (fun h -> Some (`Host (Printf.sprintf "h%d" h), col))
                     (int_range 1 3)) ])
         rels)
  in
  let sels = List.filter_map Fun.id sels in
  let conds =
    List.map
      (fun (v, col) ->
        match v with
        | `Lit n -> Printf.sprintf "%s <= %d" col n
        | `Host h -> Printf.sprintf "%s <= :%s" col h)
      sels
    @ joins
  in
  let* conds = shuffle_l conds in
  let sql =
    Printf.sprintf "SELECT * FROM %s%s" (String.concat ", " tables)
      (match conds with
      | [] -> ""
      | cs -> " WHERE " ^ String.concat " AND " cs)
  in
  let hvs =
    List.sort_uniq compare
      (List.filter_map
         (function `Host h, _ -> Some h | `Lit _, _ -> None)
         sels)
  in
  return { sql; hvs }

(* A request sequence over a few statements: each request picks a
   statement and binds its host variables (one may stay unbound). *)
let memo_case_gen =
  let open QCheck.Gen in
  let* statements = list_size (int_range 1 4) statement_gen in
  let statements = Array.of_list statements in
  let request =
    let* i = int_range 0 (Array.length statements - 1) in
    let st = statements.(i) in
    let* bindings =
      flatten_l
        (List.map
           (fun h -> map (fun v -> (h, v)) (float_range 0.001 0.2))
           st.hvs)
    in
    let* drop = frequency [ (9, return false); (1, return true) ] in
    let bindings =
      match bindings with _ :: rest when drop -> rest | _ -> bindings
    in
    return (st.sql, bindings)
  in
  let* requests = list_size (int_range 2 10) request in
  return (Array.to_list statements, requests)

(* A reply without its latency, which no two servers share. *)
let outcome line =
  match P.parse_response line with
  | Ok (P.Ok_reply r) ->
    P.render_response (P.Ok_reply { r with latency_ms = 0. })
  | Ok r -> P.render_response r
  | Error e -> Alcotest.failf "unparseable reply %S: %s" line e

let run_line ?(id = 0) ?deadline_ms ?retries ?risk ?memory_pages sql bindings =
  P.render_request
    (P.Run { P.id = Some id; bindings; memory_pages; deadline_ms; retries; risk; sql })

let print_memo_case (statements, requests) =
  String.concat "\n"
    (List.map (fun st -> st.sql) statements
    @ List.map
        (fun (sql, bs) ->
          Printf.sprintf "%s [%s]" sql
            (String.concat ", " (List.map (fun (h, v) -> Printf.sprintf "%s=%g" h v) bs)))
        requests)

let prop_statement_memo =
  QCheck.Test.make
    ~name:"statement memo: same key, bindings and replies as parsing" ~count:40
    (QCheck.make ~print:print_memo_case memo_case_gen)
    (fun (statements, requests) ->
      let catalog = D.Paper_catalog.make ~relations:3 in
      let memo = make_server catalog and parsing = make_server catalog in
      (* The parsing server sees each statement spelled with a different
         run of blanks every time, so no text of it repeats and each of
         its requests is parsed. *)
      let respell id sql =
        "SELECT" ^ String.make (id + 1) ' '
        ^ String.sub sql 7 (String.length sql - 7)
      in
      List.iteri
        (fun id (sql, bindings) ->
          let line = run_line ~id ~memory_pages:64 sql bindings in
          let a = outcome (S.Server.handle_line memo line)
          and b =
            outcome
              (S.Server.handle_line parsing
                 (run_line ~id ~memory_pages:64 (respell id sql) bindings))
          in
          if a <> b then
            QCheck.Test.fail_reportf "%s\n memoizing: %s\n parsing:   %s" line a b)
        requests;
      let fingerprint = S.Plan_cache.fingerprint catalog in
      List.iter
        (fun st ->
          let ast = parse_exn st.sql in
          match
            S.Plan_cache.find_text (S.Server.cache memo) ~fingerprint ~sql:st.sql
          with
          | None -> ()
          | Some (m, _) ->
            if m.S.Plan_cache.key <> S.Plan_cache.key ast then
              QCheck.Test.fail_reportf "%s: memoized key %s" st.sql
                m.S.Plan_cache.key;
            let bindings = List.map (fun h -> (h, 0.01)) st.hvs in
            if
              S.Plan_cache.bind_statement catalog m ~bindings ~memory_pages:64
              <> S.Plan_cache.bind catalog ast ~bindings ~memory_pages:64
            then QCheck.Test.fail_reportf "%s: memoized bindings differ" st.sql)
        statements;
      true)

let shape_plan catalog sql =
  let q =
    Result.get_ok
      (D.Sql.to_logical catalog (S.Plan_cache.generalize (parse_exn sql)))
  in
  (Result.get_ok
     (D.Optimizer.optimize
        ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
        catalog q))
    .D.Optimizer.plan

let single_sql =
  Printf.sprintf "SELECT * FROM R1 WHERE R1.%s <= :u" D.Paper_catalog.select_attr

let test_memo_rules_in_the_server () =
  let server = make_server (D.Paper_catalog.make ~relations:2) in
  let cache = S.Server.cache server in
  let texts () = (S.Plan_cache.stats cache).S.Plan_cache.texts in
  let serve id sql expect =
    match S.Server.handle server (run_request ~id sql) with
    | P.Ok_reply { cache = c; _ } when c = expect -> ()
    | r -> Alcotest.failf "request %d: %s" id (P.render_response r)
  in
  let sql = chain_sql 2 in
  serve 1 sql P.Miss;
  Alcotest.(check int) "the miss that stores the plan memoizes nothing" 0
    (texts ());
  serve 2 sql P.Hit;
  Alcotest.(check int) "the first hit memoizes the text" 1 (texts ());
  serve 3 sql P.Hit;
  Alcotest.(check int) "a memoized hit adds no text" 1 (texts ());
  Alcotest.(check int) "memoized hits are counted" 2
    (counter server D.Obs.Counter.Cache_hit);
  Alcotest.(check int) "in the plan cache too" 2
    (S.Plan_cache.stats cache).S.Plan_cache.hits;
  (* A respelling of the shape is another text of the same entry: it
     takes the entry's one slot. *)
  let respelled = "SELECT * FROM R2, R1 WHERE R2.jl = R1.jr AND R1.a <= :u" in
  serve 4 respelled P.Hit;
  Alcotest.(check int) "one text per entry" 1 (texts ());
  serve 5 respelled P.Hit;
  (* DDL moves the fingerprint: the memoized text still invalidates. *)
  S.Server.swap_catalog server (D.Paper_catalog.make ~relations:3);
  serve 6 respelled P.Miss;
  Alcotest.(check int) "drift invalidation counted" 1
    (S.Server.stats server).S.Server.cache_invalidated_drift;
  Alcotest.(check int) "the drifted entry's text went with it" 0 (texts ());
  serve 7 respelled P.Hit;
  Alcotest.(check int) "re-memoized on the next hit" 1 (texts ())

let test_memo_follows_entries () =
  let catalog = D.Paper_catalog.make ~relations:2 in
  let fingerprint = S.Plan_cache.fingerprint catalog in
  let cache = S.Plan_cache.create ~capacity:1 () in
  let texts () = (S.Plan_cache.stats cache).S.Plan_cache.texts in
  let hits () = (S.Plan_cache.stats cache).S.Plan_cache.hits in
  let a = chain_sql 2 and b = single_sql in
  let st_a = S.Plan_cache.statement (parse_exn a)
  and st_b = S.Plan_cache.statement (parse_exn b) in
  (* A fresh copy of the key, stored: physical equality then shows whose
     string the memo keeps. *)
  let key_a = String.concat "" [ st_a.S.Plan_cache.key ] in
  let plan_a = shape_plan catalog a and plan_b = shape_plan catalog b in
  let is_hit = function S.Plan_cache.Hit _ -> true | _ -> false in
  S.Plan_cache.store cache ~fingerprint ~key:key_a plan_a;
  Alcotest.(check bool) "hit" true
    (is_hit (S.Plan_cache.find_statement cache ~fingerprint ~sql:a st_a));
  (match S.Plan_cache.find_text cache ~fingerprint ~sql:a with
  | Some (st, plan) ->
    Alcotest.(check bool) "the memo shares the entry's key string" true
      (st.S.Plan_cache.key == key_a);
    Alcotest.(check bool) "and serves its plan" true (plan == plan_a)
  | None -> Alcotest.fail "memoized text not found");
  Alcotest.(check int) "a memo hit is a cache hit" 2 (hits ());
  Alcotest.(check bool) "another fingerprint: no memo hit" true
    (S.Plan_cache.find_text cache ~fingerprint:"drifted" ~sql:a = None);
  Alcotest.(check int) "and nothing counted" 2 (hits ());
  Alcotest.(check int) "nor evicted" 1 (texts ());
  (* LRU eviction takes the entry's text. *)
  S.Plan_cache.store cache ~fingerprint ~key:st_b.S.Plan_cache.key plan_b;
  Alcotest.(check int) "eviction drops the text" 0 (texts ());
  Alcotest.(check bool) "evicted text not served" true
    (S.Plan_cache.find_text cache ~fingerprint ~sql:a = None);
  let memoize_b () =
    ignore (S.Plan_cache.find_statement cache ~fingerprint ~sql:b st_b);
    Alcotest.(check int) "memoized" 1 (texts ())
  in
  memoize_b ();
  ignore (S.Plan_cache.invalidate cache ~key:st_b.S.Plan_cache.key);
  Alcotest.(check int) "invalidation drops the text" 0 (texts ());
  S.Plan_cache.store cache ~fingerprint ~key:st_b.S.Plan_cache.key plan_b;
  memoize_b ();
  S.Plan_cache.store cache ~fingerprint ~key:st_b.S.Plan_cache.key plan_b;
  Alcotest.(check int) "re-storing a key drops its text" 0 (texts ());
  memoize_b ();
  for _ = 1 to 3 do
    ignore (S.Plan_cache.note_replan cache ~key:st_b.S.Plan_cache.key)
  done;
  Alcotest.(check int) "a replan storm drops the text" 0 (texts ());
  S.Plan_cache.store cache ~fingerprint ~key:st_b.S.Plan_cache.key plan_b;
  memoize_b ();
  (match
     S.Plan_cache.find_statement cache ~fingerprint:"drifted" ~sql:b st_b
   with
  | S.Plan_cache.Invalidated_drift -> ()
  | _ -> Alcotest.fail "drift not detected");
  Alcotest.(check int) "drift drops the text" 0 (texts ());
  (* Only hits memoize. *)
  Alcotest.(check bool) "a miss" false
    (is_hit (S.Plan_cache.find_statement cache ~fingerprint ~sql:b st_b));
  Alcotest.(check int) "memoizes nothing" 0 (texts ())

(* Random stores and lookups over six texts of three shapes through a
   two-entry cache: the memo never holds more texts than the cache holds
   entries, and a memoized text is served its own shape. *)
let prop_memo_bounded_by_cache =
  let catalog = D.Paper_catalog.make ~relations:2 in
  let fingerprint = S.Plan_cache.fingerprint catalog in
  let sqls =
    [| chain_sql 2;
       "SELECT * FROM R2, R1 WHERE R2.jl = R1.jr AND R1.a <= 3";
       single_sql;
       "SELECT * FROM R1 WHERE R1.a <= :v";
       "SELECT * FROM R2 WHERE R2.a <= :u";
       "SELECT * FROM R2 WHERE R2.a <= 7" |]
  in
  let statements = Array.map (fun sql -> S.Plan_cache.statement (parse_exn sql)) sqls in
  let plans = lazy (Array.map (shape_plan catalog) sqls) in
  QCheck.Test.make ~name:"statement memo never outgrows the cache" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (pair bool (int_range 0 5)))
    (fun ops ->
      let plans = Lazy.force plans in
      let cache = S.Plan_cache.create ~capacity:2 () in
      List.for_all
        (fun (store, i) ->
          let st = statements.(i) in
          if store then
            S.Plan_cache.store cache ~fingerprint ~key:st.S.Plan_cache.key
              plans.(i)
          else begin
            match S.Plan_cache.find_text cache ~fingerprint ~sql:sqls.(i) with
            | Some (m, _) ->
              if m.S.Plan_cache.key <> st.S.Plan_cache.key then
                QCheck.Test.fail_reportf "%s served shape %s" sqls.(i)
                  m.S.Plan_cache.key
            | None ->
              ignore
                (S.Plan_cache.find_statement cache ~fingerprint ~sql:sqls.(i) st)
          end;
          let s = S.Plan_cache.stats cache in
          s.S.Plan_cache.texts <= s.S.Plan_cache.size
          && s.S.Plan_cache.size <= 2)
        ops)

(* --- parsers and the one-reply contract under fuzz ----------------------- *)

(* A valid RUN line.  Its memory= field is small or arbitrary: the
   server refuses a grant above [Plan_cache.max_memory_pages] before it
   sizes a buffer pool. *)
let valid_line_gen =
  let open QCheck.Gen in
  let* st = statement_gen in
  let* id = int_range 0 999 in
  let* memory_pages = opt (oneof [ int_range 1 128; int_range 1 max_int ]) in
  let* deadline_ms = opt (float_range 1. 500.) in
  let* retries = opt (int_range 0 9) in
  let* risk = opt (oneofl [ D.Risk.Expected; D.Risk.Worst_case; D.Risk.Quantile 0.9 ]) in
  let bindings = List.map (fun h -> (h, 0.02)) st.hvs in
  return
    (run_line ~id ?deadline_ms ?retries ?risk ?memory_pages st.sql bindings)

(* One to three byte edits: delete, insert, replace, truncate, or a
   minus sign after an '=' (a negative field value). *)
let mutated_line_gen =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    let* pos = int_range 0 (Int.max 0 (n - 1)) in
    let* c = char in
    let* kind = int_range 0 4 in
    let insert pos c = String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos) in
    return
      (match kind with
      | 0 when n > 0 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
      | 1 -> insert pos c
      | 2 when n > 0 ->
        String.sub s 0 pos ^ String.make 1 c ^ String.sub s (pos + 1) (n - pos - 1)
      | 4 -> (
        match String.index_from_opt s pos '=' with
        | Some eq -> insert (eq + 1) '-'
        | None -> s)
      | _ -> String.sub s 0 pos)
  in
  let* line = valid_line_gen in
  let* k = int_range 1 3 in
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go k line

let fuzz_input_gen =
  QCheck.Gen.(
    frequency
      [ (1, string_size ~gen:char (int_range 0 80));
        (1, map (fun s -> "RUN " ^ s) (string_size ~gen:char (int_range 0 80)));
        (4, mutated_line_gen) ])

let never_raises f x =
  match f x with
  | _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "%S raised %s" x (Printexc.to_string e)

let prop_parsers_never_raise =
  QCheck.Test.make ~name:"protocol and SQL parsers never raise" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") fuzz_input_gen)
    (fun s ->
      never_raises P.parse_request s
      && never_raises D.Sql.parse s
      &&
      match P.parse_request s with
      | Ok (P.Run r) -> never_raises D.Sql.parse r.P.sql
      | Ok _ | Error _ -> true)

let fuzz_server =
  lazy (make_server (D.Paper_catalog.make ~relations:3))

let prop_one_typed_reply =
  QCheck.Test.make ~name:"handle_line answers every line with one typed reply"
    ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S") fuzz_input_gen)
    (fun line ->
      match S.Server.handle_line (Lazy.force fuzz_server) line with
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | reply ->
        if String.contains reply '\n' || String.contains reply '\r' then
          QCheck.Test.fail_reportf "reply spans lines: %S" reply;
        (match P.parse_response reply with
        | Ok _ -> true
        | Error e -> QCheck.Test.fail_reportf "untyped reply %S: %s" reply e))

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
      Alcotest.test_case "memory grant is bounded" `Quick
        test_memory_grant_bounded;
      Alcotest.test_case "latency percentiles keep a bounded window" `Quick
        test_latency_window;
      Alcotest.test_case "catalog drift invalidates cached plans" `Quick
        test_drift_invalidation;
      Alcotest.test_case "dropped attribute answers infeasible" `Quick
        test_dropped_attribute_infeasible;
      Alcotest.test_case "a hit allocates little beyond its run" `Quick
        test_hit_allocation;
      Alcotest.test_case "concurrent cache hits agree" `Quick
        test_concurrent_hits_agree;
      Alcotest.test_case "cached plans match the reference evaluator" `Slow
        test_cached_plan_matches_reference;
      Alcotest.test_case "poisoned shape trips its breaker" `Quick
        test_poisoned_shape_trips_breaker;
      Alcotest.test_case "overload sheds with typed responses" `Quick
        test_overload_sheds_typed;
      Alcotest.test_case "request-side error classes" `Quick
        test_request_error_classes;
      QCheck_alcotest.to_alcotest prop_statement_memo;
      Alcotest.test_case "statement memo rules in the server" `Quick
        test_memo_rules_in_the_server;
      Alcotest.test_case "statement memo follows cache entries" `Quick
        test_memo_follows_entries;
      QCheck_alcotest.to_alcotest prop_memo_bounded_by_cache;
      QCheck_alcotest.to_alcotest prop_parsers_never_raise;
      QCheck_alcotest.to_alcotest prop_one_typed_reply ] )
