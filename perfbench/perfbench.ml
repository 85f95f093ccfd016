(* The repository benchmark: serve-path workloads driven through
   [Server.handle_line] by one client in a closed loop.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 (the untraced run) builds the server several times, each
   build ending with a warm-up replay of the workload's round, then
   replays the round a fixed number of times and reports the end-to-end
   metrics.  --trace 1 (the traced run) serves the same requests once
   through the server and once through the benchmark's mirror of the
   request path (mirror.ml), and reports per-layer metrics.  Both check
   every reply; the last line of output is one JSON object.

   Estimators.  Neighbours on a shared host only ever add time, and
   after warm-up every replay of a request does the same work, so a
   request's fastest service time over the replays estimates that
   work's own cost; latency percentiles are taken over those per-request
   minima.  Throughput is the round's request count over a round time
   built from blocks of consecutive requests, each at the fastest of its
   replays: a block keeps the amortized costs (GC, the server's latency
   reservoirs) that a per-request minimum drops.  Set-up time takes the
   warm-up replays of several independent builds by the same block
   rule.  See README.md in this directory. *)

module D = Dqep
module Server = D.Serve.Server
module Protocol = D.Serve.Protocol
module Plan_cache = D.Serve.Plan_cache
module Trace = D.Obs.Trace
module Counter = D.Obs.Counter

let db_seed = 7
let blocks = 50
let now_ms = Spans.now_ms

(* --- command line and environment ---------------------------------------- *)

type args = { workload : string; seed : int; seconds : int; trace : bool }

let usage () =
  prerr_endline
    "usage: perfbench --workload hit_point|miss_churn|scan_join --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | "--workload" :: w :: rest -> go { acc with workload = w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n -> go { acc with seed = n } rest
      | None -> usage ())
    | "--seconds" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> go { acc with seconds = n } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { acc with trace = t = "1" } rest
    | [] -> acc
    | _ -> usage ()
  in
  let a =
    go { workload = ""; seed = 1; seconds = 10; trace = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem_assoc a.workload Workloads.all) then usage ();
  a

(* The benchmark measures the code's defaults: any DQEP_* variable would
   change the engine, worker count, checkpointing or I/O guard under
   it. *)
let refuse_dqep_env () =
  match
    List.filter
      (fun kv -> String.starts_with ~prefix:"DQEP_" kv)
      (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | set ->
    Printf.eprintf "perfbench: refusing to run with %s set\n"
      (String.concat ", " set);
    exit 2

(* --- estimators ------------------------------------------------------------ *)

(* Nearest rank, the project's one percentile definition. *)
let percentile p values = D.Stats.percentile p (Array.to_list values)

(* Each request's fastest service time over the replays. *)
let best_of_replay times =
  Array.init (Array.length times.(0)) (fun i ->
      Array.fold_left (fun acc row -> Float.min acc row.(i)) infinity times)

(* A round time from per-request times, one row per replay: the round
   cut into [blocks] consecutive blocks, each block's time taken at the
   fastest of its replays, summed.  A block is long enough to carry its
   share of GC, short enough that a slow phase of the host rarely covers
   every replay of it. *)
let fast_round_ms times =
  let n = Array.length times.(0) in
  let size = (n + blocks - 1) / blocks in
  List.fold_left ( +. ) 0.
    (List.init ((n + size - 1) / size) (fun b ->
         let len = Int.min size (n - (b * size)) in
         Array.fold_left
           (fun acc row ->
             Float.min acc (Array.fold_left ( +. ) 0. (Array.sub row (b * size) len)))
           infinity times))

(* --- serving and checking -------------------------------------------------- *)

let server_config n =
  Server.config
    ~session:(D.Session.config ~max_inflight:1 ~max_queue:(n + 1) ())
    ()

(* Row count of every request's bound query under the reference
   evaluator, on a database built from the server's seed; its pool holds
   every page, so the nested-loop scans never go to disk. *)
let reference_rows catalog (wl : Workloads.t) =
  let db = D.Database.build ~frames:4096 ~seed:db_seed catalog in
  let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e) in
  Array.map
    (fun (sql, bindings, memory_pages) ->
      let ast = ok "parse" (D.Sql.parse sql) in
      let logical =
        ok "to_logical" (D.Sql.to_logical catalog (Plan_cache.generalize ast))
      in
      let b = ok "bind" (Plan_cache.bind catalog ast ~bindings ~memory_pages) in
      List.length (snd (D.Reference.eval db b logical)))
    wl.Workloads.queries

type check = {
  mutable sent : int;
  mutable failed : int;
  mutable first_error : string option;
}

let fail chk msg =
  chk.failed <- chk.failed + 1;
  if chk.first_error = None then chk.first_error <- Some msg

(* Every reply must be OK with the reference row count (so every replay
   returns the same count) and, after warm-up, take the workload's
   cache path. *)
let check chk ~reference ~expect replies =
  Array.iteri
    (fun i reply ->
      chk.sent <- chk.sent + 1;
      match Protocol.parse_response reply with
      | Ok (Protocol.Ok_reply { rows; cache; _ }) ->
        if rows <> reference.(i) then
          fail chk
            (Printf.sprintf "request %d: %d rows, reference %d" i rows
               reference.(i))
        else (
          match expect with
          | Some e when cache <> e ->
            fail chk
              (Printf.sprintf "request %d took the %s path, expected %s" i
                 (Protocol.cache_role_name cache) (Protocol.cache_role_name e))
          | Some _ | None -> ())
      | Ok _ | Error _ -> fail chk (Printf.sprintf "request %d: %s" i reply))
    replies

(* One closed-loop replay of the round; per-request service times go
   into [times]. *)
let replay serve round ~times ~replies =
  Array.iteri
    (fun i line ->
      let t0 = now_ms () in
      replies.(i) <- serve i line;
      times.(i) <- now_ms () -. t0)
    round

(* --- output ---------------------------------------------------------------- *)

(* [listed]: the metric is one BENCHMARK.json names, so it goes into the
   JSON result line; the others are printed for reading only. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  listed : bool;
}

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

let print_result chk metrics =
  Printf.printf "%-28s %16s %-6s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m ->
      Printf.printf "%-28s %16.6f %-6s %d\n" m.name m.value m.unit_ m.samples)
    metrics;
  Printf.printf "requests %d, failed %d\n" chk.sent chk.failed;
  Option.iter (Printf.printf "first error: %s\n") chk.first_error;
  let json_metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (chk.failed = 0) chk.sent chk.failed
    (String.concat ", "
       (List.map json_metric (List.filter (fun m -> m.listed) metrics)))

(* --- the untraced run ------------------------------------------------------ *)

(* What the untraced run measured, reduced to a few figures; the
   per-request time matrices die with [serve_untraced]'s frame, so the
   live heap measured after it holds only the server's own state. *)
type summary = {
  best : float array;  (** each request's best-of-replay time *)
  round_ms : float;  (** the fastest-block round time *)
  builds : int;
  setup_ms : float;
}

let serve_untraced (wl : Workloads.t) ~replays ~setups ~reference chk =
  let n = Array.length wl.round in
  let replies = Array.make n "" in
  (* A build: the catalog, the database pool and [Server.create] (timed
     as [create_ms]), then the warm-up replay, whose first request builds
     the database lazily (timed per request into [warm]).  Builds are
     spread over the run, between replays, and each starts from a
     collected heap.  The first build is the one served; the others are
     dropped as soon as they are timed. *)
  let create_ms = ref infinity and warm = ref [] in
  let build () =
    Gc.full_major ();
    let t0 = now_ms () in
    let catalog = D.Paper_catalog.make ~relations:Workloads.relations in
    let acquire, release =
      Server.db_pool
        ~build:(fun () -> D.Database.build ~seed:db_seed catalog)
        ~slots:1 ()
    in
    let server = Server.create ~config:(server_config n) ~acquire ~release catalog in
    create_ms := Float.min !create_ms (now_ms () -. t0);
    let times = Array.make n 0. in
    replay (fun _ l -> Server.handle_line server l) wl.round ~times ~replies;
    warm := times :: !warm;
    check chk ~reference ~expect:None replies;
    server
  in
  let server = build () in
  let times = Array.make_matrix replays n 0. in
  for r = 0 to replays - 1 do
    if r > 0 && r * setups / replays > (r - 1) * setups / replays then
      ignore (build () : Server.t);
    Gc.full_major ();
    replay (fun _ l -> Server.handle_line server l) wl.round ~times:times.(r)
      ~replies;
    check chk ~reference ~expect:(Some wl.expect) replies
  done;
  (* Set-up by the rule throughput uses: the warm-up replays' round time
     at the fast end of the builds, block by block, on top of the fastest
     create. *)
  let warm = Array.of_list !warm in
  ( server,
    { best = best_of_replay times; round_ms = fast_round_ms times;
      builds = Array.length warm;
      setup_ms = !create_ms +. fast_round_ms warm } )

let untraced (wl : Workloads.t) ~replays ~setups ~reference chk =
  let n = Array.length wl.round in
  let server, s = serve_untraced wl ~replays ~setups ~reference chk in
  (* What the server holds after the run, measured while it is still
     reachable and nothing of the harness's but [s] is. *)
  let peak_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Gc.full_major ();
  let live_words = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity server : Server.t);
  let best = s.best in
  let m ?(listed = true) name value unit_ samples =
    { name; value; unit_; samples; listed }
  in
  (* p99 needs ten requests beyond it, so only rounds of 1000 or more
     report it, and it stays out of the JSON line that every workload
     shares. *)
  [ m "latency_p50_ms" (percentile 50. best) "ms" n;
    m "latency_p90_ms" (percentile 90. best) "ms" n ]
  @ (if n >= 1000 then [ m ~listed:false "latency_p99_ms" (percentile 99. best) "ms" n ]
     else [])
  @ [ m "throughput_rps" (float_of_int n /. (s.round_ms /. 1000.)) "1/s"
        (replays * blocks);
      m "setup_s" (s.setup_ms /. 1000.) "s" (s.builds * blocks);
      (* The peak moves with GC pacing (it differs by up to a seventh
         between seeds of one workload); the live heap does not. *)
      m ~listed:false "heap_peak_mb" (mb peak_words) "MB" 1;
      m "heap_live_mb" (mb live_words) "MB" 1;
      m ~listed:false "error_frac"
        (float_of_int chk.failed /. float_of_int (Int.max 1 chk.sent))
        "ratio" chk.sent ]

(* --- the traced run -------------------------------------------------------- *)

let traced (wl : Workloads.t) ~replays ~reference ~spans_path chk =
  let n = Array.length wl.round in
  let replies = Array.make n "" in
  let mirror_replies = Array.make n "" in
  let catalog = D.Paper_catalog.make ~relations:Workloads.relations in
  (* Databases are built up front, so neither side charges a build to
     its first request. *)
  let pool () =
    let db = D.Database.build ~seed:db_seed catalog in
    Server.db_pool ~build:(fun () -> db) ~slots:1 ()
  in
  let server =
    let acquire, release = pool () in
    Server.create ~config:(server_config n) ~acquire ~release catalog
  in
  let mirror =
    let acquire, release = pool () in
    Mirror.create ~acquire ~release
      ~session:(D.Session.config ~max_inflight:1 ~max_queue:(n + 1) ())
      catalog
  in
  let serve_mirror r i l =
    try Mirror.handle_line mirror ~request:((r * n) + i) l
    with Mirror.Diverged why ->
      fail chk ("mirror diverged: " ^ why);
      "ERR mirror"
  in
  (* Warm-up plus [replays] replays through each, alternating request by
     request so that both see the same phases of the host and the same
     state of the processor's caches. *)
  let untraced_ms = ref 0. in
  Gc.full_major ();
  for r = 0 to replays do
    let expect = if r = 0 then None else Some wl.expect in
    Array.iteri
      (fun i line ->
        let t0 = now_ms () in
        replies.(i) <- Server.handle_line server line;
        untraced_ms := !untraced_ms +. (now_ms () -. t0);
        mirror_replies.(i) <- serve_mirror r i line)
      wl.round;
    check chk ~reference ~expect replies;
    check chk ~reference ~expect mirror_replies
  done;
  let untraced_ms = !untraced_ms in
  List.iter
    (fun (what, server_v, mirror_v) ->
      if server_v <> mirror_v then
        fail chk
          (Printf.sprintf "fidelity: %s is %d in the server, %d in the mirror"
             what server_v mirror_v))
    (Mirror.fidelity mirror server);
  Spans.write mirror.Mirror.spans spans_path;
  let sp = mirror.Mirror.spans in
  let requests = float_of_int ((replays + 1) * n) in
  let traced_ms = Spans.request_ms sp in
  let samples = (replays + 1) * n in
  let m ?(listed = true) name value unit_ =
    { name; value; unit_; samples; listed }
  in
  let per_request name v = m name (float_of_int v /. requests) "count" in
  let per_call name v calls =
    m name (if calls = 0 then 0. else float_of_int v /. float_of_int calls) "count"
  in
  let layer_metrics =
    List.concat_map
      (fun l ->
        let self = Spans.self_ms sp l in
        [ m (Spans.name l ^ ".ms") (self /. requests) "ms";
          m (Spans.name l ^ ".share") (self /. traced_ms) "ratio" ])
      (List.tl Spans.layers)
  in
  let obs = D.Session.obs mirror.Mirror.session in
  let c = Trace.get obs in
  let cs = Plan_cache.stats mirror.Mirror.cache in
  let optimize_calls = Spans.calls sp Spans.Optimizer in
  let attributed =
    List.fold_left (fun acc l -> acc +. Spans.self_ms sp l) 0. (List.tl Spans.layers)
  in
  layer_metrics
  @ [ m "plan_cache.hit_ratio"
        (float_of_int cs.Plan_cache.hits
        /. float_of_int (Int.max 1 (cs.Plan_cache.hits + cs.Plan_cache.misses)))
        "ratio";
      per_request "plan_cache.evictions" cs.Plan_cache.evictions;
      per_request "optimizer.calls" optimize_calls;
      per_call "optimizer.memo_groups" mirror.Mirror.memo_groups optimize_calls;
      per_call "optimizer.choose_nodes" mirror.Mirror.choose_nodes optimize_calls;
      per_call "optimizer.plan_nodes" mirror.Mirror.plan_nodes optimize_calls;
      per_request "startup.choose_decisions" mirror.Mirror.choose_decisions;
      per_request "startup.nodes_evaluated" mirror.Mirror.nodes_evaluated;
      (* Rows are fixed by the queries; no optimization moves them. *)
      m ~listed:false "executor.rows"
        (float_of_int (c Counter.Rows_out) /. requests) "count";
      per_request "executor.spilled_tuples" (c Counter.Spilled_tuples);
      per_request "executor.spill_partitions" (c Counter.Spill_partitions);
      per_request "storage.logical_reads" (c Counter.Logical_reads);
      per_request "storage.physical_reads" (c Counter.Physical_reads);
      per_request "storage.physical_writes" (c Counter.Physical_writes);
      m "storage.hit_ratio"
        (1.
        -. float_of_int (c Counter.Physical_reads)
           /. float_of_int (Int.max 1 (c Counter.Logical_reads)))
        "ratio";
      (* Checks on the mirror's fidelity rather than measurements of the
         program, so printed only. *)
      m ~listed:false "trace.coverage" (attributed /. untraced_ms) "ratio";
      m ~listed:false "trace.overhead_frac" ((traced_ms /. untraced_ms) -. 1.)
        "ratio" ]

(* --- main ------------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  refuse_dqep_env ();
  let wl = (List.assoc args.workload Workloads.all) args.seed in
  let n = Array.length wl.Workloads.round in
  let replays =
    Int.max 3
      (int_of_float
         (Float.round (float_of_int args.seconds /. wl.Workloads.nominal_round_s)))
  in
  let replays = if args.trace then Int.max 1 (replays / 2) else replays in
  (* Builds for [setup_s]: about a sixth of the run at one warm-up round
     each, and never fewer than five.  A build of [hit_point] lasts
     0.3-0.5 s, short enough that a slow phase of the host can cover
     each of five. *)
  let setups =
    Int.max 5
      (int_of_float
         (Float.round (float_of_int args.seconds /. 6. /. wl.Workloads.nominal_round_s)))
  in
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%d trace=%d\n\
     # engine=%s workers=%d ocaml=%s nproc=%d clients=1 (closed loop)\n\
     # round=%d requests, shapes=%d, grants=%s pages, cache capacity=64, \
     replays=%d after warm-up%s\n"
    args.workload args.seed args.seconds
    (if args.trace then 1 else 0)
    (D.Exec_common.engine_name (D.Exec_common.default_engine ()))
    (D.Exec_common.default_workers ())
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    n wl.Workloads.shapes
    (String.concat "," (List.map string_of_int wl.Workloads.grants))
    replays
    (if args.trace then "" else Printf.sprintf ", setups=%d" setups);
  let reference =
    reference_rows (D.Paper_catalog.make ~relations:Workloads.relations) wl
  in
  let chk = { sent = 0; failed = 0; first_error = None } in
  let metrics =
    if args.trace then begin
      let dir = ".bench_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let spans_path =
        Filename.concat dir
          (Printf.sprintf "spans-%s-seed%d.tsv" args.workload args.seed)
      in
      let ms = traced wl ~replays ~reference ~spans_path chk in
      Printf.printf "# spans written to %s\n" spans_path;
      ms
    end
    else untraced wl ~replays ~setups ~reference chk
  in
  print_result chk metrics;
  if chk.failed > 0 then exit 1
