(* The traced mirror of [Server.handle_line].

   The server's request path, rebuilt from each layer's public functions
   so that every call into a layer runs inside a span.  It follows
   [Server.handle_run] for a request that completes on its first
   attempt, with [Session.submit] and [Resilience.run] unrolled the way
   they run under the benchmark's configuration: no deadline, no
   memory pool (so no admission precheck), no checkpoints, no faults.
   Any other outcome (a failover, a retry, an error reply) is a path
   the mirror does not copy, so it raises [Diverged] and the traced run
   fails rather than report layers for a request the server would have
   served differently.

   [trace.coverage] in the output compares the mirror's attributed time
   with the untraced server's, which flags drift between the two. *)

module D = Dqep
module Protocol = D.Serve.Protocol
module Plan_cache = D.Serve.Plan_cache
module Breaker = D.Serve.Breaker
module Server = D.Serve.Server
module Trace = D.Obs.Trace
module Counter = D.Obs.Counter
module Feedback = D.Obs.Feedback
module Buffer_pool = D.Buffer_pool

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

type t = {
  spans : Spans.t;
  catalog : D.Catalog.t;
  fp : string;
  cache : Plan_cache.t;
  session : D.Session.t;
  acquire : shape:string -> D.Database.t;
  release : shape:string -> D.Database.t -> unit;
  breakers : (string, Breaker.t) Hashtbl.t;
  mutable hit_lat_ms : float list;
  mutable miss_lat_ms : float list;
  (* Per-call counts the layers return. *)
  mutable memo_groups : int;
  mutable choose_nodes : int;
  mutable plan_nodes : int;
  mutable choose_decisions : int;
  mutable nodes_evaluated : int;
}

(* The same configuration the benchmark gives the untraced server. *)
let create ~acquire ~release ~session catalog =
  { spans = Spans.create (); catalog; fp = Plan_cache.fingerprint catalog;
    cache = Plan_cache.create ~capacity:64 ~replan_threshold:3 ();
    session = D.Session.create ~config:session (); acquire; release;
    breakers = Hashtbl.create 16; hit_lat_ms = []; miss_lat_ms = [];
    memo_groups = 0; choose_nodes = 0; plan_nodes = 0; choose_decisions = 0;
    nodes_evaluated = 0 }

let obs t = D.Session.obs t.session
let span t = Spans.span t.spans

let breaker_for t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
    let b = Breaker.create ~clock:Unix.gettimeofday Breaker.default in
    Hashtbl.replace t.breakers key b;
    b

(* Resilience.run's I/O guard, in pages. *)
let budget_pages env ~factor ~anticipated_cost =
  if factor <= 0. then None
  else
    let d = D.Env.device env in
    let pages = factor *. anticipated_cost /. d.D.Device.seq_page_io in
    Some (Int.max 16 (int_of_float (Float.ceil pages)))

(* Session.submit followed by Resilience.run, on the path where the
   first attempt completes. *)
let submit t db bindings plan =
  let so = obs t in
  Trace.incr so Counter.Submitted;
  Trace.incr so Counter.Admitted;
  let rt = Trace.create ~taps:true () in
  let env = D.Env.of_bindings (D.Database.catalog db) bindings in
  let pool = D.Database.pool db in
  let plan = span t Spans.Verify (fun () -> D.Executor.check_feasible db env plan) in
  let factor = D.Env.io_budget_factor env in
  Buffer_pool.attach_obs pool rt;
  let tuples, resolution =
    Fun.protect
      ~finally:(fun () ->
        Buffer_pool.detach_obs pool;
        Buffer_pool.set_io_limit pool None)
      (fun () ->
        Buffer_pool.resize pool (D.Executor.memory_pages env);
        let resolution =
          span t Spans.Startup (fun () ->
              D.Startup.resolve ~risk:D.Resilience.default.D.Resilience.risk
                ~overrides:[] ~excluded:[] env plan)
        in
        let before = Buffer_pool.stats pool in
        Buffer_pool.set_io_limit pool
          (Option.map
             (fun pages ->
               before.Buffer_pool.physical_reads
               + before.Buffer_pool.physical_writes + pages)
             (budget_pages env ~factor
                ~anticipated_cost:resolution.D.Startup.anticipated_cost));
        Trace.incr rt Counter.Attempts;
        match
          span t Spans.Executor (fun () ->
              D.Executor.execute db env ~gov:D.Governor.none ~obs:rt
                ~materialized:[] ~checkpoint:D.Checkpoint.disabled
                resolution.D.Startup.plan)
        with
        | tuples, _profile -> (tuples, resolution)
        | exception e ->
          diverged "execution raised %s; the server fails over"
            (Printexc.to_string e))
  in
  let st = resolution.D.Startup.stats in
  t.choose_decisions <- t.choose_decisions + st.D.Startup.choose_decisions;
  t.nodes_evaluated <- t.nodes_evaluated + st.D.Startup.nodes_evaluated;
  List.iter
    (fun c ->
      let d = Trace.get rt c in
      if d <> 0 then Trace.add so c d)
    Counter.all;
  span t Spans.Feedback (fun () ->
      let fb = D.Session.feedback t.session in
      List.iter
        (fun (var, v) -> Feedback.observe_selectivity fb var v)
        bindings.D.Bindings.selectivities;
      let nodes = Hashtbl.create 32 in
      D.Plan.iter
        (fun node -> Hashtbl.replace nodes node.D.Plan.pid node)
        resolution.D.Startup.plan;
      List.iter
        (fun (pid, _op, rows, _batches) ->
          match Hashtbl.find_opt nodes pid with
          | Some node -> Feedback.observe_rows fb ~key:(D.Plan.rels_key node) rows
          | None -> ())
        (Trace.taps rt));
  Trace.incr so Counter.Completed;
  tuples

let find_or_optimize t ~key ast =
  match span t Spans.Plan_cache (fun () -> Plan_cache.find t.cache ~fingerprint:t.fp ~key) with
  | Plan_cache.Hit plan ->
    Trace.incr (obs t) Counter.Cache_hit;
    (plan, Protocol.Hit)
  | Plan_cache.Miss | Plan_cache.Invalidated_drift ->
    Trace.incr (obs t) Counter.Cache_miss;
    let general = span t Spans.Plan_cache (fun () -> Plan_cache.generalize ast) in
    let logical =
      match span t Spans.Sql (fun () -> D.Sql.to_logical t.catalog general) with
      | Ok l -> l
      | Error e -> diverged "semantic error: %s" e
    in
    let refine env =
      let env = D.Session.refined_env t.session env in
      let shape_fb = Plan_cache.shape_feedback t.cache ~key in
      D.Env.refine_dists env ~selectivities:(Feedback.selectivity_dists shape_fb)
    in
    let r =
      match
        span t Spans.Optimizer (fun () ->
            D.Optimizer.optimize ~refine
              ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
              t.catalog logical)
      with
      | Ok r -> r
      | Error e -> diverged "optimize failed: %s" e
    in
    let s = r.D.Optimizer.stats in
    t.memo_groups <- t.memo_groups + s.D.Optimizer.groups;
    t.choose_nodes <- t.choose_nodes + s.D.Optimizer.choose_nodes;
    t.plan_nodes <- t.plan_nodes + s.D.Optimizer.plan_nodes;
    span t Spans.Plan_cache (fun () ->
        let before = (Plan_cache.stats t.cache).Plan_cache.evictions in
        Plan_cache.store t.cache ~fingerprint:t.fp ~key r.D.Optimizer.plan;
        let after = (Plan_cache.stats t.cache).Plan_cache.evictions in
        if after > before then Trace.add (obs t) Counter.Cache_evicted (after - before));
    (r.D.Optimizer.plan, Protocol.Miss)

let handle_run t (run : Protocol.run) =
  let t0 = Unix.gettimeofday () in
  let ast =
    match span t Spans.Sql (fun () -> D.Sql.parse run.Protocol.sql) with
    | Ok ast -> ast
    | Error e -> diverged "parse error: %s" e
  in
  let key = span t Spans.Plan_cache (fun () -> Plan_cache.key ast) in
  let breaker = breaker_for t key in
  (match Breaker.admit breaker with
  | Breaker.Admit -> ()
  | Breaker.Reject _ -> diverged "breaker open for %s" key);
  let plan, cached = find_or_optimize t ~key ast in
  let memory_pages = Option.value run.Protocol.memory_pages ~default:64 in
  let bindings =
    match
      span t Spans.Plan_cache (fun () ->
          Plan_cache.bind t.catalog ast ~bindings:run.Protocol.bindings
            ~memory_pages)
    with
    | Ok b -> b
    | Error e -> diverged "bind error: %s" e
  in
  let db = t.acquire ~shape:key in
  let tuples =
    Fun.protect
      ~finally:(fun () -> t.release ~shape:key db)
      (fun () -> submit t db bindings plan)
  in
  Breaker.success breaker;
  span t Spans.Feedback (fun () ->
      let shape_fb = Plan_cache.shape_feedback t.cache ~key in
      List.iter
        (fun (p, s) -> Feedback.observe_selectivity shape_fb p s)
        bindings.D.Bindings.selectivities);
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match cached with
  | Protocol.Hit -> t.hit_lat_ms <- ms :: t.hit_lat_ms
  | Protocol.Miss -> t.miss_lat_ms <- ms :: t.miss_lat_ms);
  Protocol.Ok_reply
    { id = run.Protocol.id; rows = List.length tuples; cache = cached;
      latency_ms = ms }

let handle_line t ~request line =
  Spans.set_request t.spans request;
  span t Spans.Request (fun () ->
      let reply =
        match span t Spans.Protocol (fun () -> Protocol.parse_request line) with
        | Ok (Protocol.Run run) -> handle_run t run
        | Ok _ -> diverged "not a RUN request: %s" line
        | Error e -> diverged "protocol error: %s" e
      in
      span t Spans.Protocol (fun () -> Protocol.render_response reply))

(* Counters both the mirror and the server record; a traced run fails
   unless every pair is equal. *)
let fidelity t server =
  let s = Server.stats server in
  let so = D.Session.obs (Server.session server) in
  let mo = obs t in
  let ms = Plan_cache.stats t.cache in
  let ss = Plan_cache.stats (Server.cache server) in
  [ ("cache_hits", s.Server.cache_hits, Trace.get mo Counter.Cache_hit);
    ("cache_misses", s.Server.cache_misses, Trace.get mo Counter.Cache_miss);
    ("cache_evictions", s.Server.cache_evictions, Trace.get mo Counter.Cache_evicted);
    ("plan_cache.hits", ss.Plan_cache.hits, ms.Plan_cache.hits);
    ("plan_cache.evictions", ss.Plan_cache.evictions, ms.Plan_cache.evictions);
    ("rows_out", Trace.get so Counter.Rows_out, Trace.get mo Counter.Rows_out);
    ("logical_reads", Trace.get so Counter.Logical_reads, Trace.get mo Counter.Logical_reads);
    ("physical_reads", Trace.get so Counter.Physical_reads, Trace.get mo Counter.Physical_reads) ]
