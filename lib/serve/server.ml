(* The request-serving loop: wire protocol -> plan cache -> breakers ->
   governed session.

   One server owns one Session (admission slots, bounded queue, shared
   memory pool), one plan cache, and one breaker per query shape.  The
   per-request path:

     statement memo + cache find (a text that hit before is not
       parsed; any other is parsed and its shape key rendered)
     -> breaker admit
       (miss: optimize the generalized shape under the session's
        feedback-refined env, admit the optimizer's certificate so
        activation verifies only feasibility, store)
     -> bind parameters -> governor (request deadline, created BEFORE
        admission so the budget covers queueing) -> Session.submit
     -> classify the typed outcome, feed the breaker and the cache's
        invalidation hooks, record latency.

   A database serves one run at a time (a run resizes its buffer pool,
   arms the pool's I/O limit and tees the pool's counters into its own
   trace), so the server never shares a Database between in-flight
   requests: each request borrows one from the caller-supplied
   acquire/release pair ({!db_pool} is the default implementation).  The pair is keyed by
   shape so harnesses can hand a poisoned (fault-injected) database to
   one shape while every other shape keeps serving healthy storage —
   exactly the isolation the breaker is meant to prove.

   Every breaker admission is a ticket settled exactly once:
   server-side deaths count as breaker failures; client errors, sheds
   and budget outcomes (deadline, cancellation) settle as success.  See
   breaker.ml. *)

module Json = Dqep_util.Json
module Stats_u = Dqep_util.Stats
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter
module Feedback = Dqep_obs.Feedback
module Env = Dqep_cost.Env
module Bindings = Dqep_cost.Bindings
module Catalog = Dqep_catalog.Catalog
module Database = Dqep_storage.Database
module Sql = Dqep_sql.Sql
module Optimizer = Dqep_optimizer.Optimizer
module Session = Dqep_exec.Session
module Resilience = Dqep_exec.Resilience
module Governor = Dqep_exec.Governor
module Executor = Dqep_exec.Executor

type config = {
  session : Session.config;
  cache_capacity : int;
  replan_threshold : int;
  breaker : Breaker.config;
  resilience : Resilience.config;
  default_deadline : float option;
  default_memory_pages : int;
  max_request_retries : int;
  clock : unit -> float;
}

let config ?(session = Session.config ()) ?(cache_capacity = 64)
    ?(replan_threshold = 3) ?(breaker = Breaker.default)
    ?(resilience = Resilience.default) ?default_deadline
    ?(default_memory_pages = 64) ?(max_request_retries = 4)
    ?(clock = Unix.gettimeofday) () =
  (match default_deadline with
  | Some d when d <= 0. -> invalid_arg "Server.config: default_deadline <= 0"
  | Some _ | None -> ());
  if default_memory_pages < 1 then
    invalid_arg "Server.config: default_memory_pages < 1";
  if max_request_retries < 0 then
    invalid_arg "Server.config: max_request_retries < 0";
  { session; cache_capacity; replan_threshold; breaker; resilience;
    default_deadline; default_memory_pages; max_request_retries; clock }

(* The most recent [latency_window] latencies of one class: appended
   until the window is full, then overwritten oldest first, so a
   long-lived server's latency state stays bounded. *)
let latency_window = 4096

type window = { mutable buf : float array; mutable seen : int }

let new_window () = { buf = [||]; seen = 0 }

let record w ms =
  let len = Array.length w.buf in
  if w.seen < len then w.buf.(w.seen) <- ms
  else if len < latency_window then begin
    let buf = Array.make (Int.min latency_window (Int.max 64 (2 * len))) 0. in
    Array.blit w.buf 0 buf 0 len;
    buf.(len) <- ms;
    w.buf <- buf
  end
  else w.buf.(w.seen mod latency_window) <- ms;
  w.seen <- w.seen + 1

let window_samples w =
  Array.to_list (Array.sub w.buf 0 (Int.min w.seen (Array.length w.buf)))

type t = {
  cfg : config;
  session : Session.t;
  cache : Plan_cache.t;
  acquire : shape:string -> Database.t;
  release : shape:string -> Database.t -> unit;
  mu : Mutex.t;  (* guards catalog/fp swap, breakers, latency reservoirs *)
  mutable catalog : Catalog.t;
  mutable fp : string;
  breakers : (string, Breaker.t) Hashtbl.t;
  hit_lat_ms : window;
  miss_lat_ms : window;
  requests : int Atomic.t;
  errors : int Atomic.t;
  started : float;
}

(* A bounded pool of interchangeable databases, built lazily up to
   [slots]; acquire blocks when every database is out on loan, which
   caps the storage footprint at [slots] copies no matter how many
   client domains hammer the server. *)
let db_pool ~build ~slots () =
  if slots < 1 then invalid_arg "Server.db_pool: slots < 1";
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let free = ref [] in
  let built = ref 0 in
  let acquire ~shape:_ =
    Mutex.lock mu;
    let rec take () =
      match !free with
      | db :: rest ->
        free := rest;
        Mutex.unlock mu;
        db
      | [] ->
        if !built < slots then begin
          incr built;
          Mutex.unlock mu;
          (* Building outside the lock keeps other borrowers moving;
             the slot was reserved by [incr built]. *)
          build ()
        end
        else begin
          Condition.wait cond mu;
          take ()
        end
    in
    take ()
  in
  let release ~shape:_ db =
    Mutex.lock mu;
    free := db :: !free;
    Condition.signal cond;
    Mutex.unlock mu
  in
  (acquire, release)

let create ?(config = config ()) ~acquire ~release catalog =
  { cfg = config;
    session = Session.create ~config:config.session ();
    cache =
      Plan_cache.create ~capacity:config.cache_capacity
        ~replan_threshold:config.replan_threshold ();
    acquire; release; mu = Mutex.create (); catalog;
    fp = Plan_cache.fingerprint catalog; breakers = Hashtbl.create 16;
    hit_lat_ms = new_window (); miss_lat_ms = new_window (); requests = Atomic.make 0;
    errors = Atomic.make 0; started = config.clock () }

let session t = t.session
let cache t = t.cache

let locked t f = Mutex.protect t.mu f

let swap_catalog t catalog =
  locked t (fun () ->
      t.catalog <- catalog;
      t.fp <- Plan_cache.fingerprint catalog)

let obs t = Session.obs t.session

let breaker_for t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.breakers key with
      | Some b -> b
      | None ->
        let b =
          Breaker.create ~clock:t.cfg.clock
            ~on_trip:(fun () -> Trace.incr (obs t) Counter.Breaker_opened)
            ~on_close:(fun () -> Trace.incr (obs t) Counter.Breaker_closed)
            t.cfg.breaker
        in
        Hashtbl.replace t.breakers key b;
        b)

let breaker t ~shape = locked t (fun () -> Hashtbl.find_opt t.breakers shape)
let breaker_state t ~shape = Option.map Breaker.state (breaker t ~shape)

let failure_class = function
  | Resilience.Infeasible _ -> "infeasible"
  | Resilience.Rejected _ -> "rejected"
  | Resilience.Exhausted _ -> "exhausted"
  | Resilience.Deadline_exceeded _ -> "deadline_exceeded"
  | Resilience.Memory_exceeded _ -> "memory_exceeded"
  | Resilience.Cancelled _ -> "cancelled"
  | Resilience.Estimate_busted _ -> "estimate_busted"

(* Response details travel on one protocol line. *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let err t ~id ~class_ detail =
  Atomic.incr t.errors;
  Protocol.Error_reply { id; class_; detail = one_line detail }

(* Does this typed failure count against the SHAPE?  Budget outcomes
   (deadline, cancellation) are the client's bill, not the shape's
   health; everything else — storage deaths past the retry budget,
   busted estimates, drift, verifier rejections, unrecoverable memory
   pressure — is the shape failing to serve. *)
let counts_against_shape = function
  | Resilience.Deadline_exceeded _ | Resilience.Cancelled _ -> false
  | Resilience.Infeasible _ | Resilience.Rejected _ | Resilience.Exhausted _
  | Resilience.Memory_exceeded _ | Resilience.Estimate_busted _ ->
    true

(* Cache store under the server lock, syncing the LRU-eviction counter
   into the trace (deltas from two racing stores would double count). *)
let store_plan t ~key plan =
  locked t (fun () ->
      let before = (Plan_cache.stats t.cache).Plan_cache.evictions in
      Plan_cache.store t.cache ~fingerprint:t.fp ~key plan;
      let after = (Plan_cache.stats t.cache).Plan_cache.evictions in
      if after > before then
        Trace.add (obs t) Counter.Cache_evicted (after - before))

let note_replan t ~key =
  if Plan_cache.note_replan t.cache ~key then
    Trace.incr (obs t) Counter.Cache_invalidated_replan

let record_latency t ~cached ms =
  locked t (fun () ->
      match cached with
      | Protocol.Hit -> record t.hit_lat_ms ms
      | Protocol.Miss -> record t.miss_lat_ms ms)

(* The statement and its plan-cache lookup.  A text that hit before
   comes from the statement memo within the lookup's own lock hold;
   any other text is parsed, and a miss carries its AST to the
   optimizer. *)
let lookup t ~fp sql =
  match Plan_cache.find_text t.cache ~fingerprint:fp ~sql with
  | Some (st, plan) -> Ok (st, `Hit plan)
  | None -> (
    match Sql.parse sql with
    | Error e -> Error e
    | Ok ast -> (
      let st = Plan_cache.statement ast in
      match Plan_cache.find_statement t.cache ~fingerprint:fp ~sql st with
      | Plan_cache.Hit plan -> Ok (st, `Hit plan)
      | Plan_cache.Miss -> Ok (st, `Miss ast)
      | Plan_cache.Invalidated_drift ->
        Trace.incr (obs t) Counter.Cache_invalidated_drift;
        Ok (st, `Miss ast)))

let handle_run t (run : Protocol.run) =
  Atomic.incr t.requests;
  let id = run.Protocol.id in
  let t0 = t.cfg.clock () in
  let catalog, fp = locked t (fun () -> (t.catalog, t.fp)) in
  match lookup t ~fp run.Protocol.sql with
  | Error e -> err t ~id ~class_:"parse" e
  | Ok (st, found) -> (
    let key = st.Plan_cache.key in
    let breaker = breaker_for t key in
    match Breaker.enter breaker with
    | Error _ ->
      Trace.incr (obs t) Counter.Shed_breaker_open;
      Protocol.Shed_reply { id; reason = "breaker_open" }
    | Ok ticket -> (
      (* From here on every path must settle the ticket, once. *)
      let plan =
        match found with
        | `Hit plan ->
          Trace.incr (obs t) Counter.Cache_hit;
          Ok (plan, Protocol.Hit)
        | `Miss ast -> (
          Trace.incr (obs t) Counter.Cache_miss;
          match Sql.to_logical catalog (Plan_cache.generalize ast) with
          | Error e -> Error (`Client ("semantic", e))
          | Ok logical -> (
            (* Narrow each parameter's interval first by the session's
               band, then by this shape's own band — the side table
               survives whatever eviction caused this miss, so a shape
               that has run before is never re-optimized from the cold
               catalog priors. *)
            let refine env =
              let env = Session.refined_env t.session env in
              let shape_fb = Plan_cache.shape_feedback t.cache ~key in
              Env.refine_dists env
                ~selectivities:(Feedback.selectivity_dists shape_fb)
            in
            match
              Optimizer.optimize ~refine
                ~mode:(Optimizer.dynamic ~uncertain_memory:true ())
                catalog logical
            with
            | Error e -> Error (`Shape ("optimize", e))
            | Ok r ->
              Executor.admit r.Optimizer.certificate;
              store_plan t ~key r.Optimizer.plan;
              Ok (r.Optimizer.plan, Protocol.Miss)))
      in
      match plan with
      | Error (`Client (class_, detail)) ->
        Breaker.succeeded ticket;
        err t ~id ~class_ detail
      | Error (`Shape (class_, detail)) ->
        Breaker.failed ticket;
        err t ~id ~class_ detail
      | Ok (plan, cached) -> (
        let memory_pages =
          Option.value run.Protocol.memory_pages
            ~default:t.cfg.default_memory_pages
        in
        match
          Plan_cache.bind_statement catalog st ~bindings:run.Protocol.bindings
            ~memory_pages
        with
        | Error e ->
          Breaker.succeeded ticket;
          err t ~id ~class_:"bind" e
        | Ok bindings -> (
          (* The governor clock starts NOW, before admission: a request
             deadline budgets queue wait plus execution, so an
             overloaded queue surfaces as deadline_exceeded rather than
             unbounded latency. *)
          let deadline =
            match run.Protocol.deadline_ms with
            | Some ms -> Some (ms /. 1000.)
            | None -> t.cfg.default_deadline
          in
          let gov =
            match deadline with
            | None -> Governor.none
            | Some d -> Governor.create ~clock:t.cfg.clock ~deadline:d ()
          in
          let resilience =
            let base = t.cfg.resilience in
            let base =
              match run.Protocol.retries with
              | None -> base
              | Some r ->
                { base with
                  Resilience.max_retries =
                    Int.max 0 (Int.min r t.cfg.max_request_retries) }
            in
            (* Cached dynamic plans are risk-agnostic (optimized under
               the server's default posture); a per-request risk only
               steers start-up resolution of the choose-plan nodes. *)
            match run.Protocol.risk with
            | None -> base
            | Some risk -> { base with Resilience.risk }
          in
          let db = t.acquire ~shape:key in
          let outcome =
            Fun.protect
              ~finally:(fun () -> t.release ~shape:key db)
              (fun () ->
                try
                  Ok
                    (Session.submit t.session ~gov ~resilience
                       ~clock:t.cfg.clock db bindings plan)
                with e -> Error (Printexc.to_string e))
          in
          match outcome with
          | Error detail ->
            (* Nothing may escape Session.submit; if something does, the
               shape is broken in a way the type system didn't expect —
               trip towards the breaker and report it typed anyway. *)
            Breaker.failed ticket;
            err t ~id ~class_:"internal" detail
          | Ok (Session.Completed (tuples, _, stats)) ->
            Breaker.succeeded ticket;
            (* Deposit the realized parameter selectivities into the
               shape's eviction-surviving feedback: each bound parameter
               is an exact observation of where in [0, 1] this shape's
               traffic actually lands. *)
            Feedback.observe_selectivities
              (Plan_cache.shape_feedback t.cache ~key)
              bindings.Bindings.selectivities;
            if stats.Resilience.replans > 0 then note_replan t ~key;
            let ms = (t.cfg.clock () -. t0) *. 1000. in
            record_latency t ~cached ms;
            Protocol.Ok_reply
              { id; rows = List.length tuples; cache = cached;
                latency_ms = ms }
          | Ok (Session.Failed failure) ->
            if counts_against_shape failure then Breaker.failed ticket
            else Breaker.succeeded ticket;
            (match failure with
            | Resilience.Estimate_busted _ -> note_replan t ~key
            | Resilience.Infeasible _ ->
              (* The plan no longer matches the catalog: evict so the
                 next request re-optimizes against what is actually
                 there. *)
              if Plan_cache.invalidate t.cache ~key then
                Trace.incr (obs t) Counter.Cache_invalidated_drift
            | _ -> ());
            err t ~id ~class_:(failure_class failure)
              (Format.asprintf "%a" Resilience.pp_failure failure)
          | Ok (Session.Shed reason) ->
            Breaker.succeeded ticket;
            Protocol.Shed_reply
              { id; reason = Session.shed_reason_name reason }))))

(* --- stats ---------------------------------------------------------------- *)

type stats = {
  requests : int;
  completed : int;
  failed : int;
  errors : int;
  shed_queue_full : int;
  shed_queue_timeout : int;
  shed_breaker_open : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_invalidated_drift : int;
  cache_invalidated_replan : int;
  cache_size : int;
  breaker_trips : int;
  breaker_closes : int;
  hit_p50_ms : float;
  hit_p95_ms : float;
  miss_p50_ms : float;
  miss_p95_ms : float;
  elapsed_s : float;
  throughput_rps : float;
}

let percentile p = function [] -> 0. | samples -> Stats_u.percentile p samples

let stats t =
  let hit_lat, miss_lat, trips, closes =
    locked t (fun () ->
        ( window_samples t.hit_lat_ms, window_samples t.miss_lat_ms,
          Hashtbl.fold (fun _ b acc -> acc + Breaker.trips b) t.breakers 0,
          Hashtbl.fold (fun _ b acc -> acc + Breaker.closes b) t.breakers 0 ))
  in
  let c = Trace.get (obs t) in
  let cs = Plan_cache.stats t.cache in
  let requests = Atomic.get t.requests in
  let elapsed = Float.max 1e-9 (t.cfg.clock () -. t.started) in
  { requests;
    completed = c Counter.Completed;
    failed = c Counter.Failed;
    errors = Atomic.get t.errors;
    shed_queue_full = c Counter.Shed_queue_full;
    shed_queue_timeout = c Counter.Shed_queue_timeout;
    shed_breaker_open = c Counter.Shed_breaker_open;
    cache_hits = c Counter.Cache_hit;
    cache_misses = c Counter.Cache_miss;
    cache_evictions = c Counter.Cache_evicted;
    cache_invalidated_drift = c Counter.Cache_invalidated_drift;
    cache_invalidated_replan = c Counter.Cache_invalidated_replan;
    cache_size = cs.Plan_cache.size;
    breaker_trips = trips;
    breaker_closes = closes;
    hit_p50_ms = percentile 50. hit_lat;
    hit_p95_ms = percentile 95. hit_lat;
    miss_p50_ms = percentile 50. miss_lat;
    miss_p95_ms = percentile 95. miss_lat;
    elapsed_s = elapsed;
    throughput_rps = float_of_int requests /. elapsed }

let stats_json t =
  let s = stats t in
  let hit_rate =
    let looked = s.cache_hits + s.cache_misses in
    if looked = 0 then 0. else float_of_int s.cache_hits /. float_of_int looked
  in
  Json.Obj
    [ ("requests", Json.Int s.requests);
      ("completed", Json.Int s.completed);
      ("failed", Json.Int s.failed);
      ("errors", Json.Int s.errors);
      ( "sheds",
        Json.Obj
          [ ("queue_full", Json.Int s.shed_queue_full);
            ("queue_timeout", Json.Int s.shed_queue_timeout);
            ("breaker_open", Json.Int s.shed_breaker_open) ] );
      ( "cache",
        Json.Obj
          [ ("hits", Json.Int s.cache_hits);
            ("misses", Json.Int s.cache_misses);
            ("hit_rate", Json.Float hit_rate);
            ("evictions", Json.Int s.cache_evictions);
            ("invalidated_drift", Json.Int s.cache_invalidated_drift);
            ("invalidated_replan", Json.Int s.cache_invalidated_replan);
            ("size", Json.Int s.cache_size) ] );
      ( "breakers",
        Json.Obj
          [ ("trips", Json.Int s.breaker_trips);
            ("closes", Json.Int s.breaker_closes) ] );
      ( "latency_ms",
        Json.Obj
          [ ("hit_p50", Json.Float s.hit_p50_ms);
            ("hit_p95", Json.Float s.hit_p95_ms);
            ("miss_p50", Json.Float s.miss_p50_ms);
            ("miss_p95", Json.Float s.miss_p95_ms) ] );
      ("elapsed_s", Json.Float s.elapsed_s);
      ("throughput_rps", Json.Float s.throughput_rps) ]

(* --- entry points --------------------------------------------------------- *)

let handle (t : t) = function
  | Protocol.Run run -> handle_run t run
  | Protocol.Stats -> Protocol.Stats_reply (Json.to_string (stats_json t))
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Quit -> Protocol.Bye

let handle_line (t : t) line =
  match Protocol.parse_request line with
  | Error e ->
    Atomic.incr t.errors;
    Protocol.render_response
      (Protocol.Error_reply { id = None; class_ = "protocol"; detail = e })
  | Ok req -> Protocol.render_response (handle t req)

(* The in-process concurrent driver: [clients] domains pull request
   lines from a shared cursor and write each response into its
   request's slot (distinct indices — no sharing).  Responses line up
   positionally with the input. *)
let run_batch t ~clients lines =
  if clients < 1 then invalid_arg "Server.run_batch: clients < 1";
  let n = Array.length lines in
  let responses = Array.make n "" in
  let next = Atomic.make 0 in
  let client () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        responses.(i) <- handle_line t lines.(i);
        loop ()
      end
    in
    loop ()
  in
  if clients = 1 then client ()
  else begin
    let domains =
      List.init (clients - 1) (fun _ -> Domain.spawn client)
    in
    client ();
    List.iter Domain.join domains
  end;
  responses
