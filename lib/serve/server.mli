(** The request-serving loop: wire protocol -> plan cache -> breakers
    -> governed session.

    One server owns one {!Dqep_exec.Session}, one {!Plan_cache}, and a
    {!Breaker} per query shape.  Cache hits skip the optimizer entirely
    — the cached dynamic plan goes straight to start-up resolution
    under the request's bindings; misses optimize the {e generalized}
    shape (every selection value a parameter) under the session's
    feedback-refined environment and cache the resulting dynamic plan.

    Robustness ladder, outermost first: a tripped breaker sheds the
    shape's requests fast ([SHED reason=breaker_open]); session
    admission sheds on a full queue or a queue deadline; a request
    deadline is granted {e before} admission, so its budget covers
    queue wait and surfaces as a typed [deadline_exceeded]; in-flight
    faults ride the {!Dqep_exec.Resilience} supervisor with the
    request's (clamped) retry budget.  A [memory=] grant above
    {!Plan_cache.max_memory_pages} is refused as a [bind] error before
    anything runs.
    Every request ends in exactly one typed response line.

    Databases are borrowed per request from the caller-supplied
    [acquire]/[release] pair, keyed by shape (a database serves one run
    at a time; see {!Dqep_storage.Buffer_pool}); {!db_pool} is the stock
    implementation.  All entry points are thread-safe. *)

type config = {
  session : Dqep_exec.Session.config;
  cache_capacity : int;
  replan_threshold : int;  (** replan events before a shape's entry evicts *)
  breaker : Breaker.config;
  resilience : Dqep_exec.Resilience.config;  (** base supervisor config *)
  default_deadline : float option;  (** seconds; [None] = ungoverned *)
  default_memory_pages : int;  (** start-up memory grant when unset *)
  max_request_retries : int;  (** ceiling on the [retries=] field *)
  clock : unit -> float;
}

val config :
  ?session:Dqep_exec.Session.config ->
  ?cache_capacity:int ->
  ?replan_threshold:int ->
  ?breaker:Breaker.config ->
  ?resilience:Dqep_exec.Resilience.config ->
  ?default_deadline:float ->
  ?default_memory_pages:int ->
  ?max_request_retries:int ->
  ?clock:(unit -> float) ->
  unit ->
  config
(** Defaults: stock session/breaker/resilience configs, 64 cache
    entries, replan threshold 3, no default deadline, 64 pages, retry
    ceiling 4, wall clock. *)

type t

val create :
  ?config:config ->
  acquire:(shape:string -> Dqep_storage.Database.t) ->
  release:(shape:string -> Dqep_storage.Database.t -> unit) ->
  Dqep_catalog.Catalog.t ->
  t

val db_pool :
  build:(unit -> Dqep_storage.Database.t) ->
  slots:int ->
  unit ->
  (shape:string -> Dqep_storage.Database.t)
  * (shape:string -> Dqep_storage.Database.t -> unit)
(** A bounded pool of interchangeable databases built lazily by [build]
    (at most [slots] alive); [acquire] blocks when all are on loan.  A
    [build] that raises gives its slot back, and [acquire] re-raises.
    Ignores the shape key — harnesses that poison specific shapes
    supply their own pair instead. *)

val handle : t -> Protocol.request -> Protocol.response
val handle_line : t -> string -> string
(** Parse one request line, serve it, render the response line.
    Malformed lines come back as [ERR class=protocol]. *)

val run_batch : t -> clients:int -> string array -> string array
(** Serve a batch of request lines from [clients] concurrent domains
    (the calling domain is one of them).  The response array lines up
    positionally with the input. *)

(** {1 Introspection} *)

val session : t -> Dqep_exec.Session.t
val cache : t -> Plan_cache.t

val swap_catalog : t -> Dqep_catalog.Catalog.t -> unit
(** Replace the served catalog (DDL).  Cached plans optimized under the
    old fingerprint are evicted lazily on their next lookup
    ([cache_invalidated_drift]). *)

val breaker : t -> shape:string -> Breaker.t option
(** The shape's breaker; [None] until its first request creates it. *)

val breaker_state : t -> shape:string -> Breaker.state option

type stats = {
  requests : int;  (** RUN requests received *)
  completed : int;
  failed : int;  (** typed in-flight failures *)
  errors : int;  (** ERR responses, protocol/client errors included *)
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
  hit_p50_ms : float;  (** completed-request latency, cache-hit path *)
  hit_p95_ms : float;
  miss_p50_ms : float;  (** completed-request latency, cold-optimize path *)
  miss_p95_ms : float;
  elapsed_s : float;
  throughput_rps : float;
}

val stats : t -> stats
(** Counters since {!create}.  The latency percentiles cover only the
    most recent 4096 completed requests of each class (cache hit, cache
    miss): older samples are dropped so the server's memory stays
    bounded however long it runs. *)

val stats_json : t -> Dqep_util.Json.t
(** The [STATS] / [dqep serve --json] payload. *)
