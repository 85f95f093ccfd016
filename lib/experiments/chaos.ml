(* Multi-domain chaos/soak harness for resource-governed sessions.

   Worker domains pull seeded query jobs from a shared counter and
   submit them through ONE shared Session — admission slots, the
   bounded wait queue and the global memory pool are all contended for
   real.  Each job gets its OWN Database (the storage layer is not
   thread-safe across concurrent executions; the session governs
   admission and memory, not storage), a Plangen instance, a dynamic
   plan, and a scenario drawn from the seeded mix:

   - clean: no limits;
   - deadline: a few milliseconds of budget on a clock that advances a
     fixed tick per read, so a deadline job's outcome is a function of
     (seed, job) like every other's;
   - cancel: deterministic cancellation at a seeded check tick;
   - memory: a tight per-query memory budget (plus the shared pool);
   - faulty: an injected I/O fault schedule on the job's disk.

   The harness asserts the governed-session contract structurally: every
   job yields exactly one typed outcome (anything escaping
   Session.submit is recorded in [escaped], which must stay empty), and
   after every outcome — completed, failed, shed, cancelled mid-spill —
   the job's buffer pool holds zero pinned pages ([leaks] must stay
   empty) and its disk as many live pages as after the build: every
   spill page was released ([spill_leaks] must stay empty).
   Hang-freedom is enforced by the caller's watchdog. *)

module Governor = Dqep_exec.Governor
module Session = Dqep_exec.Session
module Resilience = Dqep_exec.Resilience
module Plangen = Dqep_workload.Plangen
module Optimizer = Dqep_optimizer.Optimizer
module Reoptimize = Dqep_optimizer.Reoptimize
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Disk = Dqep_storage.Disk
module Fault = Dqep_storage.Fault

type scenario = Clean | Deadline | Cancel | Memory | Faulty | Busted | Faulty_resume

let scenario_name = function
  | Clean -> "clean"
  | Deadline -> "deadline"
  | Cancel -> "cancel"
  | Memory -> "memory"
  | Faulty -> "faulty"
  | Busted -> "busted"
  | Faulty_resume -> "faulty-resume"

let scenarios =
  [| Clean; Deadline; Cancel; Memory; Faulty; Busted; Faulty_resume |]

type tally = {
  total : int;
  completed : int;
  deadline_exceeded : int;
  memory_exceeded : int;
  cancelled : int;
  shed_queue_full : int;
  shed_queue_timeout : int;
  exhausted : int;
  other_failures : int;  (** Infeasible/Rejected — expected to stay 0 *)
  failovers : int;
  memory_aborts_recovered : int;
      (** jobs that hit a memory abort yet still completed (failover
          onto a lower-memory alternative) *)
  estimate_busted : int;
      (** jobs whose final outcome was the typed busted-estimate fault *)
  replans : int;  (** incremental re-optimizations across completed jobs *)
  replans_recovered : int;
      (** busted-scenario jobs that completed after at least one replan *)
  leaks : string list;  (** pin-leak reports; the contract demands [] *)
  spill_leaks : string list;
      (** live disk pages an outcome left beyond the build's; must be [] *)
  checkpoint_leaks : string list;
      (** checkpoint bytes still charged after an outcome; must be [] *)
  escaped : string list;  (** exceptions escaping submit; must be [] *)
  session : Session.stats;
}

let pp_tally ppf t =
  Format.fprintf ppf
    "@[<v>%d jobs: %d completed (%d via memory failover, %d via replan), %d \
     deadline, %d memory, %d cancelled, %d shed at the door, %d shed on \
     queue deadline, %d exhausted, %d estimate busted, %d other; %d \
     failovers; %d replans; %d leaks; %d checkpoint leaks; %d escaped@]"
    t.total t.completed t.memory_aborts_recovered t.replans_recovered
    t.deadline_exceeded t.memory_exceeded t.cancelled t.shed_queue_full
    t.shed_queue_timeout t.exhausted t.estimate_busted t.other_failures
    t.failovers t.replans
    (List.length t.leaks)
    (List.length t.checkpoint_leaks)
    (List.length t.escaped)

(* Pages an outcome left live on [db]'s disk beyond the [built] it had
   after its build: spill pages never released. *)
let spill_leak db ~built =
  let live = Buffer_pool.live_pages (Database.pool db) in
  if live = built then None
  else Some (Printf.sprintf "%d live pages, %d after the build" live built)

(* Seconds a deadline job's clock advances per read.  The governor
   reads it at creation and then every [check_every] (32) checks, so a
   job overruns the default 3 ms deadline after about 200 checks: some
   deadline jobs finish within that, some do not. *)
let clock_tick = 5e-4

(* One job, executed on whatever domain claimed it.  Deterministic in
   (seed, job): the instance, bindings, scenario, worker count and
   fault schedule all derive from them. *)
let run_job ~session ~seed ~deadline_s ~ckpt_pool job =
  let inst = Plangen.generate ~seed:(1 + ((seed * 131) + job) mod 97) in
  let scenario = scenarios.(job mod Array.length scenarios) in
  let db =
    match scenario with
    | Busted ->
      (* Deliberately wrong priors: the data is skewed, the optimizer's
         and bindings' selectivities assume uniform, so blocking-point
         observations escape the validity band and the busted-estimate
         path must recover. *)
      Database.build ~skew:3.0 ~seed:((seed * 7919) + job) inst.Plangen.catalog
    | Clean | Deadline | Cancel | Memory | Faulty | Faulty_resume ->
      Database.build ~seed:((seed * 7919) + job) inst.Plangen.catalog
  in
  let mode = Optimizer.dynamic ~uncertain_memory:true () in
  let plan =
    match Optimizer.optimize ~mode inst.Plangen.catalog inst.Plangen.query with
    | Ok r -> r.Optimizer.plan
    | Error _ -> invalid_arg "Chaos: optimizer failed on a Plangen instance"
  in
  let bindings = Plangen.bindings inst ~seed:(seed + (job * 13)) in
  let gov =
    match scenario with
    | Clean | Faulty -> Governor.none
    | Busted | Faulty_resume ->
      (* Unbudgeted but accounted, and attached to the shared pool:
         checkpoint bytes that outlive the outcome show up both in
         [charged_bytes] (per job) and in [Governor.pool_in_use] (at the
         end of the soak). *)
      Governor.create ~pool:ckpt_pool ()
    | Deadline ->
      (* The deadline runs on a clock that advances [clock_tick] per
         read, not on the wall clock, so whether a job overruns it
         depends on the job's work alone. *)
      let reads = Atomic.make 0 in
      let clock () = float_of_int (Atomic.fetch_and_add reads 1) *. clock_tick in
      Governor.create ~clock ~deadline:deadline_s ()
    | Cancel -> Governor.create ~cancel_after_checks:(1 + (job * 37 mod 200)) ()
    | Memory ->
      (* Tight enough that large builds must spill and some still abort;
         wide enough that small jobs complete.  [job / 5] varies across
         memory-scenario jobs ([job mod 5] is what selected the
         scenario, so it is constant here). *)
      Governor.create ~memory_bytes:(2048 + (job / 5 mod 4 * 4096)) ()
  in
  (match scenario with
  | Faulty ->
    Disk.set_faults
      (Buffer_pool.disk (Database.pool db))
      (Some
         (Fault.create
            (Fault.config ~read_fault_rate:0.02 ~seed:(seed + job) ())))
  | Faulty_resume ->
    (* Transient faults land after hash builds and sorts have already
       checkpointed: the retry resumes from those blocking points. *)
    Disk.set_faults
      (Buffer_pool.disk (Database.pool db))
      (Some
         (Fault.create
            (Fault.config ~read_fault_rate:0.02 ~seed:(seed + job) ())))
  | Clean | Deadline | Cancel | Memory | Busted -> ());
  let resilience =
    match scenario with
    | Busted | Faulty_resume ->
      let replan =
        match
          Reoptimize.prepare ~mode inst.Plangen.catalog inst.Plangen.query
        with
        | Ok (rt, _) -> Some (Reoptimize.replan rt)
        | Error _ -> None
      in
      Resilience.config ~checkpoints:true
        ~checkpoint_tolerance:(if scenario = Busted then 1.5 else 4.0)
        ~max_replans:2 ?replan ()
    | Clean | Deadline | Cancel | Memory | Faulty ->
      Resilience.default
  in
  let built = Buffer_pool.live_pages (Database.pool db) in
  let outcome =
    try Ok (Session.submit session ~gov ~resilience db bindings plan)
    with e -> Error (Printexc.to_string e)
  in
  let leak =
    match Buffer_pool.leak_check (Database.pool db) with
    | Ok () -> None
    | Error msg ->
      Some
        (Printf.sprintf "job %d (%s): %s" job (scenario_name scenario) msg)
  in
  let spill_leak =
    Option.map
      (Printf.sprintf "job %d (%s): %s" job (scenario_name scenario))
      (spill_leak db ~built)
  in
  (* Every scenario: a failover observation is charged to the job's
     governor whether or not checkpoints are on. *)
  let ckpt_leak =
    if Governor.charged_bytes gov <> 0 then
      Some
        (Printf.sprintf "job %d (%s): %d bytes still charged" job
           (scenario_name scenario) (Governor.charged_bytes gov))
    else None
  in
  (scenario, outcome, (leak, spill_leak), ckpt_leak)

let empty_session_stats =
  { Session.submitted = 0; admitted = 0; completed = 0; failed = 0;
    shed_queue_full = 0; shed_queue_timeout = 0; peak_inflight = 0;
    peak_queued = 0 }

let run ?(workers = 4) ?(jobs = 32) ?(seed = 1) ?(max_inflight = 3)
    ?(max_queue = 64) ?(pool_bytes = 1 lsl 20) ?(deadline_s = 0.003) () =
  if workers < 1 then invalid_arg "Chaos.run: workers < 1";
  if jobs < 1 then invalid_arg "Chaos.run: jobs < 1";
  let session =
    Session.create
      ~config:
        (* precheck off: the whole point of the Memory scenario is to
           exercise the run-time kill path that static admission would
           otherwise intercept *)
        (Session.config ~max_inflight ~max_queue ~memory_pool_bytes:pool_bytes
           ~precheck:false ())
      ()
  in
  let ckpt_pool = Governor.pool ~capacity_bytes:(1 lsl 24) in
  let next = Atomic.make 0 in
  let mu = Mutex.create () in
  let results = ref [] in
  let record r =
    Mutex.lock mu;
    results := r :: !results;
    Mutex.unlock mu
  in
  let worker () =
    let rec loop () =
      let job = Atomic.fetch_and_add next 1 in
      if job < jobs then begin
        record (run_job ~session ~seed ~deadline_s ~ckpt_pool job);
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init workers (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let results = !results in
  let count p = List.length (List.filter p results) in
  let completed = function
    | _, Ok (Session.Completed _), _, _ -> true
    | _ -> false
  in
  { total = List.length results;
    completed = count completed;
    deadline_exceeded =
      count (function
        | _, Ok (Session.Failed (Resilience.Deadline_exceeded _)), _, _ -> true
        | _ -> false);
    memory_exceeded =
      count (function
        | _, Ok (Session.Failed (Resilience.Memory_exceeded _)), _, _ -> true
        | _ -> false);
    cancelled =
      count (function
        | _, Ok (Session.Failed (Resilience.Cancelled _)), _, _ -> true
        | _ -> false);
    shed_queue_full =
      count (function
        | _, Ok (Session.Shed Session.Queue_full), _, _ -> true
        | _ -> false);
    shed_queue_timeout =
      count (function
        | _, Ok (Session.Shed Session.Queue_timeout), _, _ -> true
        | _ -> false);
    exhausted =
      count (function
        | _, Ok (Session.Failed (Resilience.Exhausted _)), _, _ -> true
        | _ -> false);
    other_failures =
      count (function
        | ( _,
            Ok
              (Session.Failed
                 (Resilience.Infeasible _ | Resilience.Rejected _)),
            _,
            _ ) ->
          true
        | _ -> false);
    failovers =
      List.fold_left
        (fun acc -> function
          | _, Ok (Session.Completed (_, _, stats)), _, _ ->
            acc + stats.Resilience.failovers
          | _ -> acc)
        0 results;
    memory_aborts_recovered =
      count (function
        | Memory, Ok (Session.Completed (_, _, stats)), _, _ ->
          stats.Resilience.failovers > 0
        | _ -> false);
    estimate_busted =
      count (function
        | _, Ok (Session.Failed (Resilience.Estimate_busted _)), _, _ -> true
        | _ -> false);
    replans =
      List.fold_left
        (fun acc -> function
          | _, Ok (Session.Completed (_, _, stats)), _, _ ->
            acc + stats.Resilience.replans
          | _ -> acc)
        0 results;
    replans_recovered =
      count (function
        | Busted, Ok (Session.Completed (_, _, stats)), _, _ ->
          stats.Resilience.replans > 0
        | _ -> false);
    leaks = List.filter_map (fun (_, _, (leak, _), _) -> leak) results;
    spill_leaks =
      List.filter_map (fun (_, _, (_, spill_leak), _) -> spill_leak) results;
    checkpoint_leaks =
      (let per_job =
         List.filter_map (fun (_, _, _, ckpt_leak) -> ckpt_leak) results
       in
       (* The shared pool must drain to zero once every job has its
          outcome — no checkpoint byte may leak through it. *)
       if Governor.pool_in_use ckpt_pool <> 0 then
         Printf.sprintf "shared pool: %d bytes still in use"
           (Governor.pool_in_use ckpt_pool)
         :: per_job
       else per_job);
    escaped =
      List.filter_map
        (function _, Error msg, _, _ -> Some msg | _, Ok _, _, _ -> None)
        results;
    session = (try Session.stats session with _ -> empty_session_stats) }

(* --- the serving-layer fault storm ---------------------------------------- *)

module Server = Dqep_serve.Server
module Protocol = Dqep_serve.Protocol
module Plan_cache = Dqep_serve.Plan_cache
module Breaker = Dqep_serve.Breaker
module Paper_catalog = Dqep_workload.Paper_catalog
module Sql = Dqep_sql.Sql
module Rng = Dqep_util.Rng
module Catalog = Dqep_catalog.Catalog
module Index = Dqep_catalog.Index

type serve_tally = {
  requests : int;
  ok : int;
  cache_hits_served : int;  (** OK responses answered from the plan cache *)
  failed_typed : int;  (** ERR with a typed in-flight failure class *)
  client_errors : int;  (** ERR with a request-side class; expected 0 *)
  shed_queue_full : int;
  shed_queue_timeout : int;
  shed_breaker_open : int;
  poisoned_trips : int;  (** breaker trips of the poisoned shape *)
  poisoned_ok : int;  (** poisoned-shape requests that completed anyway *)
  healthy_ok : int;  (** completions across the healthy shapes *)
  drifted_ok : int;  (** drifted-shape requests completed on a pruned plan *)
  drifted_infeasible : int;  (** drifted-shape requests ended [infeasible] *)
  drifted_rejected : int;  (** drifted-shape verifier rejections; must be 0 *)
  untyped : string list;  (** unparseable/blank responses; must be [] *)
  internal_errors : string list;  (** class=internal details; must be [] *)
  leaks : string list;  (** buffer-pool pin leaks across every db; must be [] *)
  spill_leaks : string list;
      (** dbs with live pages beyond their build's; must be [] *)
  pool_leak_bytes : int;  (** session memory pool bytes after drain; must be 0 *)
  server : Server.stats;
}

let pp_serve_tally ppf t =
  Format.fprintf ppf
    "@[<v>%d requests: %d ok (%d cache-hit, %d poisoned-shape, %d healthy, \
     %d drifted), %d typed failures, %d client errors, %d/%d/%d shed \
     (door/queue-deadline/breaker); %d poisoned-shape trips; drifted shape \
     %d infeasible, %d rejected; %d untyped; %d internal; %d leaks; %d pool \
     bytes@]"
    t.requests t.ok t.cache_hits_served t.poisoned_ok t.healthy_ok
    t.drifted_ok t.failed_typed t.client_errors t.shed_queue_full
    t.shed_queue_timeout t.shed_breaker_open t.poisoned_trips
    t.drifted_infeasible t.drifted_rejected
    (List.length t.untyped)
    (List.length t.internal_errors)
    (List.length t.leaks) t.pool_leak_bytes

let failure_classes =
  [ "infeasible"; "rejected"; "exhausted"; "deadline_exceeded";
    "memory_exceeded"; "cancelled"; "estimate_busted" ]

(* The serve workload's shapes: chain queries over the paper catalog,
   one per join length, each selecting on its first relation.  Shape 0
   is the poisoned one — its databases run on dead storage. *)
let serve_shape ~relations i =
  let len = 1 + (i mod relations) in
  let tables = List.init len (fun j -> Paper_catalog.rel_name (j + 1)) in
  let selections =
    [ (Paper_catalog.rel_name 1, Paper_catalog.select_attr, Sql.Host "u") ]
  in
  let joins =
    List.init (len - 1) (fun j ->
        ( (Paper_catalog.rel_name (j + 1), Paper_catalog.join_right_attr),
          (Paper_catalog.rel_name (j + 2), Paper_catalog.join_left_attr) ))
  in
  Sql.render { Sql.tables; selections; joins }

(* The drifted shape selects on an indexed attribute no other shape
   filters on.  Its databases are built from a catalog that has lost that
   index since the server optimized the shape, so its cached plan
   references a dropped object: activation must prune to the file-scan
   alternative or end [infeasible], never reject the plan as corrupt. *)
let drifted_rel = Paper_catalog.rel_name 1
let drifted_attr = Paper_catalog.join_left_attr

let drifted_shape =
  Sql.render
    { Sql.tables = [ drifted_rel ];
      selections = [ (drifted_rel, drifted_attr, Sql.Host "u") ];
      joins = [] }

let without_drifted_index catalog =
  Catalog.create ~page_bytes:(Catalog.page_bytes catalog)
    ~relations:(Catalog.relations catalog)
    ~indexes:
      (List.filter
         (fun (i : Index.t) ->
           not (i.relation = drifted_rel && i.attribute = drifted_attr))
         (Catalog.indexes catalog))
    ()

let serve_soak ?(clients = 4) ?(requests = 256) ?(seed = 1)
    ?(max_inflight = 3) ?(max_queue = 4) ?(relations = 3) () =
  if clients < 1 then invalid_arg "Chaos.serve_soak: clients < 1";
  if requests < 1 then invalid_arg "Chaos.serve_soak: requests < 1";
  if relations < 1 then invalid_arg "Chaos.serve_soak: relations < 1";
  let catalog = Paper_catalog.make ~relations in
  (* Shapes 0 .. relations-1 are the chains (0 poisoned); the last one
     is the drifted shape. *)
  let shapes =
    Array.append
      (Array.init relations (fun i -> serve_shape ~relations i))
      [| drifted_shape |]
  in
  let n_shapes = Array.length shapes in
  let drifted = n_shapes - 1 in
  let keys =
    Array.map
      (fun sql ->
        match Sql.parse sql with
        | Ok ast -> Plan_cache.key ast
        | Error e -> invalid_arg ("Chaos.serve_soak: bad shape SQL: " ^ e))
      shapes
  in
  let poisoned_key = keys.(0) and drifted_key = keys.(drifted) in
  (* Track every database either pool ever builds, with its live page
     count after the build, for the pin- and spill-leak sweeps at the
     end. *)
  let all_dbs = ref [] in
  let dbs_mu = Mutex.create () in
  let track db =
    let built = Buffer_pool.live_pages (Database.pool db) in
    Mutex.lock dbs_mu;
    all_dbs := (db, built) :: !all_dbs;
    Mutex.unlock dbs_mu;
    db
  in
  let build_healthy () = track (Database.build ~seed catalog) in
  let build_poisoned () =
    let db = track (Database.build ~seed:(seed + 1) catalog) in
    (* Dead storage: every physical I/O faults permanently, so each
       attempt fails over immediately and the request exhausts its
       alternatives — the failure class the breaker counts. *)
    Disk.set_faults
      (Buffer_pool.disk (Database.pool db))
      (Some
         (Fault.create
            (Fault.config ~fail_after:(0, Fault.Permanent) ~seed ())));
    db
  in
  let healthy_acquire, healthy_release =
    Server.db_pool ~build:build_healthy ~slots:(max_inflight + clients) ()
  in
  let poisoned_acquire, poisoned_release =
    Server.db_pool ~build:build_poisoned ~slots:(max_inflight + clients) ()
  in
  let drifted_catalog = without_drifted_index catalog in
  let drifted_acquire, drifted_release =
    Server.db_pool
      ~build:(fun () -> track (Database.build ~seed drifted_catalog))
      ~slots:(max_inflight + clients) ()
  in
  (* The server keeps serving [catalog] (its fingerprint never moves):
     only the databases it borrows for the drifted shape have drifted. *)
  let acquire ~shape =
    if shape = poisoned_key then poisoned_acquire ~shape
    else if shape = drifted_key then drifted_acquire ~shape
    else healthy_acquire ~shape
  in
  let release ~shape db =
    if shape = poisoned_key then poisoned_release ~shape db
    else if shape = drifted_key then drifted_release ~shape db
    else healthy_release ~shape db
  in
  let config =
    Server.config
      ~session:
        (Session.config ~max_inflight ~max_queue ~queue_deadline:0.25
           ~memory_pool_bytes:(1 lsl 20) ~precheck:false ())
      ~breaker:(Breaker.config ~failure_threshold:3 ~cooldown:30. ())
      ~resilience:
        (Resilience.config ~checkpoints:true ~max_retries:1 ~max_failovers:2
           ())
      ()
  in
  let server = Server.create ~config ~acquire ~release catalog in
  let rng = Rng.create (seed * 65537) in
  let lines =
    Array.init requests (fun i ->
        let shape = i mod n_shapes in
        let u = 0.05 +. Rng.uniform rng 0. 0.9 in
        (* Every 7th request carries a millisecond-scale deadline, so
           deadline shedding and queue-deadline interplay are part of
           the storm, not a separate scenario. *)
        let deadline_ms = if i mod 7 = 3 then Some 0.4 else None in
        Protocol.render_request
          (Protocol.Run
             { Protocol.id = Some i; bindings = [ ("u", u) ];
               memory_pages = Some (16 + (i mod 4 * 16)); deadline_ms;
               retries = Some 1; risk = None; sql = shapes.(shape) }))
  in
  let responses = Server.run_batch server ~clients lines in
  let parsed =
    Array.map
      (fun line ->
        match Protocol.parse_response line with
        | Ok r -> Ok r
        | Error e -> Error (Printf.sprintf "%s: %s" e line))
      responses
  in
  let count p =
    Array.fold_left
      (fun acc r -> if p r then acc + 1 else acc)
      0 parsed
  in
  (* Responses of shape [s] (by request index) satisfying [p]. *)
  let count_shape p s =
    let n = ref 0 in
    Array.iteri (fun i r -> if i mod n_shapes = s && p r then incr n) parsed;
    !n
  in
  let is_ok = function Ok (Protocol.Ok_reply _) -> true | _ -> false in
  let is_class c = function
    | Ok (Protocol.Error_reply { class_; _ }) -> class_ = c
    | _ -> false
  in
  let dbs =
    Mutex.lock dbs_mu;
    let dbs = !all_dbs in
    Mutex.unlock dbs_mu;
    dbs
  in
  let leaks =
    List.filter_map
      (fun (db, _) ->
        match Buffer_pool.leak_check (Database.pool db) with
        | Ok () -> None
        | Error msg -> Some msg)
      dbs
  in
  let spill_leaks = List.filter_map (fun (db, built) -> spill_leak db ~built) dbs in
  let pool_leak_bytes =
    match Session.memory_pool (Server.session server) with
    | Some pool -> Governor.pool_in_use pool
    | None -> 0
  in
  let stats = Server.stats server in
  { requests = Array.length responses;
    ok = count (function Ok (Protocol.Ok_reply _) -> true | _ -> false);
    cache_hits_served =
      count (function
        | Ok (Protocol.Ok_reply { cache = Protocol.Hit; _ }) -> true
        | _ -> false);
    failed_typed =
      count (function
        | Ok (Protocol.Error_reply { class_; _ }) ->
          List.mem class_ failure_classes
        | _ -> false);
    client_errors =
      count (function
        | Ok (Protocol.Error_reply { class_; _ }) ->
          not (List.mem class_ failure_classes) && class_ <> "internal"
        | _ -> false);
    shed_queue_full =
      count (function
        | Ok (Protocol.Shed_reply { reason = "queue_full"; _ }) -> true
        | _ -> false);
    shed_queue_timeout =
      count (function
        | Ok (Protocol.Shed_reply { reason = "queue_timeout"; _ }) -> true
        | _ -> false);
    shed_breaker_open =
      count (function
        | Ok (Protocol.Shed_reply { reason = "breaker_open"; _ }) -> true
        | _ -> false);
    poisoned_trips =
      (match Server.breaker server ~shape:poisoned_key with
      | None -> 0
      | Some b -> Breaker.trips b);
    poisoned_ok = count_shape is_ok 0;
    healthy_ok =
      List.fold_left ( + ) 0
        (List.init (relations - 1) (fun s -> count_shape is_ok (s + 1)));
    drifted_ok = count_shape is_ok drifted;
    drifted_infeasible = count_shape (is_class "infeasible") drifted;
    drifted_rejected = count_shape (is_class "rejected") drifted;
    untyped =
      Array.to_list parsed
      |> List.filter_map (function Error e -> Some e | Ok _ -> None);
    internal_errors =
      Array.to_list parsed
      |> List.filter_map (function
           | Ok (Protocol.Error_reply { class_ = "internal"; detail; _ }) ->
             Some detail
           | _ -> None);
    leaks; spill_leaks; pool_leak_bytes; server = stats }
