(* Persistent work-stealing morsel scheduler.

   Contract (see DESIGN.md "The execution engine: morsel-driven parallelism"):

   - A [pool] is a set of long-lived worker domains, spawned lazily up to
     the demanded width and reused across jobs, queries and sessions —
     never one spawn per query.  [shared ()] is the process-wide pool.
   - A [job] is an indexed array of morsel tasks.  Tasks are distributed
     round-robin over per-participant deques; owners pop their own deque
     FIFO (so early morsels finish early and stripe-ordered consumers
     drain promptly), thieves steal the latest half of a victim's deque.
   - Every morsel runs exactly once: execution is gated by a per-task
     compare-and-set claim, so a racy or duplicated deque entry is
     harmless.
   - The submitting thread is participant 0 and *helps*: [wait] and
     [wait_for] execute pending morsels instead of blocking, so on a
     machine with fewer cores than workers a parallel job degrades to
     roughly sequential cost instead of convoying behind one domain.
   - [?poll] runs before each morsel (cooperative governor polling).  The
     first exception raised by a poll or a task is captured; remaining
     morsels are claim-skipped so the job drains quickly, and the fault
     is surfaced via [fault] for the consumer to re-raise.
   - [shutdown] wakes and joins every worker domain; it returns only when
     none is left running. *)

let max_workers = 16

(* ------------------------------------------------------------------ *)
(* Work-stealing deques of task indices.  A tiny mutex per deque: the
   owner and the occasional thief are the only contenders, and morsels
   are thousands of tuples of work, so the lock is never hot.
   Correctness never rests on the deque — the claim CAS does. *)

type deque = {
  dmu : Mutex.t;
  mutable items : int array;
  mutable lo : int; (* owner pops here (FIFO) *)
  mutable hi : int; (* one past the last item; thieves steal from here *)
}

let deque_make cap =
  { dmu = Mutex.create (); items = Array.make (Int.max cap 1) (-1); lo = 0; hi = 0 }

let deque_append d ids =
  let k = Array.length ids in
  if k > 0 then begin
    Mutex.lock d.dmu;
    let n = d.hi - d.lo in
    let cap = Array.length d.items in
    if n + k > cap then begin
      let items = Array.make (Int.max (n + k) (2 * cap)) (-1) in
      Array.blit d.items d.lo items 0 n;
      d.items <- items;
      d.lo <- 0;
      d.hi <- n
    end
    else if d.hi + k > cap then begin
      Array.blit d.items d.lo d.items 0 n;
      d.lo <- 0;
      d.hi <- n
    end;
    Array.blit ids 0 d.items d.hi k;
    d.hi <- d.hi + k;
    Mutex.unlock d.dmu
  end

let deque_pop_front d =
  Mutex.lock d.dmu;
  let r =
    if d.lo < d.hi then begin
      let i = d.items.(d.lo) in
      d.lo <- d.lo + 1;
      Some i
    end
    else None
  in
  Mutex.unlock d.dmu;
  r

(* Take the newest half of the victim's items (at least one). *)
let deque_steal_half d =
  Mutex.lock d.dmu;
  let n = d.hi - d.lo in
  let r =
    if n = 0 then [||]
    else begin
      let take = (n + 1) / 2 in
      let out = Array.sub d.items (d.hi - take) take in
      d.hi <- d.hi - take;
      out
    end
  in
  Mutex.unlock d.dmu;
  r

(* ------------------------------------------------------------------ *)

type job = {
  jworkers : int; (* participants: submitter + jworkers-1 pool domains *)
  poll : (unit -> unit) option;
  tasks : (unit -> unit) array;
  claimed : bool Atomic.t array;
  remaining : int Atomic.t;
  fault_ : exn option Atomic.t;
  deques : deque array; (* length jworkers; index 0 is the submitter's *)
  jmu : Mutex.t;
  jcond : Condition.t;
  registry : pool option; (* where to deregister on completion *)
}

and pool = {
  pmu : Mutex.t;
  pcond : Condition.t;
  mutable active : job list;
  mutable domains : unit Domain.t list;
  mutable size : int; (* worker domains spawned so far *)
  mutable stop : bool;
}

type t =
  | Sequential
  | Parallel of { pool : pool; pworkers : int }

let sequential = Sequential

let workers = function
  | Sequential -> 1
  | Parallel { pworkers; _ } -> pworkers

let is_parallel = function Sequential -> false | Parallel _ -> true

(* Racy by design: only a hint for sleep/wake decisions.  A stale
   non-empty read costs one wasted scan; a stale empty read is impossible
   for the helping consumer, which re-checks under the deque locks. *)
let has_pending j =
  let rec go i = i < Array.length j.deques && (j.deques.(i).hi > j.deques.(i).lo || go (i + 1)) in
  go 0

(* Wake anyone blocked in [wait_for]: broadcasting under [jmu] after the
   caller has published its state closes the lost-wakeup race (a waiter
   re-checks its predicate under [jmu] before sleeping). *)
let signal j =
  Mutex.lock j.jmu;
  Condition.broadcast j.jcond;
  Mutex.unlock j.jmu

let job_done j =
  match j.registry with
  | None -> ()
  | Some p ->
    Mutex.lock p.pmu;
    p.active <- List.filter (fun j' -> j' != j) p.active;
    Condition.broadcast p.pcond;
    Mutex.unlock p.pmu

(* Claim and run one morsel.  Returns [true] iff this caller won the
   claim (whether the task succeeded, faulted, or was drain-skipped). *)
let exec j i =
  if Atomic.compare_and_set j.claimed.(i) false true then begin
    (match Atomic.get j.fault_ with
    | Some _ -> () (* first fault drains the rest of the job unrun *)
    | None -> (
      try
        (match j.poll with Some check -> check () | None -> ());
        j.tasks.(i) ()
      with e -> ignore (Atomic.compare_and_set j.fault_ None (Some e))));
    let left = Atomic.fetch_and_add j.remaining (-1) - 1 in
    if left = 0 then job_done j;
    signal j;
    true
  end
  else false

(* Pop own deque, else steal: execute the first stolen morsel now and
   keep the rest locally.  Locks are only ever held one at a time. *)
let rec try_run j p =
  match deque_pop_front j.deques.(p) with
  | Some i -> if exec j i then true else try_run j p
  | None ->
    let w = Array.length j.deques in
    let rec rob k =
      if k >= w then false
      else
        let victim = (p + k) mod w in
        let stolen = deque_steal_half j.deques.(victim) in
        let n = Array.length stolen in
        if n = 0 then rob (k + 1)
        else begin
          if n > 1 then deque_append j.deques.(p) (Array.sub stolen 0 (n - 1));
          if exec j stolen.(n - 1) then true else try_run j p
        end
    in
    rob 1

let drain j p = while try_run j p do () done

(* ------------------------------------------------------------------ *)
(* Pool lifecycle. *)

let make_pool () =
  { pmu = Mutex.create ();
    pcond = Condition.create ();
    active = [];
    domains = [];
    size = 0;
    stop = false }

let worker pool me =
  let rec loop () =
    Mutex.lock pool.pmu;
    let rec find () =
      if pool.stop then None
      else
        match
          List.find_opt (fun j -> me + 1 < j.jworkers && has_pending j) pool.active
        with
        | Some j -> Some j
        | None ->
          Condition.wait pool.pcond pool.pmu;
          find ()
    in
    let next = find () in
    Mutex.unlock pool.pmu;
    match next with
    | None -> ()
    | Some j ->
      drain j (me + 1);
      loop ()
  in
  loop ()

let ensure pool k =
  if k > 1 then begin
    Mutex.lock pool.pmu;
    if pool.stop then begin
      Mutex.unlock pool.pmu;
      invalid_arg "Scheduler: pool is shut down"
    end;
    while pool.size < k - 1 do
      let me = pool.size in
      pool.size <- pool.size + 1;
      pool.domains <- Domain.spawn (fun () -> worker pool me) :: pool.domains
    done;
    Mutex.unlock pool.pmu
  end

let shutdown pool =
  Mutex.lock pool.pmu;
  pool.stop <- true;
  Condition.broadcast pool.pcond;
  let domains = pool.domains in
  pool.domains <- [];
  Mutex.unlock pool.pmu;
  List.iter Domain.join domains

let domain_count pool = Mutex.lock pool.pmu; let n = List.length pool.domains in Mutex.unlock pool.pmu; n

let shared_mu = Mutex.create ()
let shared_ref = ref None
let shared_at_exit = ref false

let shared () =
  Mutex.lock shared_mu;
  let p =
    match !shared_ref with
    | Some p when not p.stop -> p
    | _ ->
      let p = make_pool () in
      shared_ref := Some p;
      if not !shared_at_exit then begin
        shared_at_exit := true;
        at_exit (fun () ->
            Mutex.lock shared_mu;
            let p = !shared_ref in
            Mutex.unlock shared_mu;
            match p with Some p when not p.stop -> shutdown p | _ -> ())
      end;
      p
  in
  Mutex.unlock shared_mu;
  p

(* [create] binds to the process-wide shared pool; [create_in] to a
   private one (tests, or a session that wants isolation). *)
let create_in pool ~workers =
  if workers <= 1 then Sequential
  else Parallel { pool; pworkers = Int.min workers max_workers }

let create ~workers =
  if workers <= 1 then Sequential else create_in (shared ()) ~workers

(* ------------------------------------------------------------------ *)
(* Jobs. *)

let submit t ?poll (tasks : (unit -> unit) array) =
  let n = Array.length tasks in
  let jworkers = match t with Sequential -> 1 | Parallel { pworkers; _ } -> pworkers in
  let registry =
    match t with
    | Sequential -> None
    | Parallel { pool; _ } -> if n = 0 then None else Some pool
  in
  let j =
    { jworkers;
      poll;
      tasks;
      claimed = Array.init n (fun _ -> Atomic.make false);
      remaining = Atomic.make n;
      fault_ = Atomic.make None;
      deques = Array.init jworkers (fun _ -> deque_make (1 + (n / jworkers)));
      jmu = Mutex.create ();
      jcond = Condition.create ();
      registry }
  in
  (* Round-robin distribution keeps every participant locally fed. *)
  let per = Array.make jworkers [] in
  for i = n - 1 downto 0 do
    per.(i mod jworkers) <- i :: per.(i mod jworkers)
  done;
  Array.iteri (fun p ids -> deque_append j.deques.(p) (Array.of_list ids)) per;
  (match registry with
  | None -> ()
  | Some pool ->
    ensure pool jworkers;
    Mutex.lock pool.pmu;
    if pool.stop then begin
      Mutex.unlock pool.pmu;
      invalid_arg "Scheduler: pool is shut down"
    end;
    pool.active <- j :: pool.active;
    Condition.broadcast pool.pcond;
    Mutex.unlock pool.pmu);
  j

let task_count j = Array.length j.tasks
let fault j = Atomic.get j.fault_
let finished j = Atomic.get j.remaining <= 0

(* Run one pending morsel on the caller (participant 0), if any. *)
let help j = try_run j 0

(* Help until [pred ()] holds or the job is fully drained.  The caller
   re-checks [pred]/[fault] on return: with no pending morsel and the
   predicate still false we sleep on [jcond], which every morsel
   completion and every [signal] broadcasts. *)
let wait_for j pred =
  let rec go () =
    if pred () then ()
    else if try_run j 0 then go ()
    else if finished j then ()
    else begin
      Mutex.lock j.jmu;
      if (not (pred ())) && (not (finished j)) && not (has_pending j) then
        Condition.wait j.jcond j.jmu;
      Mutex.unlock j.jmu;
      go ()
    end
  in
  go ()

let wait j = wait_for j (fun () -> finished j)

(* Compatibility barrier map: every thunk runs exactly once (helping
   included), outcomes in task order, an exception captured as [Error]
   without killing or skipping siblings. *)
let run t (thunks : (unit -> 'a) list) : ('a, exn) result list =
  let guard f = try Ok (f ()) with e -> Error e in
  match t with
  | Sequential -> List.map guard thunks
  | Parallel _ ->
    let arr = Array.of_list thunks in
    let n = Array.length arr in
    if n = 0 then []
    else begin
      let results = Array.make n None in
      let tasks = Array.init n (fun i () -> results.(i) <- Some (guard arr.(i))) in
      let j = submit t tasks in
      wait j;
      Array.to_list
        (Array.map
           (function
             | Some r -> r
             | None -> Error (Failure "Scheduler.run: task lost"))
           results)
    end
