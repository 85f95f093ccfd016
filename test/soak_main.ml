(* Standalone chaos soak driver for CI.

   Runs the multi-domain governed-session harness with configurable
   scale and fails loudly — nonzero exit — on any breach of the
   contract: a job without a typed outcome, a leaked buffer-pool pin, a
   leaked spill page, a leaked checkpoint byte, an unexpected failure
   class, or a hang (own watchdog; CI adds a hard step timeout on top).

   With --serve the soak runs through the serving layer instead: client
   domains hammer a Server (wire protocol, plan cache, per-shape
   breakers) whose poisoned shape rides dead storage and whose drifted
   shape borrows databases that lack an index its cached plan uses.
   The contract adds typed responses for every line, a tripped breaker
   on the poisoned shape with healthy shapes still completing, drifted
   requests that complete on a pruned plan or end infeasible (never
   rejected), and a drained session memory pool. *)

module Chaos = Dqep.Experiments.Chaos

let session_soak ~workers ~jobs ~seed ~max_inflight =
  let t = Chaos.run ~workers ~jobs ~seed ~max_inflight () in
  Format.printf "%a@." Chaos.pp_tally t;
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if t.Chaos.total <> jobs then
    fail "%d jobs submitted, %d outcomes" jobs t.Chaos.total;
  List.iter (fail "escaped exception: %s") t.Chaos.escaped;
  List.iter (fail "pin leak: %s") t.Chaos.leaks;
  List.iter (fail "spill leak: %s") t.Chaos.spill_leaks;
  List.iter (fail "checkpoint leak: %s") t.Chaos.checkpoint_leaks;
  if t.Chaos.other_failures > 0 then
    fail "%d unexpected failure outcomes" t.Chaos.other_failures;
  !errors

let serve_soak ~workers ~jobs ~seed ~max_inflight =
  let t =
    Chaos.serve_soak ~clients:workers ~requests:jobs ~seed ~max_inflight ()
  in
  Format.printf "%a@." Chaos.pp_serve_tally t;
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if t.Chaos.requests <> jobs then
    fail "%d requests sent, %d responses" jobs t.Chaos.requests;
  List.iter (fail "untyped response: %s") t.Chaos.untyped;
  List.iter (fail "internal error: %s") t.Chaos.internal_errors;
  List.iter (fail "pin leak: %s") t.Chaos.leaks;
  List.iter (fail "spill leak: %s") t.Chaos.spill_leaks;
  if t.Chaos.client_errors > 0 then
    fail "%d client-side errors in a well-formed workload"
      t.Chaos.client_errors;
  if t.Chaos.pool_leak_bytes <> 0 then
    fail "%d bytes left in the session memory pool" t.Chaos.pool_leak_bytes;
  if t.Chaos.poisoned_trips = 0 then
    fail "the poisoned shape never tripped its breaker";
  if t.Chaos.poisoned_ok > 0 then
    fail "%d poisoned-shape requests completed on dead storage"
      t.Chaos.poisoned_ok;
  if t.Chaos.healthy_ok = 0 then
    fail "no healthy-shape request completed during the storm";
  if t.Chaos.cache_hits_served = 0 then
    fail "no request was served from the plan cache";
  if t.Chaos.drifted_rejected > 0 then
    fail "%d drifted-shape requests rejected as corrupt plans"
      t.Chaos.drifted_rejected;
  if t.Chaos.drifted_ok + t.Chaos.drifted_infeasible = 0 then
    fail "no drifted-shape request reached activation";
  !errors

let () =
  let workers = ref 4 in
  let jobs = ref 32 in
  let seed = ref 1 in
  let max_inflight = ref 3 in
  let deadline = ref 180. in
  let serve = ref false in
  Arg.parse
    [ ("--workers", Arg.Set_int workers,
       "N  submitter/client domains (default 4)");
      ("--jobs", Arg.Set_int jobs,
       "N  queries/requests to submit (default 32)");
      ("--seed", Arg.Set_int seed, "N  harness seed (default 1)");
      ( "--max-inflight",
        Arg.Set_int max_inflight,
        "N  admission slots (default 3)" );
      ( "--serve",
        Arg.Set serve,
        "  run the serving-layer fault storm instead of the session soak" );
      ( "--watchdog",
        Arg.Set_float deadline,
        "SECONDS  abort if the soak runs longer (default 180)" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "soak_main [options] -- governed-session chaos soak";
  (* Watchdog on a daemon thread: a hang is a contract breach, not a
     slow run, so exit with the conventional timeout status. *)
  let finished = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         let waited = ref 0. in
         while (not (Atomic.get finished)) && !waited < !deadline do
           Thread.delay 0.25;
           waited := !waited +. 0.25
         done;
         if not (Atomic.get finished) then begin
           Printf.eprintf "soak: no result after %.0fs — hang\n%!" !deadline;
           exit 124
         end)
       ());
  let errors =
    (if !serve then serve_soak else session_soak)
      ~workers:!workers ~jobs:!jobs ~seed:!seed ~max_inflight:!max_inflight
  in
  Atomic.set finished true;
  match errors with
  | [] -> ()
  | es ->
    List.iter (Printf.eprintf "soak: %s\n") (List.rev es);
    exit 1
