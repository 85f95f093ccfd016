(* Per-query resource governor: a cooperative cancellation token with a
   deadline, a memory budget, and a row limit.

   One governor accompanies one query through the execution engine:
   operators call [check] once per batch, exchange workers per partition
   page, and the spilling cores in Exec_common charge their
   materializations against the memory budget through
   [charge]/[with_charge].  Violations raise the typed exceptions
   below, which Resilience maps to typed failures (a memory violation
   triggers choose-plan failover onto a lower-memory alternative).

   The governor is shared across domains — the exchange operator's
   workers check the same token the consumer holds — so all mutable
   state is in atomics.  [check] is engineered to be cheap enough for a
   per-tuple call: one load and a branch when the governor is unlimited,
   and the (possibly syscalling) clock is consulted only every
   [check_every] ticks when a deadline is armed. *)

module Interval = Dqep_util.Interval
module Env = Dqep_cost.Env

exception Deadline_exceeded of { elapsed : float; budget : float }
exception Memory_exceeded of { budget : int; in_use : int; requested : int }
exception Cancelled of string

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { elapsed; budget } ->
      Some
        (Printf.sprintf "Governor.Deadline_exceeded(%.1fms > %.1fms)"
           (elapsed *. 1e3) (budget *. 1e3))
    | Memory_exceeded { budget; in_use; requested } ->
      Some
        (Printf.sprintf
           "Governor.Memory_exceeded(budget %dB, in use %dB, requested %dB)"
           budget in_use requested)
    | Cancelled reason -> Some (Printf.sprintf "Governor.Cancelled(%s)" reason)
    | _ -> None)

(* A memory pool shared by every query a Session admits: charges count
   against the querying governor's own budget and the pool. *)
type pool = { capacity : int; in_use : int Atomic.t }

let pool ~capacity_bytes =
  if capacity_bytes <= 0 then invalid_arg "Governor.pool: capacity <= 0";
  { capacity = capacity_bytes; in_use = Atomic.make 0 }

let pool_in_use p = Atomic.get p.in_use

type t = {
  limited : bool;  (* false only for [none]: check compiles to a branch *)
  deadline : float option;  (* seconds of budget on the clock below *)
  clock : unit -> float;
  started : float;
  memory_budget : int option;  (* bytes *)
  mem_pool : pool option;
  max_rows : int option;
  cancel_after_checks : int option;  (* deterministic injection for tests *)
  check_every : int;  (* clock poll interval, in check ticks *)
  cancelled : exn option Atomic.t;
      (* the first stop — [Cancelled] or [Deadline_exceeded] — which every
         later check on any domain re-raises, so a parallel run reports
         the same typed failure whichever domain gets there first *)
  charged : int Atomic.t;  (* bytes currently charged *)
  rows : int Atomic.t;
  ticks : int Atomic.t;
}

let default_check_every = 32

let create ?(clock = Unix.gettimeofday) ?deadline ?memory_bytes ?pool:mem_pool
    ?max_rows ?cancel_after_checks ?(check_every = default_check_every) () =
  (match deadline with
  | Some d when d < 0. -> invalid_arg "Governor.create: deadline < 0"
  | _ -> ());
  (match memory_bytes with
  | Some b when b <= 0 -> invalid_arg "Governor.create: memory_bytes <= 0"
  | _ -> ());
  if check_every < 1 then invalid_arg "Governor.create: check_every < 1";
  { limited = true;
    deadline;
    clock;
    started = clock ();
    memory_budget = memory_bytes;
    mem_pool;
    max_rows;
    cancel_after_checks;
    check_every;
    cancelled = Atomic.make None;
    charged = Atomic.make 0;
    rows = Atomic.make 0;
    ticks = Atomic.make 0 }

let none =
  { limited = false;
    deadline = None;
    clock = (fun () -> 0.);
    started = 0.;
    memory_budget = None;
    mem_pool = None;
    max_rows = None;
    cancel_after_checks = None;
    check_every = default_check_every;
    cancelled = Atomic.make None;
    charged = Atomic.make 0;
    rows = Atomic.make 0;
    ticks = Atomic.make 0 }

let is_unlimited t = not t.limited

let with_pool t p =
  if t.limited then { t with mem_pool = Some p }
  else
    (* Never alias [none]'s shared atomics into a governed copy. *)
    create ~pool:p ()

let cancel t ~reason =
  if not t.limited then invalid_arg "Governor.cancel: unlimited governor";
  ignore
    (Atomic.compare_and_set t.cancelled None (Some (Cancelled reason)) : bool)

let cancelled_reason t =
  match Atomic.get t.cancelled with
  | None -> None
  | Some (Cancelled reason) -> Some reason
  | Some _ -> Some "deadline exceeded"

let is_cancelled t = Option.is_some (Atomic.get t.cancelled)

let elapsed t = if t.limited then t.clock () -. t.started else 0.

let check t =
  if t.limited then begin
    (match Atomic.get t.cancelled with Some e -> raise e | None -> ());
    let tick = Atomic.fetch_and_add t.ticks 1 in
    (match t.cancel_after_checks with
    | Some k when tick + 1 >= k ->
      cancel t ~reason:(Printf.sprintf "injected at tick %d" (tick + 1));
      raise (Cancelled (Printf.sprintf "injected at tick %d" (tick + 1)))
    | _ -> ());
    match t.deadline with
    | Some budget when tick mod t.check_every = 0 ->
      let elapsed = t.clock () -. t.started in
      if elapsed > budget then begin
        (* Record the violation so siblings (exchange workers) stop at
           their next check without re-reading the clock.  First stop
           wins, here as on every other domain. *)
        let e = Deadline_exceeded { elapsed; budget } in
        ignore (Atomic.compare_and_set t.cancelled None (Some e) : bool);
        raise (Option.value (Atomic.get t.cancelled) ~default:e)
      end
    | _ -> ()
  end

let checks t = Atomic.get t.ticks
let check_every t = t.check_every

(* --- memory accounting --------------------------------------------------- *)

let charged_bytes t = Atomic.get t.charged
let memory_budget t = t.memory_budget

(* Bytes still chargeable before a violation; [None] when unaccounted. *)
let headroom t =
  if not t.limited then None
  else
    let local =
      Option.map (fun b -> b - Atomic.get t.charged) t.memory_budget
    in
    let pooled =
      Option.map (fun p -> p.capacity - Atomic.get p.in_use) t.mem_pool
    in
    match (local, pooled) with
    | None, None -> None
    | Some h, None | None, Some h -> Some (Int.max 0 h)
    | Some a, Some b -> Some (Int.max 0 (Int.min a b))

let charge t bytes =
  if t.limited && bytes > 0 then begin
    (match t.memory_budget with
    | Some budget ->
      let before = Atomic.fetch_and_add t.charged bytes in
      if before + bytes > budget then begin
        ignore (Atomic.fetch_and_add t.charged (-bytes) : int);
        raise (Memory_exceeded { budget; in_use = before; requested = bytes })
      end
    | None -> ignore (Atomic.fetch_and_add t.charged bytes : int));
    match t.mem_pool with
    | Some p ->
      let before = Atomic.fetch_and_add p.in_use bytes in
      if before + bytes > p.capacity then begin
        ignore (Atomic.fetch_and_add p.in_use (-bytes) : int);
        ignore (Atomic.fetch_and_add t.charged (-bytes) : int);
        raise
          (Memory_exceeded { budget = p.capacity; in_use = before; requested = bytes })
      end
    | None -> ()
  end

let release t bytes =
  if t.limited && bytes > 0 then begin
    ignore (Atomic.fetch_and_add t.charged (-bytes) : int);
    match t.mem_pool with
    | Some p -> ignore (Atomic.fetch_and_add p.in_use (-bytes) : int)
    | None -> ()
  end

let with_charge t bytes f =
  charge t bytes;
  Fun.protect ~finally:(fun () -> release t bytes) f

(* --- row accounting ------------------------------------------------------ *)

let count_rows t n =
  if t.limited && n > 0 then begin
    let before = Atomic.fetch_and_add t.rows n in
    match t.max_rows with
    | Some limit when before + n > limit ->
      let reason = Printf.sprintf "row limit %d exceeded" limit in
      cancel t ~reason;
      raise (Cancelled reason)
    | _ -> ()
  end

