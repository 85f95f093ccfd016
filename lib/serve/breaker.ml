(* A per-shape circuit breaker.

   Closed -> Open -> Half_open -> Closed, the classic three-state
   machine: consecutive failures while closed trip the breaker open;
   open requests are rejected fast until the cooldown elapses; the
   first admissions after the cooldown run as bounded probes, and the
   shape must prove itself [probes] times in a row before the breaker
   closes again.  A probe failure re-opens immediately for a fresh
   cooldown.

   Every [Admit] must be balanced by exactly one [success]/[failure]
   call, or the half-open probe accounting leaks and the breaker wedges
   with phantom probes in flight.  The server treats client-side errors
   and sheds as [success] for exactly this reason: they balance the
   admission without counting against the shape.

   All state sits behind one mutex; the clock is injectable so tests
   drive cooldowns deterministically. *)

type config = { failure_threshold : int; cooldown : float; probes : int }

let config ?(failure_threshold = 4) ?(cooldown = 0.5) ?(probes = 2) () =
  if failure_threshold < 1 then
    invalid_arg "Breaker.config: failure_threshold < 1";
  if cooldown < 0. then invalid_arg "Breaker.config: cooldown < 0";
  if probes < 1 then invalid_arg "Breaker.config: probes < 1";
  { failure_threshold; cooldown; probes }

let default = config ()

type state = Closed | Open of { until : float } | Half_open

let state_name = function
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half_open"

type admission = Admit | Reject of { retry_after : float }

type t = {
  cfg : config;
  clock : unit -> float;
  on_trip : unit -> unit;
  on_close : unit -> unit;
  mu : Mutex.t;
  mutable st : state;
  mutable consecutive : int;  (* failures in a row while closed *)
  mutable probing : int;  (* admissions in flight while half-open *)
  mutable probe_successes : int;
  mutable trips : int;
  mutable closes : int;
}

let create ?(clock = Unix.gettimeofday) ?(on_trip = Fun.id) ?(on_close = Fun.id)
    config =
  { cfg = config; clock; on_trip; on_close; mu = Mutex.create (); st = Closed;
    consecutive = 0; probing = 0; probe_successes = 0; trips = 0; closes = 0 }

let locked t f = Mutex.protect t.mu f

let state t = locked t (fun () -> t.st)
let trips t = locked t (fun () -> t.trips)
let closes t = locked t (fun () -> t.closes)

(* Call with mu held. *)
let trip t =
  t.st <- Open { until = t.clock () +. t.cfg.cooldown };
  t.trips <- t.trips + 1;
  t.consecutive <- 0;
  t.probing <- 0;
  t.probe_successes <- 0;
  t.on_trip ()

let admit t =
  locked t (fun () ->
      match t.st with
      | Closed -> Admit
      | Open { until } ->
        let now = t.clock () in
        if now >= until then begin
          (* Cooldown over: this admission is the first probe. *)
          t.st <- Half_open;
          t.probing <- 1;
          t.probe_successes <- 0;
          Admit
        end
        else Reject { retry_after = until -. now }
      | Half_open ->
        if t.probing < t.cfg.probes then begin
          t.probing <- t.probing + 1;
          Admit
        end
        else Reject { retry_after = 0. })

let success t =
  locked t (fun () ->
      match t.st with
      | Closed -> t.consecutive <- 0
      | Half_open ->
        t.probing <- Int.max 0 (t.probing - 1);
        t.probe_successes <- t.probe_successes + 1;
        if t.probe_successes >= t.cfg.probes then begin
          t.st <- Closed;
          t.closes <- t.closes + 1;
          t.consecutive <- 0;
          t.probing <- 0;
          t.probe_successes <- 0;
          t.on_close ()
        end
      | Open _ ->
        (* A straggler admitted before the trip finishing late: the trip
           already reset the accounting; nothing to balance. *)
        ())

let failure t =
  locked t (fun () ->
      match t.st with
      | Closed ->
        t.consecutive <- t.consecutive + 1;
        if t.consecutive >= t.cfg.failure_threshold then trip t
      | Half_open -> trip t
      | Open _ -> ())
