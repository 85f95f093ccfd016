(* A per-shape circuit breaker.

   Closed -> Open -> Half_open -> Closed, the classic three-state
   machine: consecutive failures while closed trip the breaker open;
   open requests are rejected fast until the cooldown elapses; the
   first admissions after the cooldown run as bounded probes, and the
   shape must prove itself [probes] times in a row before the breaker
   closes again.  A probe failure re-opens immediately for a fresh
   cooldown.

   Every admission must be balanced by exactly one outcome, or the
   half-open probe accounting leaks and the breaker wedges with phantom
   probes in flight.  The server treats client-side errors and sheds as
   successes for exactly this reason: they balance the admission without
   counting against the shape.

   An admission is a ticket naming its period: the breaker's time
   between two transitions (a closed stretch, an open cooldown, one
   half-open stretch).  An outcome from an earlier period is counted
   while closed, but it neither frees a probe slot nor closes or
   re-opens a half-open breaker: a request admitted before a trip that
   finishes during the next half-open stretch is not one of its
   probes.

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
  mutable period : int;  (* bumped on every transition *)
  mutable consecutive : int;  (* failures in a row while closed *)
  mutable probing : int;  (* admissions in flight while half-open *)
  mutable probe_successes : int;
  mutable trips : int;
  mutable closes : int;
}

let create ?(clock = Unix.gettimeofday) ?(on_trip = Fun.id) ?(on_close = Fun.id)
    config =
  { cfg = config; clock; on_trip; on_close; mu = Mutex.create (); st = Closed;
    period = 0; consecutive = 0; probing = 0; probe_successes = 0; trips = 0;
    closes = 0 }

let locked t f = Mutex.protect t.mu f

let state t = locked t (fun () -> t.st)
let trips t = locked t (fun () -> t.trips)
let closes t = locked t (fun () -> t.closes)

type ticket = { breaker : t; granted : int; mutable settled : bool }

(* The helpers below run with mu held. *)

let enter_state t st =
  t.st <- st;
  t.period <- t.period + 1

let trip t =
  enter_state t (Open { until = t.clock () +. t.cfg.cooldown });
  t.trips <- t.trips + 1;
  t.consecutive <- 0;
  t.probing <- 0;
  t.probe_successes <- 0;
  t.on_trip ()

let enter t =
  locked t (fun () ->
      let grant () = Ok { breaker = t; granted = t.period; settled = false } in
      match t.st with
      | Closed -> grant ()
      | Open { until } ->
        let now = t.clock () in
        if now >= until then begin
          (* Cooldown over: this admission is the first probe. *)
          enter_state t Half_open;
          t.probing <- 1;
          t.probe_successes <- 0;
          grant ()
        end
        else Error (until -. now)
      | Half_open ->
        if t.probing < t.cfg.probes then begin
          t.probing <- t.probing + 1;
          grant ()
        end
        else Error 0.)

(* An outcome of an admission granted in period [granted]. *)
let settle t ~granted ~ok =
  match t.st with
  | Closed ->
    if ok then t.consecutive <- 0
    else begin
      t.consecutive <- t.consecutive + 1;
      if t.consecutive >= t.cfg.failure_threshold then trip t
    end
  | Half_open when granted = t.period ->
    if ok then begin
      t.probing <- Int.max 0 (t.probing - 1);
      t.probe_successes <- t.probe_successes + 1;
      if t.probe_successes >= t.cfg.probes then begin
        enter_state t Closed;
        t.closes <- t.closes + 1;
        t.consecutive <- 0;
        t.probing <- 0;
        t.probe_successes <- 0;
        t.on_close ()
      end
    end
    else trip t
  | Half_open | Open _ ->
    (* Granted before this half-open stretch, or landing while open: the
       end of its period already reset its accounting. *)
    ()

let settle_ticket tk ~ok =
  let t = tk.breaker in
  locked t (fun () ->
      if tk.settled then invalid_arg "Breaker: an admission settled twice";
      tk.settled <- true;
      settle t ~granted:tk.granted ~ok)

let succeeded tk = settle_ticket tk ~ok:true
let failed tk = settle_ticket tk ~ok:false

(* Without a ticket, an outcome is taken to be of the current period. *)
let admit t =
  match enter t with
  | Ok _ -> Admit
  | Error retry_after -> Reject { retry_after }

let success t = locked t (fun () -> settle t ~granted:t.period ~ok:true)
let failure t = locked t (fun () -> settle t ~granted:t.period ~ok:false)
