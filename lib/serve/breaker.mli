(** A per-shape circuit breaker: Closed -> Open -> Half_open -> Closed.

    While [Closed], {!failure} calls count consecutive failures;
    reaching [failure_threshold] trips the breaker [Open] for
    [cooldown] seconds, during which {!admit} rejects fast.  After the
    cooldown the breaker admits up to [probes] concurrent probe
    requests ([Half_open]); [probes] successes in a row close it, any
    probe failure re-opens it for a fresh cooldown.

    {b Contract:} every admission must be balanced by exactly one
    outcome, or half-open probe slots leak.  Outcomes that should not
    count against the shape — client errors, sheds,
    deadline/cancellation budget outcomes — balance the admission as a
    success.

    {!enter} hands out a {!ticket} naming the admission's period: the
    time between two transitions.  The outcome of a ticket from an
    earlier period is counted while closed, but it neither frees a
    probe slot nor closes or re-opens a half-open breaker, so at most
    [probes] probes are ever in flight.

    Thread-safe; the clock is injectable for deterministic tests. *)

type config = { failure_threshold : int; cooldown : float; probes : int }

val config :
  ?failure_threshold:int -> ?cooldown:float -> ?probes:int -> unit -> config
(** Defaults: threshold 4, cooldown 0.5 s, 2 probes.
    @raise Invalid_argument on a non-positive threshold or probe count,
    or a negative cooldown. *)

val default : config

type state = Closed | Open of { until : float } | Half_open

val state_name : state -> string

type admission = Admit | Reject of { retry_after : float }

type t

val create :
  ?clock:(unit -> float) ->
  ?on_trip:(unit -> unit) ->
  ?on_close:(unit -> unit) ->
  config ->
  t
(** [on_trip]/[on_close] fire (with the breaker's lock held) on each
    Closed/Half_open -> Open and Half_open -> Closed transition — the
    server's hook for the [Breaker_opened]/[Breaker_closed] counters. *)

type ticket
(** One admission and the period that granted it. *)

val enter : t -> (ticket, float) result
(** Admit a request: [Ok ticket], or [Error retry_after] while open
    (the cooldown left) or while every probe slot is taken ([0.]). *)

val succeeded : ticket -> unit
val failed : ticket -> unit
(** The outcome of a ticket's request.
    @raise Invalid_argument when the ticket was already settled. *)

val admit : t -> admission
val success : t -> unit
val failure : t -> unit
(** {!enter}, {!succeeded} and {!failed} for a caller that keeps no
    ticket: an outcome is taken to be of the current period.  Exact
    when no admission outlives its period. *)

val state : t -> state

val trips : t -> int
(** Transitions into [Open] since creation. *)

val closes : t -> int
(** Recoveries into [Closed] since creation. *)
