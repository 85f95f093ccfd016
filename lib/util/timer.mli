(** CPU-time measurement for the experiments.

    The paper reports truly measured CPU times for optimization and
    dynamic-plan start-up; we do the same with processor time
    ([Sys.time]), which excludes wall-clock noise. *)

val cpu : (unit -> 'a) -> 'a * float
(** [cpu f] runs [f ()] and returns its result with elapsed CPU seconds. *)

val cpu_auto : ?min_seconds:float -> (unit -> 'a) -> 'a * float
(** [cpu_auto f] measures per-run CPU seconds, repeating [f] (doubling)
    until at least [min_seconds] (default 0.02) of CPU time accumulates,
    so results stay meaningful near the clock's granularity. *)
