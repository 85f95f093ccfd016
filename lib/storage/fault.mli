(** Seeded fault injection for the simulated disk.

    A fault schedule turns the infallible in-memory {!Disk} into one that
    fails the way real devices do: transient per-operation faults (a
    retry may succeed), pages that always fail (bad sectors), and a
    device that dies after a number of I/Os.  All randomness flows from
    one {!Dqep_util.Rng} seed, so a schedule is exactly reproducible:
    the same seed produces the same fault trace, which is what makes
    retry/failover behaviour testable.

    Faults surface as the typed {!Io_fault} exception from the disk
    access that would have performed the physical I/O; the operation has
    no effect when it faults (nothing is read or written, no counter of
    successful I/O advances). *)

type kind =
  | Transient  (** a retry of the same operation may succeed *)
  | Permanent  (** no retry will ever succeed; fail over instead *)

type op = Read | Write

exception Io_fault of { kind : kind; op : op; page : int }

type config = {
  seed : int;  (** RNG seed for the probabilistic faults *)
  read_fault_rate : float;  (** transient-fault probability per physical read *)
  write_fault_rate : float;  (** transient-fault probability per physical write *)
  fail_after : (int * kind) option;
      (** [Some (n, kind)]: the first [n] physical I/Os succeed, every
          later one raises a fault of [kind] — a device that degrades
          ([Transient]) or dies ([Permanent]) mid-query *)
  broken_pages : (int * kind) list;
      (** pages that fault on {e every} access, with the given kind — a
          transient entry models a bad sector that looks retryable but
          never recovers *)
}

val config :
  ?read_fault_rate:float ->
  ?write_fault_rate:float ->
  ?fail_after:int * kind ->
  ?broken_pages:(int * kind) list ->
  seed:int ->
  unit ->
  config
(** Rates default to [0.]; [fail_after] and [broken_pages] default to
    none.  @raise Invalid_argument on a rate outside [\[0, 1\]]. *)

type t

val create : config -> t
(** A fresh injector; its RNG stream starts at [config.seed]. *)

val ios_attempted : t -> int
(** Physical I/Os submitted to the injector so far (faulted or not). *)

val on_read : t -> page:int -> unit
(** Consult the schedule for a physical read of [page].
    @raise Io_fault when the schedule says this read fails. *)

val on_write : t -> page:int -> unit
(** Same for a physical write. *)
