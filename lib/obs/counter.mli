(** The closed taxonomy of counters.

    A closed variant rather than free-form strings: traces store totals
    in a flat atomic array indexed by {!index}, so bumping a counter on
    a hot path is a single atomic add, and every consumer (run_stats
    views, the CLI, the trace schema validator) can enumerate the full
    set. *)

type t =
  (* storage *)
  | Logical_reads  (** buffer-pool page requests, hit or miss *)
  | Physical_reads  (** pages actually read from the disk layer *)
  | Physical_writes  (** pages actually written to the disk layer *)
  | Read_faults  (** injected/observed I/O faults absorbed on read *)
  | Write_faults  (** injected/observed I/O faults absorbed on write *)
  (* execution *)
  | Rows_out  (** tuples produced by the plan root *)
  | Batches_out  (** batches produced by the plan root *)
  | Spill_partitions  (** hash-join partitions spilled to temp heaps *)
  | Spill_runs  (** external-sort runs written to temp heaps *)
  | Spilled_tuples  (** tuples that crossed a spill boundary *)
  (* resilience *)
  | Attempts  (** plan activations, including retries and failovers *)
  | Retries  (** same-plan re-activations after a transient fault *)
  | Faults_absorbed  (** faults survived without failing the query *)
  | Budget_aborts  (** activations abandoned on the I/O budget guard *)
  | Memory_aborts  (** activations abandoned on the memory governor *)
  | Failovers  (** choose-plan switches to an alternative *)
  (* governance *)
  | Deadline_aborts  (** queries stopped by a wall-clock deadline *)
  | Cancellations  (** queries stopped by explicit cancellation *)
  (* session *)
  | Submitted
  | Admitted
  | Completed
  | Failed
  | Shed_queue_full
  | Shed_queue_timeout
  (* checkpointed recovery *)
  | Replans  (** incremental re-optimizations after a busted estimate *)
  | Checkpoints_taken  (** intermediates materialized at blocking points *)
  | Checkpoint_bytes  (** bytes charged to the governor for checkpoints *)
  | Resume_hits  (** checkpointed intermediates served instead of re-execution *)
  (* static analysis *)
  | Rejected_precheck
      (** submissions refused by the session's static budget precheck
          (DQEP503) before any execution *)
  (* serving *)
  | Cache_hit  (** plan-cache lookups that skipped the optimizer *)
  | Cache_miss  (** plan-cache lookups that fell through to optimize *)
  | Cache_evicted  (** entries dropped by LRU capacity pressure *)
  | Cache_invalidated_drift  (** entries evicted on catalog drift *)
  | Cache_invalidated_replan  (** entries evicted after a replan storm *)
  | Breaker_opened  (** per-shape circuit breakers tripped open *)
  | Breaker_closed  (** breakers recovered to closed after probes *)
  | Shed_breaker_open  (** requests shed fast because their shape's breaker was open *)

val all : t list
(** Every counter, in {!index} order. *)

val count : int
(** [List.length all]. *)

val index : t -> int
(** Dense index in [\[0, count)], stable within a build. *)

val name : t -> string
(** Stable snake_case name used in traces and JSON reports. *)

val of_name : string -> t option
val pp : Format.formatter -> t -> unit
