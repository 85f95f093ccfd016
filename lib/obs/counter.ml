(* The closed taxonomy of counters the system maintains.

   Keeping the set closed (a variant, not strings) is what lets a trace
   store its totals in a flat atomic array — incrementing a counter on
   a hot path costs one atomic add and nothing else — and what lets downstream consumers (run_stats, the CLI, the
   trace schema) enumerate every counter without coordination. *)

type t =
  (* storage *)
  | Logical_reads
  | Physical_reads
  | Physical_writes
  | Read_faults
  | Write_faults
  (* execution *)
  | Rows_out
  | Batches_out
  | Spill_partitions
  | Spill_runs
  | Spilled_tuples
  (* resilience *)
  | Attempts
  | Retries
  | Faults_absorbed
  | Budget_aborts
  | Memory_aborts
  | Failovers
  (* governance *)
  | Deadline_aborts
  | Cancellations
  (* session *)
  | Submitted
  | Admitted
  | Completed
  | Failed
  | Shed_queue_full
  | Shed_queue_timeout
  (* checkpointed recovery *)
  | Replans
  | Checkpoints_taken
  | Checkpoint_bytes
  | Resume_hits
  (* static analysis *)
  | Rejected_precheck
  (* serving *)
  | Cache_hit
  | Cache_miss
  | Cache_evicted
  | Cache_invalidated_drift
  | Cache_invalidated_replan
  | Breaker_opened
  | Breaker_closed
  | Shed_breaker_open

let all =
  [
    Logical_reads;
    Physical_reads;
    Physical_writes;
    Read_faults;
    Write_faults;
    Rows_out;
    Batches_out;
    Spill_partitions;
    Spill_runs;
    Spilled_tuples;
    Attempts;
    Retries;
    Faults_absorbed;
    Budget_aborts;
    Memory_aborts;
    Failovers;
    Deadline_aborts;
    Cancellations;
    Submitted;
    Admitted;
    Completed;
    Failed;
    Shed_queue_full;
    Shed_queue_timeout;
    Replans;
    Checkpoints_taken;
    Checkpoint_bytes;
    Resume_hits;
    Rejected_precheck;
    Cache_hit;
    Cache_miss;
    Cache_evicted;
    Cache_invalidated_drift;
    Cache_invalidated_replan;
    Breaker_opened;
    Breaker_closed;
    Shed_breaker_open;
  ]

let count = List.length all

let index = function
  | Logical_reads -> 0
  | Physical_reads -> 1
  | Physical_writes -> 2
  | Read_faults -> 3
  | Write_faults -> 4
  | Rows_out -> 5
  | Batches_out -> 6
  | Spill_partitions -> 7
  | Spill_runs -> 8
  | Spilled_tuples -> 9
  | Attempts -> 10
  | Retries -> 11
  | Faults_absorbed -> 12
  | Budget_aborts -> 13
  | Memory_aborts -> 14
  | Failovers -> 15
  | Deadline_aborts -> 16
  | Cancellations -> 17
  | Submitted -> 18
  | Admitted -> 19
  | Completed -> 20
  | Failed -> 21
  | Shed_queue_full -> 22
  | Shed_queue_timeout -> 23
  | Replans -> 24
  | Checkpoints_taken -> 25
  | Checkpoint_bytes -> 26
  | Resume_hits -> 27
  | Rejected_precheck -> 28
  | Cache_hit -> 29
  | Cache_miss -> 30
  | Cache_evicted -> 31
  | Cache_invalidated_drift -> 32
  | Cache_invalidated_replan -> 33
  | Breaker_opened -> 34
  | Breaker_closed -> 35
  | Shed_breaker_open -> 36

let name = function
  | Logical_reads -> "logical_reads"
  | Physical_reads -> "physical_reads"
  | Physical_writes -> "physical_writes"
  | Read_faults -> "read_faults"
  | Write_faults -> "write_faults"
  | Rows_out -> "rows_out"
  | Batches_out -> "batches_out"
  | Spill_partitions -> "spill_partitions"
  | Spill_runs -> "spill_runs"
  | Spilled_tuples -> "spilled_tuples"
  | Attempts -> "attempts"
  | Retries -> "retries"
  | Faults_absorbed -> "faults_absorbed"
  | Budget_aborts -> "budget_aborts"
  | Memory_aborts -> "memory_aborts"
  | Failovers -> "failovers"
  | Deadline_aborts -> "deadline_aborts"
  | Cancellations -> "cancellations"
  | Submitted -> "submitted"
  | Admitted -> "admitted"
  | Completed -> "completed"
  | Failed -> "failed"
  | Shed_queue_full -> "shed_queue_full"
  | Shed_queue_timeout -> "shed_queue_timeout"
  | Replans -> "replans"
  | Checkpoints_taken -> "checkpoints_taken"
  | Checkpoint_bytes -> "checkpoint_bytes"
  | Resume_hits -> "resume_hits"
  | Rejected_precheck -> "rejected_precheck"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Cache_evicted -> "cache_evicted"
  | Cache_invalidated_drift -> "cache_invalidated_drift"
  | Cache_invalidated_replan -> "cache_invalidated_replan"
  | Breaker_opened -> "breaker_opened"
  | Breaker_closed -> "breaker_closed"
  | Shed_breaker_open -> "shed_breaker_open"

let of_name s = List.find_opt (fun c -> name c = s) all
let pp ppf c = Format.pp_print_string ppf (name c)
