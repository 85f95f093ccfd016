(** Device model: the constants mapping work to seconds.

    The paper measures CPU times on a DECstation 5000/125 and derives
    access-module I/O from 128-byte plan nodes at 2 MB/s disk bandwidth;
    those two constants are kept verbatim.  The remaining constants are
    chosen once, for a plausible early-90s disk, and used consistently
    for every strategy, so all paper comparisons (ratios, crossovers)
    are preserved. *)

type t = {
  seq_page_io : float;  (** seconds per sequentially read/written page *)
  random_page_io : float;  (** seconds per random page access *)
  cpu_per_tuple : float;  (** seconds to produce/hash/move one tuple *)
  cpu_per_compare : float;  (** seconds per comparison (sort, merge) *)
  choose_plan_overhead : float;
      (** start-up seconds per choose-plan decision (paper example: 0.01) *)
  plan_node_bytes : int;  (** access-module bytes per plan node (128) *)
  plan_disk_bandwidth : float;  (** bytes/second for reading plans (2 MB/s) *)
  activation_base : float;
      (** seconds for catalog validation and the initial seek when
          activating any access module (paper: z = 0.1 s) *)
}

val default : t

val plan_io_time : t -> nodes:int -> float
(** Time to read an access module of [nodes] plan nodes from disk. *)
