(** Shared measurement harness for the paper's Section 6 experiments.

    For one query and one uncertainty setting it produces every quantity
    of Figure 3's notation:
    - [a]: optimization time of the static plan (measured CPU);
    - [e]: optimization time of the dynamic plan (measured CPU);
    - [b] / [f]: activation times of static/dynamic plans — catalog
      validation plus access-module I/O (modelled from plan size) plus,
      for dynamic plans, the measured choose-plan decision CPU;
    - per random binding i: [ci] (static plan's execution cost), [gi]
      (resolved dynamic plan's execution cost), [di] (run-time-optimized
      plan's execution cost), and the run-time optimization time.

    Execution costs are the optimizer's anticipated costs under the true
    bindings, per the paper's footnote 4. *)

type uncertainty = Sel_only | Sel_and_memory

val uncertainty_label : uncertainty -> string

type measurement = {
  query : Dqep_workload.Queries.t;
  uncertainty : uncertainty;
  uncertain_vars : int;
  trials : int;
  cpu_scale : float;
      (** calibration factor translating measured host-CPU seconds to the
          paper's reference machine (DECstation 5000/125), applied
          wherever measured CPU is combined with the modelled I/O
          constants; raw measured times are also reported *)
  (* compile-time *)
  static_opt_time : float;  (** a *)
  dynamic_opt_time : float;  (** e *)
  static_stats : Dqep_optimizer.Optimizer.stats;
  dynamic_stats : Dqep_optimizer.Optimizer.stats;
  static_plan : Dqep_plans.Plan.t;
  dynamic_plan : Dqep_plans.Plan.t;
  static_nodes : int;
  dynamic_nodes : int;
  (* activation *)
  static_activation : float;  (** b: base + access-module I/O *)
  dynamic_activation_io : float;  (** access-module I/O part of f *)
  startup_cpu_mean : float;  (** measured decision CPU part of f *)
  dynamic_activation : float;  (** f: base + I/O + decision CPU *)
  (* per-invocation execution costs *)
  static_exec : float list;  (** ci *)
  dynamic_exec : float list;  (** gi *)
  runtime_exec : float list;  (** di *)
  runtime_opt_times : float list;  (** per-binding optimization time *)
  choose_decisions : int;  (** decisions per start-up in the dynamic plan *)
}

val measure :
  ?trials:int ->
  ?seed:int ->
  ?cpu_scale:float ->
  ?options:Dqep_optimizer.Optimizer.options ->
  Dqep_workload.Queries.t ->
  uncertainty ->
  measurement
(** Defaults: 100 trials (the paper's N), seed 20240 + query id,
    [cpu_scale] 2000 (a modern core is roughly three orders of magnitude
    faster than a 25 MHz R3000), [options] the default options with
    branch-and-bound on, as in the paper's optimizer: Figure 5's pruned
    counters show how little it cuts under interval costs (Section 5). *)

val scaled_static_opt : measurement -> float
(** a, in reference-machine seconds. *)

val scaled_dynamic_opt : measurement -> float
(** e, in reference-machine seconds. *)

val scaled_runtime_opt : measurement -> float
(** mean per-invocation run-time optimization cost, reference-machine
    seconds. *)

val scaled_startup_cpu : measurement -> float
(** mean choose-plan decision CPU, reference-machine seconds. *)

val mean : float list -> float
