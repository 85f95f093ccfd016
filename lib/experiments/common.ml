module Timer = Dqep_util.Timer
module Stats = Dqep_util.Stats
module Optimizer = Dqep_optimizer.Optimizer
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Access_module = Dqep_plans.Access_module
module Env = Dqep_cost.Env
module Device = Dqep_cost.Device
module Queries = Dqep_workload.Queries
module Paramgen = Dqep_workload.Paramgen

type uncertainty = Sel_only | Sel_and_memory

let uncertainty_label = function
  | Sel_only -> "selectivities"
  | Sel_and_memory -> "selectivities+memory"

type measurement = {
  query : Queries.t;
  uncertainty : uncertainty;
  uncertain_vars : int;
  trials : int;
  cpu_scale : float;
  static_opt_time : float;
  dynamic_opt_time : float;
  static_stats : Optimizer.stats;
  dynamic_stats : Optimizer.stats;
  static_plan : Plan.t;
  dynamic_plan : Plan.t;
  static_nodes : int;
  dynamic_nodes : int;
  static_activation : float;
  dynamic_activation_io : float;
  startup_cpu_mean : float;
  dynamic_activation : float;
  static_exec : float list;
  dynamic_exec : float list;
  runtime_exec : float list;
  runtime_opt_times : float list;
  choose_decisions : int;
}

let mean = Stats.mean

let optimize_exn ~options ~mode catalog query =
  match Optimizer.optimize ~options ~mode catalog query with
  | Ok r -> r
  | Error e -> invalid_arg ("Experiments: optimization failed: " ^ e)

let paper_options = { Optimizer.default_options with Optimizer.prune = true }

let measure ?(trials = 100) ?seed ?(cpu_scale = 2000.) ?(options = paper_options)
    (q : Queries.t) uncertainty =
  let seed = Option.value seed ~default:(20240 + q.Queries.id) in
  let uncertain_memory =
    match uncertainty with Sel_only -> false | Sel_and_memory -> true
  in
  let device = options.Optimizer.device in
  let static_mode = Optimizer.static in
  let dynamic_mode = Optimizer.dynamic ~uncertain_memory () in
  (* Optimization times: re-run enough times to defeat clock granularity;
     a fresh memo is built on every run, like the real compile path. *)
  let static_res, static_opt_time =
    Timer.cpu_auto (fun () ->
        optimize_exn ~options ~mode:static_mode q.Queries.catalog q.Queries.query)
  in
  let dynamic_res, dynamic_opt_time =
    Timer.cpu_auto (fun () ->
        optimize_exn ~options ~mode:dynamic_mode q.Queries.catalog q.Queries.query)
  in
  let bindings =
    Paramgen.bindings ~seed ~trials ~host_vars:q.Queries.host_vars
      ~uncertain_memory ()
  in
  let static_exec = ref [] in
  let dynamic_exec = ref [] in
  let runtime_exec = ref [] in
  let runtime_opt_times = ref [] in
  let startup_cpus = ref [] in
  let choose_decisions = ref 0 in
  List.iter
    (fun b ->
      let env = Env.of_bindings ~device q.Queries.catalog b in
      let c, _ = Startup.evaluate env static_res.Optimizer.plan in
      static_exec := c :: !static_exec;
      (* Dynamic start-up: measure the decision procedure. *)
      let resolution, startup_cpu =
        Timer.cpu_auto ~min_seconds:0.005 (fun () ->
            Startup.resolve env dynamic_res.Optimizer.plan)
      in
      startup_cpus := startup_cpu :: !startup_cpus;
      choose_decisions := resolution.Startup.stats.Startup.choose_decisions;
      dynamic_exec := resolution.Startup.anticipated_cost :: !dynamic_exec;
      (* Run-time optimization: full optimization per invocation. *)
      let rt, rt_time =
        Timer.cpu_auto ~min_seconds:0.005 (fun () ->
            optimize_exn ~options ~mode:(Optimizer.Run_time b) q.Queries.catalog
              q.Queries.query)
      in
      runtime_opt_times := rt_time :: !runtime_opt_times;
      let d, _ = Startup.evaluate env rt.Optimizer.plan in
      runtime_exec := d :: !runtime_exec)
    bindings;
  let static_nodes = Plan.node_count static_res.Optimizer.plan in
  let dynamic_nodes = Plan.node_count dynamic_res.Optimizer.plan in
  let base = device.Device.activation_base in
  let static_activation =
    base +. Device.plan_io_time device ~nodes:static_nodes
  in
  let dynamic_activation_io = Device.plan_io_time device ~nodes:dynamic_nodes in
  let startup_cpu_mean = mean !startup_cpus in
  { query = q;
    uncertainty;
    uncertain_vars = Queries.uncertain_variables q ~uncertain_memory;
    trials;
    cpu_scale;
    static_opt_time;
    dynamic_opt_time;
    static_stats = static_res.Optimizer.stats;
    dynamic_stats = dynamic_res.Optimizer.stats;
    static_plan = static_res.Optimizer.plan;
    dynamic_plan = dynamic_res.Optimizer.plan;
    static_nodes;
    dynamic_nodes;
    static_activation;
    dynamic_activation_io;
    startup_cpu_mean;
    dynamic_activation =
      base +. dynamic_activation_io +. (startup_cpu_mean *. cpu_scale);
    static_exec = List.rev !static_exec;
    dynamic_exec = List.rev !dynamic_exec;
    runtime_exec = List.rev !runtime_exec;
    runtime_opt_times = List.rev !runtime_opt_times;
    choose_decisions = !choose_decisions }

let scaled_static_opt m = m.static_opt_time *. m.cpu_scale
let scaled_dynamic_opt m = m.dynamic_opt_time *. m.cpu_scale
let scaled_runtime_opt m = mean m.runtime_opt_times *. m.cpu_scale
let scaled_startup_cpu m = m.startup_cpu_mean *. m.cpu_scale
