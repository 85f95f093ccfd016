module Interval = Dqep_util.Interval
module Timer = Dqep_util.Timer
module Props = Dqep_algebra.Props
module Logical = Dqep_algebra.Logical
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan

type mode =
  | Static of { default_selectivity : float; memory_pages : int }
  | Dynamic of { uncertain_memory : bool }
  | Run_time of Dqep_cost.Bindings.t

let static = Static { default_selectivity = 0.05; memory_pages = 64 }
let dynamic ?(uncertain_memory = false) () = Dynamic { uncertain_memory }

type options = {
  device : Dqep_cost.Device.t;
  memory_interval : Interval.t;
  prune : bool;
  use_index_join : bool;
  left_deep : bool;
  exhaustive : bool;
  selectivity_bounds : (string * Interval.t) list;
  sample_domination : int option;
  sample_seed : int;
  verify : bool;
  risk : Dqep_cost.Risk.t;
  risk_margin : float;
}

let default_options =
  { device = Dqep_cost.Device.default;
    memory_interval = Interval.make 16. 112.;
    prune = false;
    use_index_join = true;
    left_deep = false;
    exhaustive = false;
    selectivity_bounds = [];
    sample_domination = None;
    sample_seed = 42;
    verify = false;
    risk = Dqep_cost.Risk.default;
    risk_margin = 0.1 }

type stats = {
  cpu_seconds : float;
  groups : int;
  logical_exprs : int;
  logical_alternatives : float;
  goals : int;
  candidates : int;
  pruned : int;
  sample_evaluations : int;
  alternatives_pruned : int;
  plan_nodes : int;
  choose_nodes : int;
}

type certificate = { plan : Plan.t; catalog : Dqep_catalog.Catalog.t }

let certified_plan c = c.plan
let certified_catalog c = c.catalog

type result = {
  plan : Plan.t;
  env : Env.t;
  stats : stats;
  diagnostics : Dqep_util.Diagnostic.t list;
  certificate : certificate;
}

let env_of_mode options catalog = function
  | Static { default_selectivity; memory_pages } ->
    Env.static ~default_selectivity ~memory_pages ~device:options.device catalog
  | Dynamic { uncertain_memory } ->
    let memory =
      if uncertain_memory then options.memory_interval else Interval.point 64.
    in
    Env.dynamic ~memory ~selectivity_bounds:options.selectivity_bounds
      ~device:options.device catalog
  | Run_time bindings -> Env.of_bindings ~device:options.device catalog bindings

let search_config ?(options = default_options) ?refine ~mode catalog query =
  match Logical.validate catalog query with
  | Error diags -> Error (Dqep_util.Diagnostic.list_to_string diags)
  | Ok ()
    when List.length (Logical.relations query) > Memo.max_relations
         || List.length (Logical.selections query) > Memo.max_relations ->
    Error
      (Printf.sprintf "more than %d relations or selections" Memo.max_relations)
  | Ok () ->
    let env = env_of_mode options catalog mode in
    (* Feedback re-optimization: the caller narrows the mode's priors
       with what a session has observed (e.g. [Session.refined_env])
       before the search costs anything against them. *)
    let env = match refine with Some f -> f env | None -> env in
    let keep_equal_alternatives =
      match mode with
      | Dynamic _ -> true
      | Static _ | Run_time _ -> false
    in
    Ok
      ( env,
        Search.config ~keep_equal_alternatives ~prune:options.prune
          ~use_index_join:options.use_index_join
          ~left_deep_only:options.left_deep
          ~force_incomparable:options.exhaustive
          ~sample_domination:options.sample_domination
          ~sample_seed:options.sample_seed ~verify_winners:options.verify
          ~risk:options.risk ~risk_margin:options.risk_margin env )

let optimize ?(options = default_options) ?refine ~mode catalog query =
  match search_config ~options ?refine ~mode catalog query with
  | Error _ as e -> e
  | Ok (env, config) ->
    let memo = Memo.create env in
    let search_result, cpu_seconds =
      Timer.cpu (fun () ->
          let root = Memo.ingest memo query in
          let search = Search.create config memo in
          let plan = Search.optimize search root Props.Any ~limit:Float.infinity in
          (root, search, plan))
    in
    let root, search, plan = search_result in
    (match plan with
    | None -> Error "optimization produced no plan"
    | Some plan ->
      let s = Search.stats search in
      (* Both plan counts from one numbering. *)
      let dag = Plan.Dag.of_plan plan in
      let chooses = ref 0 in
      for i = 0 to dag.Plan.Dag.length - 1 do
        match dag.Plan.Dag.nodes.(i).Plan.op with
        | Dqep_algebra.Physical.Choose_plan -> incr chooses
        | _ -> ()
      done;
      let diagnostics =
        if options.verify then
          Dqep_analysis.Verify.plan ~catalog plan @ Search.verify search
        else []
      in
      Ok
        { plan;
          env;
          diagnostics;
          certificate = { plan; catalog };
          stats =
            { cpu_seconds;
              groups = Memo.group_count memo;
              logical_exprs = Memo.lexpr_count memo;
              logical_alternatives = Memo.logical_tree_count memo root;
              goals = s.Search.goals;
              candidates = s.Search.candidates;
              pruned = s.Search.pruned;
              sample_evaluations = s.Search.sample_evaluations;
              alternatives_pruned = s.Search.alternatives_pruned;
              plan_nodes = dag.Plan.Dag.length;
              choose_nodes = !chooses } })
