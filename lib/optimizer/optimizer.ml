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
  prune : bool;
  left_deep : bool;
  exhaustive : bool;
  selectivity_bounds : (string * Interval.t) list;
  sample_domination : int option;
  verify : bool;
  risk : Dqep_cost.Risk.t;
}

let default_options =
  { device = Dqep_cost.Device.default;
    prune = false;
    left_deep = false;
    exhaustive = false;
    selectivity_bounds = [];
    sample_domination = None;
    verify = false;
    risk = Dqep_cost.Risk.default }

(* The run-time memory range when it is uncertain (paper: [16, 112]). *)
let memory_interval = Interval.make 16. 112.

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

type replan_stats = {
  groups_total : int;
  groups_moved : int;
  groups_dirty : int;
  reused_winners : int;
}

(* The state that built a plan, kept for [replan]. *)
type retained = {
  memo : Memo.t;
  search : Search.t;
  root : int;
  mutable last : replan_stats option;
}

type result = {
  plan : Plan.t;
  env : Env.t;
  stats : stats;
  diagnostics : Dqep_util.Diagnostic.t list;
  certificate : certificate;
  retained : retained;
}

let env_of_mode options catalog = function
  | Static { default_selectivity; memory_pages } ->
    Env.static ~default_selectivity ~memory_pages ~device:options.device catalog
  | Dynamic { uncertain_memory } ->
    let memory =
      if uncertain_memory then memory_interval else Interval.point 64.
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
        { Search.env;
          keep_equal_alternatives;
          prune = options.prune;
          left_deep_only = options.left_deep;
          force_incomparable = options.exhaustive;
          sample_domination = options.sample_domination;
          verify_winners = options.verify;
          risk = options.risk } )

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
          retained = { memo; search; root; last = None };
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

(* Incremental re-optimization: fold the observations into the retained
   memo's row intervals ([Memo.refine_rows], which never leaves the
   prior, so winners of unmoved groups stay soundly costed), mark the
   transitive parents of every moved group dirty, drop only those
   groups' memoized goals ([Search.reseed]) and search again.  Clean
   groups answer from cache; the result is the plan a fresh search of
   the refined memo returns.

   The dirty closure is a fixpoint of passes over the groups: ingest
   interns children first, but exploration adds joins over groups it
   creates later (associativity's [B join C]), so a child's id can be
   above its parent's and one ascending pass can miss a parent. *)
let replan r ~rels_rows =
  let t = r.retained in
  match Memo.refine_rows t.memo rels_rows with
  | [] -> None
  | moved ->
    let n = Memo.group_count t.memo in
    let dirty = Array.make n false in
    List.iter (fun id -> dirty.(id) <- true) moved;
    let changed = ref true in
    while !changed do
      changed := false;
      for id = 0 to n - 1 do
        if
          (not dirty.(id))
          && List.exists
               (fun e -> Array.exists (fun c -> dirty.(c)) e.Lmexpr.children)
               (Memo.lexprs (Memo.group t.memo id))
        then begin
          dirty.(id) <- true;
          changed := true
        end
      done
    done;
    let reused =
      Search.reseed t.search ~dirty:(fun gid -> gid < n && dirty.(gid))
    in
    let plan = Search.optimize t.search t.root Props.Any ~limit:Float.infinity in
    let groups_dirty =
      Array.fold_left (fun a d -> if d then a + 1 else a) 0 dirty
    in
    t.last <-
      Some
        { groups_total = n;
          groups_moved = List.length moved;
          groups_dirty;
          reused_winners = reused };
    plan

let last_replan r = r.retained.last
