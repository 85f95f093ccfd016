module Interval = Dqep_util.Interval
module Rng = Dqep_util.Rng
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Props = Dqep_algebra.Props
module Col = Dqep_algebra.Col
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Cost_model = Dqep_cost.Cost_model
module Risk = Dqep_cost.Risk
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup

(* Enable with [Logs.Src.set_level Search.log_src (Some Logs.Debug)] or
   the CLI's --verbose flag. *)
let log_src = Logs.Src.create "dqep.search" ~doc:"Optimizer search engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  env : Env.t;
  keep_equal_alternatives : bool;
  prune : bool;
  use_index_join : bool;
  left_deep_only : bool;
  force_incomparable : bool;
  sample_domination : int option;
  sample_seed : int;
  verify_winners : bool;
  risk : Risk.t;
  risk_margin : float;
}

let config ?(keep_equal_alternatives = true) ?(prune = false)
    ?(use_index_join = true) ?(left_deep_only = false)
    ?(force_incomparable = false) ?(sample_domination = None)
    ?(sample_seed = 42) ?(verify_winners = false)
    ?(risk = Risk.default) ?(risk_margin = 0.1) env =
  { env; keep_equal_alternatives; prune; use_index_join; left_deep_only;
    force_incomparable; sample_domination; sample_seed; verify_winners;
    risk; risk_margin }

type stats = {
  goals : int;
  candidates : int;
  pruned : int;
  sample_evaluations : int;
  alternatives_pruned : int;
}

type entry = { bound : float; best : Plan.t option }

type t = {
  config : config;
  memo : Memo.t;
  mutable builder : Plan.Builder.t;
  winners : (int, (Props.required * entry) list) Hashtbl.t;
  sample_envs : Env.t list Lazy.t;
  sample_costs : (int * int, float) Hashtbl.t;
  rank_evaluator : Startup.evaluator Lazy.t;
  rank_vectors : (int, float array) Hashtbl.t;
  rank_costs : (int, float) Hashtbl.t;
  mutable goals : int;
  mutable candidates : int;
  mutable pruned : int;
  mutable sample_evaluations : int;
  mutable alternatives_pruned : int;
}

(* Deterministic per-(variable, sample) selectivities and memory values
   for the sampled-domination heuristic. *)
let make_sample_envs config n =
  let base_mem = Env.memory_pages config.env in
  List.init n (fun j ->
      let selectivity var =
        let rng = Rng.create (Hashtbl.hash (var, config.sample_seed, j)) in
        Interval.point (Rng.float rng)
      in
      let mem =
        let rng = Rng.create (Hashtbl.hash ("memory", config.sample_seed, j)) in
        Interval.point
          (Rng.uniform rng base_mem.Interval.lo base_mem.Interval.hi)
      in
      Env.make
        ~catalog:(Env.catalog config.env)
        ~device:(Env.device config.env)
        ~selectivity ~memory_pages:mem ())

let create config memo =
  { config;
    memo;
    builder = Plan.Builder.create config.env;
    winners = Hashtbl.create 64;
    sample_envs =
      lazy
        (match config.sample_domination with
        | None -> []
        | Some n -> make_sample_envs config n);
    sample_costs = Hashtbl.create 256;
    rank_evaluator =
      lazy (Startup.evaluator (List.map snd (Env.scenarios config.env)));
    rank_vectors = Hashtbl.create 256;
    rank_costs = Hashtbl.create 256;
    goals = 0;
    candidates = 0;
    pruned = 0;
    sample_evaluations = 0;
    alternatives_pruned = 0 }

let memo t = t.memo

(* Incremental re-entry after refined cardinalities (Reoptimize): keep
   the memoized winner of every clean group — its bound is raised to
   infinity so [optimize] serves it as a pure cache hit — and drop the
   entries of dirty groups (and every goal whose cached answer was
   [None], which may become a plan under the fresh unlimited search).
   The builder starts afresh: it interns a node by operator and input
   pids before costing it, so the old one would hand a dirty group's
   rebuilt node back with its pre-refinement rows and cost.  Pids are
   global, so retained plans and rebuilt nodes never collide.  Returns
   the number of goal entries kept. *)
let reseed t ~dirty =
  t.builder <- Plan.Builder.create t.config.env;
  let reused = ref 0 in
  let updates =
    Hashtbl.fold
      (fun gid entries acc ->
        let kept =
          List.filter_map
            (fun (r, e) ->
              match e.best with
              | Some _ when not (dirty gid) ->
                incr reused;
                Some (r, { e with bound = Float.infinity })
              | Some _ | None -> None)
            entries
        in
        (gid, kept) :: acc)
      t.winners []
  in
  List.iter
    (fun (gid, kept) ->
      if kept = [] then Hashtbl.remove t.winners gid
      else Hashtbl.replace t.winners gid kept)
    updates;
  !reused

let stats t =
  { goals = t.goals;
    candidates = t.candidates;
    pruned = t.pruned;
    sample_evaluations = t.sample_evaluations;
    alternatives_pruned = t.alternatives_pruned }

let sample_cost t j env (plan : Plan.t) =
  let key = (plan.Plan.pid, j) in
  match Hashtbl.find_opt t.sample_costs key with
  | Some c -> c
  | None ->
    let c, _ = Startup.evaluate env plan in
    t.sample_evaluations <- t.sample_evaluations + 1;
    Hashtbl.add t.sample_costs key c;
    c

(* The policy's rank of a plan: its start-up-resolved cost under every
   scenario of the environment's grid, aggregated by the risk posture.
   Each scenario is a point environment inside the uncertainty box, and
   start-up resolution picks the cheapest choose-plan alternative there,
   so every scenario cost — and hence any aggregate of them — lies
   within the plan's interval cost.  That containment is what keeps the
   search's [lo > limit] pruning sound when the limit is tightened from
   a rank (see [consider]). *)
let scenario_vector t (plan : Plan.t) =
  match Hashtbl.find_opt t.rank_vectors plan.Plan.pid with
  | Some v -> v
  | None ->
    let v = Startup.evaluate_with (Lazy.force t.rank_evaluator) plan in
    t.sample_evaluations <- t.sample_evaluations + Array.length v;
    Hashtbl.add t.rank_vectors plan.Plan.pid v;
    v

let rank t (plan : Plan.t) =
  match Hashtbl.find_opt t.rank_costs plan.Plan.pid with
  | Some r -> r
  | None ->
    let r = Risk.aggregate t.config.risk (scenario_vector t plan) in
    Hashtbl.add t.rank_costs plan.Plan.pid r;
    r

(* [a] consistently at least as cheap as [b] over all sampled settings. *)
let sample_dominates t a b =
  match Lazy.force t.sample_envs with
  | [] -> false
  | envs ->
    List.for_all
      (fun (j, env) -> sample_cost t j env a <= sample_cost t j env b)
      (List.mapi (fun j env -> (j, env)) envs)

let find_entry t gid required =
  match Hashtbl.find_opt t.winners gid with
  | None -> None
  | Some l ->
    List.find_opt (fun (r, _) -> Props.required_equal r required) l
    |> Option.map snd

let store_entry t gid required entry =
  let l = Option.value ~default:[] (Hashtbl.find_opt t.winners gid) in
  let l = List.filter (fun (r, _) -> not (Props.required_equal r required)) l in
  Hashtbl.replace t.winners gid ((required, entry) :: l)

let group_input (g : Memo.group) =
  { Cost_model.rows = g.Memo.rows; bytes_per_row = g.Memo.bytes_per_row }

(* A goal's entry records the largest limit its answer is known for.
   The answer depends on [limit] only while [local_limit] still equals
   it: a candidate pruned then, or a child answer that was itself
   limit-dependent, could change under a larger limit.  Once a retained
   plan tightens [local_limit] below [limit], a search under any larger
   limit tightens to the same value at the same plan, so it would
   return the same answer.  Goals that never depend on [limit] are
   stored with an infinite bound and are never searched again. *)
let rec goal t gid required ~limit =
  t.goals <- t.goals + 1;
  match find_entry t gid required with
  | Some e when e.bound >= limit -> e
  | _ ->
    Memo.explore t.memo gid;
    let g = Memo.group t.memo gid in
    let local_limit = ref limit in
    let sensitive = ref false in
    let untightened () = !local_limit >= limit in
    let child gid required ~limit =
      let e = goal t gid required ~limit in
      if untightened () && e.bound < Float.infinity then sensitive := true;
      e.best
    in
    let pareto = ref [] in
    let sample_dom =
      match t.config.sample_domination with
      | None -> None
      | Some _ -> Some (fun a b -> sample_dominates t a b)
    in
    let rank_of =
      match t.config.risk with
      | Risk.Worst_case -> None
      | Risk.Expected | Risk.Quantile _ -> Some (fun p -> rank t p)
    in
    let scenario_costs_of =
      match rank_of with
      | None -> None
      | Some _ -> Some (fun p -> scenario_vector t p)
    in
    (* Per-scenario minima over the plans retained so far: a later
       candidate whose optimistic bound clears every minimum can never
       become a scenario winner, so the ranked limit below may tighten
       to [max scenario_min] without losing grid optimality. *)
    let scenario_min = ref [||] in
    let on_rank_drop _ =
      t.alternatives_pruned <- t.alternatives_pruned + 1
    in
    let consider (plan : Plan.t) =
      t.candidates <- t.candidates + 1;
      if Props.satisfies plan.Plan.props required then begin
        if t.config.force_incomparable then begin
          (* Exhaustive plans: no comparison ever succeeds, every
             candidate is retained (Section 3). *)
          let set, _ =
            Pareto.insert ~keep_equal:true ~force_incomparable:true !pareto plan
          in
          pareto := set
        end
        else if t.config.prune && plan.Plan.total_cost.Interval.lo > !local_limit
        then begin
          t.pruned <- t.pruned + 1;
          if untightened () then sensitive := true
        end
        else begin
          let set, added =
            Pareto.insert ~keep_equal:t.config.keep_equal_alternatives
              ?sample_dominates:sample_dom ?rank:rank_of
              ?scenario_costs:scenario_costs_of
              ~margin:t.config.risk_margin ~on_rank_drop !pareto plan
          in
          pareto := set;
          if added && t.config.prune then begin
            (match rank_of with
            | None ->
              if plan.Plan.total_cost.Interval.hi < !local_limit then
                local_limit := plan.Plan.total_cost.Interval.hi
            | Some rk ->
              (* Rank-based tightening: a plan with a lower bound above
                 (1 + margin) x this rank can never be a margin
                 near-tie (rank >= lo), and one whose lower bound
                 clears every retained scenario minimum can never win a
                 scenario — above both it could not survive the ranked
                 Pareto filter, so pruning it early is pure savings. *)
              let v = scenario_vector t plan in
              if Array.length !scenario_min = 0 then
                scenario_min := Array.copy v
              else
                Array.iteri
                  (fun j c ->
                    if c < !scenario_min.(j) then !scenario_min.(j) <- c)
                  v;
              let winner_bound =
                Array.fold_left Float.max neg_infinity !scenario_min
              in
              let cutoff =
                Float.max
                  ((1. +. t.config.risk_margin) *. rk plan)
                  winner_bound
              in
              if cutoff < !local_limit then local_limit := cutoff)
          end
        end
      end
    in
    let mk op inputs props =
      Plan.Builder.operator t.builder op ~inputs ~rels:g.Memo.rels ~rows:g.Memo.rows
        ~bytes_per_row:g.Memo.bytes_per_row ~props
    in
    (* The limits of an operator's children: what is left of this
       goal's after the operator's own cost and what earlier inputs
       [spent].  Only branch-and-bound limits a child, so only it runs
       the cost model here. *)
    let child_limit op inputs =
      if t.config.prune then begin
        let own =
          Cost_model.own_cost t.config.env op ~inputs ~output_rows:g.Memo.rows
        in
        fun ~spent -> !local_limit -. own.Interval.lo -. spent
      end
      else fun ~spent:_ -> Float.infinity
    in
    for i = 0 to g.Memo.n_exprs - 1 do
      implementations t g.Memo.exprs.(i) ~mk ~child ~child_limit ~consider
    done;
    (* Sort enforcer for ordered goals. *)
    (match required with
    | Props.Any -> ()
    | Props.Sorted col ->
      let op = Physical.Sort [ col ] in
      (match
         child gid Props.Any ~limit:(child_limit op [ group_input g ] ~spent:0.)
       with
      | None -> ()
      | Some child -> consider (mk op [ child ] (Props.ordered [ col ]))));
    let best =
      match !pareto with
      | [] -> None
      | [ p ] -> Some p
      | alts -> Some (Plan.Builder.choose t.builder alts)
    in
    Log.debug (fun m ->
        m "goal (group %d, %a): %d surviving plan(s), best %a" gid
          Props.pp_required required (List.length !pareto)
          (Format.pp_print_option
             ~none:(fun ppf () -> Format.pp_print_string ppf "none")
             (fun ppf (p : Plan.t) -> Interval.pp ppf p.Plan.total_cost))
          best);
    (* Debug flag: statically verify the winner before memoizing it, so a
       corrupt plan fails at its construction site, not downstream. *)
    (match best with
    | Some p when t.config.verify_winners -> (
      let diags =
        Dqep_analysis.Verify.winner
          ~catalog:(Env.catalog t.config.env)
          ~group_rels:g.Memo.rels ~required p
      in
      match Dqep_util.Diagnostic.errors diags with
      | [] -> ()
      | errs -> raise (Dqep_analysis.Verify.Failed errs))
    | Some _ | None -> ());
    let entry =
      { bound = (if !sensitive then limit else Float.infinity); best }
    in
    store_entry t gid required entry;
    entry

and implementations t (e : Lmexpr.t) ~mk ~child ~child_limit ~consider =
  let catalog = Env.catalog t.config.env in
  match e.Lmexpr.op with
  | Lmexpr.Get rel ->
    consider (mk (Physical.File_scan rel) [] Props.unordered);
    List.iter
      (fun (ix : Dqep_catalog.Index.t) ->
        let col = Col.make ~rel ~attr:ix.attribute in
        consider
          (mk (Physical.Btree_scan { rel; attr = ix.attribute }) []
             (Props.ordered [ col ])))
      (Catalog.indexes_of catalog rel)
  | Lmexpr.Select pred ->
    let child_gid = e.Lmexpr.children.(0) in
    let child_group = Memo.group t.memo child_gid in
    (* Filter over the child, preserving whatever order the goal needs:
       one candidate per interesting child order. *)
    let child_orders =
      Props.Any
      :: (match child_group.Memo.rels with
         | [ rel ] ->
           List.map
             (fun (ix : Dqep_catalog.Index.t) ->
               Props.Sorted (Col.make ~rel ~attr:ix.attribute))
             (Catalog.indexes_of catalog rel)
         | _ -> [])
    in
    let op = Physical.Filter pred in
    let limit = child_limit op [ group_input child_group ] in
    List.iter
      (fun child_required ->
        match child child_gid child_required ~limit:(limit ~spent:0.) with
        | None -> ()
        | Some child -> consider (mk op [ child ] child.Plan.props))
      child_orders;
    (* Filter-B-tree-Scan directly over a base relation. *)
    (match (child_group.Memo.rels, child_group.Memo.sels) with
    | [ rel ], []
      when rel = pred.Predicate.target.Col.rel
           && Catalog.has_index catalog ~rel
                ~attr:pred.Predicate.target.Col.attr ->
      let attr = pred.Predicate.target.Col.attr in
      consider
        (mk (Physical.Filter_btree_scan { rel; attr; pred }) []
           (Props.ordered [ pred.Predicate.target ]))
    | _ -> ())
  | Lmexpr.Join preds ->
    let gl = e.Lmexpr.children.(0) and gr = e.Lmexpr.children.(1) in
    let lgroup = Memo.group t.memo gl and rgroup = Memo.group t.memo gr in
    if t.config.left_deep_only && List.length rgroup.Memo.rels <> 1 then ()
    else begin
    let binary op lreq rreq props =
      let limit = child_limit op [ group_input lgroup; group_input rgroup ] in
      match child gl lreq ~limit:(limit ~spent:0.) with
      | None -> ()
      | Some left -> (
        match
          child gr rreq ~limit:(limit ~spent:left.Plan.total_cost.Interval.lo)
        with
        | None -> ()
        | Some right -> consider (mk op [ left; right ] props))
    in
    (* Hash join: left input builds, right probes.  The commuted
       expression supplies the swapped roles. *)
    binary (Physical.Hash_join preds) Props.Any Props.Any Props.unordered;
    (* Merge join on the first (canonical) predicate's columns. *)
    (match preds with
    | [] -> ()
    | first :: _ ->
      binary (Physical.Merge_join preds)
        (Props.Sorted first.Predicate.left)
        (Props.Sorted first.Predicate.right)
        (* Equal join-column values: the output is sorted on both. *)
        (Props.ordered [ first.Predicate.left; first.Predicate.right ]));
    (* Index join: inner must be a (possibly selected) base relation with
       an index on a join column. *)
    if t.config.use_index_join then
      match rgroup.Memo.rels with
      | [] | _ :: _ :: _ -> ()
      | [ inner_rel ] ->
        let inner_filter =
          match rgroup.Memo.sels with
          | [] -> Some None
          | [ p ] -> Some (Some p)
          | _ :: _ :: _ -> None
        in
        (match inner_filter with
        | None -> ()
        | Some inner_filter ->
          List.iter
            (fun (p : Predicate.equi) ->
              if
                Catalog.has_index catalog ~rel:inner_rel
                  ~attr:p.Predicate.right.Col.attr
              then begin
                let op =
                  Physical.Index_join
                    { preds;
                      inner_rel;
                      inner_attr = p.Predicate.right.Col.attr;
                      inner_filter }
                in
                match
                  child gl Props.Any
                    ~limit:(child_limit op [ group_input lgroup ] ~spent:0.)
                with
                | None -> ()
                | Some outer -> consider (mk op [ outer ] Props.unordered)
              end)
            preds)
    end

let optimize t gid required ~limit = (goal t gid required ~limit).best

(* Post-hoc static analysis of the whole search state: memo-group
   consistency plus a full check of every memoized winner. *)
let verify t =
  let catalog = Env.catalog t.config.env in
  let memo_diags = Dqep_analysis.Verify.memo (Memo.to_view t.memo) in
  let winner_diags =
    Hashtbl.fold
      (fun gid entries acc ->
        let g = Memo.group t.memo gid in
        List.fold_left
          (fun acc (required, e) ->
            match e.best with
            | None -> acc
            | Some p ->
              Dqep_analysis.Verify.winner ~catalog ~group_rels:g.Memo.rels
                ~required p
              @ acc)
          acc entries)
      t.winners []
  in
  memo_diags @ winner_diags
