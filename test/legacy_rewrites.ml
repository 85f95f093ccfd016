(* Frozen copies of the code [Verify] and [Plan.rewrite] replaced, kept
   as differential oracles: the old activation-time catalog check
   ([Validate.check] / [Validate.prune_infeasible]), start-up
   extraction ([Startup.resolve]'s [extract]) and plan shrinking
   ([Adapt.shrink]).  Each rebuilt plans with its own walk; the suites
   pin the unified rewrite to their answers.  Do not edit these to make
   a test pass. *)

module D = Dqep
module Physical = D.Physical
module Col = D.Col
module Predicate = D.Predicate
module Catalog = D.Catalog
module Relation = D.Relation
module Plan = D.Plan

(* --- activation-time feasibility ------------------------------------------ *)

type problem =
  | Missing_relation of string
  | Missing_index of { rel : string; attr : string }
  | Missing_attribute of { rel : string; attr : string }

let node_problems catalog (p : Plan.t) =
  let rel_ok r = Catalog.relation catalog r <> None in
  let attr_ok r a =
    match Catalog.relation catalog r with
    | None -> false
    | Some rel -> Relation.attribute rel a <> None
  in
  let need_rel r = if rel_ok r then [] else [ Missing_relation r ] in
  let need_attr r a =
    if not (rel_ok r) then [ Missing_relation r ]
    else if not (attr_ok r a) then [ Missing_attribute { rel = r; attr = a } ]
    else []
  in
  let need_index r a =
    need_attr r a
    @ if rel_ok r && attr_ok r a && not (Catalog.has_index catalog ~rel:r ~attr:a)
      then [ Missing_index { rel = r; attr = a } ]
      else []
  in
  match p.Plan.op with
  | Physical.File_scan r -> need_rel r
  | Physical.Btree_scan { rel; attr } -> need_index rel attr
  | Physical.Filter pred ->
    need_attr pred.Predicate.target.Col.rel pred.Predicate.target.Col.attr
  | Physical.Filter_btree_scan { rel; attr; pred } ->
    need_index rel attr
    @ need_attr pred.Predicate.target.Col.rel pred.Predicate.target.Col.attr
  | Physical.Hash_join preds | Physical.Merge_join preds ->
    List.concat_map
      (fun (e : Predicate.equi) ->
        need_attr e.Predicate.left.Col.rel e.Predicate.left.Col.attr
        @ need_attr e.Predicate.right.Col.rel e.Predicate.right.Col.attr)
      preds
  | Physical.Index_join { inner_rel; inner_attr; inner_filter; preds } ->
    need_index inner_rel inner_attr
    @ (match inner_filter with
      | None -> []
      | Some pred ->
        need_attr pred.Predicate.target.Col.rel pred.Predicate.target.Col.attr)
    @ List.concat_map
        (fun (e : Predicate.equi) ->
          need_attr e.Predicate.left.Col.rel e.Predicate.left.Col.attr)
        preds
  | Physical.Sort cols ->
    List.concat_map (fun (c : Col.t) -> need_attr c.Col.rel c.Col.attr) cols
  | Physical.Choose_plan -> []

let check catalog plan =
  let problems = Plan.fold (fun acc p -> node_problems catalog p @ acc) [] plan in
  let problems = List.sort_uniq compare problems in
  if problems = [] then Ok () else Error problems

let prune_infeasible env catalog plan =
  let builder = Plan.Builder.create env in
  let memo : (int, Plan.t option) Hashtbl.t = Hashtbl.create 64 in
  let rec go (p : Plan.t) =
    match Hashtbl.find_opt memo p.Plan.pid with
    | Some r -> r
    | None ->
      let r =
        if node_problems catalog p <> [] then None
        else
          match p.Plan.op with
          | Physical.Choose_plan -> (
            match List.filter_map go p.Plan.inputs with
            | [] -> None
            | [ only ] -> Some only
            | alts -> Some (Plan.Builder.choose builder alts))
          | _ ->
            let inputs = List.map go p.Plan.inputs in
            if List.exists Option.is_none inputs then None
            else
              Some
                (Plan.Builder.copy_node builder p
                   ~inputs:(List.map Option.get inputs))
      in
      Hashtbl.add memo p.Plan.pid r;
      r
  in
  go plan

(* The old activation verdict: the verifier's non-feasibility errors
   reject the plan, then the catalog check decides between unchanged,
   pruned and infeasible. *)
type verdict =
  | Unchanged
  | Pruned of Plan.t
  | Infeasible of problem list
  | Rejected

let activation env catalog plan =
  let corrupt =
    D.Diagnostic.errors (D.Verify.plan ~catalog plan)
    |> List.filter (fun (d : D.Diagnostic.t) ->
           not (D.Diagnostic.is_feasibility d.D.Diagnostic.code))
  in
  if corrupt <> [] then Rejected
  else
    match check catalog plan with
    | Ok () -> Unchanged
    | Error problems -> (
      match prune_infeasible env catalog plan with
      | Some pruned -> Pruned pruned
      | None -> Infeasible problems)

(* --- start-up extraction --------------------------------------------------- *)

(* [Startup.resolve]'s extraction walk, over the same bottom-up costs
   (read back through an evaluator sharing one memo). *)
let resolve ?(risk = D.Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let ev = D.Startup.evaluator ~risk ~overrides ~excluded env in
  ignore (D.Startup.evaluate_with ev plan);
  let builder = Plan.Builder.create env in
  let choices = ref [] in
  let rebuilt = Hashtbl.create 64 in
  let rec extract (p : Plan.t) =
    match Hashtbl.find_opt rebuilt p.Plan.pid with
    | Some q -> q
    | None ->
      let q =
        match p.Plan.op with
        | _ when List.mem_assoc p.Plan.pid overrides -> p
        | Physical.Choose_plan ->
          let viable =
            List.filter
              (fun (alt : Plan.t) -> not (List.mem alt.Plan.pid excluded))
              p.Plan.inputs
          in
          if viable = [] then raise (D.Startup.Exhausted p.Plan.pid);
          let best =
            List.fold_left
              (fun acc (alt : Plan.t) ->
                let total = D.Startup.evaluate_with ev alt in
                match acc with
                | Some (_, best_total) when best_total <= total -> acc
                | _ -> Some (alt, total))
              None viable
          in
          (match best with
          | None -> invalid_arg "Startup.resolve: empty choose node"
          | Some (alt, _) ->
            choices := (p.Plan.pid, alt.Plan.pid) :: !choices;
            extract alt)
        | _ ->
          let inputs = List.map extract p.Plan.inputs in
          if
            List.length inputs = List.length p.Plan.inputs
            && List.for_all2
                 (fun (a : Plan.t) (b : Plan.t) -> a.Plan.pid = b.Plan.pid)
                 inputs p.Plan.inputs
          then p
          else Plan.Builder.copy_node builder p ~inputs
      in
      Hashtbl.add rebuilt p.Plan.pid q;
      q
  in
  let chosen = extract plan in
  let exec_cost, _ = D.Startup.evaluate ~risk ~overrides env chosen in
  (chosen, exec_cost, List.rev !choices)

(* --- plan shrinking -------------------------------------------------------- *)

(* [Adapt.shrink] over the (choose pid, alternative pid) pairs recorded
   from start-up resolutions. *)
let shrink env ~used plan =
  let builder = Plan.Builder.create env in
  let rebuilt = Hashtbl.create 64 in
  let rec go (p : Plan.t) =
    match Hashtbl.find_opt rebuilt p.Plan.pid with
    | Some q -> q
    | None ->
      let q =
        match p.Plan.op with
        | Physical.Choose_plan ->
          let kept =
            List.filter
              (fun (alt : Plan.t) -> List.mem (p.Plan.pid, alt.Plan.pid) used)
              p.Plan.inputs
          in
          let kept = if kept = [] then p.Plan.inputs else kept in
          (match List.map go kept with
          | [ only ] -> only
          | alts -> Plan.Builder.choose builder alts)
        | _ ->
          let inputs = List.map go p.Plan.inputs in
          Plan.Builder.copy_node builder p ~inputs
      in
      Hashtbl.add rebuilt p.Plan.pid q;
      q
  in
  go plan
