module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Env = Dqep_cost.Env
module Estimate = Dqep_cost.Estimate
module Cost_model = Dqep_cost.Cost_model
module Risk = Dqep_cost.Risk
module Timer = Dqep_util.Timer

type stats = {
  nodes_evaluated : int;
  cost_evaluations : int;
  choose_decisions : int;
  cpu_seconds : float;
}

type node_value = { rows : Interval.t; total : float }

exception Exhausted of int

let () =
  Printexc.register_printer (function
    | Exhausted pid ->
      Some
        (Printf.sprintf
           "Startup.Exhausted(choose-plan #%d has no surviving alternative)" pid)
    | _ -> None)

type eval_state = {
  env : Env.t;
  risk : Risk.t;
  overrides : (int * float) list;
  excluded : int list;
  memo : (int, node_value) Hashtbl.t;
  mutable cost_evaluations : int;
  mutable choose_decisions : int;
}

(* Recompute a node's output cardinality under the point environment.
   This mirrors the optimizer's logical estimation, applied to physical
   operators. *)
let node_rows st (p : Plan.t) (input_values : node_value list) =
  let env = st.env in
  match (p.Plan.op, input_values) with
  | Physical.File_scan rel, [] | Physical.Btree_scan { rel; _ }, [] ->
    Estimate.base_rows env rel
  | Physical.Filter pred, [ child ] -> Estimate.select_rows env pred child.rows
  | Physical.Filter_btree_scan { rel; pred; _ }, [] ->
    Estimate.select_rows env pred (Estimate.base_rows env rel)
  | Physical.Hash_join preds, [ l; r ] | Physical.Merge_join preds, [ l; r ] ->
    Estimate.join_rows env preds l.rows r.rows
  | Physical.Index_join { preds; inner_rel; inner_filter; _ }, [ outer ] ->
    let inner = Estimate.base_rows env inner_rel in
    let inner =
      match inner_filter with
      | None -> inner
      | Some pred -> Estimate.select_rows env pred inner
    in
    Estimate.join_rows env preds outer.rows inner
  | Physical.Sort _, [ child ] -> child.rows
  | Physical.Choose_plan, first :: _ -> first.rows
  | ( ( Physical.File_scan _ | Physical.Btree_scan _ | Physical.Filter _
      | Physical.Filter_btree_scan _ | Physical.Hash_join _
      | Physical.Merge_join _ | Physical.Index_join _ | Physical.Sort _
      | Physical.Choose_plan ),
      _ ) ->
    invalid_arg "Startup: operator arity mismatch"

(* Cost of rescanning a materialized temporary of [rows] tuples. *)
let temp_scan_cost env ~rows ~bytes_per_row =
  let d = Env.device env in
  let page = float_of_int (Dqep_catalog.Catalog.page_bytes (Env.catalog env)) in
  let pages = Float.max 1. (rows *. float_of_int bytes_per_row /. page) in
  (pages *. d.Dqep_cost.Device.seq_page_io)
  +. (rows *. d.Dqep_cost.Device.cpu_per_tuple)

let rec eval_node st (p : Plan.t) =
  match Hashtbl.find_opt st.memo p.Plan.pid with
  | Some v -> v
  | None when List.mem_assoc p.Plan.pid st.overrides ->
    (* The subplan was already evaluated into a temporary: its actual
       cardinality is known and its remaining cost is a rescan. *)
    let rows = List.assoc p.Plan.pid st.overrides in
    let v =
      { rows = Interval.point rows;
        total = temp_scan_cost st.env ~rows ~bytes_per_row:p.Plan.bytes_per_row }
    in
    Hashtbl.add st.memo p.Plan.pid v;
    v
  | None ->
    let input_values = List.map (eval_node st) p.Plan.inputs in
    let rows = node_rows st p input_values in
    let total =
      match p.Plan.op with
      | Physical.Choose_plan ->
        st.choose_decisions <- st.choose_decisions + 1;
        (* Excluded alternatives (failed at run-time, see Resilience)
           cost infinity: the minimum falls on a surviving one. *)
        let best =
          List.fold_left2
            (fun acc (alt : Plan.t) v ->
              if List.mem alt.Plan.pid st.excluded then acc
              else Float.min acc v.total)
            Float.infinity p.Plan.inputs input_values
        in
        best +. (Env.device st.env).Dqep_cost.Device.choose_plan_overhead
      | _ ->
        st.cost_evaluations <- st.cost_evaluations + 1;
        let cm_inputs =
          List.map2
            (fun (child : Plan.t) v ->
              { Cost_model.rows = v.rows;
                bytes_per_row = child.Plan.bytes_per_row })
            p.Plan.inputs input_values
        in
        let own = Cost_model.own_cost st.env p.Plan.op ~inputs:cm_inputs ~output_rows:rows in
        List.fold_left
          (fun acc v -> acc +. v.total)
          (Risk.scalarize st.risk own) input_values
    in
    let v = { rows; total } in
    Hashtbl.add st.memo p.Plan.pid v;
    v

let evaluate ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let st =
    { env; risk; overrides; excluded; memo = Hashtbl.create 256;
      cost_evaluations = 0; choose_decisions = 0 }
  in
  let v, cpu_seconds = Timer.cpu (fun () -> eval_node st plan) in
  ( v.total,
    { nodes_evaluated = Hashtbl.length st.memo;
      cost_evaluations = st.cost_evaluations;
      choose_decisions = st.choose_decisions;
      cpu_seconds } )

type evaluator = eval_state

let evaluator ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env =
  { env; risk; overrides; excluded; memo = Hashtbl.create 1024;
    cost_evaluations = 0; choose_decisions = 0 }

let evaluate_with st plan = (eval_node st plan).total

type decision = {
  choose_pid : int;
  alternatives : (int * string * float) list;
  chosen_pid : int;
}

let explain ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let st =
    { env; risk; overrides; excluded; memo = Hashtbl.create 256;
      cost_evaluations = 0; choose_decisions = 0 }
  in
  ignore (eval_node st plan);
  let decisions = ref [] in
  Plan.iter
    (fun p ->
      match p.Plan.op with
      | Physical.Choose_plan when not (List.mem_assoc p.Plan.pid overrides) ->
        let alternatives =
          List.filter_map
            (fun (alt : Plan.t) ->
              if List.mem alt.Plan.pid excluded then None
              else
                Some
                  ( alt.Plan.pid,
                    Physical.name alt.Plan.op,
                    (Hashtbl.find st.memo alt.Plan.pid).total ))
            p.Plan.inputs
        in
        if alternatives = [] then raise (Exhausted p.Plan.pid);
        let chosen_pid, _, _ =
          List.fold_left
            (fun ((_, _, best) as acc) ((_, _, c) as alt) ->
              if c < best then alt else acc)
            (List.hd alternatives) (List.tl alternatives)
        in
        decisions := { choose_pid = p.Plan.pid; alternatives; chosen_pid } :: !decisions
      | _ -> ())
    plan;
  List.rev !decisions

let pp_decisions ppf decisions =
  List.iter
    (fun d ->
      Format.fprintf ppf "@[<v 2>choose-plan #%d:@," d.choose_pid;
      List.iter
        (fun (pid, name, cost) ->
          Format.fprintf ppf "%s #%d %s: %.4f@,"
            (if pid = d.chosen_pid then "->" else "  ")
            pid name cost)
        d.alternatives;
      Format.fprintf ppf "@]@,")
    decisions

let estimated_rows ?(overrides = []) env plan =
  let st =
    { env; risk = Risk.Expected; overrides; excluded = [];
      memo = Hashtbl.create 64; cost_evaluations = 0; choose_decisions = 0 }
  in
  Interval.mid (eval_node st plan).rows

type resolution = {
  plan : Plan.t;
  anticipated_cost : float;
  choices : (int * int) list;
  stats : stats;
}

let resolve ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let st =
    { env; risk; overrides; excluded; memo = Hashtbl.create 256;
      cost_evaluations = 0; choose_decisions = 0 }
  in
  let (), cpu_seconds = Timer.cpu (fun () -> ignore (eval_node st plan)) in
  (* Extraction is not part of the measured decision procedure; it is a
     pointer walk comparable to reading the chosen plan.  Each reached
     choose node keeps its cheapest surviving alternative (the first on
     ties).  An overridden node stands for its materialized temporary;
     it is kept verbatim (the executor splices the temp in by pid). *)
  let choices = ref [] in
  let cheapest (p : Plan.t) =
    let best =
      List.fold_left
        (fun acc (alt : Plan.t) ->
          if List.mem alt.Plan.pid st.excluded then acc
          else
            let v = Hashtbl.find st.memo alt.Plan.pid in
            match acc with
            | Some (_, best_total) when best_total <= v.total -> acc
            | _ -> Some (alt, v.total))
        None p.Plan.inputs
    in
    match best with
    | None -> raise (Exhausted p.Plan.pid)
    | Some (alt, _) ->
      choices := (p.Plan.pid, alt.Plan.pid) :: !choices;
      [ alt ]
  in
  let chosen =
    Option.get
      (Plan.rewrite env
         ~verbatim:(fun (p : Plan.t) -> List.mem_assoc p.Plan.pid st.overrides)
         ~keep:cheapest plan)
  in
  (* Execution cost of the chosen plan, without decision overheads. *)
  let exec_cost, _ = evaluate ~risk ~overrides env chosen in
  { plan = chosen;
    anticipated_cost = exec_cost;
    choices = List.rev !choices;
    stats =
      { nodes_evaluated = Hashtbl.length st.memo;
        cost_evaluations = st.cost_evaluations;
        choose_decisions = st.choose_decisions;
        cpu_seconds } }
