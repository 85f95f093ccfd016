(* Frozen copies of the code [Verify], [Plan.rewrite] and compiled
   start-up programs replaced, kept as differential oracles: the old
   activation-time catalog check ([Validate.check] /
   [Validate.prune_infeasible]), the interpreted start-up evaluation
   ([Startup]'s memoized per-node walk, with [evaluate], [explain] and
   [estimated_rows] on it), start-up extraction ([Startup.resolve]'s
   [extract]), plan shrinking ([Adapt.shrink]), the region evaluator
   [Absint] had before it ran start-up programs over boxes ([Region]),
   and the checkpoint registry's logical fingerprint as one subtree walk
   per node ([fingerprint]).
   Each computes its answer with its own walk; the suites pin the
   replacements to those answers.  Do not edit these to make a test
   pass. *)

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

(* --- interpreted start-up evaluation ---------------------------------------- *)

module Interval = D.Interval
module Env = D.Env
module Estimate = D.Estimate
module Cost_model = D.Cost_model
module Risk = D.Risk

type node_value = { rows : Interval.t; total : float }

type eval_state = {
  env : Env.t;
  risk : Risk.t;
  overrides : (int * float) list;
  excluded : int list;
  memo : (int, node_value) Hashtbl.t;
  mutable cost_evaluations : int;
  mutable choose_decisions : int;
}

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

let temp_scan_cost env ~rows ~bytes_per_row =
  let d = Env.device env in
  let page = float_of_int (D.Catalog.page_bytes (Env.catalog env)) in
  let pages = Float.max 1. (rows *. float_of_int bytes_per_row /. page) in
  (pages *. d.D.Device.seq_page_io) +. (rows *. d.D.Device.cpu_per_tuple)

let rec eval_node st (p : Plan.t) =
  match Hashtbl.find_opt st.memo p.Plan.pid with
  | Some v -> v
  | None when List.mem_assoc p.Plan.pid st.overrides ->
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
        let best =
          List.fold_left2
            (fun acc (alt : Plan.t) v ->
              if List.mem alt.Plan.pid st.excluded then acc
              else Float.min acc v.total)
            Float.infinity p.Plan.inputs input_values
        in
        best +. (Env.device st.env).D.Device.choose_plan_overhead
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

let eval_state ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env =
  { env; risk; overrides; excluded; memo = Hashtbl.create 256;
    cost_evaluations = 0; choose_decisions = 0 }

(* [Startup.evaluate]: total cost plus (nodes evaluated, cost
   evaluations, choose decisions). *)
let evaluate ?risk ?overrides ?excluded env plan =
  let st = eval_state ?risk ?overrides ?excluded env in
  let v = eval_node st plan in
  (v.total, (Hashtbl.length st.memo, st.cost_evaluations, st.choose_decisions))

(* [Startup.explain], as (choose pid, alternatives, chosen pid). *)
let explain ?risk ?(overrides = []) ?(excluded = []) env plan =
  let st = eval_state ?risk ~overrides ~excluded env in
  ignore (eval_node st plan);
  let decisions = ref [] in
  Plan.iter
    (fun p ->
      match p.Plan.op with
      (* A choose node only overridden subplans reach was never
         evaluated: it made no decision. *)
      | Physical.Choose_plan
        when (not (List.mem_assoc p.Plan.pid overrides))
             && Hashtbl.mem st.memo p.Plan.pid ->
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
        if alternatives = [] then raise (D.Startup.Exhausted p.Plan.pid);
        let chosen_pid, _, _ =
          List.fold_left
            (fun ((_, _, best) as acc) ((_, _, c) as alt) ->
              if c < best then alt else acc)
            (List.hd alternatives) (List.tl alternatives)
        in
        decisions := (p.Plan.pid, alternatives, chosen_pid) :: !decisions
      | _ -> ())
    plan;
  List.rev !decisions

let estimated_rows ?overrides env plan =
  let st = eval_state ?overrides env in
  Interval.mid (eval_node st plan).rows

(* --- start-up extraction --------------------------------------------------- *)

(* [Startup.resolve]'s extraction walk, over the same bottom-up costs
   (read back through one memo). *)
let resolve ?(risk = D.Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let ev = eval_state ~risk ~overrides ~excluded env in
  let evaluate_with plan = (eval_node ev plan).total in
  ignore (evaluate_with plan);
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
                let total = evaluate_with alt in
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
  let exec_cost, _ = evaluate ~risk ~overrides env chosen in
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

(* --- region evaluation ------------------------------------------------------ *)

(* [Absint.evaluator] as it was: the per-operator row and cost formulas
   re-derived over interval environments, with its own numbering of the
   host variables, and the same cross-region memo and miss count. *)
module Region = struct
  module Absint = D.Absint

  type value = Absint.value = { rows : Interval.t; total : Interval.t }
  type region = Absint.region = {
    sels : (string * Interval.t) list;
    memory : Interval.t;
  }

  let unit_interval = Interval.make 0. 1.
  let restrict = Absint.restrict

  (* Every host variable of the plan, with one predicate mentioning it —
     the predicate is how the base environment is asked for the variable's
     prior interval (Env.selectivity is keyed by predicate, not name). *)
  let host_var_preds (plan : Plan.t) =
    let acc = ref [] in
    let add (p : Predicate.select) =
      match Predicate.host_var p with
      | None -> ()
      | Some v -> if not (List.mem_assoc v !acc) then acc := (v, p) :: !acc
    in
    Plan.iter
      (fun node ->
        match node.Plan.op with
        | Physical.Filter p | Physical.Filter_btree_scan { pred = p; _ } -> add p
        | Physical.Index_join { inner_filter = Some p; _ } -> add p
        | Physical.Index_join { inner_filter = None; _ }
        | Physical.File_scan _ | Physical.Btree_scan _ | Physical.Hash_join _
        | Physical.Merge_join _ | Physical.Sort _ | Physical.Choose_plan -> ())
      plan;
    List.rev !acc

  let full_region env (plan : Plan.t) =
    { sels =
        List.map
          (fun (v, pred) -> (v, Env.selectivity env pred))
          (host_var_preds plan);
      memory = Env.memory_pages env }

  (* Modelled rows of one operator, mirroring start-up's row formulas but over
     whatever interval environment it is given.  Falls back to the node's
     compile-time estimate when the catalog cannot resolve the operator
     (feasibility diagnostics are Verify's job, not this pass's). *)
  let node_rows env (p : Plan.t) (inputs : value list) =
    let exact () =
      match (p.Plan.op, inputs) with
      | Physical.File_scan rel, [] | Physical.Btree_scan { rel; _ }, [] ->
        Estimate.base_rows env rel
      | Physical.Filter pred, [ c ] -> Estimate.select_rows env pred c.rows
      | Physical.Filter_btree_scan { rel; pred; _ }, [] ->
        Estimate.select_rows env pred (Estimate.base_rows env rel)
      | Physical.Hash_join preds, [ l; r ] | Physical.Merge_join preds, [ l; r ]
        ->
        Estimate.join_rows env preds l.rows r.rows
      | Physical.Index_join { preds; inner_rel; inner_filter; _ }, [ outer ] ->
        let inner = Estimate.base_rows env inner_rel in
        let inner =
          match inner_filter with
          | None -> inner
          | Some pred -> Estimate.select_rows env pred inner
        in
        Estimate.join_rows env preds outer.rows inner
      | Physical.Sort _, [ c ] -> c.rows
      | Physical.Choose_plan, first :: rest ->
        (* Alternatives are logically equivalent; the hull covers whichever
           one startup picks. *)
        List.fold_left (fun acc v -> Interval.union acc v.rows) first.rows rest
      | _, _ -> p.Plan.rows
    in
    try exact () with Not_found -> p.Plan.rows

  (* Node [p]'s value from its inputs' values.

     The invariant connecting this to startup: a [Startup] program
     evaluates the same formulas at a point of the environment, taking the
     midpoint of each own-cost interval and the minimum alternative at each
     choose node — both of which lie inside the corresponding interval
     combination here.  So for any point env inside the region this env
     abstracts, the point totals lie inside these interval totals. *)
  let node_value env (p : Plan.t) inputs =
    let rows = node_rows env p inputs in
    let total =
      match p.Plan.op with
      | Physical.Choose_plan ->
        Cost_model.choose_plan_cost env (List.map (fun v -> v.total) inputs)
      | _ ->
        let cm_inputs =
          List.map2
            (fun (child : Plan.t) v ->
              { Cost_model.rows = v.rows; bytes_per_row = child.Plan.bytes_per_row })
            p.Plan.inputs inputs
        in
        let own =
          Cost_model.own_cost env p.Plan.op ~inputs:cm_inputs ~output_rows:rows
        in
        List.fold_left (fun acc v -> Interval.add acc v.total) own inputs
    in
    { rows; total }

  (* Many-region evaluation with cross-region sharing.  A node's value
     depends on the environment only through the memory interval and the
     selectivity intervals of host variables occurring in its own subtree
     (rows come from its own predicates and children; own costs consult at
     most those rows and the memory grant).  Keying the memo by
     (index, those intervals) lets regions that agree on a node's
     dimensions share its value — on a deep plan most nodes are
     insensitive to most cut dimensions.  [work] counts node evaluations
     performed (memo misses), the currency of the analyses' work
     budgets. *)
  type evaluator = {
    value : region -> int -> value;
    work : unit -> int;
  }

  (* The memo's keys are strings; compare them as such. *)
  module String_tbl = Hashtbl.Make (struct
    include String

    let hash = Hashtbl.hash
  end)

  (* Sorted union of two sorted, duplicate-free arrays; an input that
     already holds the union is returned itself, so the many nodes over
     the same variables share one array. *)
  let union a b =
    let na = Array.length a and nb = Array.length b in
    if na = 0 then b
    else if nb = 0 then a
    else begin
      let out = Array.make (na + nb) 0 in
      let rec go i j k =
        if i = na && j = nb then
          if k = na then a else if k = nb then b else Array.sub out 0 k
        else if j = nb || (i < na && a.(i) < b.(j)) then begin
          out.(k) <- a.(i);
          go (i + 1) j (k + 1)
        end
        else begin
          out.(k) <- b.(j);
          go (if i < na && a.(i) = b.(j) then i + 1 else i) (j + 1) (k + 1)
        end
      in
      go 0 0 0
    end

  (* Filler for result slots not yet written. *)
  let unseen = { rows = Interval.point 0.; total = Interval.point 0. }

  let evaluator env (dag : Plan.Dag.t) =
    (* Host variables are numbered once; each node records the numbers of
       the variables occurring in its subtree. *)
    let n = dag.Plan.Dag.length in
    let var_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let var_list = ref [] in
    let index_of v =
      match Hashtbl.find_opt var_index v with
      | Some i -> i
      | None ->
        let i = Hashtbl.length var_index in
        Hashtbl.add var_index v i;
        var_list := v :: !var_list;
        i
    in
    let vars = Array.make n [||] in
    for i = 0 to n - 1 do
      let own =
        match dag.Plan.Dag.nodes.(i).Plan.op with
        | Physical.Filter pr | Physical.Filter_btree_scan { pred = pr; _ }
        | Physical.Index_join { inner_filter = Some pr; _ } -> (
          match Predicate.host_var pr with
          | Some v -> [| index_of v |]
          | None -> [||])
        | Physical.Index_join { inner_filter = None; _ }
        | Physical.File_scan _ | Physical.Btree_scan _ | Physical.Hash_join _
        | Physical.Merge_join _ | Physical.Sort _ | Physical.Choose_plan -> [||]
      in
      vars.(i) <-
        List.fold_left (fun acc k -> union acc vars.(k)) own (Plan.Dag.inputs dag i)
    done;
    let var_names = Array.of_list (List.rev !var_list) in
    let misses = ref 0 in
    (* Memo keys are compact byte strings — node index plus one small
       interned id per dimension the node depends on.  Interval ids are interned per
       (dimension, box) so a grid sweep reuses a handful of ids per
       dimension; string keys hash fully (the generic hash on float lists
       truncates and collides catastrophically here). *)
    let intern : (string * float * float, int) Hashtbl.t = Hashtbl.create 64 in
    let next_id = ref 0 in
    let id_of v (iv : Interval.t) =
      let k = (v, iv.Interval.lo, iv.Interval.hi) in
      match Hashtbl.find_opt intern k with
      | Some id -> id
      | None ->
        let id = !next_id in
        incr next_id;
        Hashtbl.add intern k id;
        id
    in
    let memo : value String_tbl.t = String_tbl.create (4 * n) in
    (* Per-region results by index, valid where [stamp] holds the region's
       generation, so a region allocates nothing per node.  Interleaving
       two regions' lookups stays correct (the memo is keyed by intervals)
       and only costs re-lookups. *)
    let results = Array.make n unseen and stamp = Array.make n 0 in
    let generation = ref 0 in
    let value (region : region) =
      incr generation;
      let gen = !generation in
      let renv = restrict env region in
      (* Interned box of each variable in this region, filled on first
         use; a variable foreign to the region takes the unit interval. *)
      let dim_ids = Array.make (Array.length var_names) (-1) in
      let dim_id v =
        if dim_ids.(v) < 0 then begin
          let name = var_names.(v) in
          dim_ids.(v) <-
            id_of name
              (Option.value ~default:unit_interval (List.assoc_opt name region.sels))
        end;
        dim_ids.(v)
      in
      let mem_id = id_of "" region.memory in
      let key_of i =
        let vs = vars.(i) in
        let b = Bytes.create (5 + (2 * Array.length vs)) in
        Bytes.set b 0 (Char.unsafe_chr (i land 0xff));
        Bytes.set b 1 (Char.unsafe_chr ((i lsr 8) land 0xff));
        Bytes.set b 2 (Char.unsafe_chr ((i lsr 16) land 0xff));
        Bytes.set b 3 (Char.unsafe_chr (mem_id land 0xff));
        Bytes.set b 4 (Char.unsafe_chr ((mem_id lsr 8) land 0xff));
        Array.iteri
          (fun j v ->
            let id = dim_id v in
            Bytes.set b (5 + (2 * j)) (Char.unsafe_chr (id land 0xff));
            Bytes.set b (6 + (2 * j)) (Char.unsafe_chr ((id lsr 8) land 0xff)))
          vs;
        Bytes.unsafe_to_string b
      in
      (* Within one region a node's value depends only on its index. *)
      let rec go i =
        if stamp.(i) = gen then results.(i)
        else begin
          let v = shared i in
          results.(i) <- v;
          stamp.(i) <- gen;
          v
        end
      and shared i =
        let key = key_of i in
        match String_tbl.find_opt memo key with
        | Some v -> v
        | None ->
          incr misses;
          let v =
            node_value renv dag.Plan.Dag.nodes.(i)
              (List.map go (Plan.Dag.inputs dag i))
          in
          String_tbl.add memo key v;
          v
      in
      go
    in
    { value; work = (fun () -> !misses) }
end

(* --- logical fingerprint ----------------------------------------------------- *)

(* [Checkpoint.fingerprint] as it was: the relation set plus the
   deduplicated selection predicates collected by walking the node's own
   subtree. *)
let fingerprint (plan : Plan.t) =
  let sels = ref [] in
  let add p = sels := Format.asprintf "%a" Predicate.pp_select p :: !sels in
  Plan.iter
    (fun node ->
      match node.Plan.op with
      | Physical.Filter p | Physical.Filter_btree_scan { pred = p; _ } -> add p
      | Physical.Index_join { inner_filter = Some p; _ } -> add p
      | Physical.Index_join { inner_filter = None; _ }
      | Physical.File_scan _ | Physical.Btree_scan _ | Physical.Hash_join _
      | Physical.Merge_join _ | Physical.Sort _ | Physical.Choose_plan ->
        ())
    plan;
  Plan.rels_key plan
  ^ "?"
  ^ String.concat "&" (List.sort_uniq String.compare !sels)

(* --- reference evaluation ---------------------------------------------------- *)

(* [Reference.eval] as it was: joins by nested loops over whole tuple
   lists, every pair checked against the predicates. *)
let reference_eval db bindings query =
  let module Schema = D.Schema in
  let module Logical = D.Logical in
  let env = D.Env.of_bindings (D.Database.catalog db) bindings in
  let rec go = function
    | Logical.Get_set rel ->
      let schema =
        Schema.of_relation (Catalog.relation_exn (D.Database.catalog db) rel)
      in
      let acc = ref [] in
      D.Heap_file.scan (D.Database.pool db) (D.Database.heap db rel) (fun _ t ->
          acc := t :: !acc);
      (schema, List.rev !acc)
    | Logical.Select (e, pred) ->
      let schema, tuples = go e in
      (schema, List.filter (D.Pred_eval.select_matches env schema pred) tuples)
    | Logical.Join (l, r, preds) ->
      let ls, lt = go l in
      let rs, rt = go r in
      let matches = D.Pred_eval.equi_matches ~left:ls ~right:rs preds in
      let out =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if matches a b then Some (Array.append a b) else None)
              rt)
          lt
      in
      (Schema.concat ls rs, out)
  in
  go query
