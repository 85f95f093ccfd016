module Diagnostic = Dqep_util.Diagnostic
module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Props = Dqep_algebra.Props
module Col = Dqep_algebra.Col
module Schema = Dqep_algebra.Schema
module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Plan = Dqep_plans.Plan

exception Failed of Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Failed diags ->
      Some (Format.asprintf "Verify.Failed(%s)" (Diagnostic.list_to_string diags))
    | _ -> None)

let diag ?severity ~site code fmt =
  Format.kasprintf (fun msg -> Diagnostic.make ?severity ~site code msg) fmt

let node_site (p : Plan.t) = Diagnostic.Node p.Plan.pid

(* Floating-point slack for recomputed sums: cost intervals are built by
   the same fold the verifier replays, but resolved plans mix folds done
   in different orders. *)
let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a +. Float.abs b)

let interval_close a b =
  close a.Interval.lo b.Interval.lo && close a.Interval.hi b.Interval.hi

let rel_set rels = List.sort_uniq String.compare rels

let rels_string rels = "{" ^ String.concat ", " (rel_set rels) ^ "}"

let same_rel_set a b = rel_set a = rel_set b

let iter_nodes f (dag : Plan.Dag.t) =
  for i = 0 to dag.Plan.Dag.length - 1 do
    f dag.Plan.Dag.nodes.(i)
  done

(* --- structure ---------------------------------------------------------- *)

let arity_diags (p : Plan.t) =
  let n = List.length p.Plan.inputs in
  match (Physical.arity p.Plan.op, n) with
  | `Leaf, 0 | `Unary, 1 | `Binary, 2 -> []
  | `Variadic, k when k >= 2 -> []
  | `Variadic, k ->
    [ diag ~site:(node_site p) Diagnostic.Choose_arity
        "choose-plan has %d alternative(s), needs at least 2" k ]
  | (`Leaf | `Unary | `Binary), k ->
    let expected =
      match Physical.arity p.Plan.op with
      | `Leaf -> 0
      | `Unary -> 1
      | _ -> 2
    in
    [ diag ~site:(node_site p) Diagnostic.Operator_arity
        "%s has %d input(s), expects %d" (Physical.name p.Plan.op) k expected ]

let structural_key (p : Plan.t) =
  (p.Plan.op, List.map (fun (c : Plan.t) -> c.Plan.pid) p.Plan.inputs)

(* Nodes are immutable and built bottom-up, so a plan has no cycle;
   what a deserializer or a future builder could still break is pid
   identity, which the numbering reports as it meets it. *)
let structure_of (dag : Plan.Dag.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  iter_nodes (fun p -> List.iter add (arity_diags p)) dag;
  (* One pid, several nodes: DAG identity is corrupt. *)
  List.iter
    (fun (p : Plan.t) ->
      add
        (diag ~site:(node_site p) Diagnostic.Pid_aliasing
           "pid %d names more than one node" p.Plan.pid))
    (List.rev dag.Plan.Dag.aliased);
  (* One structure, several pids: hash-consed sharing was lost. *)
  let by_structure = Hashtbl.create 64 in
  iter_nodes
    (fun (p : Plan.t) ->
      let key = structural_key p in
      let pids = Option.value ~default:[] (Hashtbl.find_opt by_structure key) in
      Hashtbl.replace by_structure key (p.Plan.pid :: pids))
    dag;
  Hashtbl.iter
    (fun _ pids ->
      match pids with
      | [] | [ _ ] -> ()
      | pid :: _ ->
        add
          (diag ~site:(Diagnostic.Node pid) Diagnostic.Sharing_lost
             "structurally equal nodes have different pids (%s)"
             (String.concat ", "
                (List.map string_of_int (List.sort compare pids)))))
    by_structure;
  List.rev !diags

(* --- interval costs ------------------------------------------------------ *)

let cost_node_diags (p : Plan.t) =
  let site = node_site p in
  let bad_interval code field (v : Interval.t) =
    if Interval.is_valid v then []
    else
      [ diag ~site code "%s interval [%g, %g] is ill-formed" field
          v.Interval.lo v.Interval.hi ]
  in
  let shape =
    bad_interval Diagnostic.Rows_invalid "rows" p.Plan.rows
    @ bad_interval Diagnostic.Cost_interval_inverted "own cost" p.Plan.own_cost
    @ bad_interval Diagnostic.Cost_interval_inverted "total cost"
        p.Plan.total_cost
    @
    if p.Plan.bytes_per_row > 0 then []
    else
      [ diag ~site Diagnostic.Width_invalid "bytes_per_row is %d, must be > 0"
          p.Plan.bytes_per_row ]
  in
  if shape <> [] then shape
  else begin
    let inputs_ok =
      List.for_all
        (fun (c : Plan.t) ->
          Interval.is_valid c.Plan.rows && Interval.is_valid c.Plan.total_cost)
        p.Plan.inputs
    in
    if not inputs_ok then []
    else begin
      let totals =
        List.map (fun (c : Plan.t) -> c.Plan.total_cost) p.Plan.inputs
      in
      let consistency =
        let expected =
          match (p.Plan.op, totals) with
          | Physical.Choose_plan, first :: rest ->
            Some
              (Interval.add p.Plan.own_cost
                 (List.fold_left Interval.combine_min first rest))
          | Physical.Choose_plan, [] -> None
          | _ -> Some (List.fold_left Interval.add p.Plan.own_cost totals)
        in
        match expected with
        | Some e when not (interval_close e p.Plan.total_cost) ->
          [ diag ~site Diagnostic.Total_cost_mismatch
              "total cost %s, but own + inputs%s give %s"
              (Interval.to_string p.Plan.total_cost)
              (match p.Plan.op with
              | Physical.Choose_plan -> " (min-combination)"
              | _ -> "")
              (Interval.to_string e) ]
        | _ -> []
      in
      let rows =
        match (p.Plan.op, p.Plan.inputs) with
        | Physical.Filter _, [ child ]
          when p.Plan.rows.Interval.hi
               > child.Plan.rows.Interval.hi
                 +. (1e-6 *. Float.max 1. child.Plan.rows.Interval.hi) ->
          [ diag ~site Diagnostic.Rows_exceed_inputs
              "filter output rows %s exceed input rows %s"
              (Interval.to_string p.Plan.rows)
              (Interval.to_string child.Plan.rows) ]
        | Physical.Sort _, [ child ]
          when not (interval_close p.Plan.rows child.Plan.rows) ->
          [ diag ~site Diagnostic.Rows_exceed_inputs
              "sort output rows %s differ from input rows %s"
              (Interval.to_string p.Plan.rows)
              (Interval.to_string child.Plan.rows) ]
        | Physical.Choose_plan, alternatives ->
          List.filter_map
            (fun (alt : Plan.t) ->
              if interval_close p.Plan.rows alt.Plan.rows then None
              else
                Some
                  (diag ~site Diagnostic.Rows_exceed_inputs
                     "choose-plan rows %s disagree with alternative #%d's %s"
                     (Interval.to_string p.Plan.rows)
                     alt.Plan.pid
                     (Interval.to_string alt.Plan.rows)))
            alternatives
        | _ -> []
      in
      let pareto =
        match p.Plan.op with
        | Physical.Choose_plan ->
          let rec pairs = function
            | [] -> []
            | (a : Plan.t) :: rest ->
              List.filter_map
                (fun (b : Plan.t) ->
                  match
                    Interval.compare_cost a.Plan.total_cost b.Plan.total_cost
                  with
                  | Interval.Lt ->
                    Some
                      (diag ~site Diagnostic.Pareto_dominated
                         "alternative #%d (%s) dominates #%d (%s)" a.Plan.pid
                         (Interval.to_string a.Plan.total_cost)
                         b.Plan.pid
                         (Interval.to_string b.Plan.total_cost))
                  | Interval.Gt ->
                    Some
                      (diag ~site Diagnostic.Pareto_dominated
                         "alternative #%d (%s) dominates #%d (%s)" b.Plan.pid
                         (Interval.to_string b.Plan.total_cost)
                         a.Plan.pid
                         (Interval.to_string a.Plan.total_cost))
                  | Interval.Eq | Interval.Incomparable -> None)
                rest
              @ pairs rest
          in
          pairs p.Plan.inputs
        | _ -> []
      in
      consistency @ rows @ pareto
    end
  end

let cost_of dag =
  let diags = ref [] in
  iter_nodes (fun p -> diags := List.rev_append (cost_node_diags p) !diags) dag;
  List.rev !diags

(* --- schema and semantics ------------------------------------------------ *)

(* Catalog resolution: each check reports through [add] and says whether
   the object exists ([need_rel] by returning the relation it found).
   These are the only sources of the feasibility diagnostics
   ([Diagnostic.is_feasibility]). *)
let need_rel ~catalog ~add site r =
  match Catalog.relation catalog r with
  | Some _ as found -> found
  | None ->
    add (diag ~site Diagnostic.Missing_relation "relation %s does not exist" r);
    None

let need_attr ~catalog ~add site r a =
  match need_rel ~catalog ~add site r with
  | None -> false
  | Some rel -> (
    match Relation.attribute rel a with
    | Some _ -> true
    | None ->
      add
        (diag ~site Diagnostic.Missing_attribute
           "attribute %s.%s does not exist" r a);
      false)

let need_index ~catalog ~add site r a =
  if need_attr ~catalog ~add site r a && not (Catalog.has_index catalog ~rel:r ~attr:a)
  then add (diag ~site Diagnostic.Missing_index "no index on %s.%s exists" r a)

(* Every catalog object one node names: its relations and indexes, and
   the columns of its filters, sort keys and join predicates. *)
let resolve_node ~catalog ~add (p : Plan.t) =
  let site = node_site p in
  let column (c : Col.t) = ignore (need_attr ~catalog ~add site c.Col.rel c.Col.attr) in
  let select (s : Predicate.select) = column s.Predicate.target in
  let equi (e : Predicate.equi) =
    column e.Predicate.left;
    column e.Predicate.right
  in
  match p.Plan.op with
  | Physical.File_scan r -> ignore (need_rel ~catalog ~add site r)
  | Physical.Btree_scan { rel; attr } -> need_index ~catalog ~add site rel attr
  | Physical.Filter_btree_scan { rel; attr; pred } ->
    need_index ~catalog ~add site rel attr;
    select pred
  | Physical.Filter pred -> select pred
  | Physical.Sort cols -> List.iter column cols
  | Physical.Hash_join preds | Physical.Merge_join preds -> List.iter equi preds
  | Physical.Index_join { inner_rel; inner_attr; inner_filter; preds } ->
    need_index ~catalog ~add site inner_rel inner_attr;
    Option.iter select inner_filter;
    List.iter equi preds
  | Physical.Choose_plan -> ()

(* A node can name one missing object twice (an index scan's key and
   its filter column); report it once. *)
let collector () =
  let diags = ref [] in
  let add d = if not (List.mem d !diags) then diags := d :: !diags in
  (diags, add)

let feasibility ~catalog (dag : Plan.Dag.t) =
  let diags, add = collector () in
  for i = 0 to dag.Plan.Dag.length - 1 do
    resolve_node ~catalog ~add dag.Plan.Dag.nodes.(i)
  done;
  List.rev !diags

let drifted (dag : Plan.Dag.t) diags =
  let flagged = Bytes.make dag.Plan.Dag.length '\000' in
  List.iter
    (fun (d : Diagnostic.t) ->
      match d.Diagnostic.site with
      | Diagnostic.Node pid when Diagnostic.is_feasibility d.Diagnostic.code ->
        Option.iter (fun i -> Bytes.set flagged i '\001') (Plan.Dag.find dag pid)
      | Diagnostic.Node _ | Diagnostic.Query | Diagnostic.Group _ -> ())
    diags;
  fun i -> Bytes.get flagged i <> '\000'

let semantics_of ~catalog (dag : Plan.Dag.t) =
  let diags, add = collector () in
  let rel_known r = Catalog.relation catalog r <> None in
  (* A column whose attribute the catalog no longer has is drift, not
     corruption: [resolve_node] reported it with the feasibility code,
     so activation prunes or raises [Infeasible] instead of rejecting
     the plan, and the scope and span checks stay silent on it. *)
  let in_catalog (c : Col.t) =
    match Catalog.relation catalog c.Col.rel with
    | Some r -> Relation.attribute r c.Col.attr <> None
    | None -> false
  in
  let in_scope site what schema (c : Col.t) =
    match schema with
    | None -> ()  (* the input is already broken; avoid cascades *)
    | Some s ->
      if (not (Schema.mem s c)) && in_catalog c then
        add
          (diag ~site Diagnostic.Attribute_out_of_scope
             "%s column %s does not resolve in the input schema" what
             (Col.to_string c))
  in
  (* A join predicate that fails to span its inputs only because one of
     its columns was dropped is likewise drift. *)
  let misses_span (e : Predicate.equi) a b =
    not
      ((Schema.mem a e.Predicate.left && Schema.mem b e.Predicate.right)
      || (Schema.mem b e.Predicate.left && Schema.mem a e.Predicate.right)
      || (not (in_catalog e.Predicate.left))
      || not (in_catalog e.Predicate.right))
  in
  (* Bottom-up schema and relation-set computation, one slot per index
     so shared subplans are checked once. *)
  let schemas = Array.make dag.Plan.Dag.length None in
  let derived_rels (p : Plan.t) =
    match (p.Plan.op, p.Plan.inputs) with
    | (Physical.File_scan r | Physical.Btree_scan { rel = r; _ }
      | Physical.Filter_btree_scan { rel = r; _ }), _ ->
      Some [ r ]
    | (Physical.Filter _ | Physical.Sort _), [ child ] ->
      Some child.Plan.rels
    | (Physical.Hash_join _ | Physical.Merge_join _), [ l; r ] ->
      Some (l.Plan.rels @ r.Plan.rels)
    | Physical.Index_join { inner_rel; _ }, [ outer ] ->
      Some (inner_rel :: outer.Plan.rels)
    | Physical.Choose_plan, first :: _ -> Some first.Plan.rels
    | _ -> None  (* wrong arity: reported by the structure layer *)
  in
  let check_node i =
    let p = dag.Plan.Dag.nodes.(i) in
    let schema_of k = schemas.(Plan.Dag.input dag i k) in
    let site = node_site p in
    resolve_node ~catalog ~add p;
    (match p.Plan.op with
    | Physical.File_scan _ | Physical.Btree_scan _ -> ()
    | Physical.Filter_btree_scan { rel; pred; _ } ->
      if rel_known rel then
        in_scope site "filter"
          (Some (Schema.of_relation (Catalog.relation_exn catalog rel)))
          pred.Predicate.target
    | Physical.Filter pred ->
      (match p.Plan.inputs with
      | [ _ ] -> in_scope site "filter" (schema_of 0) pred.Predicate.target
      | _ -> ())
    | Physical.Sort cols ->
      (match p.Plan.inputs with
      | [ _ ] ->
        List.iter (fun c -> in_scope site "sort" (schema_of 0) c) cols
      | _ -> ())
    | Physical.Hash_join preds | Physical.Merge_join preds ->
      (match p.Plan.inputs with
      | [ _; _ ] ->
        List.iter
          (fun (e : Predicate.equi) ->
            match (schema_of 0, schema_of 1) with
            | Some ls, Some rs ->
              if misses_span e ls rs then
                add
                  (diag ~site Diagnostic.Join_pred_span
                     "join predicate %s does not span the inputs"
                     (Format.asprintf "%a" Predicate.pp_equi e))
            | _ -> ())
          preds
      | _ -> ())
    | Physical.Index_join { preds; inner_rel; inner_filter; _ } ->
      let inner_schema =
        if rel_known inner_rel then
          Some (Schema.of_relation (Catalog.relation_exn catalog inner_rel))
        else None
      in
      (match inner_filter with
      | Some pred -> in_scope site "inner filter" inner_schema pred.Predicate.target
      | None -> ());
      (match p.Plan.inputs with
      | [ _ ] ->
        List.iter
          (fun (e : Predicate.equi) ->
            match (schema_of 0, inner_schema) with
            | Some os, Some is ->
              if misses_span e os is then
                add
                  (diag ~site Diagnostic.Join_pred_span
                     "index-join predicate %s does not span outer input and %s"
                     (Format.asprintf "%a" Predicate.pp_equi e)
                     inner_rel)
            | _ -> ())
          preds
      | _ -> ())
    | Physical.Choose_plan ->
      (match p.Plan.inputs with
      | first :: rest ->
        List.iter
          (fun (alt : Plan.t) ->
            if not (same_rel_set alt.Plan.rels first.Plan.rels) then
              add
                (diag ~site Diagnostic.Choose_rels_mismatch
                   "alternatives cover different relation sets: #%d %s vs #%d %s"
                   first.Plan.pid (rels_string first.Plan.rels) alt.Plan.pid
                   (rels_string alt.Plan.rels)))
          rest;
        (match p.Plan.props.Props.order with
        | Props.Unordered -> ()
        | Props.Ordered cols ->
          List.iter
            (fun (alt : Plan.t) ->
              List.iter
                (fun c ->
                  if not (Props.satisfies alt.Plan.props (Props.Sorted c)) then
                    add
                      (diag ~site Diagnostic.Choose_order_unsupported
                         "claims order on %s, but alternative #%d does not \
                          deliver it"
                         (Col.to_string c) alt.Plan.pid))
                cols)
            p.Plan.inputs)
      | [] -> ()));
    (match derived_rels p with
    | Some rels when not (same_rel_set rels p.Plan.rels) ->
      add
        (diag ~site Diagnostic.Rels_mismatch
           "node claims relations %s, subtree derives %s"
           (rels_string p.Plan.rels) (rels_string rels))
    | _ -> ());
    (* Record the schema last so parents see it. *)
    let s =
      try
        match p.Plan.op with
        | Physical.File_scan r | Physical.Btree_scan { rel = r; _ }
        | Physical.Filter_btree_scan { rel = r; _ } ->
          if rel_known r then
            Some (Schema.of_relation (Catalog.relation_exn catalog r))
          else None
        | Physical.Filter _ | Physical.Sort _ ->
          (match p.Plan.inputs with [ _ ] -> schema_of 0 | _ -> None)
        | Physical.Hash_join _ | Physical.Merge_join _ ->
          (match p.Plan.inputs with
          | [ _; _ ] -> (
            match (schema_of 0, schema_of 1) with
            | Some ls, Some rs -> Some (Schema.concat ls rs)
            | _ -> None)
          | _ -> None)
        | Physical.Index_join { inner_rel; _ } ->
          (match p.Plan.inputs with
          | [ _ ] -> (
            match schema_of 0 with
            | Some os when rel_known inner_rel ->
              Some
                (Schema.concat os
                   (Schema.of_relation (Catalog.relation_exn catalog inner_rel)))
            | _ -> None)
          | _ -> None)
        | Physical.Choose_plan ->
          (match p.Plan.inputs with _ :: _ -> schema_of 0 | [] -> None)
      with _ -> None
    in
    schemas.(i) <- s
  in
  for i = 0 to dag.Plan.Dag.length - 1 do
    check_node i
  done;
  List.rev !diags

(* --- whole plans --------------------------------------------------------- *)

let structure p = structure_of (Plan.Dag.of_plan p)
let cost p = cost_of (Plan.Dag.of_plan p)
let semantics ~catalog p = semantics_of ~catalog (Plan.Dag.of_plan p)

let plan ~catalog p =
  let dag = Plan.Dag.of_plan p in
  structure_of dag @ cost_of dag @ semantics_of ~catalog dag

let check_exn ~catalog p =
  match Diagnostic.errors (plan ~catalog p) with
  | [] -> ()
  | errs -> raise (Failed errs)

(* --- memo state ---------------------------------------------------------- *)

type expr_view = {
  label : string;
  base : string option;
  children : int list;
}

type group_view = {
  gid : int;
  rels : string list;
  exprs : expr_view list;
}

type memo_view = group_view list

let memo (view : memo_view) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let group gid = List.find_opt (fun g -> g.gid = gid) view in
  List.iter
    (fun g ->
      let site = Diagnostic.Group g.gid in
      List.iter
        (fun e ->
          let children = List.map (fun c -> (c, group c)) e.children in
          let dangling =
            List.filter (fun (_, g) -> g = None) children |> List.map fst
          in
          if dangling <> [] then
            List.iter
              (fun c ->
                add
                  (diag ~site Diagnostic.Dangling_group_ref
                     "%s expression references non-existent group %d" e.label c))
              dangling
          else begin
            let child_rels =
              List.concat_map
                (fun (_, g) -> (Option.get g).rels)
                children
            in
            let derived = Option.to_list e.base @ child_rels in
            let disjoint =
              List.length (rel_set derived) = List.length derived
            in
            if not disjoint then
              add
                (diag ~site Diagnostic.Group_rels_mismatch
                   "%s expression combines overlapping relation sets %s" e.label
                   (rels_string derived))
            else if not (same_rel_set derived g.rels) then
              add
                (diag ~site Diagnostic.Group_rels_mismatch
                   "%s expression derives %s, group covers %s" e.label
                   (rels_string derived) (rels_string g.rels))
          end)
        g.exprs)
    view;
  List.rev !diags

(* --- memoized winners ----------------------------------------------------- *)

let winner ~catalog ~group_rels ~required (p : Plan.t) =
  let membership =
    if same_rel_set p.Plan.rels group_rels then []
    else
      [ diag ~site:(node_site p) Diagnostic.Winner_group_mismatch
          "winner covers %s, its group covers %s" (rels_string p.Plan.rels)
          (rels_string group_rels) ]
  in
  let order =
    if Props.satisfies p.Plan.props required then []
    else
      [ diag ~site:(node_site p) Diagnostic.Winner_order_mismatch
          "winner does not satisfy required property %s"
          (Format.asprintf "%a" Props.pp_required required) ]
  in
  plan ~catalog p @ membership @ order
