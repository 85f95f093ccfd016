module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Props = Dqep_algebra.Props
module Schema = Dqep_algebra.Schema
module Env = Dqep_cost.Env
module Cost_model = Dqep_cost.Cost_model

type t = {
  pid : int;
  op : Physical.op;
  inputs : t list;
  rels : string list;
  rows : Interval.t;
  bytes_per_row : int;
  own_cost : Interval.t;
  total_cost : Interval.t;
  props : Props.t;
}

exception Invalid_choose of Dqep_util.Diagnostic.t

let () =
  Printexc.register_printer (function
    | Invalid_choose d ->
      Some
        (Format.asprintf "Plan.Invalid_choose(%s)"
           (Dqep_util.Diagnostic.to_string d))
    | _ -> None)

module Builder = struct
  type plan = t

  (* Structural key: operator plus input pids.  Operators contain only
     immediate data, so polymorphic hashing/equality is sound. *)
  type key = Physical.op * int list

  type t = {
    env : Env.t;
    table : (key, plan) Hashtbl.t;
    mutable count : int;
  }

  (* Pids are globally unique, not per builder: resolved or shrunk plans
     mix rebuilt nodes with nodes reused from the original builder, and
     every DAG traversal keys on the pid.  Domains build nodes
     concurrently (server clients on cache misses, every start-up
     resolution), so the counter is atomic. *)
  let next_pid = Atomic.make 0

  let create env = { env; table = Hashtbl.create 256; count = 0 }

  let key op inputs = (op, List.map (fun p -> p.pid) inputs)

  let add b key ~op ~inputs ~rels ~rows ~bytes_per_row ~own_cost ~total_cost ~props =
    let p =
      { pid = Atomic.fetch_and_add next_pid 1; op; inputs; rels; rows;
        bytes_per_row; own_cost; total_cost; props }
    in
    b.count <- b.count + 1;
    Hashtbl.add b.table key p;
    p

  let intern b ~op ~inputs ~rels ~rows ~bytes_per_row ~own_cost ~total_cost ~props =
    let key = key op inputs in
    match Hashtbl.find_opt b.table key with
    | Some p -> p
    | None ->
      add b key ~op ~inputs ~rels ~rows ~bytes_per_row ~own_cost ~total_cost ~props

  (* Interned before costing: a node the search rebuilds skips the cost
     model entirely. *)
  let operator b op ~inputs ~rels ~rows ~bytes_per_row ~props =
    let key = key op inputs in
    match Hashtbl.find_opt b.table key with
    | Some p -> p
    | None ->
      let cm_inputs =
        List.map
          (fun p -> { Cost_model.rows = p.rows; bytes_per_row = p.bytes_per_row })
          inputs
      in
      let own_cost = Cost_model.own_cost b.env op ~inputs:cm_inputs ~output_rows:rows in
      let total_cost =
        List.fold_left (fun acc p -> Interval.add acc p.total_cost) own_cost inputs
      in
      add b key ~op ~inputs ~rels ~rows ~bytes_per_row ~own_cost ~total_cost ~props

  (* Alternatives agree on logical properties; the sort columns they all
     deliver survive the choose. *)
  let meet_props alternatives =
    match alternatives with
    | [] -> Props.unordered
    | first :: rest ->
      let shared =
        List.fold_left
          (fun acc p ->
            match (acc, p.props.Props.order) with
            | Props.Unordered, _ | _, Props.Unordered -> Props.Unordered
            | Props.Ordered majors, Props.Ordered others -> (
              match
                List.filter
                  (fun c -> List.exists (Dqep_algebra.Col.equal c) others)
                  majors
              with
              | [] -> Props.Unordered
              | common -> Props.Ordered common))
          first.props.Props.order rest
      in
      { Props.order = shared }

  let choose b alternatives =
    match alternatives with
    | [] | [ _ ] -> invalid_arg "Plan.Builder.choose: needs >= 2 alternatives"
    | first :: rest ->
      let rel_set p = List.sort_uniq String.compare p.rels in
      (match
         List.find_opt (fun p -> rel_set p <> rel_set first) rest
       with
      | Some bad ->
        let show p = "{" ^ String.concat ", " (rel_set p) ^ "}" in
        raise
          (Invalid_choose
             (Dqep_util.Diagnostic.make
                ~site:(Dqep_util.Diagnostic.Node bad.pid)
                Dqep_util.Diagnostic.Choose_rels_mismatch
                (Printf.sprintf
                   "choose-plan alternatives cover different relation sets: \
                    #%d %s vs #%d %s"
                   first.pid (show first) bad.pid (show bad))))
      | None -> ());
      let total_cost =
        Cost_model.choose_plan_cost b.env (List.map (fun p -> p.total_cost) alternatives)
      in
      let own_cost =
        Interval.point (Env.device b.env).Dqep_cost.Device.choose_plan_overhead
      in
      intern b ~op:Physical.Choose_plan ~inputs:alternatives ~rels:first.rels
        ~rows:first.rows ~bytes_per_row:first.bytes_per_row ~own_cost ~total_cost
        ~props:(meet_props alternatives)

  let raw b ~op ~inputs ~rels ~rows ~bytes_per_row ~own_cost ~total_cost ~props =
    intern b ~op ~inputs ~rels ~rows ~bytes_per_row ~own_cost ~total_cost ~props

  let copy_node b node ~inputs =
    let total_cost =
      match node.op with
      | Physical.Choose_plan ->
        Cost_model.choose_plan_cost b.env (List.map (fun p -> p.total_cost) inputs)
      | _ ->
        List.fold_left
          (fun acc p -> Interval.add acc p.total_cost)
          node.own_cost inputs
    in
    intern b ~op:node.op ~inputs ~rels:node.rels ~rows:node.rows
      ~bytes_per_row:node.bytes_per_row ~own_cost:node.own_cost ~total_cost
      ~props:node.props

  let created b = b.count
end

module Pid_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash pid = pid land max_int
end)

let iter f plan =
  let seen = Pid_tbl.create 64 in
  let rec go p =
    if not (Pid_tbl.mem seen p.pid) then begin
      Pid_tbl.add seen p.pid ();
      List.iter go p.inputs;
      f p
    end
  in
  go plan

let fold f init plan =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) plan;
  !acc

(* The one choose-plan rewrite behind start-up extraction, plan
   shrinking and activation-time pruning.  Top-down, memoized per pid;
   [keep] sees a choose node's original alternatives before any of them
   is rewritten, so callbacks that record decisions see them in
   pre-order.  Nodes are only rebuilt when an input changed. *)
let rewrite env ?(dead = fun _ -> false) ?(verbatim = fun _ -> false)
    ?(keep = fun p -> p.inputs) plan =
  (* A rewrite rebuilds few nodes, once per resolving activation: a
     small table keeps its builder off the major heap. *)
  let builder = lazy { Builder.env; table = Hashtbl.create 16; count = 0 } in
  let memo = Pid_tbl.create 64 in
  let rec go p =
    match Pid_tbl.find_opt memo p.pid with
    | Some r -> r
    | None ->
      let r =
        if dead p then None
        else if verbatim p then Some p
        else
          match p.op with
          | Physical.Choose_plan -> (
            match List.filter_map go (keep p) with
            | [] -> None
            | [ only ] -> Some only
            | alts when List.equal ( == ) alts p.inputs -> Some p
            | alts -> Some (Builder.choose (Lazy.force builder) alts))
          | _ -> (
            match all p.inputs with
            | None -> None
            | Some inputs when List.equal ( == ) inputs p.inputs -> Some p
            | Some inputs ->
              Some (Builder.copy_node (Lazy.force builder) p ~inputs))
      in
      Pid_tbl.add memo p.pid r;
      r
  (* Left to right, stopping at the first dead input. *)
  and all = function
    | [] -> Some []
    | p :: rest -> (
      match go p with
      | None -> None
      | Some q -> Option.map (List.cons q) (all rest))
  in
  go plan

(* Stable identity of a node's relation set, e.g. "R|S|T" — the key the
   observation cache files cardinality observations under, so a later
   query's node covering the same relations finds them. *)
let rels_key node = String.concat "|" node.rels

let node_count plan = fold (fun n _ -> n + 1) 0 plan

let expanded_count plan =
  let memo = Hashtbl.create 64 in
  let rec go p =
    match Hashtbl.find_opt memo p.pid with
    | Some v -> v
    | None ->
      let v = List.fold_left (fun acc c -> acc +. go c) 1. p.inputs in
      Hashtbl.add memo p.pid v;
      v
  in
  go plan

let choose_count plan =
  fold
    (fun n p -> match p.op with Physical.Choose_plan -> n + 1 | _ -> n)
    0 plan

let contains_choose plan = choose_count plan > 0

let size_bytes (device : Dqep_cost.Device.t) plan =
  node_count plan * device.Dqep_cost.Device.plan_node_bytes

let rec schema catalog plan =
  match plan.op with
  | Physical.File_scan rel | Physical.Btree_scan { rel; _ }
  | Physical.Filter_btree_scan { rel; _ } ->
    Schema.of_relation (Dqep_catalog.Catalog.relation_exn catalog rel)
  | Physical.Filter _ | Physical.Sort _ ->
    (match plan.inputs with
    | [ child ] -> schema catalog child
    | _ -> invalid_arg "Plan.schema: bad arity")
  | Physical.Hash_join _ | Physical.Merge_join _ ->
    (match plan.inputs with
    | [ l; r ] -> Schema.concat (schema catalog l) (schema catalog r)
    | _ -> invalid_arg "Plan.schema: bad arity")
  | Physical.Index_join { inner_rel; _ } ->
    (match plan.inputs with
    | [ outer ] ->
      Schema.concat (schema catalog outer)
        (Schema.of_relation (Dqep_catalog.Catalog.relation_exn catalog inner_rel))
    | _ -> invalid_arg "Plan.schema: bad arity")
  | Physical.Choose_plan ->
    (match plan.inputs with
    | first :: _ -> schema catalog first
    | [] -> invalid_arg "Plan.schema: empty choose")

let to_dot plan =
  let buf = Buffer.create 1024 in
  let escape s =
    String.concat "\\\""
      (String.split_on_char '"' (String.concat "\\\\" (String.split_on_char '\\' s)))
  in
  Buffer.add_string buf "digraph plan {\n  rankdir=BT;\n  node [fontsize=10];\n";
  iter
    (fun p ->
      let op_line = escape (Format.asprintf "%a" Physical.pp p.op) in
      let stats_line =
        escape
          (Format.asprintf "rows=%a cost=%a" Interval.pp p.rows Interval.pp
             p.total_cost)
      in
      let label = op_line ^ "\\n" ^ stats_line in
      let shape, style =
        match p.op with
        | Physical.Choose_plan -> ("diamond", ", style=filled, fillcolor=lightyellow")
        | _ -> ("box", "")
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s%s];\n" p.pid label shape
           style);
      List.iter
        (fun (c : t) ->
          let attrs =
            match p.op with
            | Physical.Choose_plan -> " [style=dashed]"
            | _ -> ""
          in
          Buffer.add_string buf (Printf.sprintf "  n%d -> n%d%s;\n" c.pid p.pid attrs))
        p.inputs)
    plan;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp ppf plan =
  let seen = Hashtbl.create 64 in
  let rec go ppf p =
    if Hashtbl.mem seen p.pid then
      Format.fprintf ppf "@[<h>#%d (shared %s)@]" p.pid (Physical.name p.op)
    else begin
      Hashtbl.add seen p.pid ();
      Format.fprintf ppf "@[<v 2>#%d %a  rows=%a cost=%a" p.pid Physical.pp p.op
        Interval.pp p.rows Interval.pp p.total_cost;
      List.iter (fun c -> Format.fprintf ppf "@,%a" go c) p.inputs;
      Format.fprintf ppf "@]"
    end
  in
  go ppf plan
