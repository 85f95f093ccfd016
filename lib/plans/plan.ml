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
     mix rebuilt nodes with nodes reused from the original builder, a
     run's operator taps name nodes of several such plans by pid, and a
     numbering ([Dag]) finds a node's index by its pid.  Domains build
     nodes concurrently (server clients on cache misses, every start-up
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

module Dag = struct
  type plan = t

  (* Pid -> index, by open addressing: [keys] holds pids (-1 where
     free), [vals] the index at the same slot.  Pids are issued
     sequentially, so they hash as themselves. *)
  type ids = {
    mutable keys : int array;
    mutable vals : int array;
    mutable count : int;
  }

  type t = {
    mutable length : int;
    mutable nodes : plan array;
    mutable first_input : int array;
    mutable inputs : int array;
    ids : ids;
    mutable aliased : plan list;
  }

  (* The slot holding [pid], or the free slot where it belongs. *)
  let rec probe keys pid s =
    let k = keys.(s) in
    if k = pid || k < 0 then s
    else probe keys pid ((s + 1) land (Array.length keys - 1))

  let slot ids pid = probe ids.keys pid (pid land (Array.length ids.keys - 1))

  let rec bind ids pid i =
    if 2 * (ids.count + 1) > Array.length ids.keys then begin
      let keys = ids.keys and vals = ids.vals in
      ids.keys <- Array.make (2 * Array.length keys) (-1);
      ids.vals <- Array.make (2 * Array.length keys) 0;
      ids.count <- 0;
      Array.iteri (fun s k -> if k >= 0 then bind ids k vals.(s)) keys
    end;
    let s = slot ids pid in
    ids.keys.(s) <- pid;
    ids.vals.(s) <- i;
    ids.count <- ids.count + 1

  let create () =
    { length = 0; nodes = [||]; first_input = Array.make 16 0; inputs = [||];
      ids = { keys = Array.make 32 (-1); vals = Array.make 32 0; count = 0 };
      aliased = [] }

  (* [a], twice as long. *)
  let grow a fill =
    let b = Array.make (Int.max 16 (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (* Children first, inputs left to right: a node is numbered after all
     of its inputs, so every input index is below its node's.  Input
     indices wait on [stack] until their node is numbered. *)
  let add d plan =
    let stack = ref (Array.make 16 0) and top = ref 0 in
    let rec visit p =
      let s = slot d.ids p.pid in
      if d.ids.keys.(s) = p.pid then begin
        let i = d.ids.vals.(s) in
        if d.nodes.(i) != p && not (List.memq p d.aliased) then
          d.aliased <- p :: d.aliased;
        i
      end
      else begin
        let arity = push p.inputs 0 in
        let i = d.length and first = d.first_input.(d.length) in
        if i = Array.length d.nodes then d.nodes <- grow d.nodes p;
        if i + 1 = Array.length d.first_input then
          d.first_input <- grow d.first_input 0;
        while first + arity > Array.length d.inputs do
          d.inputs <- grow d.inputs 0
        done;
        d.nodes.(i) <- p;
        top := !top - arity;
        for k = 0 to arity - 1 do
          d.inputs.(first + k) <- !stack.(!top + k)
        done;
        d.first_input.(i + 1) <- first + arity;
        d.length <- i + 1;
        bind d.ids p.pid i;
        i
      end
    and push inputs arity =
      match inputs with
      | [] -> arity
      | c :: rest ->
        let j = visit c in
        if !top = Array.length !stack then stack := grow !stack 0;
        !stack.(!top) <- j;
        incr top;
        push rest (arity + 1)
    in
    visit plan

  let of_plan plan =
    let d = create () in
    ignore (add d plan);
    d

  let find d pid =
    let s = slot d.ids pid in
    if pid >= 0 && d.ids.keys.(s) = pid then Some d.ids.vals.(s) else None
  let input d i k = d.inputs.(d.first_input.(i) + k)

  let inputs d i =
    List.init (d.first_input.(i + 1) - d.first_input.(i)) (input d i)
end

let iter f plan =
  let d = Dag.of_plan plan in
  for i = 0 to d.Dag.length - 1 do
    f d.Dag.nodes.(i)
  done

let fold f init plan =
  let acc = ref init in
  iter (fun p -> acc := f !acc p) plan;
  !acc

type slot = Unvisited | Dropped | Kept of t

(* The one choose-plan rewrite behind start-up extraction, plan
   shrinking and activation-time pruning.  Top-down from the root, one
   memo slot per index; [keep] sees a choose node's original
   alternatives before any of them is rewritten, so callbacks that
   record decisions see them in pre-order.  Nodes are only rebuilt when
   an input changed. *)
let rewrite env ?(dead = fun _ -> false) ?(verbatim = fun _ -> false) ?keep
    (dag : Dag.t) =
  (* A rewrite rebuilds few nodes, once per resolving activation: a
     small table keeps its builder off the major heap. *)
  let builder = lazy { Builder.env; table = Hashtbl.create 16; count = 0 } in
  let memo = Array.make dag.Dag.length Unvisited in
  let rec go i =
    match memo.(i) with
    | Kept q -> Some q
    | Dropped -> None
    | Unvisited ->
      let p = dag.Dag.nodes.(i) in
      let r =
        if dead i then None
        else if verbatim i then Some p
        else
          match p.op with
          | Physical.Choose_plan -> (
            let alts =
              match keep with Some k -> k i | None -> Dag.inputs dag i
            in
            match List.filter_map go alts with
            | [] -> None
            | [ only ] -> Some only
            | alts when List.equal ( == ) alts p.inputs -> Some p
            | alts -> Some (Builder.choose (Lazy.force builder) alts))
          | _ -> (
            match all dag.Dag.first_input.(i) dag.Dag.first_input.(i + 1) with
            | None -> None
            | Some inputs when List.equal ( == ) inputs p.inputs -> Some p
            | Some inputs ->
              Some (Builder.copy_node (Lazy.force builder) p ~inputs))
      in
      memo.(i) <- (match r with None -> Dropped | Some q -> Kept q);
      r
  (* Inputs [x] to [stop - 1], left to right, stopping at the first
     dead one. *)
  and all x stop =
    if x = stop then Some []
    else
      match go dag.Dag.inputs.(x) with
      | None -> None
      | Some q -> Option.map (List.cons q) (all (x + 1) stop)
  in
  go (dag.Dag.length - 1)

(* Stable identity of a node's relation set, e.g. "R|S|T" — the key the
   observation cache files cardinality observations under, so a later
   query's node covering the same relations finds them. *)
let rels_key node = String.concat "|" node.rels

(* A node's selections are the sorted-unique union of its inputs' plus
   its own predicate, so one pass shares them bottom-up instead of
   re-collecting each subtree.  Alternatives of one logical group render
   the same selections through different operators (Filter,
   Filter_btree_scan, an index join's inner filter); the union makes the
   fingerprint alternative-invariant.  Neighbouring nodes are mostly
   alternatives of one group, with one relation list and the same
   rendered selections, so a node that has both physically equal to its
   predecessor's takes its string. *)
let fingerprints (dag : Dag.t) =
  let rendered = Hashtbl.create 16 in
  let render p =
    match Hashtbl.find_opt rendered p with
    | Some s -> s
    | None ->
      let s = Format.asprintf "%a" Dqep_algebra.Predicate.pp_select p in
      Hashtbl.add rendered p s;
      s
  in
  let rec union a b =
    match (a, b) with
    | [], l | l, [] -> l
    | _ when a == b -> a
    | x :: xs, y :: ys ->
      let c = String.compare x y in
      if c = 0 then x :: union xs ys
      else if c < 0 then x :: union xs b
      else y :: union a ys
  in
  let sels = Array.make dag.Dag.length [] in
  let last = ref None in
  Array.init dag.Dag.length (fun i ->
      let node = dag.Dag.nodes.(i) in
      let own =
        match node.op with
        | Physical.Filter p | Physical.Filter_btree_scan { pred = p; _ }
        | Physical.Index_join { inner_filter = Some p; _ } ->
          [ render p ]
        | Physical.Index_join { inner_filter = None; _ }
        | Physical.File_scan _ | Physical.Btree_scan _ | Physical.Hash_join _
        | Physical.Merge_join _ | Physical.Sort _ | Physical.Choose_plan ->
          []
      in
      let acc = ref own in
      for x = dag.Dag.first_input.(i) to dag.Dag.first_input.(i + 1) - 1 do
        acc := union !acc sels.(dag.Dag.inputs.(x))
      done;
      sels.(i) <- !acc;
      match !last with
      | Some (rels, sels, fp)
        when rels == node.rels && List.equal ( == ) sels !acc ->
        fp
      | Some _ | None ->
        let fp = rels_key node ^ "?" ^ String.concat "&" !acc in
        last := Some (node.rels, !acc, fp);
        fp)

let fingerprint plan =
  let d = Dag.of_plan plan in
  (fingerprints d).(d.Dag.length - 1)

let node_count plan = fold (fun n _ -> n + 1) 0 plan

let expanded_count plan =
  let d = Dag.of_plan plan in
  let sizes = Array.make d.Dag.length 1. in
  for i = 0 to d.Dag.length - 1 do
    for x = d.Dag.first_input.(i) to d.Dag.first_input.(i + 1) - 1 do
      sizes.(i) <- sizes.(i) +. sizes.(d.Dag.inputs.(x))
    done
  done;
  sizes.(d.Dag.length - 1)

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
  let d = Dag.of_plan plan in
  let seen = Bytes.make d.Dag.length '\000' in
  let rec go ppf i =
    let p = d.Dag.nodes.(i) in
    if Bytes.get seen i <> '\000' then
      Format.fprintf ppf "@[<h>#%d (shared %s)@]" p.pid (Physical.name p.op)
    else begin
      Bytes.set seen i '\001';
      Format.fprintf ppf "@[<v 2>#%d %a  rows=%a cost=%a" p.pid Physical.pp p.op
        Interval.pp p.rows Interval.pp p.total_cost;
      for x = d.Dag.first_input.(i) to d.Dag.first_input.(i + 1) - 1 do
        Format.fprintf ppf "@,%a" go d.Dag.inputs.(x)
      done;
      Format.fprintf ppf "@]"
    end
  in
  go ppf (d.Dag.length - 1)
