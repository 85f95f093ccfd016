module Interval = Dqep_util.Interval
module Weak_memo = Dqep_util.Weak_memo
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Device = Dqep_cost.Device
module Estimate = Dqep_cost.Estimate
module Cost_model = Dqep_cost.Cost_model
module Risk = Dqep_cost.Risk

type stats = {
  nodes_evaluated : int;
  cost_evaluations : int;
  choose_decisions : int;
}

exception Exhausted of int

let () =
  Printexc.register_printer (function
    | Exhausted pid ->
      Some
        (Printf.sprintf
           "Startup.Exhausted(choose-plan #%d has no surviving alternative)" pid)
    | _ -> None)

(* --- compiled programs ----------------------------------------------------- *)

(* How a node's output rows follow from its inputs: one constructor per
   shape of the optimizer's logical estimation applied to a physical
   operator. *)
type rows_op =
  | Base  (* a stored relation *)
  | Select  (* a selection over the first input *)
  | Select_base  (* a selection over a stored relation *)
  | Join  (* the two inputs, times the join factor *)
  | Probe  (* index join: the outer input against the inner relation *)
  | Probe_select  (* ... against the inner relation's selection *)
  | Pass  (* the first input's rows *)
  | Choose  (* the first alternative's rows; the cheapest total *)
  | Recorded
      (* the rows the plan recorded: a box program's node whose row
         formula the catalog cannot resolve *)

(* Each node owns [stride] constants: its relation's cardinality, its
   join factor, a bound predicate's selectivity (a [Recorded] node's
   rows in its place), then the prepared own-cost formula. *)
let card = 0
let factor = 1
let sel_lo = 2
let sel_hi = 3
let cost_at = 4
let stride = cost_at + Cost_model.stage_width

(* A plan's numbering ([Plan.Dag]: children first, root last) and, per
   index, everything the catalog and the device decide, resolved once:
   an activation only binds the host variables and the memory grant. *)
type program = {
  device : Device.t;
  dag : Plan.Dag.t;
  (* The numbering's own arrays, taken whenever it grows: the loops
     below read them as directly as the program's. *)
  mutable nodes : Plan.t array;
  mutable first_input : int array;
      (* node [i]'s inputs are [inputs.(first_input.(i))] up to
         [inputs.(first_input.(i + 1) - 1)] *)
  mutable inputs : int array;
  mutable rows_op : rows_op array;
  mutable cost_op : Cost_model.opcode array;
  mutable slot : int array;
      (* host-variable slot of the node's selection; -1 for a bound
         predicate (its selectivity is a constant) or none *)
  mutable consts : float array;
  mutable vars : string array;  (* slot -> host variable *)
  mutable n_vars : int;
  mutable choose_at : int array;  (* indices of the choose nodes *)
  mutable chooses : int;
  mutable unresolved : (int * exn) list;
      (* a box program's nodes whose formulas could not be prepared, with
         what preparing them raised *)
}

let grow a len fill =
  if len <= Array.length a then a
  else begin
    let b = Array.make (Int.max len (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* A program over [dag] with room for its nodes so far. *)
let sized env (dag : Plan.Dag.t) =
  let n = dag.Plan.Dag.length in
  { device = Env.device env; dag; nodes = dag.Plan.Dag.nodes;
    first_input = dag.Plan.Dag.first_input; inputs = dag.Plan.Dag.inputs;
    rows_op = Array.make n Base; cost_op = Array.make n Cost_model.Const;
    slot = Array.make n (-1); consts = Array.make (n * stride) 0.;
    vars = [||]; n_vars = 0; choose_at = [||]; chooses = 0; unresolved = [] }

(* Plans bind a handful of host variables: a scan beats a table. *)
let var_slot prog var =
  let rec find s =
    if s = prog.n_vars then begin
      prog.vars <- grow prog.vars (s + 1) var;
      prog.vars.(s) <- var;
      prog.n_vars <- s + 1;
      s
    end
    else if String.equal prog.vars.(s) var then s
    else find (s + 1)
  in
  find 0

(* [Estimate.join_factor], remembering the last predicate list: a join's
   alternatives share it, and children-first order visits them close
   together.  The list is remembered only once its factor is known: a box
   program's compilation carries on past a factor that raised. *)
let join_factors env =
  let last = ref [] and value = ref 1. in
  fun preds ->
    if preds != !last then begin
      value := Estimate.join_factor env preds;
      last := preds
    end;
    !value

(* The selection a node's rows apply, if any. *)
let selection (op : Physical.op) =
  match op with
  | Physical.Filter pred
  | Physical.Filter_btree_scan { pred; _ }
  | Physical.Index_join { inner_filter = Some pred; _ } ->
    Some pred
  | _ -> None

(* The catalog's constants of node [i]'s rows. *)
let resolve_rows prog env ~join_factor i (p : Plan.t) pred =
  let at = i * stride and k = prog.consts in
  (match p.Plan.op with
  | Physical.File_scan rel | Physical.Btree_scan { rel; _ }
  | Physical.Filter_btree_scan { rel; _ }
  | Physical.Index_join { inner_rel = rel; _ } ->
    k.(at + card) <- Estimate.cardinality env rel
  | _ -> ());
  (match p.Plan.op with
  | Physical.Hash_join preds | Physical.Merge_join preds
  | Physical.Index_join { preds; _ } ->
    k.(at + factor) <- join_factor preds
  | _ -> ());
  match pred with
  | Some { Predicate.selectivity = Predicate.Host_var _; _ } | None -> ()
  | Some pred ->
    let s = Env.selectivity env pred in
    k.(at + sel_lo) <- s.Interval.lo;
    k.(at + sel_hi) <- s.Interval.hi

let recorded prog i (p : Plan.t) =
  let at = i * stride in
  prog.rows_op.(i) <- Recorded;
  prog.consts.(at + sel_lo) <- p.Plan.rows.Interval.lo;
  prog.consts.(at + sel_hi) <- p.Plan.rows.Interval.hi

(* The first failure recorded for a node is the one its box raises. *)
let unresolved prog i e = prog.unresolved <- prog.unresolved @ [ (i, e) ]

(* Compile numbered node [i].  A [lenient] compilation (a box program)
   raises nothing: a node whose rows the catalog cannot resolve, or whose
   arity does not fit its operator, keeps its recorded rows, and one
   whose formulas cannot be prepared keeps what preparing them raised. *)
let add_node ?(lenient = false) prog env ~join_factor i =
  let p = prog.nodes.(i) in
  let arity = prog.first_input.(i + 1) - prog.first_input.(i) in
  let rows_op =
    match (p.Plan.op, arity) with
    | (Physical.File_scan _ | Physical.Btree_scan _), 0 -> Base
    | Physical.Filter _, 1 -> Select
    | Physical.Filter_btree_scan _, 0 -> Select_base
    | (Physical.Hash_join _ | Physical.Merge_join _), 2 -> Join
    | Physical.Index_join { inner_filter = None; _ }, 1 -> Probe
    | Physical.Index_join { inner_filter = Some _; _ }, 1 -> Probe_select
    | Physical.Sort _, 1 -> Pass
    | Physical.Choose_plan, n when n > 0 -> Choose
    | _ ->
      if lenient then Recorded
      else invalid_arg "Startup: operator arity mismatch"
  in
  prog.rows_op <- grow prog.rows_op (i + 1) Base;
  prog.cost_op <- grow prog.cost_op (i + 1) Cost_model.Const;
  prog.slot <- grow prog.slot (i + 1) (-1);
  prog.consts <- grow prog.consts ((i + 1) * stride) 0.;
  prog.rows_op.(i) <- rows_op;
  (* A variable gets its slot even where the rows are recorded: a box
     ranges over every variable the plan names. *)
  let pred = selection p.Plan.op in
  (match pred with
  | Some { Predicate.selectivity = Predicate.Host_var v; _ } ->
    prog.slot.(i) <- var_slot prog v
  | Some _ | None -> ());
  (match rows_op with
  | Recorded -> recorded prog i p
  | _ -> (
    try resolve_rows prog env ~join_factor i p pred with
    | Not_found when lenient -> recorded prog i p
    | e when lenient -> unresolved prog i e));
  match rows_op with
  | Choose ->
    prog.choose_at <- grow prog.choose_at (prog.chooses + 1) i;
    prog.choose_at.(prog.chooses) <- i;
    prog.chooses <- prog.chooses + 1
  | _ -> (
    let width j =
      match List.nth_opt p.Plan.inputs j with
      | Some (c : Plan.t) -> c.Plan.bytes_per_row
      | None -> 0
    in
    match
      Cost_model.prepare env p.Plan.op ~arity ~width0:(width 0)
        ~width1:(width 1) prog.consts ((i * stride) + cost_at)
    with
    | code -> prog.cost_op.(i) <- code
    | exception e when lenient -> unresolved prog i e)

(* The numbering is found first, so the arrays are allocated once, at
   their final size. *)
let compile_dag ?lenient env dag =
  let prog = sized env dag in
  let join_factor = join_factors env in
  for i = 0 to dag.Plan.Dag.length - 1 do
    add_node ?lenient prog env ~join_factor i
  done;
  prog

let compile env plan = compile_dag env (Plan.Dag.of_plan plan)

(* --- activations ----------------------------------------------------------- *)

(* One evaluation of a program.  [temp], [excluded] and [live] are empty
   unless the activation has overrides or exclusions; the [chosen_*]
   arrays are empty unless it resolves. *)
type state = {
  env : Env.t;
  risk : Risk.t;
  mem_lo : float;
  mem_hi : float;
  mutable var_lo : float array;  (* per host-variable slot, nan until read *)
  mutable var_hi : float array;
  mutable rows_lo : float array;
  mutable rows_hi : float array;
  mutable total : float array;
  mutable choice : int array;  (* a choose node's cheapest survivor, or -1 *)
  temp : float array;  (* an override's observed rows, nan if none *)
  excluded : Bytes.t;
  live : Bytes.t;  (* reached without passing through an override *)
  (* The chosen plan's own rows and cost, node by node: the rows of a
     choose node's cheapest alternative instead of its first one, and no
     decision overheads. *)
  chosen_lo : float array;
  chosen_hi : float array;
  chosen_total : float array;
  unchanged : Bytes.t;
  mutable nodes_evaluated : int;
  mutable cost_evaluations : int;
  mutable choose_decisions : int;
}

let overridden st i = Array.length st.temp > 0 && not (Float.is_nan st.temp.(i))
let is_excluded st i = Bytes.length st.excluded > 0 && Bytes.get st.excluded i <> '\000'
let live st i = Bytes.length st.live = 0 || Bytes.get st.live i <> '\000'

let activation ?(chosen = false) ~risk ~overrides ~excluded env prog =
  let n = prog.dag.Plan.Dag.length in
  let index = Plan.Dag.find prog.dag in
  let temp =
    match overrides with
    | [] -> [||]
    | _ ->
      (* The first binding of a pid wins, as with [List.assoc]. *)
      let t = Array.make n Float.nan in
      List.iter
        (fun (pid, rows) -> Option.iter (fun i -> t.(i) <- rows) (index pid))
        (List.rev overrides);
      t
  in
  let excl =
    match excluded with
    | [] -> Bytes.empty
    | _ ->
      let e = Bytes.make n '\000' in
      List.iter
        (fun pid -> Option.iter (fun i -> Bytes.set e i '\001') (index pid))
        excluded;
      e
  in
  let vars = prog.n_vars in
  let mem = Env.memory_pages env in
  let chosen_arr () = if chosen then Array.make n 0. else [||] in
  let st =
    { env; risk; mem_lo = mem.Interval.lo; mem_hi = mem.Interval.hi;
      var_lo = Array.make vars Float.nan; var_hi = Array.make vars Float.nan;
      rows_lo = Array.make n 0.; rows_hi = Array.make n 0.;
      total = Array.make n 0.; choice = Array.make n (-1); temp;
      excluded = excl;
      live = (if Array.length temp = 0 then Bytes.empty else Bytes.make n '\000');
      chosen_lo = chosen_arr (); chosen_hi = chosen_arr ();
      chosen_total = chosen_arr ();
      unchanged = (if chosen then Bytes.make n '\000' else Bytes.empty);
      nodes_evaluated = 0; cost_evaluations = 0;
      choose_decisions = 0 }
  in
  (* Nodes only an overridden subplan reaches are never evaluated: that
     subplan's cost is a rescan of its temporary. *)
  if Bytes.length st.live > 0 then begin
    Bytes.set st.live (n - 1) '\001';
    for i = n - 1 downto 0 do
      if live st i && not (overridden st i) then
        for x = prog.first_input.(i) to prog.first_input.(i + 1) - 1 do
          Bytes.set st.live prog.inputs.(x) '\001'
        done
    done
  end;
  st

(* Cost of rescanning a materialized temporary of [rows] tuples. *)
let temp_scan_cost env ~rows ~bytes_per_row =
  let d = Env.device env in
  (Cost_model.pages_for env ~rows ~bytes_per_row *. d.Device.seq_page_io)
  +. (rows *. d.Device.cpu_per_tuple)

let input prog i j = prog.inputs.(prog.first_input.(i) + j)

(* One bound of node [i]'s rows, from its inputs' rows at that bound in
   [rows] and its selection's selectivity bound [sel]. *)
let rows_bound prog i rows sel =
  let k = prog.consts and at = i * stride in
  match prog.rows_op.(i) with
  | Base -> k.(at + card)
  | Select -> Estimate.selected ~sel rows.(input prog i 0)
  | Select_base -> Estimate.selected ~sel k.(at + card)
  | Join ->
    Estimate.joined ~factor:k.(at + factor) rows.(input prog i 0)
      rows.(input prog i 1)
  | Probe -> Estimate.joined ~factor:k.(at + factor) rows.(input prog i 0) k.(at + card)
  | Probe_select ->
    Estimate.joined ~factor:k.(at + factor) rows.(input prog i 0)
      (Estimate.selected ~sel k.(at + card))
  | Pass | Choose -> rows.(input prog i 0)
  | Recorded ->
    (* Only box programs hold these, and [box_step] reads them itself:
       compiling a point program raised instead. *)
    raise Not_found

(* Node [i]'s rows from its inputs' rows in [lo]/[hi], into the same
   arrays.  Each host variable is looked up once per activation. *)
let node_rows prog st i lo hi =
  let s = prog.slot.(i) and at = i * stride in
  if s >= 0 && Float.is_nan st.var_lo.(s) then begin
    let v = Env.host_selectivity st.env prog.vars.(s) in
    st.var_lo.(s) <- v.Interval.lo;
    st.var_hi.(s) <- v.Interval.hi
  end;
  lo.(i) <- rows_bound prog i lo (if s >= 0 then st.var_lo.(s) else prog.consts.(at + sel_lo));
  hi.(i) <- rows_bound prog i hi (if s >= 0 then st.var_hi.(s) else prog.consts.(at + sel_hi))

(* Node [i]'s own cost at one corner, input and output rows read from
   [rows]. *)
let cost_bound prog i rows ~mem =
  let a = prog.first_input.(i) and b = prog.first_input.(i + 1) in
  Cost_model.apply prog.cost_op.(i) prog.consts ((i * stride) + cost_at)
    ~in0:(if b > a then rows.(prog.inputs.(a)) else 0.)
    ~in1:(if b > a + 1 then rows.(prog.inputs.(a + 1)) else 0.)
    ~out:rows.(i) ~mem

(* Node [i]'s own cost, scalarized: the cheap corner (low rows, high
   memory) and the dear one. *)
let own_cost prog st i lo hi =
  let c_lo = cost_bound prog i lo ~mem:st.mem_hi in
  let c_hi = cost_bound prog i hi ~mem:st.mem_lo in
  Risk.scalarize_bounds st.risk ~lo:(Float.min c_lo c_hi) ~hi:(Float.max c_lo c_hi)

let plus_inputs prog i totals own =
  let acc = ref own in
  for x = prog.first_input.(i) to prog.first_input.(i + 1) - 1 do
    acc := !acc +. totals.(prog.inputs.(x))
  done;
  !acc

let overhead prog = prog.device.Device.choose_plan_overhead

let set_chosen st i ~unchanged lo hi total =
  st.chosen_lo.(i) <- lo;
  st.chosen_hi.(i) <- hi;
  st.chosen_total.(i) <- total;
  if unchanged then Bytes.set st.unchanged i '\001'

(* Node [i]'s values in the chosen plan.  Below a choose node with no
   surviving alternative there is no chosen plan (extraction raises
   [Exhausted] if it gets there): such nodes get nan.  [Plan.rewrite]
   returns a node as is when nothing below it changed, so a
   one-alternative choose node over an unchanged alternative survives
   extraction, decision overhead and all; [st.unchanged] tracks which
   nodes extraction leaves alone. *)
let chosen_node prog st i ~own =
  let lo = st.chosen_lo and hi = st.chosen_hi and totals = st.chosen_total in
  let a = prog.first_input.(i) and b = prog.first_input.(i + 1) in
  if overridden st i then
    set_chosen st i ~unchanged:true st.rows_lo.(i) st.rows_hi.(i) st.total.(i)
  else
    match prog.rows_op.(i) with
    | Choose ->
      let j = st.choice.(i) in
      if j < 0 then set_chosen st i ~unchanged:false Float.nan Float.nan Float.nan
      else if b - a = 1 && Bytes.get st.unchanged j <> '\000' then
        set_chosen st i ~unchanged:true lo.(j) hi.(j) (totals.(j) +. overhead prog)
      else set_chosen st i ~unchanged:false lo.(j) hi.(j) totals.(j)
    | _ ->
      let reached = ref true and same_rows = ref true and unchanged = ref true in
      for x = a to b - 1 do
        let c = prog.inputs.(x) in
        if Float.is_nan totals.(c) then reached := false
        else if lo.(c) <> st.rows_lo.(c) || hi.(c) <> st.rows_hi.(c) then
          same_rows := false;
        if Bytes.get st.unchanged c = '\000' then unchanged := false
      done;
      if not !reached then
        set_chosen st i ~unchanged:false Float.nan Float.nan Float.nan
      else if !same_rows then
        set_chosen st i ~unchanged:!unchanged st.rows_lo.(i) st.rows_hi.(i)
          (plus_inputs prog i totals own)
      else begin
        node_rows prog st i lo hi;
        set_chosen st i ~unchanged:!unchanged lo.(i) hi.(i)
          (plus_inputs prog i totals (own_cost prog st i lo hi))
      end

let step prog st i =
  st.nodes_evaluated <- st.nodes_evaluated + 1;
  let own =
    if overridden st i then begin
      (* The subplan was already evaluated into a temporary: its actual
         cardinality is known and its remaining cost is a rescan. *)
      let rows = st.temp.(i) in
      st.rows_lo.(i) <- rows;
      st.rows_hi.(i) <- rows;
      st.total.(i) <-
        temp_scan_cost st.env ~rows
          ~bytes_per_row:prog.nodes.(i).Plan.bytes_per_row;
      0.
    end
    else begin
      node_rows prog st i st.rows_lo st.rows_hi;
      match prog.rows_op.(i) with
      | Choose ->
        st.choose_decisions <- st.choose_decisions + 1;
        (* Excluded alternatives (failed at run-time, see Resilience)
           cost infinity: the minimum falls on a surviving one, the first
           on ties. *)
        let best = ref Float.infinity and pick = ref (-1) in
        for x = prog.first_input.(i) to prog.first_input.(i + 1) - 1 do
          let j = prog.inputs.(x) in
          if not (is_excluded st j) then begin
            let t = st.total.(j) in
            best := Float.min !best t;
            if !pick < 0 || not (st.total.(!pick) <= t) then pick := j
          end
        done;
        st.total.(i) <- !best +. overhead prog;
        st.choice.(i) <- !pick;
        0.
      | _ ->
        st.cost_evaluations <- st.cost_evaluations + 1;
        let own = own_cost prog st i st.rows_lo st.rows_hi in
        st.total.(i) <- plus_inputs prog i st.total own;
        own
    end
  in
  if Array.length st.chosen_total > 0 then chosen_node prog st i ~own

let root prog = prog.dag.Plan.Dag.length - 1

let run prog st =
  for i = 0 to root prog do
    if live st i then step prog st i
  done

let stats st =
  { nodes_evaluated = st.nodes_evaluated;
    cost_evaluations = st.cost_evaluations;
    choose_decisions = st.choose_decisions }

(* --- boxes ----------------------------------------------------------------- *)

type box = {
  sel_lo : float array;
  sel_hi : float array;
  mutable mem_lo : float;
  mutable mem_hi : float;
  rows_lo : float array;
  rows_hi : float array;
  total_lo : float array;
  total_hi : float array;
}

let box_program env dag = compile_dag ~lenient:true env dag
let vars prog = Array.sub prog.vars 0 prog.n_vars
let slot prog i = prog.slot.(i)

let box prog =
  let n = prog.dag.Plan.Dag.length and vars = prog.n_vars in
  { sel_lo = Array.make vars 0.; sel_hi = Array.make vars 0.; mem_lo = 0.;
    mem_hi = 0.; rows_lo = Array.make n 0.; rows_hi = Array.make n 0.;
    total_lo = Array.make n 0.; total_hi = Array.make n 0. }

(* Node [i]'s bounds over the box: each row bound from the inputs' rows
   and the selectivity at that bound, the own cost's cheap corner (low
   rows, high memory) and dear corner, then their minimum and maximum.
   A choose node's rows are the hull of its alternatives' — whichever one
   start-up picks — and its total their pointwise minimum plus the
   decision overhead. *)
let box_step prog b i =
  (match prog.unresolved with
  | [] -> ()
  | failed -> Option.iter raise (List.assoc_opt i failed));
  let a = prog.first_input.(i) and z = prog.first_input.(i + 1) in
  let k = prog.consts and at = i * stride in
  match prog.rows_op.(i) with
  | Choose ->
    let j = prog.inputs.(a) in
    let rows_lo = ref b.rows_lo.(j) and rows_hi = ref b.rows_hi.(j) in
    let total_lo = ref b.total_lo.(j) and total_hi = ref b.total_hi.(j) in
    for x = a + 1 to z - 1 do
      let j = prog.inputs.(x) in
      rows_lo := Float.min !rows_lo b.rows_lo.(j);
      rows_hi := Float.max !rows_hi b.rows_hi.(j);
      total_lo := Float.min !total_lo b.total_lo.(j);
      total_hi := Float.min !total_hi b.total_hi.(j)
    done;
    b.rows_lo.(i) <- !rows_lo;
    b.rows_hi.(i) <- !rows_hi;
    b.total_lo.(i) <- overhead prog +. !total_lo;
    b.total_hi.(i) <- overhead prog +. !total_hi
  | rows_op ->
    (match rows_op with
    | Recorded ->
      b.rows_lo.(i) <- k.(at + sel_lo);
      b.rows_hi.(i) <- k.(at + sel_hi)
    | _ ->
      let s = prog.slot.(i) in
      let lo = if s >= 0 then b.sel_lo.(s) else k.(at + sel_lo)
      and hi = if s >= 0 then b.sel_hi.(s) else k.(at + sel_hi) in
      b.rows_lo.(i) <- rows_bound prog i b.rows_lo lo;
      b.rows_hi.(i) <- rows_bound prog i b.rows_hi hi);
    let cheap = cost_bound prog i b.rows_lo ~mem:b.mem_hi in
    let dear = cost_bound prog i b.rows_hi ~mem:b.mem_lo in
    b.total_lo.(i) <- plus_inputs prog i b.total_lo (Float.min cheap dear);
    b.total_hi.(i) <- plus_inputs prog i b.total_hi (Float.max cheap dear)

(* --- the program memo -------------------------------------------------------- *)

(* Programs are memoized per (plan, catalog) in a bounded weak table,
   but only from a plan's second activation: the first leaves a marker.
   A plan activated once and then dropped (every request of a churning
   plan cache) so never carries a program. *)
type entry = Seen | Compiled of program

let programs : (Plan.t, Catalog.t, entry) Weak_memo.t = Weak_memo.create 256

let memoized env (plan : Plan.t) =
  match Weak_memo.find programs ~hash:plan.Plan.pid plan (Env.catalog env) with
  | Some (Compiled prog) when prog.device == Env.device env -> Some prog
  | Some (Compiled _ | Seen) | None -> None

let retained env plan = Option.is_some (memoized env plan)

let program env plan =
  match memoized env plan with Some prog -> prog | None -> compile env plan

let activated env (plan : Plan.t) =
  let hash = plan.Plan.pid and catalog = Env.catalog env in
  match Weak_memo.find programs ~hash plan catalog with
  | Some (Compiled prog) when prog.device == Env.device env -> prog
  | Some (Compiled _) -> compile env plan
  | Some Seen ->
    let prog = compile env plan in
    Weak_memo.replace programs ~hash plan catalog (Compiled prog);
    prog
  | None ->
    Weak_memo.replace programs ~hash plan catalog Seen;
    compile env plan

(* --- entry points ------------------------------------------------------------ *)

let evaluated ?(chosen = false) ~risk ~overrides ~excluded env prog =
  let st = activation ~chosen ~risk ~overrides ~excluded env prog in
  run prog st;
  st

let evaluate ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let prog = program env plan in
  let st = evaluated ~risk ~overrides ~excluded env prog in
  (st.total.(root prog), stats st)

(* The optimizer prices many plans sharing DAG nodes under several
   environments of one catalog and device: one numbering grows by each
   plan's unseen nodes, only those are compiled, once, and each
   environment's state evaluates them. *)
type evaluator = {
  prog : program;
  env : Env.t;
  join_factor : Predicate.equi list -> float;
  states : state array;
}

let evaluator envs =
  match envs with
  | [] -> invalid_arg "Startup.evaluator: no environment"
  | env :: _ ->
    let prog = sized env (Plan.Dag.create ()) in
    { prog; env; join_factor = join_factors env;
      states =
        Array.of_list
          (List.map
             (fun env ->
               activation ~risk:Risk.Expected ~overrides:[] ~excluded:[] env
                 prog)
             envs) }

let evaluate_with { prog; env; join_factor; states } plan =
  let dag = prog.dag in
  let from = dag.Plan.Dag.length in
  let root = Plan.Dag.add dag plan in
  let n = dag.Plan.Dag.length in
  if n > from then begin
    prog.nodes <- dag.Plan.Dag.nodes;
    prog.first_input <- dag.Plan.Dag.first_input;
    prog.inputs <- dag.Plan.Dag.inputs;
    for i = from to n - 1 do
      add_node prog env ~join_factor i
    done;
    let vars = prog.n_vars in
    Array.iter
      (fun st ->
        st.var_lo <- grow st.var_lo vars Float.nan;
        st.var_hi <- grow st.var_hi vars Float.nan;
        st.rows_lo <- grow st.rows_lo n 0.;
        st.rows_hi <- grow st.rows_hi n 0.;
        st.total <- grow st.total n 0.;
        st.choice <- grow st.choice n (-1);
        for i = from to n - 1 do
          step prog st i
        done)
      states
  end;
  Array.map (fun st -> st.total.(root)) states

type decision = {
  choose_pid : int;
  alternatives : (int * string * float) list;
  chosen_pid : int;
}

let explain ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let prog = program env plan in
  let st = evaluated ~risk ~overrides ~excluded env prog in
  let decisions = ref [] in
  for c = 0 to prog.chooses - 1 do
    let i = prog.choose_at.(c) in
    let p = prog.nodes.(i) in
    (* A choose node only an override reaches was never evaluated, and
       neither were its alternatives: it made no decision. *)
    if live st i && not (overridden st i) then begin
      let rec surviving x acc =
        if x < prog.first_input.(i) then acc
        else
          let j = prog.inputs.(x) in
          let alt = prog.nodes.(j) in
          surviving (x - 1)
            (if is_excluded st j then acc
             else (alt.Plan.pid, Physical.name alt.Plan.op, st.total.(j)) :: acc)
      in
      let alternatives = surviving (prog.first_input.(i + 1) - 1) [] in
      if alternatives = [] then raise (Exhausted p.Plan.pid);
      let chosen_pid, _, _ =
        List.fold_left
          (fun ((_, _, best) as acc) ((_, _, c) as alt) ->
            if c < best then alt else acc)
          (List.hd alternatives) (List.tl alternatives)
      in
      decisions := { choose_pid = p.Plan.pid; alternatives; chosen_pid } :: !decisions
    end
  done;
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
  let prog = program env plan in
  let st = evaluated ~risk:Risk.Expected ~overrides ~excluded:[] env prog in
  let root = root prog in
  Interval.mid (Interval.unchecked ~lo:st.rows_lo.(root) ~hi:st.rows_hi.(root))

type resolution = {
  plan : Plan.t;
  anticipated_cost : float;
  choices : (int * int) list;
  choose_nodes : int;
  stats : stats;
}

let resolve ?(risk = Risk.Expected) ?(overrides = []) ?(excluded = []) env
    plan =
  let prog = activated env plan in
  let st = evaluated ~chosen:true ~risk ~overrides ~excluded env prog in
  (* Each reached choose node keeps its cheapest surviving alternative.
     An overridden node stands for its materialized temporary; it is
     kept verbatim (the executor splices the temp in by pid). *)
  let choices = ref [] in
  let cheapest i =
    let j = st.choice.(i) in
    if j < 0 then raise (Exhausted prog.nodes.(i).Plan.pid);
    choices := (prog.nodes.(i).Plan.pid, prog.nodes.(j).Plan.pid) :: !choices;
    [ j ]
  in
  let chosen =
    if prog.chooses = 0 then plan
    else
      Option.get
        (Plan.rewrite env ~verbatim:(overridden st) ~keep:cheapest prog.dag)
  in
  { plan = chosen;
    anticipated_cost = st.chosen_total.(root prog);
    choices = List.rev !choices;
    choose_nodes = prog.chooses;
    stats = stats st }
