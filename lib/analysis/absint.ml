(* Abstract interpretation of plan DAGs over the interval domain.

   The optimizer already costs plans with intervals, but only at the one
   environment it searched under.  This module makes the interval domain
   a reusable *analysis* domain: plan values (cardinality, cost) are
   propagated bottom-up through the DAG under any region of the
   choose-plan parameter space, and resource demands (governor-accounted
   working-set bytes, physical I/O pages) are derived from the same
   traversal.  Three kinds of facts come out:

   - {e region values} ([eval] under a [region]-restricted environment):
     what every node's rows and total cost look like anywhere in a box of
     the parameter space — the basis for coverage and dominance analysis
     of choose-plan nodes (Analyses);

   - {e certificates} ([certificate]): a sound worst-case bound on the
     bytes a run can ever hold against its governor, derived from
     data-sound cardinalities (not the optimizer's estimates) and the
     executor's actual charging discipline in [Exec_common] — if the bound
     fits a budget, no execution under that budget raises
     [Memory_exceeded];

   - {e demand floors} ([guaranteed_bytes]): a sound lower bound on the
     largest single charge every execution must make — if the floor
     exceeds the budget, every execution is statically doomed and
     admission can refuse it with a diagnostic instead of an abort.

   Soundness of the byte bounds leans on three facts of the execution
   layer, each noted at its formula below: base scans deliver exactly the
   catalog cardinality ([Database.build] generates that many tuples);
   the spilling cores charge materializations — hash build sides, sort
   inputs and runs, a merge join's materialized right side, checkpoint
   entries — and nothing else; and the governed memory grant never
   exceeds [min (env grant) (budget / page_bytes)], which caps the Grace
   fanout used in the floor's pigeonhole argument. *)

module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Estimate = Dqep_cost.Estimate
module Cost_model = Dqep_cost.Cost_model
module Plan = Dqep_plans.Plan

(* --- abstract values ------------------------------------------------------ *)

type value = {
  rows : Interval.t;  (** modelled output cardinality *)
  total : Interval.t;  (** modelled total cost, min-combined at choose *)
}

(* --- parameter-space regions ---------------------------------------------- *)

(* A box of the choose-plan parameter space: one selectivity interval per
   host variable plus the memory interval.  [Startup.resolve] evaluates a
   *point* of this space; a region abstracts every point inside it. *)
type region = {
  sels : (string * Interval.t) list;
  memory : Interval.t;
}

let unit_interval = Interval.make 0. 1.

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

let is_point (iv : Interval.t) = Interval.width iv <= 1e-12

let cut (iv : Interval.t) k =
  if k <= 1 || is_point iv then [ iv ]
  else
    let lo = iv.Interval.lo and hi = iv.Interval.hi in
    List.init k (fun i ->
        let a = lo +. ((hi -. lo) *. float_of_int i /. float_of_int k) in
        let b =
          if i = k - 1 then hi
          else lo +. ((hi -. lo) *. float_of_int (i + 1) /. float_of_int k)
        in
        Interval.make a b)

(* Subdivide a region into a grid of at most [max_regions] boxes: every
   uncertain dimension (non-point selectivity or memory interval) is cut
   into [k] pieces with [k^dims <= max_regions].  With more uncertain
   dimensions than [log2 max_regions], only the leading dimensions are
   cut — the analysis stays sound (coarser regions report fewer dead
   alternatives and more uncovered ones never slip through unchecked,
   since a fact must hold on every box to be reported). *)
let subdivide region ~max_regions =
  let dims =
    List.filter (fun (_, iv) -> not (is_point iv)) region.sels
    |> List.map (fun (v, iv) -> (`Sel v, iv))
  in
  let dims =
    if is_point region.memory then dims
    else dims @ [ (`Mem, region.memory) ]
  in
  match dims with
  | [] -> [ region ]
  | dims ->
    let d = List.length dims in
    let k =
      Int.max 1
        (Int.min 8
           (int_of_float (Float.pow (float_of_int max_regions) (1. /. float_of_int d))))
    in
    (* Too many dimensions for the budget: cut the first few in half. *)
    let budget_dims =
      if k >= 2 then d
      else
        Int.max 1
          (int_of_float (Float.log (float_of_int (Int.max 2 max_regions)) /. Float.log 2.))
    in
    let k = if k >= 2 then k else 2 in
    let pieces =
      List.mapi
        (fun i (tag, iv) -> (tag, if i < budget_dims then cut iv k else [ iv ]))
        dims
    in
    List.fold_left
      (fun regions (tag, cuts) ->
        List.concat_map
          (fun r ->
            List.map
              (fun piece ->
                match tag with
                | `Mem -> { r with memory = piece }
                | `Sel v ->
                  { r with
                    sels =
                      List.map
                        (fun (v', iv) -> if String.equal v v' then (v', piece) else (v', iv))
                        r.sels })
              cuts)
          regions)
      [ region ] pieces

let restrict env region =
  Env.make
    ~io_budget_factor:(Env.io_budget_factor env)
    ~catalog:(Env.catalog env) ~device:(Env.device env)
    ~selectivity:(fun v ->
      match List.assoc_opt v region.sels with
      | Some iv -> iv
      | None -> unit_interval)
    ~memory_pages:region.memory ()

let pp_region ppf r =
  Format.fprintf ppf "{%a; mem=%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (v, iv) -> Format.fprintf ppf "%s=%a" v Interval.pp iv))
    r.sels Interval.pp r.memory

(* --- bottom-up interval evaluation ---------------------------------------- *)

(* Modelled rows of one operator, mirroring [Startup.node_rows] but over
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

(* Evaluate every node of [plan] under [env], bottom-up with one visit
   per DAG node.  The returned lookup answers for any node of [plan] (by
   pid) and raises [Not_found] for foreign nodes.

   The invariant connecting this to startup: [Startup.eval_node]
   evaluates the same formulas at a point of the environment, taking the
   midpoint of each own-cost interval and the minimum alternative at each
   choose node — both of which lie inside the corresponding interval
   combination here.  So for any point env inside the region this env
   abstracts, the point totals lie inside these interval totals. *)
let eval env (plan : Plan.t) =
  let memo : value Plan.Pid_tbl.t = Plan.Pid_tbl.create 64 in
  let rec go (p : Plan.t) =
    match Plan.Pid_tbl.find_opt memo p.Plan.pid with
    | Some v -> v
    | None ->
      let inputs = List.map go p.Plan.inputs in
      let rows = node_rows env p inputs in
      let total =
        match p.Plan.op with
        | Physical.Choose_plan ->
          Cost_model.choose_plan_cost env (List.map (fun v -> v.total) inputs)
        | _ ->
          let cm_inputs =
            List.map2
              (fun (child : Plan.t) v ->
                { Cost_model.rows = v.rows;
                  bytes_per_row = child.Plan.bytes_per_row })
              p.Plan.inputs inputs
          in
          let own =
            Cost_model.own_cost env p.Plan.op ~inputs:cm_inputs
              ~output_rows:rows
          in
          List.fold_left (fun acc v -> Interval.add acc v.total) own inputs
      in
      let v = { rows; total } in
      Plan.Pid_tbl.add memo p.Plan.pid v;
      v
  in
  ignore (go plan);
  fun (p : Plan.t) -> Plan.Pid_tbl.find memo p.Plan.pid

(* Many-region evaluation with cross-region sharing.  A node's value
   depends on the environment only through the memory interval and the
   selectivity intervals of host variables occurring in its own subtree
   (rows come from its own predicates and children; own costs consult at
   most those rows and the memory grant).  Keying the memo by
   (pid, those intervals) lets regions that agree on a node's dimensions
   share its value — on a deep plan most nodes are insensitive to most
   cut dimensions.  [work] counts node evaluations performed (memo
   misses), the currency of the analyses' work budgets. *)
type evaluator = {
  value : region -> Plan.t -> value;
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

(* [a] with room for index [n]. *)
let ensure a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (Int.max (n + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Filler for result slots not yet written. *)
let unseen = { rows = Interval.point 0.; total = Interval.point 0. }

let evaluator env (plan : Plan.t) =
  (* Nodes are numbered densely on first sight (children first), and
     host variables once; each node records its children's numbers and
     the numbers of the variables occurring in its subtree.  Nodes
     outside [plan] are numbered when first asked for. *)
  let var_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let var_names = ref [||] in
  let index_of v =
    match Hashtbl.find_opt var_index v with
    | Some i -> i
    | None ->
      let i = Hashtbl.length var_index in
      Hashtbl.add var_index v i;
      var_names := ensure !var_names i v;
      !var_names.(i) <- v;
      i
  in
  let slot : int Plan.Pid_tbl.t = Plan.Pid_tbl.create 64 in
  let count = ref 0 in
  let nodes = ref [||] and kids = ref [||] and vars = ref [||] in
  let rec number (p : Plan.t) =
    match Plan.Pid_tbl.find_opt slot p.Plan.pid with
    | Some i -> i
    | None ->
      let ks = Array.of_list (List.map number p.Plan.inputs) in
      let own =
        match p.Plan.op with
        | Physical.Filter pr | Physical.Filter_btree_scan { pred = pr; _ }
        | Physical.Index_join { inner_filter = Some pr; _ } -> (
          match Predicate.host_var pr with
          | Some v -> [| index_of v |]
          | None -> [||])
        | Physical.Index_join { inner_filter = None; _ }
        | Physical.File_scan _ | Physical.Btree_scan _ | Physical.Hash_join _
        | Physical.Merge_join _ | Physical.Sort _ | Physical.Choose_plan -> [||]
      in
      let vs = Array.fold_left (fun acc k -> union acc !vars.(k)) own ks in
      let i = !count in
      nodes := ensure !nodes i p;
      kids := ensure !kids i [||];
      vars := ensure !vars i [||];
      !nodes.(i) <- p;
      !kids.(i) <- ks;
      !vars.(i) <- vs;
      incr count;
      Plan.Pid_tbl.add slot p.Plan.pid i;
      i
  in
  ignore (number plan);
  let misses = ref 0 in
  (* Memo keys are compact byte strings — node number plus one small
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
  let memo : value String_tbl.t = String_tbl.create (4 * !count) in
  (* Per-region results by node number, valid where [stamp] holds the
     region's generation, so a region allocates nothing per node.
     Interleaving two regions' lookups stays correct (the memo is keyed
     by intervals) and only costs re-lookups. *)
  let results = ref (Array.make !count unseen) and stamp = ref (Array.make !count 0) in
  let generation = ref 0 in
  let value (region : region) =
    incr generation;
    let gen = !generation in
    let renv = restrict env region in
    (* Interned box of each variable in this region, filled on first
       use; a variable foreign to the region takes the unit interval. *)
    let dim_ids = ref (Array.make (Hashtbl.length var_index) (-1)) in
    let dim_id v =
      dim_ids := ensure !dim_ids v (-1);
      if !dim_ids.(v) < 0 then begin
        let name = !var_names.(v) in
        !dim_ids.(v) <-
          id_of name
            (Option.value ~default:unit_interval (List.assoc_opt name region.sels))
      end;
      !dim_ids.(v)
    in
    let mem_id = id_of "" region.memory in
    let key_of i =
      let vs = !vars.(i) in
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
    (* Within one region a node's value depends only on its number. *)
    let rec go i =
      results := ensure !results i unseen;
      stamp := ensure !stamp i 0;
      if !stamp.(i) = gen then !results.(i)
      else begin
        let v = shared i in
        !results.(i) <- v;
        !stamp.(i) <- gen;
        v
      end
    and shared i =
      let key = key_of i in
      match String_tbl.find_opt memo key with
      | Some v -> v
      | None ->
        incr misses;
        let p = !nodes.(i) in
        let inputs = List.map go (Array.to_list !kids.(i)) in
        let rows = node_rows renv p inputs in
        let total =
          match p.Plan.op with
          | Physical.Choose_plan ->
            Cost_model.choose_plan_cost renv (List.map (fun v -> v.total) inputs)
          | _ ->
            let cm_inputs =
              List.map2
                (fun (child : Plan.t) v ->
                  { Cost_model.rows = v.rows;
                    bytes_per_row = child.Plan.bytes_per_row })
                p.Plan.inputs inputs
            in
            let own =
              Cost_model.own_cost renv p.Plan.op ~inputs:cm_inputs
                ~output_rows:rows
            in
            List.fold_left (fun acc v -> Interval.add acc v.total) own inputs
        in
        let v = { rows; total } in
        String_tbl.add memo key v;
        v
    in
    fun p -> go (number p)
  in
  { value; work = (fun () -> !misses) }

(* --- data-sound cardinalities --------------------------------------------- *)

(* Bounds that hold for the *stored data*, not just the cost model:
   [Database.build] materializes exactly [cardinality] tuples per
   relation, a filter passes between none and all of its input, and an
   equi-join emits at most the product of its inputs.  The optimizer's
   selectivity-modelled estimates are narrower but can be wrong about
   real data (threshold rounding, duplicate join values), so certificates
   must not use them. *)
let sound_rows env (plan : Plan.t) =
  let memo : Interval.t Plan.Pid_tbl.t = Plan.Pid_tbl.create 64 in
  let catalog = Env.catalog env in
  let from0 hi = Interval.make 0. (Float.max 0. hi) in
  let base rel fallback =
    match Catalog.relation catalog rel with
    | Some r -> Interval.point (float_of_int r.Dqep_catalog.Relation.cardinality)
    | None -> from0 fallback.Interval.hi
  in
  let rec go (p : Plan.t) =
    match Plan.Pid_tbl.find_opt memo p.Plan.pid with
    | Some v -> v
    | None ->
      let inputs = List.map go p.Plan.inputs in
      let rows =
        match (p.Plan.op, inputs) with
        | Physical.File_scan rel, [] | Physical.Btree_scan { rel; _ }, [] ->
          base rel p.Plan.rows
        | Physical.Filter _, [ c ] -> from0 c.Interval.hi
        | Physical.Filter_btree_scan { rel; _ }, [] ->
          from0 (base rel p.Plan.rows).Interval.hi
        | Physical.Hash_join _, [ l; r ] | Physical.Merge_join _, [ l; r ] ->
          from0 (l.Interval.hi *. r.Interval.hi)
        | Physical.Index_join { inner_rel; _ }, [ outer ] ->
          from0 (outer.Interval.hi *. (base inner_rel p.Plan.rows).Interval.hi)
        | Physical.Sort _, [ c ] -> c
        | Physical.Choose_plan, first :: rest ->
          List.fold_left Interval.union first rest
        | _, _ -> from0 p.Plan.rows.Interval.hi
      in
      Plan.Pid_tbl.add memo p.Plan.pid rows;
      rows
  in
  ignore (go plan);
  fun (p : Plan.t) -> Plan.Pid_tbl.find memo p.Plan.pid

(* --- resource bounds ------------------------------------------------------ *)

(* Byte math in floats, clamped into int at the end: sound upper bounds
   over a 10-way join can overflow 63-bit bytes long before any plan is
   admissible, and saturating at max_int keeps the verdict ("does not
   fit") correct. *)
let to_bytes f =
  if f >= float_of_int max_int then max_int else int_of_float (Float.ceil f)

let ceil_rows (iv : Interval.t) = Float.ceil iv.Interval.hi
let floor_rows (iv : Interval.t) = Float.ceil iv.Interval.lo

type cert = {
  worst_bytes : int;
  worst_io_pages : float;
  rows : Interval.t;
}

(* Sound worst case on bytes simultaneously held against the governor.

   Discipline (Exec_common, Executor, Batch_exec, Checkpoint): a hash
   join charges its materialized build side (never more — Grace
   partitions are charged one at a time and each is at most the build);
   a sort charges at most its materialized input (runs are charged one
   at a time and each is at most the input); a merge join holds its
   materialized right side; a checkpoint registry additionally holds the
   hash build and sorted output until the run ends.  Charges of
   different operators can overlap (a merge join's right side is held
   while its left subtree executes; checkpoints are held to the end), so
   the bound *sums* every operator's worst charge — at a choose node
   only one alternative runs, so alternatives combine by max. *)
let worst_bytes_of ~checkpoints env (plan : Plan.t) =
  let rows = sound_rows env plan in
  let bytes_hi (p : Plan.t) =
    ceil_rows (rows p) *. float_of_int (Int.max 1 p.Plan.bytes_per_row)
  in
  let memo : float Plan.Pid_tbl.t = Plan.Pid_tbl.create 64 in
  let rec go (p : Plan.t) =
    match Plan.Pid_tbl.find_opt memo p.Plan.pid with
    | Some v -> v
    | None ->
      let v =
        match (p.Plan.op, p.Plan.inputs) with
        | Physical.Choose_plan, alts ->
          List.fold_left (fun acc a -> Float.max acc (go a)) 0. alts
        | Physical.Hash_join _, [ l; r ] ->
          let build = bytes_hi l in
          go l +. go r +. build +. (if checkpoints then build else 0.)
        | Physical.Merge_join _, [ l; r ] -> go l +. go r +. bytes_hi r
        | Physical.Sort _, [ c ] ->
          go c +. bytes_hi c +. (if checkpoints then bytes_hi p else 0.)
        | _, inputs -> List.fold_left (fun acc c -> acc +. go c) 0. inputs
      in
      Plan.Pid_tbl.add memo p.Plan.pid v;
      v
  in
  go plan

(* Modelled worst-case physical I/O in pages: base pages per scan, index
   descents, spill traffic (both Grace sides written and re-read per
   recursion level, sorted runs written and re-read once).  Unlike
   [worst_bytes_of] this is a cost-model statement, not a guarantee —
   reported on the certificate for sizing, never for admission. *)
let worst_io_of env (plan : Plan.t) =
  let catalog = Env.catalog env in
  let rows = sound_rows env plan in
  let pages_of (p : Plan.t) =
    Cost_model.pages_for env ~rows:(ceil_rows (rows p))
      ~bytes_per_row:(Int.max 1 p.Plan.bytes_per_row)
  in
  let rel_pages rel =
    match Catalog.relation catalog rel with
    | Some _ -> float_of_int (Catalog.pages catalog rel)
    | None -> 0.
  in
  let depth rel =
    match Catalog.relation catalog rel with
    | Some _ -> float_of_int (Cost_model.index_depth env rel)
    | None -> 0.
  in
  let memo : float Plan.Pid_tbl.t = Plan.Pid_tbl.create 64 in
  let rec go (p : Plan.t) =
    match Plan.Pid_tbl.find_opt memo p.Plan.pid with
    | Some v -> v
    | None ->
      let own =
        match p.Plan.op with
        | Physical.File_scan rel -> rel_pages rel
        | Physical.Btree_scan { rel; _ } | Physical.Filter_btree_scan { rel; _ }
          ->
          rel_pages rel +. depth rel
        | Physical.Filter _ -> 0.
        | Physical.Hash_join _ -> (
          match p.Plan.inputs with
          | [ l; r ] -> 3. *. 2. *. (pages_of l +. pages_of r)
          | _ -> 0.)
        | Physical.Merge_join _ -> 0.
        | Physical.Sort _ -> (
          match p.Plan.inputs with [ c ] -> 2. *. pages_of c | _ -> 0.)
        | Physical.Index_join { inner_rel; _ } -> (
          match p.Plan.inputs with
          | [ outer ] -> ceil_rows (rows outer) *. (depth inner_rel +. 1.)
          | _ -> 0.)
        | Physical.Choose_plan -> 0.
      in
      let v =
        match p.Plan.op with
        | Physical.Choose_plan ->
          List.fold_left (fun acc a -> Float.max acc (go a)) 0. p.Plan.inputs
        | _ -> List.fold_left (fun acc c -> acc +. go c) own p.Plan.inputs
      in
      Plan.Pid_tbl.add memo p.Plan.pid v;
      v
  in
  go plan

let certificate ?(checkpoints = false) env (plan : Plan.t) =
  { worst_bytes = to_bytes (worst_bytes_of ~checkpoints env plan);
    worst_io_pages = worst_io_of env plan;
    rows = sound_rows env plan plan }

(* Sound lower bound on the largest single governor charge every
   execution of [plan] must make, under a governor budget of
   [budget_bytes].

   Per operator (charging discipline as in [worst_bytes_of]):

   - a merge join always charges its full materialized right side;
   - a sort over a non-empty input charges either the whole input
     (in-memory) or at least one run, and a run is at least a page's
     worth of bytes (or the whole input if smaller);
   - a hash join over a non-empty build side eventually joins some
     partition in memory; Grace recursion stops at depth 3 and the
     fanout is at most [max 2 (mem - 1)] per level, where the governed
     grant [mem] never exceeds [min (env grant) (budget / page_bytes)]
     — so by pigeonhole some in-memory partition holds at least
     [build_lo / fanout^3] tuples.

   Charges of different operators need not overlap in time, so node
   floors combine by max along the tree, and by min across choose
   alternatives (any alternative might be the one that runs).

   Returns a lazy memoized lookup: each queried node's subtree is walked
   once, so per-alternative queries (the coverage analysis asks for
   choose alternatives per region) share all common subtrees. *)
let floors env ~budget_bytes ~rows_of =
  let catalog = Env.catalog env in
  let page_bytes = Catalog.page_bytes catalog in
  let mem_cap =
    Int.max 2
      (Int.min
         (Int.max 2 (int_of_float (Interval.mid (Env.memory_pages env))))
         (budget_bytes / Int.max 1 page_bytes))
  in
  let fanout = float_of_int (Int.max 2 (mem_cap - 1)) in
  let bytes_lo (p : Plan.t) =
    floor_rows (rows_of p) *. float_of_int (Int.max 1 p.Plan.bytes_per_row)
  in
  let memo : float Plan.Pid_tbl.t = Plan.Pid_tbl.create 64 in
  let rec go (p : Plan.t) =
    match Plan.Pid_tbl.find_opt memo p.Plan.pid with
    | Some v -> v
    | None ->
      let own =
        match (p.Plan.op, p.Plan.inputs) with
        | Physical.Merge_join _, [ _; r ] -> bytes_lo r
        | Physical.Sort _, [ c ] ->
          if floor_rows (rows_of c) < 1. then 0.
          else Float.min (bytes_lo c) (float_of_int page_bytes)
        | Physical.Hash_join _, [ l; _ ] ->
          let n = floor_rows (rows_of l) in
          if n < 1. then 0.
          else
            Float.ceil (n /. (fanout *. fanout *. fanout))
            *. float_of_int (Int.max 1 l.Plan.bytes_per_row)
        | _, _ -> 0.
      in
      let v =
        match p.Plan.op with
        | Physical.Choose_plan ->
          List.fold_left
            (fun acc a -> Float.min acc (go a))
            infinity p.Plan.inputs
        | _ -> List.fold_left (fun acc c -> Float.max acc (go c)) own p.Plan.inputs
      in
      Plan.Pid_tbl.add memo p.Plan.pid v;
      v
  in
  fun (p : Plan.t) ->
    let v = go p in
    if Float.is_finite v then to_bytes v else 0

let guaranteed_bytes env ~budget_bytes (plan : Plan.t) =
  floors env ~budget_bytes ~rows_of:(sound_rows env plan) plan

(* Per-region, model-based variant of the floor, used by the coverage
   analysis to ask: could this alternative run within the budget for
   *some* data the model considers possible in this region?  Uses the
   modelled (optimistic) row lower bounds from [eval] instead of the
   data-sound ones — planning-level viability, not a runtime
   guarantee. *)
let modelled_floor env ~budget_bytes (values : Plan.t -> value) (plan : Plan.t)
    =
  floors env ~budget_bytes ~rows_of:(fun p -> (values p).rows) plan
