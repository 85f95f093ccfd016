(* Abstract interpretation of plan DAGs over the interval domain.

   The optimizer already costs plans with intervals, but only at the one
   environment it searched under.  This module makes the interval domain
   a reusable *analysis* domain: plan values (cardinality, cost) are
   evaluated bottom-up through the DAG under any region of the
   choose-plan parameter space, and resource demands (governor-accounted
   working-set bytes, physical I/O pages) are derived over the same
   numbering.  Three kinds of facts come out:

   - {e region values} ([evaluator], one [region] of the parameter space
     at a time): what every node's rows and total cost look like
     anywhere in a box of the parameter space — the plan's start-up
     program ([Startup.box_step]) evaluated over the box, so activation
     and analysis run one layout of the formulas.  The basis for
     coverage and dominance analysis of choose-plan nodes (Analyses);

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
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Cost_model = Dqep_cost.Cost_model
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup

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
  Env.make ~catalog:(Env.catalog env) ~device:(Env.device env)
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

(* Region values come from the plan's start-up program ([Startup]'s
   box evaluation): the same row and cost formulas start-up evaluates at
   a point, evaluated at a region's corners.

   The invariant connecting this to start-up: an activation at a point
   of the region takes each node's own cost at that point, which the
   formulas' monotonicity puts between the cheap and the dear corner,
   and at a choose node the first alternative's rows (inside the hull)
   and the cheapest alternative's total (inside the pointwise minimum).
   So for any point environment inside the region, the point rows and
   totals lie inside these intervals (the point-in-box property of
   [suite_absint]).

   Many-region evaluation shares results across regions.  A node's
   value depends on the environment only through the memory interval and
   the selectivity intervals of host variables occurring in its own
   subtree (rows come from its own predicates and children; own costs
   consult at most those rows and the memory grant).  Keying the memo by
   (index, those intervals) lets regions that agree on a node's
   dimensions share its value — on a deep plan most nodes are
   insensitive to most cut dimensions.  Nodes over the same variables
   share one projection of each region, so the memo's key is a node
   index and a projection number.  [work] counts node evaluations
   performed (memo misses), the currency of the analyses' work
   budgets. *)
type evaluator = {
  full : region;
  value : region -> int -> value;
  work : unit -> int;
}

(* Memo keys are small non-negative ints spread over their low bits. *)
module Int_tbl = Hashtbl.Make (struct
  include Int

  let hash = Fun.id
end)

(* Sorted union of two sorted, duplicate-free arrays; an input that
   already holds the union is returned itself. *)
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

let evaluator ~infeasible env (dag : Plan.Dag.t) =
  let prog = Startup.box_program env dag in
  let names = Startup.vars prog in
  let n = dag.Plan.Dag.length in
  let first = dag.Plan.Dag.first_input and inputs = dag.Plan.Dag.inputs in
  (* The program's host-variable slots occurring in each node's
     subtree, as the number of a distinct set; the union of two numbered
     sets is computed once. *)
  let sets : (int array, int) Hashtbl.t = Hashtbl.create 64 in
  let vars = ref (Array.make 64 [||]) in
  let number vs =
    match Hashtbl.find_opt sets vs with
    | Some k -> k
    | None ->
      let k = Hashtbl.length sets in
      Hashtbl.add sets vs k;
      if k = Array.length !vars then
        vars := Array.append !vars (Array.make k [||]);
      !vars.(k) <- vs;
      k
  in
  let empty = number [||] in
  let unions = Int_tbl.create 64 in
  let set_of = Array.make n empty in
  for i = 0 to n - 1 do
    let s = Startup.slot prog i in
    let acc = ref (if s >= 0 then number [| s |] else empty) in
    for x = first.(i) to first.(i + 1) - 1 do
      let a = !acc and b = set_of.(inputs.(x)) in
      if b <> empty && a <> b then
        acc :=
          if a = empty then b
          else begin
            let key = (Int.min a b lsl 24) lor Int.max a b in
            match Int_tbl.find_opt unions key with
            | Some k -> k
            | None ->
              let k = number (union !vars.(a) !vars.(b)) in
              Int_tbl.add unions key k;
              k
          end
    done;
    set_of.(i) <- !acc
  done;
  let vars = !vars in
  let full =
    { sels =
        Array.to_list (Array.map (fun v -> (v, Env.host_selectivity env v)) names);
      memory = Env.memory_pages env }
  in
  let misses = ref 0 in
  (* Intervals are interned per (dimension, box), so a grid sweep reuses
     a handful of ids per dimension. *)
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
  (* A region's projection on a variable set: the set, the memory box
     and each variable's box, numbered by a compact byte string (the
     generic hash on float lists truncates and collides). *)
  let projections : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let memo : value Int_tbl.t = Int_tbl.create n in
  (* Per-region results by index, valid where [stamp] holds the region's
     generation, so a region allocates nothing per node.  Interleaving
     two regions' lookups stays correct (the memo is keyed by intervals,
     and a miss loads its own region's bounds and inputs into the box)
     and only costs re-lookups. *)
  let results = Array.make n unseen and stamp = Array.make n 0 in
  let generation = ref 0 in
  let box = Startup.box prog and loaded = ref 0 in
  let value (region : region) =
    incr generation;
    let gen = !generation in
    let renv = restrict env region in
    (* Interned box of each variable in this region, filled on first
       use; a variable foreign to the region takes the unit interval. *)
    let dim_ids = Array.make (Array.length names) (-1) in
    let dim_id v =
      if dim_ids.(v) < 0 then begin
        let name = names.(v) in
        dim_ids.(v) <-
          id_of name
            (Option.value ~default:unit_interval (List.assoc_opt name region.sels))
      end;
      dim_ids.(v)
    in
    let mem_id = id_of "" region.memory in
    let projection = Array.make (Hashtbl.length sets) (-1) in
    let key_of i =
      let set = set_of.(i) in
      if projection.(set) < 0 then begin
        let vs = vars.(set) in
        let b = Bytes.create (5 + (2 * Array.length vs)) in
        Bytes.set b 0 (Char.unsafe_chr (set land 0xff));
        Bytes.set b 1 (Char.unsafe_chr ((set lsr 8) land 0xff));
        Bytes.set b 2 (Char.unsafe_chr ((set lsr 16) land 0xff));
        Bytes.set b 3 (Char.unsafe_chr (mem_id land 0xff));
        Bytes.set b 4 (Char.unsafe_chr ((mem_id lsr 8) land 0xff));
        Array.iteri
          (fun j v ->
            let id = dim_id v in
            Bytes.set b (5 + (2 * j)) (Char.unsafe_chr (id land 0xff));
            Bytes.set b (6 + (2 * j)) (Char.unsafe_chr ((id lsr 8) land 0xff)))
          vs;
        let key = Bytes.unsafe_to_string b in
        projection.(set) <-
          (match Hashtbl.find_opt projections key with
          | Some k -> k
          | None ->
            let k = Hashtbl.length projections in
            Hashtbl.add projections key k;
            k)
      end;
      (projection.(set) * n) + i
    in
    let load () =
      if !loaded <> gen then begin
        loaded := gen;
        Array.iteri
          (fun s v ->
            let iv = Env.host_selectivity renv v in
            box.Startup.sel_lo.(s) <- iv.Interval.lo;
            box.Startup.sel_hi.(s) <- iv.Interval.hi)
          names;
        let mem = Env.memory_pages renv in
        box.Startup.mem_lo <- mem.Interval.lo;
        box.Startup.mem_hi <- mem.Interval.hi
      end
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
      match Int_tbl.find_opt memo key with
      | Some v -> v
      | None ->
        incr misses;
        let first = dag.Plan.Dag.first_input in
        (* A choose node's alternatives start-up can never pick (they
           name objects the catalog lacks) drop out of its hull and
           minimum, unless every alternative is such. *)
        let skip =
          match dag.Plan.Dag.nodes.(i).Plan.op with
          | Physical.Choose_plan ->
            let rec any_feasible x =
              x < first.(i + 1)
              && ((not (infeasible dag.Plan.Dag.inputs.(x)))
                 || any_feasible (x + 1))
            in
            if any_feasible first.(i) then infeasible else fun _ -> false
          | _ -> fun _ -> false
        in
        for x = first.(i) to first.(i + 1) - 1 do
          let j = dag.Plan.Dag.inputs.(x) in
          if skip j then begin
            box.Startup.rows_lo.(j) <- Float.infinity;
            box.Startup.rows_hi.(j) <- Float.neg_infinity;
            box.Startup.total_lo.(j) <- Float.infinity;
            box.Startup.total_hi.(j) <- Float.infinity
          end
          else begin
            let v = go j in
            box.Startup.rows_lo.(j) <- v.rows.Interval.lo;
            box.Startup.rows_hi.(j) <- v.rows.Interval.hi;
            box.Startup.total_lo.(j) <- v.total.Interval.lo;
            box.Startup.total_hi.(j) <- v.total.Interval.hi
          end
        done;
        load ();
        Startup.box_step prog box i;
        let v =
          { rows =
              Interval.unchecked ~lo:box.Startup.rows_lo.(i)
                ~hi:box.Startup.rows_hi.(i);
            total =
              Interval.unchecked ~lo:box.Startup.total_lo.(i)
                ~hi:box.Startup.total_hi.(i) }
        in
        Int_tbl.add memo key v;
        v
    in
    go
  in
  { full; value; work = (fun () -> !misses) }

(* --- data-sound cardinalities --------------------------------------------- *)

(* Bounds that hold for the *stored data*, not just the cost model:
   [Database.build] materializes exactly [cardinality] tuples per
   relation, a filter passes between none and all of its input, and an
   equi-join emits at most the product of its inputs.  The optimizer's
   selectivity-modelled estimates are narrower but can be wrong about
   real data (threshold rounding, duplicate join values), so certificates
   must not use them. *)
let sound_rows env (dag : Plan.Dag.t) =
  let catalog = Env.catalog env in
  let from0 hi = Interval.make 0. (Float.max 0. hi) in
  let base rel fallback =
    match Catalog.relation catalog rel with
    | Some r -> Interval.point (float_of_int r.Dqep_catalog.Relation.cardinality)
    | None -> from0 fallback.Interval.hi
  in
  let rows = Array.make dag.Plan.Dag.length unit_interval in
  for i = 0 to dag.Plan.Dag.length - 1 do
    let p = dag.Plan.Dag.nodes.(i) in
    rows.(i) <-
      (match (p.Plan.op, List.map (Array.get rows) (Plan.Dag.inputs dag i)) with
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
      | _, _ -> from0 p.Plan.rows.Interval.hi)
  done;
  rows

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
let worst_bytes_of ~checkpoints (dag : Plan.Dag.t) rows =
  let bytes_hi i =
    ceil_rows rows.(i)
    *. float_of_int (Int.max 1 dag.Plan.Dag.nodes.(i).Plan.bytes_per_row)
  in
  let worst = Array.make dag.Plan.Dag.length 0. in
  for i = 0 to dag.Plan.Dag.length - 1 do
    worst.(i) <-
      (match (dag.Plan.Dag.nodes.(i).Plan.op, Plan.Dag.inputs dag i) with
      | Physical.Choose_plan, alts ->
        List.fold_left (fun acc a -> Float.max acc worst.(a)) 0. alts
      | Physical.Hash_join _, [ l; r ] ->
        let build = bytes_hi l in
        worst.(l) +. worst.(r) +. build +. (if checkpoints then build else 0.)
      | Physical.Merge_join _, [ l; r ] -> worst.(l) +. worst.(r) +. bytes_hi r
      | Physical.Sort _, [ c ] ->
        worst.(c) +. bytes_hi c +. (if checkpoints then bytes_hi i else 0.)
      | _, inputs -> List.fold_left (fun acc c -> acc +. worst.(c)) 0. inputs)
  done;
  worst.(dag.Plan.Dag.length - 1)

(* Modelled worst-case physical I/O in pages: base pages per scan, index
   descents, spill traffic (both Grace sides written and re-read per
   recursion level, sorted runs written and re-read once).  Unlike
   [worst_bytes_of] this is a cost-model statement, not a guarantee —
   reported on the certificate for sizing, never for admission. *)
let worst_io_of env (dag : Plan.Dag.t) rows =
  let catalog = Env.catalog env in
  let pages_of i =
    Cost_model.pages_for env ~rows:(ceil_rows rows.(i))
      ~bytes_per_row:(Int.max 1 dag.Plan.Dag.nodes.(i).Plan.bytes_per_row)
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
  let worst = Array.make dag.Plan.Dag.length 0. in
  for i = 0 to dag.Plan.Dag.length - 1 do
    let inputs = Plan.Dag.inputs dag i in
    let own =
      match (dag.Plan.Dag.nodes.(i).Plan.op, inputs) with
      | Physical.File_scan rel, _ -> rel_pages rel
      | (Physical.Btree_scan { rel; _ } | Physical.Filter_btree_scan { rel; _ }), _
        ->
        rel_pages rel +. depth rel
      | Physical.Hash_join _, [ l; r ] -> 3. *. 2. *. (pages_of l +. pages_of r)
      | Physical.Sort _, [ c ] -> 2. *. pages_of c
      | Physical.Index_join { inner_rel; _ }, [ outer ] ->
        ceil_rows rows.(outer) *. (depth inner_rel +. 1.)
      | _, _ -> 0.
    in
    worst.(i) <-
      (match dag.Plan.Dag.nodes.(i).Plan.op with
      | Physical.Choose_plan ->
        List.fold_left (fun acc a -> Float.max acc worst.(a)) 0. inputs
      | _ -> List.fold_left (fun acc c -> acc +. worst.(c)) own inputs)
  done;
  worst.(dag.Plan.Dag.length - 1)

let certificate ?(checkpoints = false) env (plan : Plan.t) =
  let dag = Plan.Dag.of_plan plan in
  let rows = sound_rows env dag in
  { worst_bytes = to_bytes (worst_bytes_of ~checkpoints dag rows);
    worst_io_pages = worst_io_of env dag rows;
    rows = rows.(dag.Plan.Dag.length - 1) }
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
let floors env ~budget_bytes ~rows_of (dag : Plan.Dag.t) =
  let catalog = Env.catalog env in
  let page_bytes = Catalog.page_bytes catalog in
  let mem_cap =
    Int.max 2
      (Int.min
         (Int.max 2 (int_of_float (Interval.mid (Env.memory_pages env))))
         (budget_bytes / Int.max 1 page_bytes))
  in
  let fanout = float_of_int (Int.max 2 (mem_cap - 1)) in
  let width i =
    float_of_int (Int.max 1 dag.Plan.Dag.nodes.(i).Plan.bytes_per_row)
  in
  let bytes_lo i = floor_rows (rows_of i) *. width i in
  let memo = Array.make dag.Plan.Dag.length Float.nan in
  let rec go i =
    if Float.is_nan memo.(i) then begin
      let inputs = Plan.Dag.inputs dag i in
      let own =
        match (dag.Plan.Dag.nodes.(i).Plan.op, inputs) with
        | Physical.Merge_join _, [ _; r ] -> bytes_lo r
        | Physical.Sort _, [ c ] ->
          if floor_rows (rows_of c) < 1. then 0.
          else Float.min (bytes_lo c) (float_of_int page_bytes)
        | Physical.Hash_join _, [ l; _ ] ->
          let n = floor_rows (rows_of l) in
          if n < 1. then 0.
          else Float.ceil (n /. (fanout *. fanout *. fanout)) *. width l
        | _, _ -> 0.
      in
      memo.(i) <-
        (match dag.Plan.Dag.nodes.(i).Plan.op with
        | Physical.Choose_plan ->
          List.fold_left (fun acc a -> Float.min acc (go a)) infinity inputs
        | _ -> List.fold_left (fun acc c -> Float.max acc (go c)) own inputs)
    end;
    memo.(i)
  in
  fun i ->
    let v = go i in
    if Float.is_finite v then to_bytes v else 0

let guaranteed_bytes env ~budget_bytes (dag : Plan.Dag.t) =
  let rows = sound_rows env dag in
  floors env ~budget_bytes ~rows_of:(Array.get rows) dag
    (dag.Plan.Dag.length - 1)
