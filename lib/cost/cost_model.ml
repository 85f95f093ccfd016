module Interval = Dqep_util.Interval
module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Physical = Dqep_algebra.Physical

type input = { rows : Interval.t; bytes_per_row : int }
type dist_input = { drows : Dist.t; dbytes_per_row : int }

let pages_for env ~rows ~bytes_per_row =
  let page = float_of_int (Catalog.page_bytes (Env.catalog env)) in
  Float.max 1. (rows *. float_of_int bytes_per_row /. page)

(* B-tree geometry mirrors Btree.capacities: ~16 bytes per entry and per
   child pointer, packed at 90%. *)
let index_depth env rel =
  let page_bytes = Catalog.page_bytes (Env.catalog env) in
  let fanout = Float.max 2. (float_of_int (page_bytes / 16) *. 0.9) in
  let card = float_of_int (Catalog.relation_exn (Env.catalog env) rel).Relation.cardinality in
  let leaves = Float.max 1. (ceil (card /. fanout)) in
  let rec levels n acc = if n <= 1. then acc else levels (ceil (n /. fanout)) (acc + 1) in
  levels leaves 1 + 1

let leaf_fanout env =
  let page_bytes = Catalog.page_bytes (Env.catalog env) in
  Float.max 2. (float_of_int (page_bytes / 16) *. 0.9)

let rel_info env rel =
  let r = Catalog.relation_exn (Env.catalog env) rel in
  let pages = float_of_int (Relation.pages ~page_bytes:(Catalog.page_bytes (Env.catalog env)) r) in
  (float_of_int r.cardinality, pages)

(* Number of partition/merge passes over data of [pages] pages given
   [mem] buffer pages. *)
let passes ~mem ~pages =
  let f = Float.max 2. (mem -. 1.) in
  let rec go p acc = if p <= f then acc else go (p /. f) (acc + 1) in
  go (Float.max 1. (pages /. f)) 1

let arity_error op =
  invalid_arg ("Cost_model.own_cost: bad inputs for " ^ Physical.name op)

(* The cost formula at one concrete parameter point: cardinalities and
   the memory grant are plain floats here.  [own_cost] evaluates it at
   the interval corners, [own_cost_dist] over the scenario grid — one
   body, two uncertainty views.  Monotone non-decreasing in every row
   count and non-increasing in [mem_v], which is what makes both views
   agree on the hull. *)
let point_cost env op ~arity ~in_rows ~in_width ~out ~mem_v =
  let d = Env.device env in
    match op with
    | Physical.File_scan rel ->
      let card, pages = rel_info env rel in
      (pages *. d.Device.seq_page_io) +. (card *. d.Device.cpu_per_tuple)
    | Physical.Btree_scan { rel; _ } ->
      (* Full retrieval in index order: walk all leaves, fetch every
         record through the unclustered index. *)
      let card, _ = rel_info env rel in
      let leaves = Float.max 1. (card /. leaf_fanout env) in
      (float_of_int (index_depth env rel) *. d.Device.random_page_io)
      +. (leaves *. d.Device.seq_page_io)
      +. (card *. (d.Device.random_page_io +. d.Device.cpu_per_tuple))
    | Physical.Filter _ ->
      if arity <> 1 then arity_error op
      else in_rows 0 *. d.Device.cpu_per_compare
    | Physical.Filter_btree_scan { rel; _ } ->
      (* [output_rows] is exactly the matching cardinality. *)
      let _, _ = rel_info env rel in
      let leaves_touched = Float.max 1. (out /. leaf_fanout env) in
      (float_of_int (index_depth env rel) *. d.Device.random_page_io)
      +. (leaves_touched *. d.Device.seq_page_io)
      +. (out *. (d.Device.random_page_io +. d.Device.cpu_per_tuple))
    | Physical.Hash_join _ ->
      if arity <> 2 then arity_error op
      else begin
        let bl = in_rows 0 and br = in_rows 1 in
        let cpu = ((bl +. br +. out) *. d.Device.cpu_per_tuple) in
        let build_pages = pages_for env ~rows:bl ~bytes_per_row:(in_width 0) in
        if build_pages <= mem_v -. 1. then cpu
        else begin
          (* Grace hash join: partition both inputs to disk and back,
             possibly over several passes. *)
          let probe_pages = pages_for env ~rows:br ~bytes_per_row:(in_width 1) in
          let n = passes ~mem:mem_v ~pages:build_pages in
          cpu
          +. (2. *. (build_pages +. probe_pages) *. d.Device.seq_page_io
              *. float_of_int n)
        end
      end
    | Physical.Merge_join _ ->
      if arity <> 2 then arity_error op
      else
        ((in_rows 0 +. in_rows 1)
         *. (d.Device.cpu_per_tuple +. d.Device.cpu_per_compare))
        +. (out *. d.Device.cpu_per_tuple)
    | Physical.Index_join { inner_rel; inner_attr; _ } ->
      if arity <> 1 then arity_error op
      else begin
        let outer = in_rows 0 in
        let inner_card, _ = rel_info env inner_rel in
        let dom =
          float_of_int
            (Catalog.domain_size (Env.catalog env) ~rel:inner_rel ~attr:inner_attr)
        in
        let matches_per_probe = inner_card /. dom in
        let per_probe =
          (float_of_int (index_depth env inner_rel) *. d.Device.random_page_io)
          +. (matches_per_probe
              *. (d.Device.random_page_io +. d.Device.cpu_per_tuple))
        in
        (outer *. per_probe) +. (out *. d.Device.cpu_per_tuple)
      end
    | Physical.Sort _ ->
      if arity <> 1 then arity_error op
      else begin
        let rows = in_rows 0 in
        let cpu =
          rows *. (log (Float.max 2. rows) /. log 2.) *. d.Device.cpu_per_compare
        in
        let pages = pages_for env ~rows ~bytes_per_row:(in_width 0) in
        if pages <= mem_v then cpu
        else
          let n = passes ~mem:mem_v ~pages in
          cpu +. (2. *. pages *. d.Device.seq_page_io *. float_of_int n)
      end
  | Physical.Choose_plan -> d.Device.choose_plan_overhead

let own_cost env op ~inputs ~output_rows =
  let mem = Env.memory_pages env in
  (* Evaluate one corner: [sel] projects an interval to the relevant
     bound for cardinalities/output, memory is taken at the opposite
     bound (cost decreases with memory). *)
  let corner sel mem_v =
    point_cost env op ~arity:(List.length inputs)
      ~in_rows:(fun i -> sel (List.nth inputs i).rows)
      ~in_width:(fun i -> (List.nth inputs i).bytes_per_row)
      ~out:(sel output_rows) ~mem_v
  in
  let lo = corner (fun (i : Interval.t) -> i.Interval.lo) mem.Interval.hi in
  let hi = corner (fun (i : Interval.t) -> i.Interval.hi) mem.Interval.lo in
  (* Guard against float noise breaking the interval invariant. *)
  Interval.make (Float.min lo hi) (Float.max lo hi)

let own_cost_dist env op ~inputs ~output_rows =
  (* Comonotone scenario evaluation: at grid level [q] every cardinality
     sits at its [q]-quantile and memory at its [(1-q)]-quantile, so the
     extreme levels are exactly [own_cost]'s two corners and the hull of
     the result equals the interval cost. *)
  let mem = Env.memory_pages_dist env in
  let scenario q =
    point_cost env op ~arity:(List.length inputs)
      ~in_rows:(fun i -> Dist.quantile (List.nth inputs i).drows q)
      ~in_width:(fun i -> (List.nth inputs i).dbytes_per_row)
      ~out:(Dist.quantile output_rows q)
      ~mem_v:(Dist.quantile mem (1. -. q))
  in
  Dist.make
    (List.map (fun q -> (scenario q, 1.)) (Dist.scenario_levels ()))

let choose_plan_cost env alternatives =
  match alternatives with
  | [] -> invalid_arg "Cost_model.choose_plan_cost: no alternatives"
  | first :: rest ->
    let combined = List.fold_left Interval.combine_min first rest in
    Interval.add
      (Interval.point (Env.device env).Device.choose_plan_overhead)
      combined

let choose_plan_cost_dist env alternatives =
  match alternatives with
  | [] -> invalid_arg "Cost_model.choose_plan_cost_dist: no alternatives"
  | first :: rest ->
    (* Comonotone minimum: hull is [min lo, min hi] — exactly
       [Interval.combine_min] of the hulls. *)
    let combined = List.fold_left (Dist.lift2 Float.min) first rest in
    Dist.add
      (Dist.point (Env.device env).Device.choose_plan_overhead)
      combined
