module Interval = Dqep_util.Interval
module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Physical = Dqep_algebra.Physical

type input = { rows : Interval.t; bytes_per_row : int }

(* Fractional page count of [rows] tuples [width] bytes wide. *)
let pages ~page ~width rows = Float.max 1. (rows *. width /. page)

let page_size env = float_of_int (Catalog.page_bytes (Env.catalog env))

let pages_for env ~rows ~bytes_per_row =
  pages ~page:(page_size env) ~width:(float_of_int bytes_per_row) rows

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

(* The cost formulas, staged.  [prepare] does everything that depends
   only on the catalog and the device — relation sizes, index depths,
   per-probe costs, page sizes — and leaves constants in [k]; [apply]
   is the formula at one concrete parameter point, float arithmetic in
   the original evaluation order.  [own_cost] applies it at the interval
   corners for the optimizer, and start-up programs keep the prepared
   constants of every plan node and apply them at a point (activation)
   or at a box's two corners (static analysis): one body, two layouts.
   Monotone non-decreasing in every row count and non-increasing in
   [mem], which is what keeps a point's cost between the corners'. *)
type opcode = Const | Filter | Index_range | Hash | Merge | Probe | Sort

let stage_width = 5

let need op ~arity n = if arity <> n then arity_error op

let prepare env op ~arity ~width0 ~width1 k off =
  let d = Env.device env in
  match op with
  | Physical.File_scan rel ->
    let card, pages = rel_info env rel in
    k.(off) <- (pages *. d.Device.seq_page_io) +. (card *. d.Device.cpu_per_tuple);
    Const
  | Physical.Btree_scan { rel; _ } ->
    (* Full retrieval in index order: walk all leaves, fetch every
       record through the unclustered index. *)
    let card, _ = rel_info env rel in
    let leaves = Float.max 1. (card /. leaf_fanout env) in
    k.(off) <-
      (float_of_int (index_depth env rel) *. d.Device.random_page_io)
      +. (leaves *. d.Device.seq_page_io)
      +. (card *. (d.Device.random_page_io +. d.Device.cpu_per_tuple));
    Const
  | Physical.Filter _ ->
    need op ~arity 1;
    k.(off) <- d.Device.cpu_per_compare;
    Filter
  | Physical.Filter_btree_scan { rel; _ } ->
    k.(off) <- float_of_int (index_depth env rel) *. d.Device.random_page_io;
    k.(off + 1) <- leaf_fanout env;
    k.(off + 2) <- d.Device.seq_page_io;
    k.(off + 3) <- d.Device.random_page_io +. d.Device.cpu_per_tuple;
    Index_range
  | Physical.Hash_join _ ->
    need op ~arity 2;
    k.(off) <- d.Device.cpu_per_tuple;
    k.(off + 1) <- page_size env;
    k.(off + 2) <- float_of_int width0;
    k.(off + 3) <- float_of_int width1;
    k.(off + 4) <- d.Device.seq_page_io;
    Hash
  | Physical.Merge_join _ ->
    need op ~arity 2;
    k.(off) <- d.Device.cpu_per_tuple +. d.Device.cpu_per_compare;
    k.(off + 1) <- d.Device.cpu_per_tuple;
    Merge
  | Physical.Index_join { inner_rel; inner_attr; _ } ->
    need op ~arity 1;
    let inner_card, _ = rel_info env inner_rel in
    let dom =
      float_of_int
        (Catalog.domain_size (Env.catalog env) ~rel:inner_rel ~attr:inner_attr)
    in
    let matches_per_probe = inner_card /. dom in
    k.(off) <-
      (float_of_int (index_depth env inner_rel) *. d.Device.random_page_io)
      +. (matches_per_probe
          *. (d.Device.random_page_io +. d.Device.cpu_per_tuple));
    k.(off + 1) <- d.Device.cpu_per_tuple;
    Probe
  | Physical.Sort _ ->
    need op ~arity 1;
    k.(off) <- d.Device.cpu_per_compare;
    k.(off + 1) <- page_size env;
    k.(off + 2) <- float_of_int width0;
    k.(off + 3) <- d.Device.seq_page_io;
    Sort
  | Physical.Choose_plan ->
    k.(off) <- d.Device.choose_plan_overhead;
    Const

let[@inline] apply code k off ~in0 ~in1 ~out ~mem =
  match code with
  | Const -> k.(off)
  | Filter -> in0 *. k.(off)
  | Index_range ->
    (* [out] is exactly the matching cardinality. *)
    k.(off)
    +. (Float.max 1. (out /. k.(off + 1)) *. k.(off + 2))
    +. (out *. k.(off + 3))
  | Hash ->
    let cpu = (in0 +. in1 +. out) *. k.(off) in
    let page = k.(off + 1) in
    let build_pages = pages ~page ~width:k.(off + 2) in0 in
    if build_pages <= mem -. 1. then cpu
    else begin
      (* Grace hash join: partition both inputs to disk and back,
         possibly over several passes. *)
      let probe_pages = pages ~page ~width:k.(off + 3) in1 in
      let n = passes ~mem ~pages:build_pages in
      cpu
      +. (2. *. (build_pages +. probe_pages) *. k.(off + 4) *. float_of_int n)
    end
  | Merge -> ((in0 +. in1) *. k.(off)) +. (out *. k.(off + 1))
  | Probe -> (in0 *. k.(off)) +. (out *. k.(off + 1))
  | Sort ->
    let cpu = in0 *. (log (Float.max 2. in0) /. log 2.) *. k.(off) in
    let pages = pages ~page:k.(off + 1) ~width:k.(off + 2) in0 in
    if pages <= mem then cpu
    else
      let n = passes ~mem ~pages in
      cpu +. (2. *. pages *. k.(off + 3) *. float_of_int n)

(* The first two inputs, absent ones as empty: [prepare] rejects a
   wrong arity and [apply] ignores inputs beyond it. *)
let first_two none = function
  | [] -> (none, none)
  | [ a ] -> (a, none)
  | a :: b :: _ -> (a, b)

let no_input = { rows = Interval.zero; bytes_per_row = 0 }

let own_cost env op ~inputs ~output_rows =
  let mem = Env.memory_pages env in
  let a, b = first_two no_input inputs in
  let k = Array.make stage_width 0. in
  let code =
    prepare env op ~arity:(List.length inputs) ~width0:a.bytes_per_row
      ~width1:b.bytes_per_row k 0
  in
  (* The cheap corner takes every cardinality at its low bound and memory
     at its high one (cost decreases with memory); the dear corner the
     opposite. *)
  let lo =
    apply code k 0 ~in0:a.rows.Interval.lo ~in1:b.rows.Interval.lo
      ~out:output_rows.Interval.lo ~mem:mem.Interval.hi
  in
  let hi =
    apply code k 0 ~in0:a.rows.Interval.hi ~in1:b.rows.Interval.hi
      ~out:output_rows.Interval.hi ~mem:mem.Interval.lo
  in
  (* Guard against float noise breaking the interval invariant. *)
  Interval.make (Float.min lo hi) (Float.max lo hi)

let choose_plan_cost env alternatives =
  match alternatives with
  | [] -> invalid_arg "Cost_model.choose_plan_cost: no alternatives"
  | first :: rest ->
    let combined = List.fold_left Interval.combine_min first rest in
    Interval.add
      (Interval.point (Env.device env).Device.choose_plan_overhead)
      combined
