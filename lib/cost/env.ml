module Interval = Dqep_util.Interval
module Predicate = Dqep_algebra.Predicate

type t = {
  catalog : Dqep_catalog.Catalog.t;
  device : Device.t;
  selectivity : string -> Interval.t;
  memory : Interval.t;
}

(* The resilient executor's default I/O guard factor; its only setting
   is [Resilience.config.io_budget_factor]. *)
let default_io_budget_factor = 4.

let make ~catalog ~device ~selectivity ~memory_pages () =
  { catalog; device; selectivity; memory = memory_pages }

let unit_interval = Interval.make 0. 1.

let dynamic ?(memory = Interval.point 64.) ?(selectivity_bounds = [])
    ?(device = Device.default) catalog =
  let selectivity var =
    match List.assoc_opt var selectivity_bounds with
    | Some bounds -> bounds
    | None -> unit_interval
  in
  { catalog; device; selectivity; memory }

let static ?(default_selectivity = 0.05) ?(memory_pages = 64)
    ?(device = Device.default) catalog =
  let s = Interval.point default_selectivity in
  { catalog;
    device;
    selectivity = (fun _ -> s);
    memory = Interval.point (float_of_int memory_pages) }

let of_bindings ?(device = Device.default) catalog bindings =
  { catalog;
    device;
    selectivity =
      (fun v -> Interval.point (Bindings.selectivity bindings v));
    memory = Interval.point (float_of_int bindings.Bindings.memory_pages) }

let catalog t = t.catalog
let device t = t.device
let memory_pages t = t.memory
let io_budget_factor _ = default_io_budget_factor

(* Same bindings, different memory grant: the resilient executor
   re-resolves dynamic plans under a lowered memory environment after a
   memory-budget abort, so the decision procedure prefers a lower-memory
   alternative. *)
let with_memory_pages t memory = { t with memory }

(* Feedback re-optimization: narrow each listed host variable's prior by
   its observed band, once, here (refinement never steps outside the
   prior, so re-costing with the refined env cannot assume better than
   the priors other plan costs were derived under).  Unlisted variables
   keep their prior. *)
let refine_dists t ~selectivities =
  match selectivities with
  | [] -> t
  | _ ->
    let refined =
      List.map
        (fun (var, band) -> (var, Interval.refine (t.selectivity var) band))
        selectivities
    in
    let prior = t.selectivity in
    let selectivity var =
      match List.assoc_opt var refined with
      | Some i -> i
      | None -> prior var
    in
    { t with selectivity }

let selectivity t (p : Predicate.select) =
  match p.selectivity with
  | Predicate.Bound s -> Interval.point s
  | Predicate.Host_var v -> t.selectivity v

let host_selectivity t var = t.selectivity var

(* The [q]-quantile of an interval's two-point, equal-mass embedding
   (half the mass on each bound), by the midpoint rule: each bound sits
   at the middle of its mass, levels 1/4 and 3/4, and the quantile is
   linear between them.  Level 0 is exactly [lo] and level 1 exactly
   [hi]. *)
let quantile (i : Interval.t) q =
  if Interval.is_point i || q <= 0.25 then i.Interval.lo
  else if q >= 0.75 then i.Interval.hi
  else
    let frac = (q -. 0.25) /. (0.75 -. 0.25) in
    i.Interval.lo +. (frac *. (i.Interval.hi -. i.Interval.lo))

let scenario_levels = 8

(* The scenario grid: [scenario_levels] equally weighted point
   environments at levels q_j = j/7.  Scenario [j] binds every
   selectivity to its [q_j]-quantile and the memory grant to its
   [(1 - q_j)]-quantile — selectivities and memory move {e against}
   each other, so the two extreme scenarios are exactly the two corners
   the interval cost model's [own_cost] evaluates: (all-lo selectivity,
   hi memory) and (all-hi selectivity, lo memory).  Any cost evaluated
   under a scenario therefore lies within the interval cost's bounds,
   which is what keeps rank-based pruning sound. *)
let scenarios t =
  let w = 1. /. float_of_int scenario_levels in
  List.init scenario_levels (fun j ->
      let q = float_of_int j /. float_of_int (scenario_levels - 1) in
      let selectivity var = Interval.point (quantile (t.selectivity var) q) in
      let memory = Interval.point (quantile t.memory (1. -. q)) in
      (w, { t with selectivity; memory }))
