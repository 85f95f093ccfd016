module Interval = Dqep_util.Interval
module Predicate = Dqep_algebra.Predicate

(* The environment's uncertainty is carried as distributions; the
   interval API every existing consumer uses is the hull view of the
   same state.  Since [Dist.hull (Dist.of_interval i) = i] exactly, an
   environment built from intervals answers interval queries with the
   very same floats as before the distribution refactor. *)
type t = {
  catalog : Dqep_catalog.Catalog.t;
  device : Device.t;
  selectivity_dist : string -> Dist.t;
  memory_dist : Dist.t;
  point : bool;
}

(* The resilient executor's default I/O guard factor; its only setting
   is [Resilience.config.io_budget_factor]. *)
let default_io_budget_factor = 4.

let make ~catalog ~device ~selectivity ~memory_pages () =
  { catalog;
    device;
    selectivity_dist = (fun v -> Dist.of_interval (selectivity v));
    memory_dist = Dist.of_interval memory_pages;
    point = false }

let dynamic ?(memory = Interval.point 64.) ?(selectivity_bounds = [])
    ?(selectivity_dists = []) ?(device = Device.default) catalog =
  let selectivity_dist var =
    match List.assoc_opt var selectivity_dists with
    | Some d -> d
    | None -> (
      match List.assoc_opt var selectivity_bounds with
      | Some bounds -> Dist.of_interval bounds
      | None -> Dist.of_interval (Interval.make 0. 1.))
  in
  { catalog;
    device;
    selectivity_dist;
    memory_dist = Dist.of_interval memory;
    point = false }

let static ?(default_selectivity = 0.05) ?(memory_pages = 64)
    ?(device = Device.default) catalog =
  { catalog;
    device;
    selectivity_dist = (fun _ -> Dist.point default_selectivity);
    memory_dist = Dist.point (float_of_int memory_pages);
    point = true }

let of_bindings ?(device = Device.default) catalog bindings =
  { catalog;
    device;
    selectivity_dist = (fun v -> Dist.point (Bindings.selectivity bindings v));
    memory_dist = Dist.point (float_of_int bindings.Bindings.memory_pages);
    point = true }

let catalog t = t.catalog
let device t = t.device
let memory_pages t = Dist.hull t.memory_dist
let io_budget_factor _ = default_io_budget_factor

(* Same bindings, different memory grant: the resilient executor
   re-resolves dynamic plans under a lowered memory environment after a
   memory-budget abort, so the decision procedure prefers a lower-memory
   alternative.  Point-ness is preserved only if the new grant is one. *)
let with_memory_pages t memory_pages =
  { t with
    memory_dist = Dist.of_interval memory_pages;
    point = t.point && Interval.is_point memory_pages }

(* Feedback re-optimization: narrow each listed host variable's prior by
   its observed band (refinement never steps outside the prior, so
   re-costing with the refined env cannot assume better than the priors
   other plan costs were derived under).  Unlisted variables keep their
   prior; [point] is cleared unless every consultation still returns a
   point, which we can't know, so a refined env reports interval-ness
   conservatively only when it was already point. *)
let refine_dists t ~selectivities =
  match selectivities with
  | [] -> t
  | _ ->
    let selectivity_dist var =
      let prior = t.selectivity_dist var in
      match List.assoc_opt var selectivities with
      | Some observed -> Dist.refine prior observed
      | None -> prior
    in
    { t with selectivity_dist }

let selectivity_dist t (p : Predicate.select) =
  match p.selectivity with
  | Predicate.Bound s -> Dist.point s
  | Predicate.Host_var v -> t.selectivity_dist v

let selectivity t p = Dist.hull (selectivity_dist t p)
let host_selectivity t var = Dist.hull (t.selectivity_dist var)

let is_point t = t.point

(* The scenario grid: [Dist.default_levels] equally weighted point
   environments.  Scenario [j] binds every selectivity to its
   [q_j]-quantile and the memory grant to its [(1 - q_j)]-quantile —
   selectivities and memory move {e against} each other, so the two
   extreme scenarios are exactly the two corners the interval cost
   model's [own_cost] evaluates: (all-lo selectivity, hi memory) and
   (all-hi selectivity, lo memory).  Any cost evaluated under a scenario
   therefore lies within the interval cost's bounds, which is what keeps
   rank-based pruning sound. *)
let scenarios t =
  let levels = Dist.scenario_levels () in
  let w = 1. /. float_of_int (List.length levels) in
  List.map
    (fun q ->
      let selectivity_dist var =
        Dist.point (Dist.quantile (t.selectivity_dist var) q)
      in
      let memory_dist =
        Dist.point (Dist.quantile t.memory_dist (1. -. q))
      in
      (w, { t with selectivity_dist; memory_dist; point = true }))
    levels
