(* The registry of run-time observations.

   A supervised run learns cardinalities in two ways.  The spilling
   cores (Exec_common) fully materialize an input at two natural
   barriers — a hash join's completed build side and a sort's sorted
   output — and [take] captures those checkpoints, checked against the
   validity band the subplan was costed under: a busted estimate becomes
   a typed, recoverable fault ([Estimate_busted]) instead of a silent
   cost-correctness failure.  The observation step (Resilience.observe)
   evaluates a subplan its choose-plan alternatives share and [file]s the
   result with no band check, to re-decide with it.  Either way the entry is
   governor-accounted, durable-until-release state, and it serves the
   same two purposes: observed cardinalities for the decision procedure
   ([overrides_for]) and materialized inputs for the executor
   ([resume_for]) — a bounded retry, a failover or an incremental
   re-optimization resumes from it instead of redoing the work.

   Entries are keyed by the *logical fingerprint* ([Plan.fingerprints]:
   relation set plus the selection predicates applied in the subtree),
   not by plan-node pid: a replanned query's nodes carry fresh pids, but
   a node computing the same logical result finds the entry by content.
   Column order may differ between the stored subplan and the node being
   spliced over (a different join order concatenates schemas
   differently), so serving remaps tuples into the target schema, and
   sorts them for a node that promises an order they lack. *)

module Interval = Dqep_util.Interval
module Schema = Dqep_algebra.Schema
module Props = Dqep_algebra.Props
module Col = Dqep_algebra.Col
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

exception
  Estimate_busted of {
    pid : int;
    observed : int;
    lo : float;
    hi : float;
  }

let () =
  Printexc.register_printer (function
    | Estimate_busted { pid; observed; lo; hi } ->
      Some
        (Printf.sprintf
           "Checkpoint.Estimate_busted(pid %d: observed %d outside [%.1f, %.1f])"
           pid observed lo hi)
    | _ -> None)

type entry = {
  rels : string list;
  schema : Schema.t;  (* column order of the stored tuples *)
  order : Col.t list option;  (* sort order the tuples were produced in *)
  tuples : Exec_common.tuple list;
  observed_rows : int;
  bytes : int;  (* charged against the governor until [release] *)
}

type t = {
  enabled : bool;
  gov : Governor.t;
  obs : Trace.t;
  tolerance : float;
  mutable entries : (string * entry) list;  (* by fingerprint *)
  mutable busted : string list;  (* fingerprints already reported *)
}

let disabled =
  { enabled = false;
    gov = Governor.none;
    obs = Trace.null;
    tolerance = infinity;
    entries = [];
    busted = [] }

let default_tolerance = 4.0

let create ?(tolerance = default_tolerance) ?(gov = Governor.none)
    ?(obs = Trace.null) () =
  if tolerance <= 1. then invalid_arg "Checkpoint.create: tolerance <= 1";
  { enabled = true; gov; obs; tolerance; entries = []; busted = [] }

let entry_count t = List.length t.entries

(* Store [tuples] as [plan]'s entry under [fp], charging the governor for
   the bytes held.  An entry that does not fit the memory budget is
   skipped — materialization limits never fail the query. *)
let store t (plan : Plan.t) fp ~schema tuples =
  let observed = List.length tuples in
  let bytes = observed * Int.max 1 plan.Plan.bytes_per_row in
  match Governor.charge t.gov bytes with
  | () ->
    let order =
      match plan.Plan.props.Props.order with
      | Props.Unordered -> None
      | Props.Ordered cols -> Some cols
    in
    t.entries <-
      ( fp,
        { rels = plan.Plan.rels; schema; order; tuples; observed_rows = observed;
          bytes } )
      :: t.entries;
    Some bytes
  | exception Governor.Memory_exceeded _ -> None

(* The acceptance range of [plan]'s cardinality: the point estimate of
   the resolution environment widened by the tolerance factor.  An
   observation outside it means the plan was chosen on assumptions
   reality does not honor.  The +1 slack keeps near-zero cardinalities
   from producing an empty band on either side: estimating 0 rows and
   observing [tolerance] of them is noise, and so is observing 0 rows of
   a small positive estimate. *)
let band_of env (plan : Plan.t) ~tolerance =
  let est = Startup.estimated_rows env plan in
  Interval.make
    (Float.max 0. (((est +. 1.) /. tolerance) -. 1.))
    ((est +. 1.) *. tolerance)

(* Checkpoint a blocking point.  Idempotent per fingerprint: a resumed or
   replanned execution reaching the same blocking point revalidates
   nothing and charges nothing.  Raises [Estimate_busted] (once per
   fingerprint) when the observation escapes the validity band; the
   entry is stored *before* raising so recovery can splice over it. *)
let take t env (plan : Plan.t) ~schema tuples =
  if t.enabled then begin
    let fp = Plan.fingerprint plan in
    if not (List.mem_assoc fp t.entries || List.mem fp t.busted) then begin
      (match store t plan fp ~schema tuples with
      | Some bytes ->
        Trace.incr t.obs Counter.Checkpoints_taken;
        Trace.add t.obs Counter.Checkpoint_bytes bytes
      | None -> ());
      let observed = List.length tuples in
      let band = band_of env plan ~tolerance:t.tolerance in
      if not (Interval.contains band (float_of_int observed)) then begin
        t.busted <- fp :: t.busted;
        raise
          (Estimate_busted
             { pid = plan.Plan.pid;
               observed;
               lo = band.Interval.lo;
               hi = band.Interval.hi })
      end
    end
  end

(* A mid-query observation: the same entry as a checkpoint, filed without
   a band check — the caller evaluated [plan] precisely to re-decide
   with what it delivers. *)
let file t (plan : Plan.t) ~schema tuples =
  t.enabled
  &&
  let fp = Plan.fingerprint plan in
  List.mem_assoc fp t.entries || Option.is_some (store t plan fp ~schema tuples)

(* Column remap from the stored schema into [target]; [None] when the
   column sets differ (not the same logical row layout after all). *)
let remap_of ~src ~target =
  let src_cols = Schema.columns src and dst_cols = Schema.columns target in
  if src_cols = dst_cols then Some None
  else if Array.length src_cols <> Array.length dst_cols then None
  else
    let positions =
      Array.map (fun c -> Schema.position src c) dst_cols
    in
    if Array.for_all Option.is_some positions then
      Some (Some (Array.map Option.get positions))
    else None

(* Tuples sorted by [a; b] are sorted by [a], so an order promise is
   kept when it is a prefix of the stored order.  Remapping permutes
   columns, not rows, so the stored order survives the remap. *)
let rec order_prefix req stored =
  match (req, stored) with
  | [], _ -> true
  | r :: req', s :: stored' -> Col.equal r s && order_prefix req' stored'
  | _ :: _, [] -> false

(* How an entry's tuples become a node's: a column remap, and the
   positions to sort by when the node promises an order the stored
   tuples lack. *)
type serve = {
  remap : int array option;
  sort_by : int list option;
}

(* Every node of [plan] an entry can stand in for: equal fingerprint and
   columns remappable into the node's schema.  An ordered node whose
   order the stored tuples lack is served them sorted.  [overrides_for]
   and [resume_for] answer from this one predicate because they form a
   contract: [Startup.resolve] keeps an overridden node's subtree
   verbatim — unresolved choose nodes and all — on the promise that the
   executor splices the materialized tuples in by pid.  An override
   without a matching splice would hand those choose nodes to
   context-free compile-time decisions.  An empty registry answers
   before numbering the plan. *)
let servable t catalog (plan : Plan.t) =
  if t.entries = [] then []
  else begin
    let dag = Plan.Dag.of_plan plan in
    let fps = Plan.fingerprints dag in
    let out = ref [] in
    for i = 0 to dag.Plan.Dag.length - 1 do
      match List.assoc_opt fps.(i) t.entries with
      | None -> ()
      | Some entry -> (
        let node = dag.Plan.Dag.nodes.(i) in
        let target = Plan.schema catalog node in
        match remap_of ~src:entry.schema ~target with
        | None -> ()
        | Some remap -> (
          match node.Plan.props.Props.order with
          | Props.Ordered cols
            when not (order_prefix cols (Option.value entry.order ~default:[]))
            -> (
            match List.map (Schema.position target) cols with
            | positions when List.for_all Option.is_some positions ->
              out :=
                ( node,
                  entry,
                  { remap; sort_by = Some (List.map Option.get positions) } )
                :: !out
            | _ -> ())
          | Props.Ordered _ | Props.Unordered ->
            out := (node, entry, { remap; sort_by = None }) :: !out))
    done;
    !out
  end

(* Every node of [plan] an entry can serve, with tuples remapped into
   the node's schema (and sorted where it promises an order).  Counts
   one [Resume_hits] per distinct entry that found at least one node. *)
let resume_for t db (plan : Plan.t) =
  match servable t (Database.catalog db) plan with
  | [] -> []
  | served ->
    let hits = ref [] in
    let out =
      List.map
        (fun ((node : Plan.t), entry, { remap; sort_by }) ->
          if not (List.memq entry !hits) then hits := entry :: !hits;
          let tuples =
            match remap with
            | None -> entry.tuples
            | Some perm ->
              List.map (fun t -> Array.map (fun p -> t.(p)) perm) entry.tuples
          in
          ( node.Plan.pid,
            match sort_by with
            | None -> tuples
            | Some positions ->
              List.stable_sort (Exec_common.compare_on positions) tuples ))
        served
    in
    Trace.add t.obs Counter.Resume_hits (List.length !hits);
    out

(* Observed cardinalities for [plan]'s nodes, as Startup overrides: the
   decision procedure re-decides against reality.  Only nodes an entry
   will actually serve — see [servable]. *)
let overrides_for t db (plan : Plan.t) =
  List.map
    (fun ((node : Plan.t), entry, _) ->
      (node.Plan.pid, float_of_int entry.observed_rows))
    (servable t (Database.catalog db) plan)

(* Observations keyed by relation set — the currency of the observation
   cache and of incremental re-optimization (memo groups file their row
   intervals under the same key). *)
let rels_observations t =
  List.map
    (fun (_, e) ->
      (String.concat "|" e.rels, float_of_int e.observed_rows))
    t.entries

(* Roll every entry's bytes back out of the governor and drop the
   intermediates.  Always called when the supervised run ends (either
   arm), so entry bytes can never leak through a shared pool. *)
let release t =
  if t.entries <> [] then begin
    List.iter (fun (_, e) -> Governor.release t.gov e.bytes) t.entries;
    t.entries <- []
  end
