(* Checkpointed intermediates at blocking boundaries.

   The spilling cores (Exec_common) fully materialize an input at two
   natural barriers — a hash join's completed build side and a sort's
   sorted output.  A checkpoint registry captures those materializations
   into governor-accounted, durable-until-release state, stamped with the
   validity band the subplan was costed under.  The stamp is what turns a
   busted cardinality estimate from a silent cost-correctness failure
   into a typed, recoverable fault ([Estimate_busted]), and the captured
   tuples are what let recovery — a bounded retry after a transient
   fault, or an incremental re-optimization — resume from the blocking
   point instead of restarting the whole query.

   Entries are keyed by a *logical fingerprint* (relation set plus the
   set of selection predicates applied in the subtree), not by plan-node
   pid: a replanned query's nodes carry fresh pids, but a node computing
   the same logical result finds the checkpoint by content.  Column
   order may differ between the checkpointed subplan and the node being
   spliced over (a different join order concatenates schemas
   differently), so serving remaps tuples into the target schema. *)

module Interval = Dqep_util.Interval
module Schema = Dqep_algebra.Schema
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
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

(* The env intervals and cardinality band the subplan was costed under:
   [prior] is the compile-time rows interval (the optimizer's contract),
   [estimated_rows] the point estimate of the resolution environment, and
   [band] the acceptance range — the point estimate widened by the
   configured tolerance factor.  An observation outside [band] means the
   plan was chosen on assumptions reality does not honor. *)
type stamp = {
  estimated_rows : float;
  band : Interval.t;
  prior : Interval.t;
}

type entry = {
  fingerprint : string;
  rels : string list;
  schema : Schema.t;  (* column order of the stored tuples *)
  order : Col.t list option;  (* sort order the tuples were produced in *)
  tuples : Exec_common.tuple list;
  observed_rows : int;
  bytes : int;  (* charged against the governor until [release] *)
  stamp : stamp;
}

type t = {
  enabled : bool;
  gov : Governor.t;
  obs : Trace.t;
  tolerance : float;
  mutable entries : (string * entry) list;
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

let enabled t = t.enabled
let entry_count t = List.length t.entries
let charged_bytes t = List.fold_left (fun a (_, e) -> a + e.bytes) 0 t.entries

(* Logical fingerprint of a (possibly still choose-bearing) subplan: the
   relation set plus the deduplicated set of selection predicates applied
   anywhere in the subtree.  Alternatives of one logical group render the
   same selections through different operators (Filter, Filter_btree_scan,
   an index join's inner filter), so the dedup makes the fingerprint
   alternative-invariant. *)
let fingerprint (plan : Plan.t) =
  let sels = ref [] in
  let add p = sels := Format.asprintf "%a" Predicate.pp_select p :: !sels in
  Plan.iter
    (fun node ->
      match node.Plan.op with
      | Physical.Filter p | Physical.Filter_btree_scan { pred = p; _ } -> add p
      | Physical.Index_join { inner_filter = Some p; _ } -> add p
      | Physical.Index_join { inner_filter = None; _ }
      | Physical.File_scan _ | Physical.Btree_scan _ | Physical.Hash_join _
      | Physical.Merge_join _ | Physical.Sort _ | Physical.Choose_plan ->
        ())
    plan;
  Plan.rels_key plan
  ^ "?"
  ^ String.concat "&" (List.sort_uniq String.compare !sels)

let order_of (plan : Plan.t) =
  match plan.Plan.props.Props.order with
  | Props.Unordered -> None
  | Props.Ordered cols -> Some cols

let stamp_of env (plan : Plan.t) ~tolerance =
  let est = Startup.estimated_rows env plan in
  (* The +1 slack keeps near-zero cardinalities from producing an empty
     acceptance band on either side: estimating 0 rows and observing
     [tolerance] of them is noise, and so is observing 0 rows of a
     small positive estimate. *)
  let band =
    Interval.make
      (Float.max 0. (((est +. 1.) /. tolerance) -. 1.))
      ((est +. 1.) *. tolerance)
  in
  { estimated_rows = est; band; prior = plan.Plan.rows }

(* Materialize a checkpoint for [plan]'s tuples, charging the governor
   for the bytes held.  Idempotent per fingerprint: a resumed or
   replanned execution reaching the same blocking point revalidates
   nothing and charges nothing.  Raises [Estimate_busted] (once per
   fingerprint) when the observation escapes the validity band; the
   entry is stored *before* raising so recovery can splice over it.  A
   checkpoint that does not fit the memory budget is skipped, never a
   reason to fail the query. *)
let take t db env (plan : Plan.t) ~schema tuples =
  ignore db;
  if t.enabled then begin
    let fp = fingerprint plan in
    if not (List.mem_assoc fp t.entries || List.mem fp t.busted) then begin
      let observed = List.length tuples in
      let stamp = stamp_of env plan ~tolerance:t.tolerance in
      let bytes = observed * Int.max 1 plan.Plan.bytes_per_row in
      (match Governor.charge t.gov bytes with
      | () ->
        t.entries <-
          ( fp,
            { fingerprint = fp;
              rels = plan.Plan.rels;
              schema;
              order = order_of plan;
              tuples;
              observed_rows = observed;
              bytes;
              stamp } )
          :: t.entries;
        Trace.incr t.obs Counter.Checkpoints_taken;
        Trace.add t.obs Counter.Checkpoint_bytes bytes
      | exception Governor.Memory_exceeded _ -> ());
      if not (Interval.contains stamp.band (float_of_int observed)) then begin
        t.busted <- fp :: t.busted;
        raise
          (Estimate_busted
             { pid = plan.Plan.pid;
               observed;
               lo = stamp.band.Interval.lo;
               hi = stamp.band.Interval.hi })
      end
    end
  end

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

let remap_tuples remap tuples =
  match remap with
  | None -> tuples
  | Some perm ->
    List.map (fun t -> Array.map (fun p -> t.(p)) perm) tuples

let order_compatible entry (node : Plan.t) =
  match node.Plan.props.Props.order with
  | Props.Unordered -> true
  | Props.Ordered cols -> (
    (* An ordered splice must promise exactly the order the tuples were
       produced in; remapping permutes columns, not rows, so the promise
       survives the remap. *)
    match entry.order with
    | None -> false
    | Some ecols ->
      (* Positional prefix: tuples sorted by [a; b] are sorted by [a],
         so the required order must be a prefix of the stored one. *)
      let rec prefix req stored =
        match (req, stored) with
        | [], _ -> true
        | r :: req', s :: stored' -> Col.equal r s && prefix req' stored'
        | _ :: _, [] -> false
      in
      prefix cols ecols)

(* Every node of [plan] a checkpoint can stand in for: matching
   fingerprint, honored order promise, columns remappable into the
   node's schema.  [overrides_for] and [resume_for] answer from this one
   predicate because they form a contract: [Startup.resolve] keeps an
   overridden node's subtree verbatim — unresolved choose nodes and all
   — on the promise that the executor splices the materialized tuples in
   by pid.  An override without a matching splice would hand those
   choose nodes to context-free compile-time decisions. *)
let servable t catalog (plan : Plan.t) =
  if not t.enabled then []
  else
    Plan.fold
      (fun acc node ->
        match List.assoc_opt (fingerprint node) t.entries with
        | Some entry when order_compatible entry node -> (
          match
            remap_of ~src:entry.schema ~target:(Plan.schema catalog node)
          with
          | Some remap -> (node, entry, remap) :: acc
          | None -> acc)
        | Some _ | None -> acc)
      [] plan

(* Every node of [plan] a checkpoint can serve, with tuples remapped into
   the node's schema.  Counts one [Resume_hits] per distinct entry that
   found at least one node. *)
let resume_for t db (plan : Plan.t) =
  if not t.enabled then []
  else begin
    let served = Hashtbl.create 8 in
    let out =
      List.map
        (fun ((node : Plan.t), entry, remap) ->
          Hashtbl.replace served entry.fingerprint ();
          (node.Plan.pid, remap_tuples remap entry.tuples))
        (servable t (Database.catalog db) plan)
    in
    Trace.add t.obs Counter.Resume_hits (Hashtbl.length served);
    out
  end

(* Observed cardinalities for [plan]'s nodes, as Startup overrides: the
   decision procedure re-decides against reality.  Only nodes the
   checkpoint will actually serve — see [servable]. *)
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

(* Roll every checkpoint's bytes back out of the governor and drop the
   intermediates.  Always called when the supervised run ends (either
   arm), so checkpoint bytes can never leak through a shared pool. *)
let release t =
  if t.enabled then begin
    List.iter (fun (_, e) -> Governor.release t.gov e.bytes) t.entries;
    t.entries <- []
  end
