(* The analyses built on the abstract interpreter (Absint): choose-plan
   parameter-space coverage and dominance, static resource-budget
   admission, checkpoint-fingerprint lints, and the unchecked-pipeline
   warning.  Each produces typed diagnostics in the DQEP5xx block; the
   aggregate entry point is [plan], mirroring [Verify.plan]. *)

module Interval = Dqep_util.Interval
module Diagnostic = Dqep_util.Diagnostic
module Physical = Dqep_algebra.Physical
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan

let diag ?severity ~site code fmt =
  Format.kasprintf (fun msg -> Diagnostic.make ?severity ~site code msg) fmt

let node_site (p : Plan.t) = Diagnostic.Node p.Plan.pid

module Int_tbl = Hashtbl.Make (Int)

let default_max_regions = 64

(* Region evidence is an anytime refinement: verdicts already settled on
   the full region (domination there, budget floors' envelope) are exact,
   and the region loop only sharpens the rest.  The loop therefore runs
   under a work budget measured in node evaluations — proportional to the
   plan, with a floor so small plans always sweep exhaustively — and on
   exhaustion simply stops reporting the unsettled verdicts (never a
   false finding). *)
let work_budget (dag : Plan.Dag.t) = (6 * dag.Plan.Dag.length) + 2048

exception Out_of_work

(* Inlined so the fingerprint lint's pair loop compares unboxed floats. *)
let[@inline] close a b =
  let tol = 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tol

let[@inline] interval_close (a : Interval.t) (b : Interval.t) =
  close a.Interval.lo b.Interval.lo && close a.Interval.hi b.Interval.hi

(* --- choose-space analysis (coverage + dead alternatives) ----------------- *)

(* Coverage asks, per region of a partition of the parameter space: is
   there at least one alternative that is catalog-feasible (Verify's
   feasibility subset) and — when a budget is given — whose modelled
   demand floor fits it?  A region where the answer is no is an
   environment in which startup either raises [Exhausted] (all
   alternatives pruned as infeasible) or picks a plan the governor is
   bound to abort.  Deadness asks: is the alternative dominated in every
   region?

   Both verdicts admit cheap full-region classification before any
   subdivision, which keeps the analysis near one plan evaluation on
   healthy plans (the [bench analyze] gate):

   - an alternative dominated over the full region is dominated in every
     subregion (subregion intervals are contained in full-region ones),
     so it is dead with no further work; the region loop only has to
     *clear* the remaining candidates, and stops for a choose node as
     soon as every candidate has shown one region of non-domination;
   - the demand floor reads only row lower bounds (which rise as a
     region shrinks) and the memory grant (whose cap moves between the
     grant interval's endpoints), so a floor from full-region upper rows
     at the lowest grant bounds every region's floor from above, and one
     from lower rows at the highest grant from below — classifying most
     alternatives as admissible everywhere or nowhere without touching
     individual regions. *)
let choose_space_of ?(max_regions = default_max_regions) ?budget_bytes ~catalog
    env (dag : Plan.Dag.t) =
  let n = dag.Plan.Dag.length in
  let node i = dag.Plan.Dag.nodes.(i) in
  let first = dag.Plan.Dag.first_input and inputs = dag.Plan.Dag.inputs in
  let chooses = ref [] in
  for i = n - 1 downto 0 do
    match (node i).Plan.op with
    | Physical.Choose_plan -> chooses := i :: !chooses
    | _ -> ()
  done;
  let chooses = !chooses in
  if chooses = [] then []
  else begin
    (* One whole-plan catalog-resolution pass, then bottom-up
       propagation: feasibility diagnostics (missing relation /
       attribute / index) are node-local, so an alternative is feasible
       iff no flagged node is reachable through it — where a nested
       choose only needs one feasible alternative.  Verifying each
       alternative's subtree separately re-walks shared structure
       quadratically. *)
    let feasible =
      let drifted = Verify.drifted dag (Verify.feasibility_of ~catalog dag) in
      let ok = Array.make n false in
      for i = 0 to n - 1 do
        let arity = first.(i + 1) - first.(i) and ok_inputs = ref 0 in
        for x = first.(i) to first.(i + 1) - 1 do
          if ok.(inputs.(x)) then incr ok_inputs
        done;
        ok.(i) <-
          (not (drifted i))
          &&
          match (node i).Plan.op with
          | Physical.Choose_plan -> arity = 0 || !ok_inputs > 0
          | _ -> !ok_inputs = arity
      done;
      Array.get ok
    in
    (* Infeasible alternatives are left out of their choose node's
       values: start-up never picks them, and costing one may be
       impossible (a missing relation has no cost-model entry). *)
    let evaluate =
      Absint.evaluator ~infeasible:(fun i -> not (feasible i)) env dag
    in
    let full = evaluate.Absint.full in
    let full_values = evaluate.Absint.value full in
    let max_work = work_budget dag in
    (* Budget admissibility of one alternative across regions: [`Always]
       / [`Never] from the full-region floor envelope, [`Depends] when
       only region-level floors can tell. *)
    let budget_class =
      match budget_bytes with
      | None -> fun _ -> `Always
      | Some b ->
        let mem = full.Absint.memory in
        let env_lo =
          Env.with_memory_pages env (Interval.point mem.Interval.lo)
        and env_hi =
          Env.with_memory_pages env (Interval.point mem.Interval.hi)
        in
        let rows i = (full_values i).Absint.rows in
        let pess =
          Absint.floors env_lo ~budget_bytes:b
            ~rows_of:(fun i -> Interval.point (rows i).Interval.hi)
            dag
        and opt =
          Absint.floors env_hi ~budget_bytes:b
            ~rows_of:(fun i -> Interval.point (rows i).Interval.lo)
            dag
        in
        fun alt ->
          if pess alt <= b then `Always
          else if opt alt > b then `Never
          else `Depends
    in
    (* Per choose node: full-region classification.  Dominance is judged
       among the feasible alternatives only — an infeasible one can
       neither kill a sibling nor be worth a dead verdict (the verifier
       already owns that report), and costing it may be impossible
       (a missing relation has no cost-model entry). *)
    let state =
      List.map
        (fun c ->
          let alts = Plan.Dag.inputs dag c in
          let feas = List.map feasible alts in
          let n_alts = List.length alts in
          let n_feas =
            List.fold_left (fun n f -> if f then n + 1 else n) 0 feas
          in
          (* A feasible alternative is dominated within a region iff a
             feasible sibling's total-cost upper bound is strictly below
             its lower bound there: every point environment of the
             region then costs the sibling strictly cheaper, and
             [Startup.resolve]'s argmin can never land on it.  Dead
             means dominated in every region of a partition of the full
             parameter space — a startup decision in *any* environment
             avoids it.  The least upper bound among the siblings is the
             least one overall, or the second least for the alternative
             holding the least. *)
          let alt_array = Array.of_list alts
          and feas_array = Array.of_list feas in
          let dominated_of values =
            let out = Array.make n_alts false in
            if n_feas >= 2 then begin
              let total k = (values alt_array.(k)).Absint.total in
              let least = ref Float.infinity and holder = ref (-1) in
              let second = ref Float.infinity in
              for k = 0 to n_alts - 1 do
                if feas_array.(k) then begin
                  let hi = (total k).Interval.hi in
                  if hi < !least then begin
                    second := !least;
                    least := hi;
                    holder := k
                  end
                  else if hi < !second then second := hi
                end
              done;
              for k = 0 to n_alts - 1 do
                if feas_array.(k) then
                  out.(k) <-
                    (if k = !holder then !second else !least)
                    < (total k).Interval.lo
              done
            end;
            out
          in
          (* Dominated over the full region: dead outright.  The rest are
             candidates — still dead pending a region of non-domination.
             A choose with fewer than two feasible alternatives has no
             dominance question. *)
          let dominated_full = dominated_of full_values in
          let still_dead = Array.make n_alts (n_feas >= 2) in
          let pending = ref 0 in
          List.iteri
            (fun i f ->
              if (not f) || n_feas < 2 then still_dead.(i) <- false
              else if not dominated_full.(i) then incr pending)
            feas;
          let classes =
            List.map2
              (fun f alt -> if not f then `Never else budget_class alt)
              feas alts
          in
          let coverage =
            if List.exists (fun cl -> cl = `Always) classes then `Covered
            else if List.for_all (fun cl -> cl = `Never) classes then
              `Uncovered_everywhere
            else `Per_region (ref [])
          in
          ( c,
            alts,
            dominated_of,
            dominated_full,
            still_dead,
            pending,
            classes,
            coverage ))
        chooses
    in
    let needs_regions =
      List.exists
        (fun (_, _, _, _, _, pending, _, coverage) ->
          !pending > 0
          || match coverage with `Per_region _ -> true | _ -> false)
        state
    in
    let total_regions = ref 1 in
    if needs_regions then begin
      let regions = Absint.subdivide full ~max_regions in
      total_regions := List.length regions;
      (try
         List.iter
           (fun region ->
             if evaluate.Absint.work () > max_work then raise Out_of_work;
             let values = lazy (evaluate.Absint.value region) in
             let floor =
               lazy
                 (match budget_bytes with
                 | None -> fun _ -> 0
                 | Some b ->
                   Absint.floors (Absint.restrict env region) ~budget_bytes:b
                     ~rows_of:(fun i -> ((Lazy.force values) i).Absint.rows)
                     dag)
             in
             List.iter
               (fun (_, alts, dominated_of, dominated_full, still_dead,
                     pending, classes, coverage) ->
                 if !pending > 0 then begin
                   let dominated = dominated_of (Lazy.force values) in
                   Array.iteri
                     (fun i d ->
                       if (not d) && (not dominated_full.(i)) && still_dead.(i)
                       then begin
                         still_dead.(i) <- false;
                         decr pending
                       end)
                     dominated
                 end;
                 match coverage with
                 | `Per_region bad ->
                   let selectable alt cl =
                     match cl with
                     | `Always -> true
                     | `Never -> false
                     | `Depends ->
                       (Lazy.force floor) alt <= Option.get budget_bytes
                   in
                   if not (List.exists2 selectable alts classes) then
                     bad := region :: !bad
                 | `Covered | `Uncovered_everywhere -> ())
               state)
           regions
       with Out_of_work ->
         (* Unsettled candidates stay unreported: clearing them is the
            sound direction (a dead verdict needs evidence from every
            region). *)
         List.iter
           (fun (_, _, _, dominated_full, still_dead, pending, _, _) ->
             if !pending > 0 then begin
               Array.iteri
                 (fun i d ->
                   if (not d) && still_dead.(i) then still_dead.(i) <- false)
                 dominated_full;
               pending := 0
             end)
           state)
    end;
    List.concat_map
      (fun (c, alts, _, _, still_dead, _, _, coverage) ->
        let c = node c in
        let coverage_diags =
          let report bad_count example =
            [ diag ~site:(node_site c) Diagnostic.Choose_uncovered
                "no alternative is feasible%s in %d of %d regions of the \
                 parameter space, e.g. %a — startup would fail there"
                (match budget_bytes with
                | None -> ""
                | Some b -> Printf.sprintf " and admissible under %d bytes" b)
                bad_count !total_regions Absint.pp_region example ]
          in
          match coverage with
          | `Covered -> []
          | `Uncovered_everywhere -> report !total_regions full
          | `Per_region bad -> (
            match List.rev !bad with
            | [] -> []
            | worst :: _ as all -> report (List.length all) worst)
        in
        let dead_diags =
          List.concat
            (List.mapi
               (fun i alt ->
                 let alt = node alt in
                 if still_dead.(i) then
                   [ diag ~site:(node_site c)
                       Diagnostic.Choose_dead_alternative
                       "alternative #%d (%s) is strictly cost-dominated by a \
                        sibling in every region of the parameter space \
                        (%d regions); startup can never select it"
                       alt.Plan.pid
                       (Physical.name alt.Plan.op)
                       !total_regions ]
                 else [])
               alts)
        in
        coverage_diags @ dead_diags)
      state
  end

let choose_space ?max_regions ?budget_bytes ~catalog env plan =
  choose_space_of ?max_regions ?budget_bytes ~catalog env (Plan.Dag.of_plan plan)

(* --- static budget admission ---------------------------------------------- *)

let budget_diags ~budget_bytes (plan : Plan.t) floor =
  if floor > budget_bytes then
    [ diag ~site:(node_site plan) Diagnostic.Budget_unsatisfiable
        "every execution must hold at least %d bytes against a budget of \
         %d bytes — statically doomed to Memory_exceeded"
        floor budget_bytes ]
  else []

let budget_check env ~budget_bytes plan =
  budget_diags ~budget_bytes plan
    (Absint.guaranteed_bytes env ~budget_bytes plan)

(* --- checkpoint-fingerprint collisions ------------------------------------ *)

(* Distinct nodes sharing a fingerprint are *expected* (choose
   alternatives, a sort and its child): the registry is keyed by logical
   content precisely so equivalent nodes can serve each other.  The
   hazard is same fingerprint with different content: if the column sets
   are remappable but the cardinality estimates disagree, resume would
   splice one node's tuples into the other's slot (error); if the
   fingerprint collides without even a remappable schema, the entry is
   dead weight that can shadow a real checkpoint (warning). *)
(* Column multisets, numbered bottom-up by index (one pass over the DAG
   where a [Plan.schema] call per node would re-walk each subtree).  The
   combination rules mirror [Plan.schema]; [None] marks a subtree the
   catalog cannot resolve.  Columns are qualified by their relation, so
   a multiset is represented by the sorted names of the relations that
   contribute columns to it: two nodes have equal column multisets iff
   they have equal relation multisets (a relation without attributes
   contributes no column and is left out).  Equal multisets get equal
   numbers. *)
let col_sets catalog (dag : Plan.Dag.t) =
  (* Hash-consed sorted lists: equal multisets get one number, and every
     distinct union is merged once. *)
  let numbers : (string list, int) Hashtbl.t = Hashtbl.create 64 in
  let lists : (int, string list) Hashtbl.t = Hashtbl.create 64 in
  let intern l =
    match Hashtbl.find_opt numbers l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length numbers in
      Hashtbl.add numbers l i;
      Hashtbl.add lists i l;
      i
  in
  let empty = intern [] in
  let unions = Int_tbl.create 64 in
  let union a b =
    if a = empty then b
    else if b = empty then a
    else begin
      let key = (Int.min a b lsl 24) lor Int.max a b in
      match Int_tbl.find_opt unions key with
      | Some i -> i
      | None ->
        let i =
          intern
            (List.merge String.compare (Hashtbl.find lists a)
               (Hashtbl.find lists b))
        in
        Int_tbl.add unions key i;
        i
    end
  in
  let ids = Array.make dag.Plan.Dag.length None in
  let of_rel rel =
    match Catalog.relation catalog rel with
    | Some r ->
      Some
        (intern
           (if r.Dqep_catalog.Relation.attributes = [] then [] else [ r.name ]))
    | None -> None
  in
  for i = 0 to dag.Plan.Dag.length - 1 do
    let first = dag.Plan.Dag.first_input in
    let arity = first.(i + 1) - first.(i) in
    let input k = ids.(Plan.Dag.input dag i k) in
    ids.(i) <-
      (match (dag.Plan.Dag.nodes.(i).Plan.op, arity) with
      | ( ( Physical.File_scan rel
          | Physical.Btree_scan { rel; _ }
          | Physical.Filter_btree_scan { rel; _ } ),
          0 ) ->
        of_rel rel
      | (Physical.Filter _ | Physical.Sort _), 1 -> input 0
      | (Physical.Hash_join _ | Physical.Merge_join _), 2 -> (
        match (input 0, input 1) with
        | Some a, Some b -> Some (union a b)
        | _ -> None)
      | Physical.Index_join { inner_rel; _ }, 1 -> (
        match (input 0, of_rel inner_rel) with
        | Some a, Some b -> Some (union a b)
        | _ -> None)
      | Physical.Choose_plan, arity when arity > 0 -> input 0
      | _, _ -> None)
  done;
  ids

let fingerprints_of ~catalog (dag : Plan.Dag.t) =
  let fps = Plan.fingerprints dag in
  let cols = col_sets catalog dag in
  let groups : (string, (Plan.t * Interval.t * int option) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  (* Neighbours mostly share one fingerprint string: skip the lookup. *)
  let last = ref (ref []) in
  for i = 0 to dag.Plan.Dag.length - 1 do
    let n = dag.Plan.Dag.nodes.(i) in
    let r =
      if i > 0 && fps.(i) == fps.(i - 1) then !last
      else
        match Hashtbl.find_opt groups fps.(i) with
        | Some r -> r
        | None ->
          let r = ref [] in
          Hashtbl.add groups fps.(i) r;
          r
    in
    last := r;
    r := (n, n.Plan.rows, cols.(i)) :: !r
  done;
  Hashtbl.fold
    (fun fp members acc ->
      let members = Array.of_list (List.rev !members) in
      let acc = ref acc in
      (* Members that all estimate the same rows over the same column
         set (or all over unresolved ones) make no pair a finding. *)
      let _, rows0, cols0 = members.(0) in
      let uniform =
        Array.for_all
          (fun (_, (rows : Interval.t), cols) ->
            rows.Interval.lo = rows0.Interval.lo
            && rows.Interval.hi = rows0.Interval.hi
            && Option.equal Int.equal cols cols0)
          members
      in
      (* Every pair i < j, visited last-first: the order the findings have
         always been reported in. *)
      if not uniform then
      for i = Array.length members - 1 downto 0 do
        for j = Array.length members - 1 downto i + 1 do
          let (a : Plan.t), arows, acols = members.(i)
          and (b : Plan.t), brows, bcols = members.(j) in
          let remappable, resolved =
            match (acols, bcols) with
            | Some ca, Some cb -> (Int.equal ca cb, true)
            | Some _, None | None, Some _ -> (false, true)
            | None, None -> (false, false)
          in
          let rows_differ = not (interval_close arows brows) in
          if remappable && rows_differ then
            acc :=
              diag ~severity:Diagnostic.Error ~site:(node_site a)
                Diagnostic.Fingerprint_collision
                "node #%d shares checkpoint fingerprint %S with node #%d but \
                 estimates %a rows against its %a — resume could splice the \
                 wrong intermediate"
                a.Plan.pid fp b.Plan.pid Interval.pp arows Interval.pp brows
              :: !acc
          else if rows_differ || (resolved && not remappable)
          then
            acc :=
              diag ~site:(node_site a) Diagnostic.Fingerprint_collision
                "nodes #%d and #%d share checkpoint fingerprint %S with \
                 incompatible schemas or cardinalities — the entry can shadow \
                 a real checkpoint"
                a.Plan.pid b.Plan.pid fp
              :: !acc
        done
      done;
      !acc)
    groups []

(* --- unchecked streaming pipelines ---------------------------------------- *)

let default_pipeline_threshold = 3

(* ROADMAP item 3's leftover, surfaced statically: validity bands are
   only consulted where checkpoints are taken — a sort's output and a
   hash join's build side.  A choose node whose result then streams
   through [threshold] or more operators without crossing such a point
   has no mid-pipeline recheck: a busted resolution surfaces arbitrarily
   late (or never, on the probe side).  Walking down from the root, the
   streak counts streaming operators above the current node; it resets
   under a sort and under a hash join's build child, the two
   [Checkpoint.take] sites (a merge join materializes its right side but
   takes no checkpoint). *)
let pipeline_of ?(threshold = default_pipeline_threshold) (dag : Plan.Dag.t) =
  (* The longest streak each index was walked with so far, -1 if none. *)
  let best = Array.make dag.Plan.Dag.length (-1) in
  let findings = ref [] in
  let flagged = Bytes.make dag.Plan.Dag.length '\000' in
  let rec walk streak i =
    let p = dag.Plan.Dag.nodes.(i) in
    if best.(i) < streak then begin
      best.(i) <- streak;
      (match p.Plan.op with
      | Physical.Choose_plan when streak >= threshold ->
        if Bytes.get flagged i = '\000' then begin
          Bytes.set flagged i '\001';
          (* Concatenation, not [diag]'s [Format]: a big plan reports
             dozens of these. *)
          findings :=
            Diagnostic.make ~site:(node_site p) Diagnostic.Unchecked_pipeline
              ("choose-plan resolution streams through " ^ string_of_int streak
             ^ " operators to the nearest blocking point — its validity band \
                is never rechecked mid-pipeline")
            :: !findings
        end
      | _ -> ());
      let first = dag.Plan.Dag.first_input in
      let a = first.(i) and z = first.(i + 1) in
      let input k = dag.Plan.Dag.inputs.(a + k) in
      match (p.Plan.op, z - a) with
      | Physical.Sort _, 1 -> walk 0 (input 0)
      | Physical.Hash_join _, 2 ->
        walk 0 (input 0);
        walk (streak + 1) (input 1)
      | Physical.Choose_plan, _ ->
        for x = a to z - 1 do
          walk streak dag.Plan.Dag.inputs.(x)
        done
      | _, _ ->
        for x = a to z - 1 do
          walk (streak + 1) dag.Plan.Dag.inputs.(x)
        done
    end
  in
  walk 0 (dag.Plan.Dag.length - 1);
  List.rev !findings

let fingerprints ~catalog plan = fingerprints_of ~catalog (Plan.Dag.of_plan plan)
let pipeline ?threshold plan = pipeline_of ?threshold (Plan.Dag.of_plan plan)

(* --- aggregate ------------------------------------------------------------ *)

let plan ?max_regions ?budget_bytes ?pipeline_threshold ~catalog env
    (p : Plan.t) =
  let dag = Plan.Dag.of_plan p in
  choose_space_of ?max_regions ?budget_bytes ~catalog env dag
  @ (match budget_bytes with
    | None -> []
    | Some budget_bytes ->
      budget_diags ~budget_bytes p
        (Absint.guaranteed_bytes_of env ~budget_bytes dag))
  @ fingerprints_of ~catalog dag
  @ pipeline_of ?threshold:pipeline_threshold dag
