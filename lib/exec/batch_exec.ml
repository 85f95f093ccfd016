(* The execution engine: physical plans compiled to batch-at-a-time
   iterators.

   Operators exchange Batch.t values (up to [capacity] shared tuple
   references plus a selection vector) instead of single tuples, so the
   per-operator closure dispatch of a Volcano iterator is paid once per
   block:

   - scans fill batches a page stripe at a time with the page's own
     tuple arrays (no copy), and a selection predicate on a base
     relation is fused into the scan: the filter refines the selection
     vector of each block as it is filled;
   - base-relation file scans stream the heap file in fixed-size
     contiguous page stripes, in file order, one stripe per refill;
   - joins and sort delegate to the algorithmic cores in Exec_common
     (Grace hash partitioning, external sort runs).

   The engine is sequential: a plan runs on the thread that drains it.
   Concurrent queries (session submitter domains) share the buffer pool
   through its own shard locks and the governor through its atomics.

   Re-open contract: [open_] must fully rewind the operator — discard any
   buffered output from a previous consumption and reset every position —
   so that consuming an iterator twice, or closing it half-drained and
   consuming again, yields the same multiset.  Operators that buffer
   output across [next] calls clear that buffer in [open_]; relying on
   [close] alone is wrong because [close] may run while results are still
   pending. *)

module Schema = Dqep_algebra.Schema
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Col = Dqep_algebra.Col
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Heap_file = Dqep_storage.Heap_file
module Btree = Dqep_storage.Btree
module Page = Dqep_storage.Page
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type tuple = Exec_common.tuple

type iterator = {
  schema : Schema.t;
  open_ : unit -> unit;
  next : unit -> Batch.t option;
  close : unit -> unit;
}

(* Execution-wide context: one per compile. *)
type ctx = {
  db : Database.t;
  env : Env.t;
  gov : Governor.t; (* cancellation token + memory budget; domain-safe *)
  obs : Trace.t;
  mat : (int * tuple list) list;
  ckpt : Checkpoint.t;
  capacity : int;
}

let consume it =
  it.open_ ();
  Fun.protect ~finally:it.close (fun () ->
      let rec drain acc =
        match it.next () with
        | None -> List.rev acc
        | Some b ->
          let acc = ref acc in
          for i = 0 to Batch.length b - 1 do
            acc := Batch.tuple b i :: !acc
          done;
          drain !acc
      in
      drain [])

(* --- generic plumbing ---------------------------------------------------- *)

(* Serve a fixed tuple list (materialized subplans) in batches. *)
let of_tuples ?(capacity = Batch.default_capacity) schema tuples =
  let pending = ref [] in
  { schema;
    open_ = (fun () -> pending := Batch.of_tuples ~capacity schema tuples);
    next =
      (fun () ->
        match !pending with
        | [] -> None
        | b :: rest ->
          pending := rest;
          Some b);
    close = (fun () -> pending := []) }

(* --- fused scan + filter ------------------------------------------------- *)

(* The algebra's selection predicates are [col < threshold] with the
   threshold fixed by the environment, so a fused filter is one
   comparison per row over one column array. *)
type fused = { pos : int; cutoff : int }

let refine_fused b { pos; cutoff } =
  Batch.refine b (fun r -> Batch.get_phys b ~col:pos ~row:r < cutoff)

(* --- scans --------------------------------------------------------------- *)

(* The tuples of one heap page, collected while it is pinned: the page's
   own arrays, by reference. *)
let read_page_tuples ctx page =
  let tuples = ref [] in
  Buffer_pool.with_page (Database.pool ctx.db) page (fun p ->
      match p.Page.payload with
      | Page.Heap h ->
        for slot = h.count - 1 downto 0 do
          tuples := h.tuples.(slot) :: !tuples
        done
      | Page.Free | Page.Btree _ -> invalid_arg "Batch_exec: corrupt heap page");
  !tuples

(* Scan a stripe of pages into batches, fusing the filter. *)
let scan_stripe ctx schema fused pages ~emit =
  let current = ref (Batch.create ~capacity:ctx.capacity schema) in
  let flush () =
    if Batch.physical_length !current > 0 then begin
      Option.iter (refine_fused !current) fused;
      if not (Batch.is_empty !current) then emit !current;
      current := Batch.create ~capacity:ctx.capacity schema
    end
  in
  List.iter
    (fun page ->
      (* One cancellation point per page: a cancelled governor stops a
         stripe mid-scan. *)
      Governor.check ctx.gov;
      let tuples = read_page_tuples ctx page in
      List.iter
        (fun t ->
          if Batch.is_full !current then flush ();
          Batch.push !current t)
        tuples)
    pages;
  flush ()

(* Pages per scan stripe. *)
let stripe_pages = 4

let file_scan ctx schema fused heap =
  let stripes = ref [] in
  let buffered = ref [] in
  { schema;
    open_ =
      (fun () ->
        stripes :=
          Heap_file.partition heap
            ~parts:
              (Int.max 1
                 ((Heap_file.page_count heap + stripe_pages - 1) / stripe_pages));
        buffered := []);
    next =
      (fun () ->
        let rec go () =
          match !buffered with
          | b :: rest ->
            buffered := rest;
            Some b
          | [] -> (
            match !stripes with
            | [] -> None
            | stripe :: rest ->
              stripes := rest;
              let acc = ref [] in
              scan_stripe ctx schema fused stripe ~emit:(fun b ->
                  acc := b :: !acc);
              buffered := List.rev !acc;
              go ())
        in
        go ());
    close =
      (fun () ->
        stripes := [];
        buffered := []) }

(* B-tree scans: collect the qualifying rids in index order at open, then
   fetch them a batch at a time. *)
let btree_scan ctx schema ~rel ~attr ~hi =
  let rids = ref [] in
  { schema;
    open_ =
      (fun () ->
        let acc = ref [] in
        let proceed, hi_key =
          match hi with
          | Some cutoff -> (cutoff > 0, Some (cutoff - 1))
          | None -> (true, None)
        in
        if proceed then
          Btree.range (Database.pool ctx.db)
            (Database.index ctx.db ~rel ~attr)
            ~lo:None ~hi:hi_key
            (fun _ rid -> acc := rid :: !acc);
        rids := List.rev !acc);
    next =
      (fun () ->
        match !rids with
        | [] -> None
        | _ ->
          Governor.check ctx.gov;
          let batch = Batch.create ~capacity:ctx.capacity schema in
          let continue_ = ref true in
          while !continue_ do
            match !rids with
            | [] -> continue_ := false
            | rid :: rest ->
              rids := rest;
              Batch.push batch (Heap_file.fetch (Database.pool ctx.db) rid);
              if Batch.is_full batch then continue_ := false
          done;
          Some batch);
    close = (fun () -> rids := []) }

(* --- output buffering ---------------------------------------------------- *)

(* Accumulate produced tuples into capacity-bounded dense batches. *)
type out_buffer = {
  out_schema : Schema.t;
  cap : int;
  mutable building : Batch.t;
  ready : Batch.t Queue.t; (* full batches, in emission order *)
}

let out_buffer ctx schema =
  { out_schema = schema;
    cap = ctx.capacity;
    building = Batch.create ~capacity:ctx.capacity schema;
    ready = Queue.create () }

let out_push ob t =
  if Batch.is_full ob.building then begin
    Queue.push ob.building ob.ready;
    ob.building <- Batch.create ~capacity:ob.cap ob.out_schema
  end;
  Batch.push ob.building t

let out_pop ob =
  match Queue.take_opt ob.ready with
  | Some b -> Some b
  | None ->
    if Batch.is_empty ob.building then None
    else begin
      let b = ob.building in
      ob.building <- Batch.create ~capacity:ob.cap ob.out_schema;
      Some b
    end

let out_reset ob =
  ob.building <- Batch.create ~capacity:ob.cap ob.out_schema;
  Queue.clear ob.ready

(* --- compiler ------------------------------------------------------------ *)

let schema_of ctx plan = Plan.schema (Database.catalog ctx.db) plan

let materialized_tuples ctx (plan : Plan.t) = List.assoc_opt plan.Plan.pid ctx.mat

(* Per-operator cardinality tap: each delivered batch records its
   selected row count in one call.  Wrapped around a compiled node only
   when the trace asked for taps, so the default path pays nothing.  An
   operator that delivers nothing still taps once with zero rows, so
   feedback distinguishes "ran empty" from "not observed". *)
let tap_iterator obs (plan : Plan.t) it =
  let op = Physical.name plan.Plan.op in
  let pid = plan.Plan.pid in
  let delivered = ref false in
  { it with
    open_ =
      (fun () ->
        delivered := false;
        it.open_ ());
    next =
      (fun () ->
        match it.next () with
        | Some b ->
          delivered := true;
          Trace.tap obs ~pid ~op ~rows:(Batch.length b);
          Some b
        | None ->
          if not !delivered then begin
            delivered := true;
            Trace.tap obs ~pid ~op ~rows:0
          end;
          None) }

let rec compile_node ctx (plan : Plan.t) : iterator =
  let it = compile_op ctx plan in
  if Trace.taps_enabled ctx.obs then tap_iterator ctx.obs plan it else it

and compile_op ctx (plan : Plan.t) : iterator =
  match materialized_tuples ctx plan with
  | Some tuples ->
    (* The subplan was already materialized: a registry entry spliced
       in by pid. *)
    of_tuples ~capacity:ctx.capacity (schema_of ctx plan) tuples
  | None -> (
    match plan.Plan.op with
    | Physical.File_scan rel ->
      file_scan ctx
        (Exec_common.base_schema ctx.db rel)
        None (Database.heap ctx.db rel)
    | Physical.Btree_scan { rel; attr } ->
      btree_scan ctx (Exec_common.base_schema ctx.db rel) ~rel ~attr ~hi:None
    | Physical.Filter_btree_scan { rel; attr; pred } ->
      btree_scan ctx
        (Exec_common.base_schema ctx.db rel)
        ~rel ~attr
        ~hi:(Some (Pred_eval.threshold ctx.env pred))
    | Physical.Filter pred -> filter ctx plan pred
    | Physical.Hash_join preds -> hash_join ctx plan preds
    | Physical.Merge_join preds -> merge_join ctx plan preds
    | Physical.Index_join { preds; inner_rel; inner_attr; inner_filter } ->
      index_join ctx plan preds ~inner_rel ~inner_attr ~inner_filter
    | Physical.Sort cols -> sort ctx plan cols
    | Physical.Choose_plan ->
      let resolved = Startup.resolve ctx.env plan in
      (* Alternatives may concatenate the same columns in different
         orders; the parent binds positions against this node's nominal
         schema (the first alternative's), so permute if needed. *)
      let it = compile_node ctx resolved.Startup.plan in
      let target = schema_of ctx plan in
      if Schema.columns it.schema = Schema.columns target then it
      else
        { it with
          schema = target;
          next =
            (fun () ->
              match it.next () with
              | None -> None
              | Some b -> Some (Batch.remap ~target b)) })

and compile_child ctx (plan : Plan.t) =
  match plan.Plan.inputs with
  | [ child ] -> compile_node ctx child
  | _ -> invalid_arg "Batch_exec: expected unary operator"

and compile_children ctx (plan : Plan.t) =
  match plan.Plan.inputs with
  | [ l; r ] -> (compile_node ctx l, compile_node ctx r)
  | _ -> invalid_arg "Batch_exec: expected binary operator"

(* Filter.  When the input is a base-relation file scan the predicate is
   fused into the scan itself; otherwise a standalone
   vectorized filter refines each batch's selection vector in place. *)
and filter ctx (plan : Plan.t) pred =
  let fusable =
    match plan.Plan.inputs with
    | [ ({ Plan.op = Physical.File_scan rel; _ } as child) ]
      when materialized_tuples ctx child = None ->
      Some rel
    | _ -> None
  in
  match fusable with
  | Some rel ->
    let schema = Exec_common.base_schema ctx.db rel in
    let pos = Schema.position_exn schema pred.Predicate.target in
    let cutoff = Pred_eval.threshold ctx.env pred in
    file_scan ctx schema (Some { pos; cutoff }) (Database.heap ctx.db rel)
  | None ->
    let child = compile_child ctx plan in
    let pos = Schema.position_exn child.schema pred.Predicate.target in
    let cutoff = Pred_eval.threshold ctx.env pred in
    { schema = child.schema;
      open_ = child.open_;
      next =
        (fun () ->
          let rec go () =
            match child.next () with
            | None -> None
            | Some b ->
              refine_fused b { pos; cutoff };
              if Batch.is_empty b then go () else Some b
          in
          go ());
      close = child.close }

and hash_join ctx (plan : Plan.t) preds =
  let left_it, right_it = compile_children ctx plan in
  let left_schema = left_it.schema and right_schema = right_it.schema in
  let schema = Schema.concat left_schema right_schema in
  let left_width, right_width =
    match plan.Plan.inputs with
    | [ l; r ] -> (l.Plan.bytes_per_row, r.Plan.bytes_per_row)
    | _ -> assert false
  in
  let residual =
    Pred_eval.equi_matches ~left:left_schema ~right:right_schema preds
  in
  let ob = out_buffer ctx schema in
  { schema;
    open_ =
      (fun () ->
        out_reset ob;
        let build = consume left_it in
        (* Build completion is a blocking point: checkpoint the fully
           consumed build side before any probe work. *)
        (match plan.Plan.inputs with
        | [ l; _ ] ->
          Checkpoint.take ctx.ckpt ctx.env l ~schema:left_schema build
        | _ -> ());
        let probe = consume right_it in
        Exec_common.hash_join_core ~gov:ctx.gov ~obs:ctx.obs ctx.db ctx.env
          ~left_schema
          ~right_schema
          ~left_width ~right_width ~preds
          ~emit:(fun l r ->
            if residual l r then out_push ob (Array.append l r))
          build probe);
    next = (fun () -> out_pop ob);
    close = (fun () -> out_reset ob) }

and merge_join ctx (plan : Plan.t) preds =
  let left_it, right_it = compile_children ctx plan in
  let left_schema = left_it.schema and right_schema = right_it.schema in
  let schema = Schema.concat left_schema right_schema in
  let first =
    match preds with
    | p :: _ -> p
    | [] -> invalid_arg "Batch_exec: merge join without predicates"
  in
  let lpos = Schema.position_exn left_schema first.Predicate.left in
  let rpos = Schema.position_exn right_schema first.Predicate.right in
  let right_width =
    match plan.Plan.inputs with
    | [ _; r ] -> r.Plan.bytes_per_row
    | _ -> invalid_arg "Batch_exec: merge join expects two inputs"
  in
  let residual =
    Pred_eval.equi_matches ~left:left_schema ~right:right_schema preds
  in
  let ob = out_buffer ctx schema in
  { schema;
    open_ =
      (fun () ->
        out_reset ob;
        let left = consume left_it in
        let right = Array.of_list (consume right_it) in
        (* The materialized right side is the operator's working set;
           charge it for the duration of the merge pass. *)
        Governor.with_charge ctx.gov
          (Array.length right * Int.max 1 right_width)
          (fun () ->
            (* Never advance the group pointer past the current key:
               the next left tuple may carry it again. *)
            let rpointer = ref 0 in
            List.iter
              (fun l ->
                Governor.check ctx.gov;
                let key = l.(lpos) in
                while
                  !rpointer < Array.length right
                  && right.(!rpointer).(rpos) < key
                do
                  incr rpointer
                done;
                let stop = ref !rpointer in
                while !stop < Array.length right && right.(!stop).(rpos) = key do
                  (let r = right.(!stop) in
                   if residual l r then out_push ob (Array.append l r));
                  incr stop
                done)
              left));
    next = (fun () -> out_pop ob);
    close = (fun () -> out_reset ob) }

and index_join ctx (plan : Plan.t) preds ~inner_rel ~inner_attr ~inner_filter =
  let outer_it =
    match plan.Plan.inputs with
    | [ o ] -> compile_node ctx o
    | _ -> invalid_arg "Batch_exec: index join expects one input"
  in
  let outer_schema = outer_it.schema in
  let inner_schema = Exec_common.base_schema ctx.db inner_rel in
  let schema = Schema.concat outer_schema inner_schema in
  let probe_pred =
    match
      List.find_opt
        (fun (p : Predicate.equi) ->
          p.Predicate.right.Col.rel = inner_rel
          && p.Predicate.right.Col.attr = inner_attr)
        preds
    with
    | Some p -> p
    | None -> invalid_arg "Batch_exec: index join predicate not found"
  in
  let outer_pos = Schema.position_exn outer_schema probe_pred.Predicate.left in
  let residual =
    Pred_eval.equi_matches ~left:outer_schema ~right:inner_schema preds
  in
  let inner_ok =
    match inner_filter with
    | None -> fun _ -> true
    | Some pred -> Pred_eval.select_matches ctx.env inner_schema pred
  in
  let ob = out_buffer ctx schema in
  { schema;
    open_ =
      (fun () ->
        out_reset ob;
        outer_it.open_ ());
    next =
      (fun () ->
        (* Probe the inner index for a whole outer batch at a time. *)
        let rec go () =
          match out_pop ob with
          | Some b -> Some b
          | None -> (
            match outer_it.next () with
            | None -> None
            | Some outer_batch ->
              Governor.check ctx.gov;
              let n = Batch.length outer_batch in
              for i = 0 to n - 1 do
                let outer = Batch.tuple outer_batch i in
                let rids =
                  Btree.search (Database.pool ctx.db)
                    (Database.index ctx.db ~rel:inner_rel ~attr:inner_attr)
                    outer.(outer_pos)
                in
                List.iter
                  (fun rid ->
                    let inner = Heap_file.fetch (Database.pool ctx.db) rid in
                    if inner_ok inner && residual outer inner then
                      out_push ob (Array.append outer inner))
                  rids
              done;
              go ())
        in
        go ());
    close =
      (fun () ->
        outer_it.close ();
        out_reset ob) }

and sort ctx (plan : Plan.t) cols =
  let child = compile_child ctx plan in
  let schema = child.schema in
  let positions = List.map (Schema.position_exn schema) cols in
  let compare_tuples = Exec_common.compare_on positions in
  let width = plan.Plan.bytes_per_row in
  let pending = ref [] in
  { schema;
    open_ =
      (fun () ->
        let tuples = consume child in
        let sorted =
          Exec_common.sort_core ~gov:ctx.gov ~obs:ctx.obs ctx.db ctx.env
            ~width ~compare_tuples tuples
        in
        (* The sort's output is fully materialized here — the other
           blocking point — and carries the node's order property. *)
        Checkpoint.take ctx.ckpt ctx.env plan ~schema sorted;
        pending := Batch.of_tuples ~capacity:ctx.capacity schema sorted);
    next =
      (fun () ->
        match !pending with
        | [] -> None
        | b :: rest ->
          pending := rest;
          Some b);
    close = (fun () -> pending := []) }

(* --- entry points -------------------------------------------------------- *)

let compile_with db env ?(gov = Governor.none) ?(obs = Trace.null)
    ?(materialized = []) ?(checkpoint = Checkpoint.disabled)
    ?(capacity = Batch.default_capacity) plan =
  compile_node
    { db; env; gov; obs; mat = materialized; ckpt = checkpoint; capacity }
    plan

(* Execute a plan and return its tuples plus the run's execution profile.
   Per-batch accounting happens at the plan root. *)
let run_plan db env ?(gov = Governor.none) ?(obs = Trace.null)
    ?(materialized = []) ?(checkpoint = Checkpoint.disabled)
    ?(capacity = Batch.default_capacity) plan =
  let it =
    compile_with db env ~gov ~obs ~materialized ~checkpoint ~capacity plan
  in
  let batches = ref 0 and max_rows = ref 0 and total_rows = ref 0 in
  let counting =
    { it with
      next =
        (fun () ->
          Governor.check gov;
          match it.next () with
          | None -> None
          | Some b ->
            let n = Batch.length b in
            Governor.count_rows gov n;
            Trace.add obs Counter.Rows_out n;
            Trace.incr obs Counter.Batches_out;
            incr batches;
            max_rows := Int.max !max_rows n;
            total_rows := !total_rows + n;
            Some b) }
  in
  let tuples = consume counting in
  let profile =
    { Exec_common.batches = !batches;
      max_batch_rows = !max_rows;
      rows_per_batch =
        (if !batches = 0 then 0.
         else float_of_int !total_rows /. float_of_int !batches) }
  in
  (tuples, profile)
