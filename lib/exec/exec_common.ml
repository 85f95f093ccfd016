(* Algorithmic cores of the execution engine (Batch_exec), and the types
   and knobs the rest of the library shares with it.

   The joining and sorting cores materialize their inputs and spill
   through the buffer pool under low memory (Grace hash join
   partitioning, external sort runs), so spilling is observable in the
   I/O counters. *)

module Interval = Dqep_util.Interval
module Schema = Dqep_algebra.Schema
module Predicate = Dqep_algebra.Predicate
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Database = Dqep_storage.Database
module Heap_file = Dqep_storage.Heap_file
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type tuple = int array

(* --- engine name and width ---------------------------------------------- *)

(* There is one engine and nothing to select.  The one-constructor type
   and its two functions stay because the pinned benchmark harness
   (perfbench/perfbench.ml) prints [engine_name (default_engine ())] in
   its header line; removing them would break that build. *)
type engine = Batch

let engine_name Batch = "batch"
let default_engine () = Batch

(* The engine is sequential.  This stays, always 1, for the same reason
   as [engine_name]: perfbench prints [default_workers ()] in that header
   line. *)
let default_workers () = 1

(* --- run accounting ------------------------------------------------------ *)

(* Per-run execution profile, surfaced through Executor.run_stats, the
   CLI and the benchmark harness. *)
type exec_profile = {
  batches : int;          (* batches delivered at the plan root *)
  max_batch_rows : int;
  rows_per_batch : float; (* mean selected rows per delivered batch *)
}

let pp_profile ppf p =
  Format.fprintf ppf "%d batches, %.1f rows/batch" p.batches p.rows_per_batch

(* --- small helpers ------------------------------------------------------- *)

let memory_pages env =
  Int.max 2 (int_of_float (Interval.mid (Env.memory_pages env)))

(* The working-set bound for the spilling cores: the environment's memory
   grant, further narrowed by the governor's remaining memory headroom.
   This is the graceful-degradation half of the memory budget — under
   pressure the cores spill *earlier* (smaller in-memory partitions and
   runs) instead of aborting; only an allocation that cannot fit even
   after maximal partitioning raises [Governor.Memory_exceeded]. *)
let governed_memory_pages env gov ~page_bytes =
  let mem = memory_pages env in
  match Governor.headroom gov with
  | None -> mem
  | Some bytes -> Int.max 2 (Int.min mem (bytes / Int.max 1 page_bytes))

let base_schema db rel =
  Schema.of_relation (Catalog.relation_exn (Database.catalog db) rel)

let tuples_per_page db width =
  Heap_file.tuples_per_page
    ~page_bytes:(Catalog.page_bytes (Database.catalog db))
    ~record_bytes:(Int.max 1 width)

let spill db width tuples =
  let heap =
    Heap_file.create (Database.pool db) ~tuples_per_page:(tuples_per_page db width)
  in
  List.iter (fun t -> ignore (Heap_file.append (Database.pool db) heap t)) tuples;
  heap

let unspill db heap =
  let acc = ref [] in
  Heap_file.scan (Database.pool db) heap (fun _ t -> acc := t :: !acc);
  List.rev !acc

let join_key ~left_schema preds side tuple =
  List.map
    (fun (p : Predicate.equi) ->
      match side with
      | `Left -> tuple.(Schema.position_exn left_schema p.Predicate.left)
      | `Right r_schema -> tuple.(Schema.position_exn r_schema p.Predicate.right))
    preds

(* --- hash join core (Grace partitioning under low memory) ---------------- *)

(* Join two fully materialized inputs.  If the build side fits in the
   memory grant, a single in-memory hash table; otherwise fan both sides
   out to temporary heap files and recurse per partition.  [emit] is
   called once per joined pair. *)
let hash_join_core ?(gov = Governor.none) ?(obs = Trace.null) db env
    ~left_schema ~right_schema ~left_width ~right_width ~preds ~emit build
    probe =
  let page_bytes = Catalog.page_bytes (Database.catalog db) in
  let build_key = join_key ~left_schema preds `Left in
  let probe_key = join_key ~left_schema preds (`Right right_schema) in
  let join_in_memory build probe =
    (* The hash table over the build side is the core's materialization:
       charge it against the memory budget for the duration of the probe.
       A partition that cannot fit even here (after maximal Grace
       partitioning under budget pressure) aborts with Memory_exceeded. *)
    Governor.with_charge gov (List.length build * Int.max 1 left_width)
      (fun () ->
        let table = Hashtbl.create (List.length build + 1) in
        List.iter (fun t -> Hashtbl.add table (build_key t) t) build;
        List.iter
          (fun r ->
            Governor.check gov;
            List.iter (fun l -> emit l r) (Hashtbl.find_all table (probe_key r)))
          probe)
  in
  let rec join_partition depth build probe =
    (* Re-read the grant per partition: governed headroom shrinks as
       sibling queries charge the shared pool. *)
    let mem = governed_memory_pages env gov ~page_bytes in
    let build_pages = List.length build * left_width / page_bytes in
    if build_pages <= mem - 1 || depth >= 3 then join_in_memory build probe
    else begin
      (* Grace hash join: fan out both inputs to temporary files. *)
      let fanout = Int.max 2 (mem - 1) in
      Trace.add obs Counter.Spill_partitions fanout;
      Trace.add obs Counter.Spilled_tuples
        (List.length build + List.length probe);
      let part key tuples width =
        let buckets = Array.make fanout [] in
        List.iter
          (fun t ->
            let h = Hashtbl.hash (depth, key t) mod fanout in
            buckets.(h) <- t :: buckets.(h))
          tuples;
        Array.map (fun ts -> spill db width (List.rev ts)) buckets
      in
      let build_parts = part build_key build left_width in
      let probe_parts = part probe_key probe right_width in
      Array.iteri
        (fun i bheap ->
          join_partition (depth + 1) (unspill db bheap)
            (unspill db probe_parts.(i)))
        build_parts
    end
  in
  join_partition 0 build probe

(* --- sort core (external runs under low memory) -------------------------- *)

let compare_on positions (a : tuple) (b : tuple) =
  let rec go = function
    | [] -> 0
    | p :: rest -> (
      match Int.compare a.(p) b.(p) with 0 -> go rest | c -> c)
  in
  go positions

(* Stable multi-way merge by pairwise passes: [List.merge] keeps the
   left operand's elements first on ties and the run list is in input
   order, so the result is the unique stable order — identical to what
   [List.stable_sort] over the concatenated input produces. *)
let rec merge_runs compare_tuples = function
  | [] -> []
  | [ l ] -> l
  | ls ->
    let rec pass = function
      | a :: b :: rest -> List.merge compare_tuples a b :: pass rest
      | tail -> tail
    in
    merge_runs compare_tuples (pass ls)

(* The first [n] elements of [l] and the rest, in one pass over the
   first [n]. *)
let split_at n l =
  let rec go acc k = function
    | x :: rest when k > 0 -> go (x :: acc) (k - 1) rest
    | rest -> (List.rev acc, rest)
  in
  go [] n l

(* Stable sort, spilling sorted runs to temporary heap files when the
   input exceeds the memory grant, then merging stably. *)
let sort_core ?(gov = Governor.none) ?(obs = Trace.null) db env ~width
    ~compare_tuples tuples =
  let page_bytes = Catalog.page_bytes (Database.catalog db) in
  let mem = governed_memory_pages env gov ~page_bytes in
  let n = List.length tuples in
  let pages = n * width / page_bytes in
  if pages <= mem then
    (* In-memory sort: the whole input is the working set. *)
    Governor.with_charge gov (n * Int.max 1 width) (fun () ->
        List.stable_sort compare_tuples tuples)
  else begin
    let per_run = Int.max 1 (mem * page_bytes / Int.max 1 width) in
    let rec runs acc = function
      | [] -> List.rev acc
      | rest ->
        Governor.check gov;
        let run, remainder = split_at per_run rest in
        let sorted =
          (* Each run is sized to the governed grant; charge it while
             sorting so a shrinking shared pool still surfaces. *)
          Governor.with_charge gov (List.length run * Int.max 1 width)
            (fun () -> List.stable_sort compare_tuples run)
        in
        Trace.incr obs Counter.Spill_runs;
        Trace.add obs Counter.Spilled_tuples (List.length sorted);
        runs (spill db width sorted :: acc) remainder
    in
    let run_files = runs [] tuples in
    let sorted_runs = List.map (fun h -> unspill db h) run_files in
    merge_runs compare_tuples sorted_runs
  end
