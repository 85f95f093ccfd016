module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type frame = {
  page : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable last_use : int;
}

type stats = {
  logical_reads : int;
  physical_reads : int;
  physical_writes : int;
  read_faults : int;
  write_faults : int;
}

exception Io_budget_exceeded of { limit : int; observed : int }

let () =
  Printexc.register_printer (function
    | Io_budget_exceeded { limit; observed } ->
      Some
        (Printf.sprintf "Buffer_pool.Io_budget_exceeded(limit %d, observed %d)"
           limit observed)
    | _ -> None)

(* The latch is sharded so concurrent morsel scans stop contending on
   one lock: residency is split over [shard_count] hashtables keyed by
   [page_id mod shard_count], each behind its own mutex, and a pin hit —
   the hot path — touches exactly one shard.  Replacement state stays
   global so the observable policy is unchanged from the single-latch
   pool: one atomic LRU clock, one atomic resident count, and eviction
   takes every shard lock (always in ascending order, so two evictors
   cannot deadlock) to pick the globally least-recently-used unpinned
   victim.

   Victim selection folds over every bucket of every shard table, so
   the tables track the current capacity rather than the largest one
   the pool has held: a pool bulk-loaded through thousands of frames
   and then shrunk to a small grant rebuilds its tables in [resize],
   keeping eviction O(capacity).  LRU clock values are unique, so the
   rebuild cannot change which frame a later eviction picks.

   I/O accounting lives on an owned observation trace: the pool's
   counters are ordinary [Dqep_obs.Counter]s, and a per-run trace can be
   teed in with [attach_obs] so an executor run sees its own I/O without
   windowed before/after subtraction.  [base] implements [reset_stats]
   by snapshot, since traces are append-only. *)

let shard_count = 16

type shard = {
  smu : Mutex.t;
  mutable table : (int, frame) Hashtbl.t; (* replaced only under all shard locks *)
}

type t = {
  disk : Disk.t;
  mutable capacity : int; (* written only under all shard locks *)
  mutable sized_for : int;
      (* largest capacity since the shard tables were built; the tables
         hold at most that many frames, so their bucket count is bounded
         by it.  Written only under all shard locks. *)
  shards : shard array;
  clock : int Atomic.t;
  resident_n : int Atomic.t;
  obs : Trace.t;
  obs_extra : Trace.t option Atomic.t;
  mutable base : stats;
  mutable io_limit : int option;
}

let zero_stats =
  {
    logical_reads = 0;
    physical_reads = 0;
    physical_writes = 0;
    read_faults = 0;
    write_faults = 0;
  }

(* Initial bucket count of a shard table for [capacity] frames;
   [Hashtbl.create] never allocates fewer than 16. *)
let table_size capacity = Int.max 16 (2 * (1 + (capacity / shard_count)))

let create ?(frames = 64) disk =
  if frames <= 0 then invalid_arg "Buffer_pool.create: frames <= 0";
  { disk;
    capacity = frames;
    sized_for = frames;
    shards =
      Array.init shard_count (fun _ ->
          { smu = Mutex.create (); table = Hashtbl.create (table_size frames) });
    clock = Atomic.make 0;
    resident_n = Atomic.make 0;
    obs = Trace.create ();
    obs_extra = Atomic.make None;
    base = zero_stats;
    io_limit = None }

let disk t = t.disk
let frames t = t.capacity

let obs t = t.obs
let attach_obs t tr = Atomic.set t.obs_extra (Some tr)
let detach_obs t = Atomic.set t.obs_extra None

let bump t c =
  Trace.incr t.obs c;
  match Atomic.get t.obs_extra with Some tr -> Trace.incr tr c | None -> ()

let stats_of_trace tr =
  {
    logical_reads = Trace.get tr Counter.Logical_reads;
    physical_reads = Trace.get tr Counter.Physical_reads;
    physical_writes = Trace.get tr Counter.Physical_writes;
    read_faults = Trace.get tr Counter.Read_faults;
    write_faults = Trace.get tr Counter.Write_faults;
  }

let raw_stats t = stats_of_trace t.obs

let stats t =
  let raw = raw_stats t in
  {
    logical_reads = raw.logical_reads - t.base.logical_reads;
    physical_reads = raw.physical_reads - t.base.physical_reads;
    physical_writes = raw.physical_writes - t.base.physical_writes;
    read_faults = raw.read_faults - t.base.read_faults;
    write_faults = raw.write_faults - t.base.write_faults;
  }

let reset_stats t = t.base <- raw_stats t

let set_io_limit t limit = t.io_limit <- limit
let io_limit t = t.io_limit

let check_io_limit t =
  match t.io_limit with
  | Some limit ->
    let s = stats t in
    let observed = s.physical_reads + s.physical_writes in
    if observed > limit then raise (Io_budget_exceeded { limit; observed })
  | None -> ()

let tick t = Atomic.fetch_and_add t.clock 1 + 1

let shard_of t id = t.shards.(id mod shard_count)

let with_shard t id f =
  let s = shard_of t id in
  Mutex.lock s.smu;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.smu) f

let lock_all t =
  for i = 0 to shard_count - 1 do
    Mutex.lock t.shards.(i).smu
  done

let unlock_all t =
  for i = shard_count - 1 downto 0 do
    Mutex.unlock t.shards.(i).smu
  done

let with_all t f =
  lock_all t;
  Fun.protect ~finally:(fun () -> unlock_all t) f

(* Requires all shard locks.  Folds over every resident frame. *)
let fold_locked t f init =
  Array.fold_left (fun acc s -> Hashtbl.fold f s.table acc) init t.shards

(* Requires all shard locks.  Globally least-recently-used unpinned
   victim, exactly as the single-latch pool chose it. *)
let evict_one_locked t =
  let victim =
    fold_locked t
      (fun id f best ->
        if f.pins > 0 then best
        else
          match best with
          | Some (_, bf) when bf.last_use <= f.last_use -> best
          | _ -> Some (id, f))
      None
  in
  match victim with
  | None -> failwith "Buffer_pool: all frames pinned"
  | Some (id, f) ->
    if f.dirty then begin
      (* A faulted write leaves the frame resident and dirty: nothing was
         evicted, the retry sees a consistent pool. *)
      (try Disk.write t.disk id
       with Fault.Io_fault _ as e ->
         bump t Counter.Write_faults;
         raise e);
      bump t Counter.Physical_writes
    end;
    Hashtbl.remove (shard_of t id).table id;
    Atomic.decr t.resident_n;
    if f.dirty then check_io_limit t

let ensure_room t =
  while Atomic.get t.resident_n >= t.capacity do
    with_all t (fun () ->
        if Atomic.get t.resident_n >= t.capacity then evict_one_locked t)
  done

let pinned_pages_locked t =
  fold_locked t (fun id f acc -> if f.pins > 0 then (id, f.pins) :: acc else acc) []
  |> List.sort compare

let pinned_count_locked t =
  fold_locked t (fun _ f n -> if f.pins > 0 then n + 1 else n) 0

let pinned_count t = with_all t (fun () -> pinned_count_locked t)
let pinned_pages t = with_all t (fun () -> pinned_pages_locked t)

let leak_check t =
  match pinned_pages t with
  | [] -> Ok ()
  | leaks ->
    Error
      (Printf.sprintf "%d pinned page(s) leaked: %s" (List.length leaks)
         (String.concat ", "
            (List.map
               (fun (id, pins) -> Printf.sprintf "page %d (%d pins)" id pins)
               leaks)))

let resize t capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.resize: capacity <= 0";
  with_all t (fun () ->
      if capacity < pinned_count_locked t then
        invalid_arg "Buffer_pool.resize: smaller than pinned pages";
      t.capacity <- capacity;
      t.sized_for <- Int.max t.sized_for capacity;
      while Atomic.get t.resident_n > t.capacity do
        evict_one_locked t
      done;
      (* [Hashtbl.reset] only shrinks back to the creation size, so a
         table sized for a much larger pool is copied into a fresh one. *)
      if table_size t.sized_for > 4 * table_size capacity then begin
        Array.iter
          (fun s ->
            let table = Hashtbl.create (table_size capacity) in
            Hashtbl.iter (Hashtbl.add table) s.table;
            s.table <- table)
          t.shards;
        t.sized_for <- capacity
      end)

let pin t id =
  bump t Counter.Logical_reads;
  let hit =
    with_shard t id (fun () ->
        match Hashtbl.find_opt (shard_of t id).table id with
        | Some f ->
          f.pins <- f.pins + 1;
          f.last_use <- tick t;
          Some f.page
        | None -> None)
  in
  match hit with
  | Some page -> page
  | None ->
    (* Fault checks first: a failed read performs no I/O and leaves the
       pool unchanged, so a supervisor can simply re-pin. *)
    let page =
      try Disk.read t.disk id
      with Fault.Io_fault _ as e ->
        bump t Counter.Read_faults;
        raise e
    in
    ensure_room t;
    bump t Counter.Physical_reads;
    with_shard t id (fun () ->
        let table = (shard_of t id).table in
        match Hashtbl.find_opt table id with
        | Some f ->
          (* Another domain raced the same miss and inserted first; both
             physical reads really happened and both are counted. *)
          f.last_use <- tick t;
          check_io_limit t;
          f.pins <- f.pins + 1;
          f.page
        | None ->
          (* Pin only after the budget check: if the limit fires here,
             the page is resident but unpinned, so an aborted run leaks
             no pins. *)
          let f = { page; pins = 0; dirty = false; last_use = tick t } in
          Hashtbl.add table id f;
          Atomic.incr t.resident_n;
          check_io_limit t;
          f.pins <- 1;
          page)

let unpin t id =
  with_shard t id (fun () ->
      match Hashtbl.find_opt (shard_of t id).table id with
      | None -> invalid_arg "Buffer_pool.unpin: page not resident"
      | Some f ->
        if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: page not pinned";
        f.pins <- f.pins - 1)

let mark_dirty t id =
  with_shard t id (fun () ->
      match Hashtbl.find_opt (shard_of t id).table id with
      | None -> invalid_arg "Buffer_pool.mark_dirty: page not resident"
      | Some f -> f.dirty <- true)

let with_page t id f =
  let page = pin t id in
  Fun.protect ~finally:(fun () -> unpin t id) (fun () -> f page)

let new_page t =
  ensure_room t;
  let page = Disk.allocate t.disk in
  with_shard t page.Page.id (fun () ->
      let f = { page; pins = 1; dirty = true; last_use = tick t } in
      Hashtbl.add (shard_of t page.Page.id).table page.Page.id f;
      Atomic.incr t.resident_n);
  page

let flush_all t =
  with_all t (fun () ->
      Array.iter
        (fun s ->
          Hashtbl.iter
            (fun id f ->
              if f.dirty then begin
                (try Disk.write t.disk id
                 with Fault.Io_fault _ as e ->
                   bump t Counter.Write_faults;
                   raise e);
                bump t Counter.Physical_writes;
                f.dirty <- false;
                check_io_limit t
              end)
            s.table)
        t.shards)

let diff ~(before : stats) ~(after : stats) =
  { logical_reads = after.logical_reads - before.logical_reads;
    physical_reads = after.physical_reads - before.physical_reads;
    physical_writes = after.physical_writes - before.physical_writes;
    read_faults = after.read_faults - before.read_faults;
    write_faults = after.write_faults - before.write_faults }

let resident t = Atomic.get t.resident_n

let resident_pages t =
  with_all t (fun () -> fold_locked t (fun id _ acc -> id :: acc) [])
  |> List.sort Int.compare
