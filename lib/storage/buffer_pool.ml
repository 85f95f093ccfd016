module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type frame = {
  page : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable last_use : int;
  mutable slot : int; (* index in [slots]; under the eviction mutex *)
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

(* Two locks, each owning one thing.  A page's frame (pins, dirty bit,
   LRU stamp) lives in one of [shard_count] hashtables keyed by
   [page_id mod shard_count], each behind its own mutex: a pin hit —
   the hot path of every scan — [unpin] and [mark_dirty] take
   only that one.  Residency belongs to the eviction mutex [emu]:
   admission, eviction, the resident count, and [slots], a flat array
   of the resident frames in which each frame records its index.
   Tables change only under [emu] and their shard's mutex, so a holder
   of [emu] may read any table.  Lock order is [emu], then shards
   ascending.  A miss checks for room and admits its page in one hold
   of [emu], so the pool never holds more than [capacity] pages.

   The policy is exact LRU over unpinned frames.  An atomic clock
   stamps every use uniquely; eviction scans [slots] for the unpinned
   frame with the smallest stamp without shard locks, then re-checks
   pins and stamp under the victim's shard lock and scans again if
   either changed.  Only [resize], [flush_all] and the snapshots take
   every lock.  A [resize] that shrinks the pool far rebuilds [slots]
   and the tables, so a bulk load through thousands of frames leaves
   nothing that size behind.

   I/O accounting lives on an owned observation trace: the pool's
   counters are ordinary [Dqep_obs.Counter]s, and a per-run trace can be
   teed in with [attach_obs] so an executor run sees its own I/O without
   windowed before/after subtraction.  [base] implements [reset_stats]
   by snapshot, since traces are append-only. *)

let shard_count = 16

type shard = {
  smu : Mutex.t;
  mutable table : (int, frame) Hashtbl.t; (* replaced only under [with_all] *)
}

type t = {
  disk : Disk.t;
  mutable capacity : int; (* written only under [with_all] *)
  shards : shard array;
  emu : Mutex.t;
  mutable slots : frame array; (* resident frames in [0, count); under [emu] *)
  mutable count : int; (* written only under [emu] *)
  clock : int Atomic.t;
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

(* Fills the unused tail of [slots]; its stamp loses every comparison. *)
let no_frame =
  { page = { Page.id = -1; payload = Page.Free }; pins = 0; dirty = false;
    last_use = max_int; slot = -1 }

let create ?(frames = 64) disk =
  if frames <= 0 then invalid_arg "Buffer_pool.create: frames <= 0";
  { disk;
    capacity = frames;
    shards =
      Array.init shard_count (fun _ ->
          { smu = Mutex.create (); table = Hashtbl.create (table_size frames) });
    emu = Mutex.create ();
    slots = Array.make frames no_frame;
    count = 0;
    clock = Atomic.make 0;
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

let diff ~(before : stats) ~(after : stats) =
  { logical_reads = after.logical_reads - before.logical_reads;
    physical_reads = after.physical_reads - before.physical_reads;
    physical_writes = after.physical_writes - before.physical_writes;
    read_faults = after.read_faults - before.read_faults;
    write_faults = after.write_faults - before.write_faults }

let stats t = diff ~before:t.base ~after:(raw_stats t)

let reset_stats t = t.base <- raw_stats t

let set_io_limit t limit = t.io_limit <- limit

let check_io_limit t =
  match t.io_limit with
  | Some limit ->
    let s = stats t in
    let observed = s.physical_reads + s.physical_writes in
    if observed > limit then raise (Io_budget_exceeded { limit; observed })
  | None -> ()

let tick t = Atomic.fetch_and_add t.clock 1 + 1

let shard_of t id = t.shards.(id mod shard_count)

let with_shard t id f = Mutex.protect (shard_of t id).smu f

let with_all t f =
  Mutex.lock t.emu;
  Array.iter (fun s -> Mutex.lock s.smu) t.shards;
  let release () =
    Array.iter (fun s -> Mutex.unlock s.smu) t.shards;
    Mutex.unlock t.emu
  in
  match f () with
  | x ->
    release ();
    x
  | exception e ->
    release ();
    raise e

let resident_frames t = Array.to_list (Array.sub t.slots 0 t.count)

(* Requires [emu].  The unpinned frame with the smallest stamp. *)
let lru_victim t =
  let best = ref no_frame in
  for i = 0 to t.count - 1 do
    let f = t.slots.(i) in
    if f.pins = 0 && f.last_use < !best.last_use then best := f
  done;
  if !best == no_frame then failwith "Buffer_pool: all frames pinned";
  !best

let write t f =
  (try Disk.write t.disk f.page.Page.id
   with Fault.Io_fault _ as e ->
     bump t Counter.Write_faults;
     raise e);
  bump t Counter.Physical_writes

(* Requires [emu] and the victim's shard lock.  A faulted write leaves
   the frame resident and dirty: nothing was evicted, the retry sees a
   consistent pool. *)
let remove_locked t f =
  let id = f.page.Page.id in
  if f.dirty then write t f;
  Hashtbl.remove (shard_of t id).table id;
  let last = t.slots.(t.count - 1) in
  t.slots.(f.slot) <- last;
  last.slot <- f.slot;
  t.slots.(t.count - 1) <- no_frame;
  t.count <- t.count - 1;
  if f.dirty then check_io_limit t

(* Requires [emu] only.  Evicts until there is room for one more page. *)
let rec make_room t =
  if t.count >= t.capacity then begin
    let f = lru_victim t in
    let stamp = f.last_use in
    with_shard t f.page.Page.id (fun () ->
        if f.pins = 0 && f.last_use = stamp then remove_locked t f);
    make_room t
  end

(* Requires [emu], room, and the shard lock of [page]. *)
let admit_locked t page ~pins ~dirty =
  let f = { page; pins; dirty; last_use = tick t; slot = t.count } in
  Hashtbl.add (shard_of t page.Page.id).table page.Page.id f;
  t.slots.(t.count) <- f;
  t.count <- t.count + 1;
  f

let pinned_pages_locked t =
  List.filter_map
    (fun f -> if f.pins > 0 then Some (f.page.Page.id, f.pins) else None)
    (resident_frames t)
  |> List.sort compare

let pinned_count t = with_all t (fun () -> List.length (pinned_pages_locked t))
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
      if capacity < List.length (pinned_pages_locked t) then
        invalid_arg "Buffer_pool.resize: smaller than pinned pages";
      t.capacity <- capacity;
      while t.count > capacity do
        remove_locked t (lru_victim t)
      done;
      (* [slots] and the tables were last built for this capacity. *)
      let sized = Array.length t.slots in
      if capacity > sized || table_size sized > 4 * table_size capacity then begin
        t.slots <-
          Array.init capacity (fun i -> if i < t.count then t.slots.(i) else no_frame);
        (* [Hashtbl.reset] only shrinks back to the creation size, so a
           table sized for a much larger pool is copied into a fresh one. *)
        Array.iter
          (fun s ->
            let table = Hashtbl.create (table_size capacity) in
            Hashtbl.iter (Hashtbl.add table) s.table;
            s.table <- table)
          t.shards
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
    Mutex.protect t.emu (fun () ->
        let table = (shard_of t id).table in
        if not (Hashtbl.mem table id) then make_room t;
        bump t Counter.Physical_reads;
        with_shard t id (fun () ->
            let f =
              match Hashtbl.find_opt table id with
              | Some f ->
                (* Another domain raced the same miss and admitted the
                   page first; both physical reads really happened and
                   both are counted. *)
                f.last_use <- tick t;
                f
              | None -> admit_locked t page ~pins:0 ~dirty:false
            in
            (* Pin only after the budget check: if the limit fires here,
               the page is resident but unpinned, so an aborted run leaks
               no pins. *)
            check_io_limit t;
            f.pins <- f.pins + 1;
            f.page))

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
  match f page with
  | x ->
    unpin t id;
    x
  | exception e ->
    unpin t id;
    raise e

let new_page t =
  Mutex.protect t.emu (fun () ->
      make_room t;
      let page = Disk.allocate t.disk in
      with_shard t page.Page.id (fun () ->
          ignore (admit_locked t page ~pins:1 ~dirty:true));
      page)

(* Writes in page-id order, so which pages a fault or an exhausted
   budget leaves dirty does not depend on residency order. *)
let flush_all t =
  with_all t (fun () ->
      resident_frames t
      |> List.sort (fun a b -> Int.compare a.page.Page.id b.page.Page.id)
      |> List.iter (fun f ->
             if f.dirty then begin
               write t f;
               f.dirty <- false;
               check_io_limit t
             end))

let resident t = t.count

let resident_pages t =
  with_all t (fun () -> List.map (fun f -> f.page.Page.id) (resident_frames t))
  |> List.sort Int.compare
