module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

type frame = {
  page : Page.t;
  mutable pins : int;
  mutable dirty : bool;
  mutable last_use : int;
  mutable slot : int; (* index in [slots] *)
  mutable released : bool; (* its id goes to the free list on eviction *)
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

(* A database serves one run at a time, so the pool keeps one mutex and
   holds it for the whole of every operation, a miss's disk read and
   its eviction included; the mutex keeps the pool consistent if a
   caller breaks that contract.  Every frame (pins, dirty bit, LRU
   stamp) lives in one hashtable keyed by page id, and [slots] is a
   flat array of the resident frames in which each frame records its
   index, so removal is O(1).  A miss checks for room and admits its
   page in one hold, so the pool never holds more than [capacity]
   pages.

   The policy is exact LRU over unpinned frames: a counter stamps every
   use uniquely, and eviction scans [slots] for the unpinned frame with
   the smallest stamp.  A [resize] that shrinks the pool far rebuilds
   [slots] and the table, so a bulk load through thousands of frames
   leaves nothing that size behind.

   A released frame has dropped its payload but keeps its place: it is
   evicted in LRU order like any other and written then if dirty, and
   only its removal hands its id to the disk's free list.  So releasing
   moves no I/O, and no id is recycled while a frame holds it.

   I/O accounting lives on an owned observation trace: the pool's
   counters are ordinary [Dqep_obs.Counter]s, and a per-run trace can be
   teed in with [attach_obs] so an executor run sees its own I/O without
   windowed before/after subtraction.  [base] implements [reset_stats]
   by snapshot, since traces are append-only. *)

type t = {
  disk : Disk.t;
  mu : Mutex.t;
  mutable capacity : int;
  mutable table : (int, frame) Hashtbl.t;
  mutable slots : frame array; (* resident frames in [0, count) *)
  mutable count : int;
  mutable clock : int;
  obs : Trace.t;
  mutable obs_extra : Trace.t option;
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

(* Initial bucket count of the table for [capacity] frames;
   [Hashtbl.create] never allocates fewer than 16. *)
let table_size capacity = Int.max 16 (2 * capacity)

(* Fills the unused tail of [slots]; its stamp loses every comparison. *)
let no_frame =
  { page = { Page.id = -1; payload = Page.Free }; pins = 0; dirty = false;
    last_use = max_int; slot = -1; released = false }

let create ?(frames = 64) disk =
  if frames <= 0 then invalid_arg "Buffer_pool.create: frames <= 0";
  { disk;
    mu = Mutex.create ();
    capacity = frames;
    table = Hashtbl.create (table_size frames);
    slots = Array.make frames no_frame;
    count = 0;
    clock = 0;
    obs = Trace.create ();
    obs_extra = None;
    base = zero_stats;
    io_limit = None }

let disk t = t.disk
let frames t = t.capacity

let attach_obs t tr = t.obs_extra <- Some tr
let detach_obs t = t.obs_extra <- None

let bump t c =
  Trace.incr t.obs c;
  match t.obs_extra with Some tr -> Trace.incr tr c | None -> ()

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

(* Helpers up to [locked] require [mu]; the operations after it hold it. *)

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let resident_frames t = Array.to_list (Array.sub t.slots 0 t.count)

(* The unpinned frame with the smallest stamp. *)
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

(* A faulted write leaves the frame resident and dirty: nothing was
   evicted, the retry sees a consistent pool. *)
let remove t f =
  if f.dirty then write t f;
  Hashtbl.remove t.table f.page.Page.id;
  let last = t.slots.(t.count - 1) in
  t.slots.(f.slot) <- last;
  last.slot <- f.slot;
  t.slots.(t.count - 1) <- no_frame;
  t.count <- t.count - 1;
  if f.released then Disk.free t.disk f.page.Page.id;
  if f.dirty then check_io_limit t

(* Evicts until there is room for one more page. *)
let rec make_room t =
  if t.count >= t.capacity then begin
    remove t (lru_victim t);
    make_room t
  end

(* Requires room. *)
let admit t page ~pins ~dirty =
  let f = { page; pins; dirty; last_use = tick t; slot = t.count; released = false } in
  Hashtbl.add t.table page.Page.id f;
  t.slots.(t.count) <- f;
  t.count <- t.count + 1;
  f

let pinned t =
  List.filter_map
    (fun f -> if f.pins > 0 then Some (f.page.Page.id, f.pins) else None)
    (resident_frames t)
  |> List.sort compare

(* Counted in place: every run resizes its pool, so this must not list
   the resident frames. *)
let count_pinned t =
  let n = ref 0 in
  for i = 0 to t.count - 1 do
    if t.slots.(i).pins > 0 then incr n
  done;
  !n

let locked t f = Mutex.protect t.mu f

let pinned_count t = locked t (fun () -> count_pinned t)
let pinned_pages t = locked t (fun () -> pinned t)

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
  locked t (fun () ->
      if capacity < count_pinned t then
        invalid_arg "Buffer_pool.resize: smaller than pinned pages";
      t.capacity <- capacity;
      while t.count > capacity do
        remove t (lru_victim t)
      done;
      (* [slots] and the table were last built for this capacity. *)
      let sized = Array.length t.slots in
      if capacity > sized || table_size sized > 4 * table_size capacity then begin
        t.slots <-
          Array.init capacity (fun i -> if i < t.count then t.slots.(i) else no_frame);
        (* [Hashtbl.reset] only shrinks back to the creation size, so a
           table sized for a much larger pool is copied into a fresh one. *)
        let table = Hashtbl.create (table_size capacity) in
        Hashtbl.iter (Hashtbl.add table) t.table;
        t.table <- table
      end)

let pin t id =
  locked t (fun () ->
      bump t Counter.Logical_reads;
      match Hashtbl.find_opt t.table id with
      | Some f ->
        if f.released then invalid_arg "Buffer_pool.pin: released page";
        f.pins <- f.pins + 1;
        f.last_use <- tick t;
        f.page
      | None ->
        (* Fault checks first: a failed read performs no I/O and leaves
           the pool unchanged, so a supervisor can simply re-pin. *)
        let page =
          try Disk.read t.disk id
          with Fault.Io_fault _ as e ->
            bump t Counter.Read_faults;
            raise e
        in
        make_room t;
        bump t Counter.Physical_reads;
        let f = admit t page ~pins:0 ~dirty:false in
        (* Pin only after the budget check: if the limit fires here, the
           page is resident but unpinned, so an aborted run leaks no
           pins. *)
        check_io_limit t;
        f.pins <- 1;
        page)

let unpin t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.table id with
      | None -> invalid_arg "Buffer_pool.unpin: page not resident"
      | Some f ->
        if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: page not pinned";
        f.pins <- f.pins - 1)

(* The frame stays resident; its payload goes at once. *)
let retire f =
  f.released <- true;
  f.page.Page.payload <- Page.Free

let unpin_and_release t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.table id with
      | None -> invalid_arg "Buffer_pool.unpin_and_release: page not resident"
      | Some f ->
        if f.pins <= 0 then
          invalid_arg "Buffer_pool.unpin_and_release: page not pinned";
        if f.pins > 1 then
          invalid_arg "Buffer_pool.unpin_and_release: page pinned elsewhere";
        f.pins <- 0;
        retire f)

let release t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.table id with
      | None -> Disk.free t.disk id
      | Some f ->
        if f.pins > 0 then invalid_arg "Buffer_pool.release: page pinned";
        if f.released then invalid_arg "Buffer_pool.release: page already released";
        retire f)

let mark_dirty t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.table id with
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
  locked t (fun () ->
      make_room t;
      let page = Disk.allocate t.disk in
      ignore (admit t page ~pins:1 ~dirty:true);
      page)

(* Writes in page-id order, so which pages a fault or an exhausted
   budget leaves dirty does not depend on residency order. *)
let flush_all t =
  locked t (fun () ->
      resident_frames t
      |> List.sort (fun a b -> Int.compare a.page.Page.id b.page.Page.id)
      |> List.iter (fun f ->
             if f.dirty then begin
               write t f;
               f.dirty <- false;
               check_io_limit t
             end))

let resident t = t.count

let live_pages t =
  locked t (fun () ->
      let released = ref 0 in
      for i = 0 to t.count - 1 do
        if t.slots.(i).released then incr released
      done;
      Disk.page_count t.disk - Disk.free_pages t.disk - !released)

let resident_pages t =
  locked t (fun () -> List.map (fun f -> f.page.Page.id) (resident_frames t))
  |> List.sort Int.compare
