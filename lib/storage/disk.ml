module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

(* One mutex serializes the page directory and the (stateful) fault
   schedule: [allocate] grows the array or pops the free list, and
   [Fault.on_read]/[on_write] advance a seeded RNG even on success.  The
   disk does not lean on a pool's mutex: [get], [page_count] and
   [set_faults] reach it without going through a pool, and nothing
   stops two pools from sharing one disk.  Simulated I/O holds the lock
   for a few array reads only.

   A free id's directory slot holds [free_slot], so [free] and the
   accessors tell a free id from a live one in O(1); [free] is a stack,
   so the id freed last is handed out first. *)
type t = {
  mu : Mutex.t;
  mutable pages : Page.t array;
  mutable used : int;
  mutable free : int list;
  mutable free_count : int;
  mutable faults : Fault.t option;
  obs : Trace.t;
}

let free_slot = { Page.id = -1; payload = Page.Free }

let create () =
  { mu = Mutex.create ();
    pages = Array.make 64 free_slot;
    used = 0;
    free = [];
    free_count = 0;
    faults = None;
    obs = Trace.create () }

let obs t = t.obs

let locked t f = Mutex.protect t.mu f

let allocate t =
  locked t (fun () ->
      match t.free with
      | id :: rest ->
        t.free <- rest;
        t.free_count <- t.free_count - 1;
        let page = { Page.id; payload = Page.Free } in
        t.pages.(id) <- page;
        page
      | [] ->
        if t.used = Array.length t.pages then begin
          let bigger = Array.make (2 * t.used) free_slot in
          Array.blit t.pages 0 bigger 0 t.used;
          t.pages <- bigger
        end;
        let page = { Page.id = t.used; payload = Page.Free } in
        t.pages.(t.used) <- page;
        t.used <- t.used + 1;
        page)

let live t id = id >= 0 && id < t.used && t.pages.(id) != free_slot

let free t id =
  locked t (fun () ->
      if not (live t id) then invalid_arg "Disk.free: page not allocated";
      t.pages.(id) <- free_slot;
      t.free <- id :: t.free;
      t.free_count <- t.free_count + 1)

let get t id =
  locked t (fun () ->
      if not (live t id) then invalid_arg "Disk.get: unallocated page id";
      t.pages.(id))

let read t id =
  locked t (fun () ->
      if not (live t id) then invalid_arg "Disk.get: unallocated page id";
      (match t.faults with
      | Some f -> (
        try Fault.on_read f ~page:id
        with Fault.Io_fault _ as e ->
          Trace.incr t.obs Counter.Read_faults;
          raise e)
      | None -> ());
      Trace.incr t.obs Counter.Physical_reads;
      t.pages.(id))

let write t id =
  locked t (fun () ->
      (match t.faults with
      | Some f -> (
        try Fault.on_write f ~page:id
        with Fault.Io_fault _ as e ->
          Trace.incr t.obs Counter.Write_faults;
          raise e)
      | None -> ());
      Trace.incr t.obs Counter.Physical_writes;
      ignore id)

let set_faults t f = locked t (fun () -> t.faults <- f)

let page_count t = locked t (fun () -> t.used)

let free_pages t = locked t (fun () -> t.free_count)
