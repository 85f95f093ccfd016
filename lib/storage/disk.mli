(** Simulated disk: a growable array of pages with a free list.

    The disk is the stable home of every page; the {!Buffer_pool} in
    front of it decides which accesses count as physical I/O.  An
    optional {!Fault} injector makes those physical accesses fallible:
    {!read} and {!write} consult the schedule and raise
    {!Fault.Io_fault} when the device misbehaves.

    Page lifecycle: {!allocate} hands out an id, popping the free list
    (last freed, first reused) before it grows the array; {!free}
    returns an id to that list and drops the disk's hold on its page.
    The pool frees an id only once no frame holds it (see
    {!Buffer_pool.release}), so a recycled id never aliases a resident
    page.  Freeing does no I/O and does not consult the fault schedule:
    recycling ids changes which ids later pages get, never the count or
    order of physical reads and writes, so seeded fault schedules are
    unchanged. *)

type t

val create : unit -> t

val allocate : t -> Page.t
(** Allocate a fresh [Free] page, reusing the most recently freed id if
    there is one. *)

val free : t -> int -> unit
(** Return a page id to the free list.
    @raise Invalid_argument if the id is unallocated or already free. *)

val get : t -> int -> Page.t
(** Raw access, never faulted — used by inspection and tests.
    @raise Invalid_argument on an unallocated or free page id. *)

val read : t -> int -> Page.t
(** A physical read: like {!get}, but consults the fault schedule first.
    @raise Fault.Io_fault when the schedule fails this read.
    @raise Invalid_argument on an unallocated or free page id. *)

val write : t -> int -> unit
(** A physical write of a page already in memory (the simulated disk
    shares page structures with the pool, so the write itself is a
    no-op; only the fault schedule and I/O accounting observe it).
    @raise Fault.Io_fault when the schedule fails this write. *)

val obs : t -> Dqep_obs.Trace.t
(** The device's owned observation trace: lifetime [Physical_reads],
    [Physical_writes], [Read_faults] and [Write_faults] at the disk
    layer — device totals, independent of any buffer pool's windowed
    accounting in front of it. *)

val set_faults : t -> Fault.t option -> unit
(** Install or remove a fault injector.  [None] restores the infallible
    disk. *)

val page_count : t -> int
(** Ids handed out so far, free ones included: the directory's size.
    Flat once freed ids cover every new allocation. *)

val free_pages : t -> int
(** Ids on the free list. *)
