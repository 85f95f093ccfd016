(** LRU buffer pool in front of the simulated {!Disk}.

    The pool is where physical I/O is counted: a page access that misses
    the pool is a physical read; evicting a dirty page is a physical
    write.  Pinned pages are never evicted.

    The pool is also where fault injection and I/O budgets surface: a
    physical access that the disk's {!Fault} schedule fails raises
    {!Fault.Io_fault} (counted in {!stats}) and leaves the pool
    unchanged, and when an I/O limit is set with {!set_io_limit}, the
    physical access that exceeds it raises {!Io_budget_exceeded} — the
    mechanism behind the execution supervisor's cost-budget guard.

    The pool never holds more than {!frames} pages: [resident t <=
    frames t] after every {!pin} and {!new_page}, also when several
    domains miss at once, because a miss checks for room and admits its
    page in one critical section.  (A {!resize} whose eviction faults or
    trips the I/O budget can leave more pages than the new budget; the
    next admission evicts down to it first.)  Pages stay resident until
    evicted by exact LRU over unpinned frames.  {!pin}, {!unpin},
    {!mark_dirty} and {!new_page} may run from concurrent domains. *)

type t

type stats = {
  logical_reads : int;
  physical_reads : int;
  physical_writes : int;
  read_faults : int;  (** physical reads failed by the fault schedule *)
  write_faults : int;  (** physical writes failed by the fault schedule *)
}

exception Io_budget_exceeded of { limit : int; observed : int }
(** Raised by the physical access that pushes [physical_reads +
    physical_writes] past the configured limit. *)

val create : ?frames:int -> Disk.t -> t
(** [create ~frames disk] is a pool holding at most [frames] pages
    (default 64, the paper's expected memory size).
    @raise Invalid_argument if [frames <= 0]. *)

val disk : t -> Disk.t
val frames : t -> int
(** The frame budget: the most pages the pool holds, and so the most
    pages that can be pinned at once. *)

val resize : t -> int -> unit
(** Change the frame budget (evicting as needed); used when a run-time
    memory binding differs from the default.  Pinned pages are never
    evicted: shrinking below the number of currently pinned pages is
    refused rather than honoured silently.
    @raise Invalid_argument if the new size is [<= 0] or smaller than the
    number of currently pinned pages (the pool is left unchanged). *)

val set_io_limit : t -> int option -> unit
(** Arm or disarm the I/O budget: with [Some limit], the physical access
    that makes [physical_reads + physical_writes] exceed [limit] raises
    {!Io_budget_exceeded}.  The limit is against the absolute counters
    (compare with {!stats} taken when arming). *)

val pin : t -> int -> Page.t
(** [pin t id] fetches page [id], counting a physical read on a miss,
    and pins it.
    @raise Fault.Io_fault if the disk fails the read (no I/O is counted,
    the pool is unchanged, the page is not pinned).
    @raise Io_budget_exceeded per {!set_io_limit}.  If the miss's own
    read trips it, the page is left resident but not pinned; if the
    write of a dirty victim trips it, the victim is already evicted and
    the page not yet admitted.
    @raise Failure on a miss when every frame is pinned. *)

val unpin : t -> int -> unit
(** @raise Invalid_argument if the page is not resident or not pinned. *)

val mark_dirty : t -> int -> unit
(** Mark a resident page dirty so its eviction counts as a write. *)

val with_page : t -> int -> (Page.t -> 'a) -> 'a
(** Pin, apply, unpin (also on exception). *)

val new_page : t -> Page.t
(** Allocate a disk page and pin it (counts as neither read nor write
    until evicted dirty). *)

val flush_all : t -> unit
(** Write out all dirty pages, in page-id order.
    @raise Fault.Io_fault if the disk fails one of the writes; pages
    flushed before the fault stay clean, the faulted one stays dirty. *)

val stats : t -> stats
(** Counter totals since creation (or the last {!reset_stats}) — a view
    over the pool's observation trace ({!obs}). *)

val diff : before:stats -> after:stats -> stats
(** Per-field difference, for windowed I/O accounting of one run. *)

val stats_of_trace : Dqep_obs.Trace.t -> stats
(** Read the pool's five I/O counters out of any trace — the adapter
    between a run's observation trace (see {!attach_obs}) and the
    windowed [stats] view the execution layers report. *)

val reset_stats : t -> unit
(** Rebase {!stats} to zero.  The underlying observation trace is
    append-only; this only moves the view's baseline. *)

val obs : t -> Dqep_obs.Trace.t
(** The pool's owned observation trace, where every I/O and fault
    counter lands ([Logical_reads], [Physical_reads], [Physical_writes],
    [Read_faults], [Write_faults]). *)

val attach_obs : t -> Dqep_obs.Trace.t -> unit
(** Tee subsequent counter increments into a second trace — how an
    executor run collects its own I/O window without before/after
    subtraction.  One extra trace at a time; attaching replaces any
    previous one. *)

val detach_obs : t -> unit
val resident : t -> int
(** Number of pages currently held. *)

val resident_pages : t -> int list
(** Ids of the pages currently held, sorted — which pages the
    replacement policy has kept. *)

val pinned_count : t -> int
(** Number of resident pages with at least one pin. *)

val leak_check : t -> (unit, string) result
(** [Ok ()] iff no page is pinned.  Between queries every pin should
    have been released ({!with_page} unpins on exceptions too), so the
    chaos/cancellation harnesses assert this after every outcome —
    including aborted and cancelled runs. *)
