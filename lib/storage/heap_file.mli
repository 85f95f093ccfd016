(** Heap files: unordered collections of fixed-width tuples.

    The logical record width (512 bytes in the paper) determines how many
    tuples fit one page; the tuples themselves are integer arrays.

    A temporary file (a spill partition or sort run) is read back once
    with {!consume}, which releases each page as it is read, and a file
    abandoned part way is retired with {!release}.  Either way its pages
    go through {!Buffer_pool.release}: a page's id is recycled only after
    its frame has left the pool, and physical I/O and fault schedules are
    those of a file whose pages were never released. *)

type t

val tuples_per_page : page_bytes:int -> record_bytes:int -> int
(** @raise Invalid_argument if a record does not fit a page. *)

val create : Buffer_pool.t -> tuples_per_page:int -> t
(** An empty heap file. *)

val of_tuples : Buffer_pool.t -> tuples_per_page:int -> int array array -> t

val append : Buffer_pool.t -> t -> int array -> Rid.t
(** Append a tuple, allocating a new page when the last one is full. *)

val append_list : Buffer_pool.t -> t -> int array list -> unit
(** Fill an empty file with the tuples in order, a page at a time: the
    same pages and contents as repeated {!append}, with one pin per page
    instead of one per tuple.
    @raise Invalid_argument if the file is not empty. *)

val scan : Buffer_pool.t -> t -> (Rid.t -> int array -> unit) -> unit
(** Full scan in page order, pinning one page at a time. *)

val consume : Buffer_pool.t -> t -> (int array -> unit) -> unit
(** Read the file back in page order, as {!scan} does, releasing each
    page on the unpin that ends its read ({!Buffer_pool.unpin_and_release}).
    Afterwards the file is empty.  If a pin raises (an I/O fault, an
    exhausted I/O budget) or [f] does, the file holds exactly the pages
    not yet released and the exception goes on: {!release} retires
    them. *)

val release : Buffer_pool.t -> t -> unit
(** Release every page the file still holds ({!Buffer_pool.release})
    and leave it empty.  No I/O.
    @raise Invalid_argument if one of its pages is pinned. *)

val fetch : Buffer_pool.t -> Rid.t -> int array
(** Fetch a single record by rid.
    @raise Invalid_argument if the rid does not address a heap slot. *)

val page_count : t -> int
val tuple_count : t -> int
val page_ids : t -> int list
(** Page ids in file order. *)

val partition : t -> parts:int -> int list list
(** Split the file into at most [parts] contiguous page stripes (in file
    order), the unit a file scan reads at a time.  Every page appears in
    exactly one stripe; empty stripes are dropped, so the result may be
    shorter than [parts] for small files.
    @raise Invalid_argument if [parts <= 0]. *)
