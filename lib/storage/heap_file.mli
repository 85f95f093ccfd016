(** Heap files: unordered collections of fixed-width tuples.

    The logical record width (512 bytes in the paper) determines how many
    tuples fit one page; the tuples themselves are integer arrays. *)

type t

val tuples_per_page : page_bytes:int -> record_bytes:int -> int
(** @raise Invalid_argument if a record does not fit a page. *)

val create : Buffer_pool.t -> tuples_per_page:int -> t
(** An empty heap file. *)

val of_tuples : Buffer_pool.t -> tuples_per_page:int -> int array array -> t

val append : Buffer_pool.t -> t -> int array -> Rid.t
(** Append a tuple, allocating a new page when the last one is full. *)

val scan : Buffer_pool.t -> t -> (Rid.t -> int array -> unit) -> unit
(** Full scan in page order, pinning one page at a time. *)

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
