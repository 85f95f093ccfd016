(** B+-trees over integer keys, mapping keys to record identifiers.

    Unclustered secondary indexes, as in the paper.  Duplicate keys are
    supported; entries are kept in non-decreasing key order across the
    chained leaf level.  Trees support online insertion (with node
    splits) and sorted bulk loading. *)

type t

val create : Buffer_pool.t -> page_bytes:int -> t
(** An empty tree (a single leaf). *)

val bulk_load : Buffer_pool.t -> page_bytes:int -> (int * Rid.t) array -> t
(** Build from entries; the input is sorted internally. *)

val insert : Buffer_pool.t -> t -> int -> Rid.t -> unit

val search : Buffer_pool.t -> t -> int -> Rid.t list
(** All rids stored under exactly the given key, in entry order. *)

val range : Buffer_pool.t -> t -> lo:int option -> hi:int option ->
  (int -> Rid.t -> unit) -> unit
(** In-order traversal of all entries with [lo <= key <= hi] (missing
    bounds are unbounded).  Visits keys in non-decreasing order. *)

val entry_count : Buffer_pool.t -> t -> int
val depth : Buffer_pool.t -> t -> int
(** Number of levels, 1 for a lone leaf. *)

val check_invariants : Buffer_pool.t -> t -> (unit, string) result
(** Structural validation used by the test suite: sortedness within and
    across leaves, separator consistency, uniform leaf depth, capacity
    bounds. *)
