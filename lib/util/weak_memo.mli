(** A bounded memo keyed by the physical identity of two values.

    Two-way set-associative on a caller-supplied hash: each slot holds
    one (key, key, value) entry in an ephemeron, so the table keeps
    neither key alive and never grows; two key pairs hashing to the
    same set both stay, and a third evicts the one used least recently.
    A miss costs only a recomputation.  Ephemerons are immutable and a
    slot is one atomic word, so domains share a table without a lock. *)

type ('a, 'b, 'v) t

val create : int -> ('a, 'b, 'v) t
(** [create slots]; [slots] must be a power of two, at least 2. *)

val find : ('a, 'b, 'v) t -> hash:int -> 'a -> 'b -> 'v option
(** The value stored for exactly these two keys (physical equality), if
    their set still holds it. *)

val replace : ('a, 'b, 'v) t -> hash:int -> 'a -> 'b -> 'v -> unit
(** Store a value for the two keys: over their own entry if the set
    holds one, else over the set's least recently used entry. *)
