(** Deterministic pseudo-random number generator (splitmix64).

    All experiments are seeded so every figure is exactly reproducible;
    independent streams are derived with {!split}. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)


val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is a uniform float in [\[lo, hi)]. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is a uniform integer in [\[lo, hi\]] inclusive. *)

val shuffle : t -> 'a array -> unit
