(** Record identifier: page number and slot within the page. *)

type t = { page : int; slot : int }

val make : page:int -> slot:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
