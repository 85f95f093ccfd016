(** System catalog: relations, indexes and global storage parameters. *)

type t

val create :
  ?page_bytes:int ->
  relations:Relation.t list ->
  indexes:Index.t list ->
  unit ->
  t
(** Default [page_bytes] is 2048, as in the paper.
    @raise Invalid_argument on duplicate relation names or indexes
    referring to unknown relations/attributes. *)

val page_bytes : t -> int
val relations : t -> Relation.t list
val indexes : t -> Index.t list

val relation : t -> string -> Relation.t option
val relation_exn : t -> string -> Relation.t
(** @raise Not_found on unknown relation. *)

val has_index : t -> rel:string -> attr:string -> bool

val indexes_of : t -> string -> Index.t list
(** All indexes on the given relation. *)

val pages : t -> string -> int
(** Heap pages of a relation. *)

val domain_size : t -> rel:string -> attr:string -> int
(** @raise Not_found on unknown relation or attribute. *)

val pp : Format.formatter -> t -> unit
