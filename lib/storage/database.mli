(** A materialized database: synthetic data generated from a catalog,
    stored in heap files with B-tree indexes, behind one buffer pool.

    Attribute values are integers drawn uniformly from the attribute's
    domain, matching the paper's uniform-distribution assumptions; a
    selection predicate [attr <= c] therefore has true selectivity
    [c / domain_size]. *)

type t

val actual_selectivity : skew:float -> float -> float
(** The matching fraction a predicate of nominal selectivity [s] realizes
    on data generated with [skew]: [s ** (1 / skew)]. *)

val build : ?frames:int -> ?skew:float -> seed:int -> Dqep_catalog.Catalog.t -> t
(** Generate data and indexes deterministically from [seed].  [frames]
    is the buffer-pool size in pages (default 64).

    [skew] (default 1.0 = uniform) biases attribute values toward the low
    end of their domains: values are [domain * u^skew] for uniform [u].
    With [skew > 1] a range predicate [attr <= c] matches {e more} than
    [c / domain] of the records — a controlled violation of the
    optimizer's uniformity assumption, used to study selectivity
    estimation errors (the paper's [IoC91] motivation). *)

val catalog : t -> Dqep_catalog.Catalog.t
val pool : t -> Buffer_pool.t

val heap : t -> string -> Heap_file.t
(** @raise Not_found for an unknown relation. *)

val index : t -> rel:string -> attr:string -> Btree.t
(** @raise Not_found if no index exists on that attribute. *)
