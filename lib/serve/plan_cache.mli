(** The parameterized dynamic-plan cache.

    One dynamic plan per {e query shape}: the normalized form of a
    statement with tables sorted, join pairs ordered, and every
    selection value — literal or host variable — abstracted into a
    positional parameter [p1..pn].  Two requests differing only in
    constants, host-variable names or clause order share a shape, and
    therefore a cached plan; the choose-plan operators inside it defer
    the actual alternative selection to start-up time under each
    request's own bindings.

    Entries are invalidated on catalog drift (the fingerprint the plan
    was optimized under no longer matches), evicted after a replan
    storm ({!note_replan} reaching the threshold), and LRU-bounded.

    A statement memo maps the exact SQL text of a request that hit to
    its {!statement}, so a repeated text is not parsed again
    ({!find_text}).  It holds at most one text per entry and drops it
    with the entry.  All operations are thread-safe. *)

type t

val create : ?capacity:int -> ?replan_threshold:int -> unit -> t
(** Defaults: capacity 64 entries, replan threshold 3.
    @raise Invalid_argument if either is non-positive. *)

(** {1 Shape normalization}

    A statement is normalized by sorting and deduplicating its tables,
    ordering each join pair and sorting the pairs, and stably sorting
    its selections by (relation, attribute), values untouched. *)

val generalize : Dqep_sql.Sql.ast -> Dqep_sql.Sql.ast
(** The normalized statement with every selection value replaced by
    the host variable [p<i>] in canonical order — the AST to optimize a
    shape under (all selectivities uncertain, hence a dynamic plan). *)

val key : Dqep_sql.Sql.ast -> string
(** The cache key: {!generalize} rendered back to SQL.  Equal for any
    two statements of the same shape. *)

val param_names : Dqep_sql.Sql.ast -> string list
(** [p1..pn], one per selection of the normalized shape. *)

val max_memory_pages : int
(** 65 536: the largest memory grant {!bind} accepts.  A grant sizes the
    executing buffer pool's frame array, so an unbounded one lets a
    single request line allocate without limit (4 million pages took
    about 100 MB).  The benchmarks' served grants are 8 to 64 pages. *)

val bind :
  Dqep_catalog.Catalog.t ->
  Dqep_sql.Sql.ast ->
  bindings:(string * float) list ->
  memory_pages:int ->
  (Dqep_cost.Bindings.t, string) result
(** Point bindings for the shape's parameters, recovered from the
    request's own AST in canonical order: a literal becomes
    [lit / domain_size] (checked against the catalog), a host variable
    takes the client's binding (required, in [\[0, 1\]]).  A
    [memory_pages] outside [\[1, max_memory_pages\]] is an error. *)

type statement = {
  key : string;  (** {!key} of the statement *)
  selections : (string * string * Dqep_sql.Sql.value) list;
      (** the normalized selections, in canonical parameter order: all
          {!bind_statement} needs of the statement *)
}

val statement : Dqep_sql.Sql.ast -> statement

val bind_statement :
  Dqep_catalog.Catalog.t ->
  statement ->
  bindings:(string * float) list ->
  memory_pages:int ->
  (Dqep_cost.Bindings.t, string) result
(** {!bind} from a statement: equal to [bind] of the AST it came from. *)

val fingerprint : Dqep_catalog.Catalog.t -> string
(** A digest of everything the optimizer reads from the catalog:
    page size, relations (name, cardinality, record width, attribute
    domains) and indexes.  Two catalogs with equal fingerprints cost
    plans identically. *)

(** {1 Lookup} *)

type lookup =
  | Hit of Dqep_plans.Plan.t
  | Miss
  | Invalidated_drift
      (** an entry existed but was optimized under a different catalog
          fingerprint; it has been evicted — re-optimize *)

val find : t -> fingerprint:string -> key:string -> lookup

val find_text :
  t -> fingerprint:string -> sql:string -> (statement * Dqep_plans.Plan.t) option
(** The memoized statement of the text and its entry's plan, when the
    text is memoized and its entry is fresh under [fingerprint]; the hit
    is counted as {!find} counts one, in the same lock hold.  [None] has
    no effect: parse the text and call {!find_statement}. *)

val find_statement :
  t -> fingerprint:string -> sql:string -> statement -> lookup
(** {!find} on the statement's key.  A [Hit] memoizes [sql] against the
    entry (replacing the entry's previous text); a miss never does, so a
    text enters the memo on its first hit.  Parse errors never reach
    here and so are never memoized. *)

val store : t -> fingerprint:string -> key:string -> Dqep_plans.Plan.t -> unit

val note_replan : t -> key:string -> bool
(** Record an [Estimate_busted]/replan event against the entry; [true]
    when this event reached the threshold and evicted it. *)

val invalidate : t -> key:string -> bool
(** Drop the entry (counted as drift invalidation); [true] if present. *)

val mem : t -> key:string -> bool

(** {1 Per-shape feedback}

    A side table of {!Dqep_obs.Feedback} caches keyed by shape,
    deliberately decoupled from the plan entries: LRU eviction, drift
    invalidation and replan-storm eviction drop the {e plan}, never the
    observations its runs deposited, so the re-optimization that follows
    any eviction is still refined by everything measured against the
    shape.  Bands only grow and merging is commutative, so concurrent
    depositors compose. *)

val shape_feedback : t -> key:string -> Dqep_obs.Feedback.t
(** The shape's accumulated feedback, created empty on first use.
    The returned cache is live (and itself thread-safe): observe into it
    directly. *)

type stats = {
  size : int;
  hits : int;
  misses : int;  (** includes drift-invalidated lookups *)
  evictions : int;  (** LRU capacity evictions *)
  invalidated_drift : int;
  invalidated_replan : int;
  texts : int;  (** memoized statement texts, never more than [size] *)
}

val stats : t -> stats
