(** Typed diagnostics with stable codes — the shared report format of the
    static analysis pass ([Dqep_analysis.Verify]) and of logical-query
    validation ([Dqep_algebra.Logical.validate]).

    A diagnostic is an observation about a query, a plan node, or a memo
    group.  Codes are stable identifiers ([DQEP101], ...) so tooling and
    tests can match on them; the code blocks mirror the analysis layers:

    - [DQEP0xx] — logical expressions
    - [DQEP1xx] — plan structure (arity, DAG identity, hash-consing)
    - [DQEP2xx] — interval costs
    - [DQEP3xx] — schema and semantics
    - [DQEP4xx] — memo state and winners
    - [DQEP5xx] — abstract interpretation ([Dqep_analysis.Analyses]:
      choose-plan parameter-space coverage, static resource certificates,
      checkpoint-fingerprint lints)

    The full code table, with an explanation of every check, lives in
    DESIGN.md. *)

type severity = Error | Warning

(** What a diagnostic is attached to. *)
type site =
  | Query  (** a logical expression (no stable sub-expression identity) *)
  | Node of int  (** a plan node, by [pid] *)
  | Group of int  (** a memo group, by id *)

type code =
  (* 0xx: logical expressions *)
  | Unknown_relation  (** DQEP001: relation not in the catalog *)
  | Unknown_attribute  (** DQEP002: column not in its relation *)
  | Selectivity_range  (** DQEP003: bound selectivity outside [0, 1] *)
  | Selection_target  (** DQEP004: selection misses its input's relations *)
  | Join_span  (** DQEP005: join predicate does not span its inputs *)
  | Cross_product  (** DQEP006: join without predicates *)
  | Duplicate_relation  (** DQEP007: relation occurs more than once *)
  (* 1xx: plan structure *)
  | Choose_arity  (** DQEP101: choose-plan with fewer than 2 alternatives *)
  | Operator_arity  (** DQEP102: wrong number of inputs for the operator *)
  | Pid_aliasing
      (** DQEP103: one [pid] names two different nodes — DAG identity is
          corrupt *)
  | Sharing_lost
      (** DQEP104 (warning): structurally equal nodes with different
          [pid]s — hash-consed sharing was lost *)
  (* 2xx: interval costs *)
  | Rows_invalid  (** DQEP201: row estimate is NaN, negative or inverted *)
  | Width_invalid  (** DQEP202: non-positive [bytes_per_row] *)
  | Cost_interval_inverted
      (** DQEP203: own or total cost is NaN, negative or has lo > hi *)
  | Total_cost_mismatch
      (** DQEP204: total_cost is not own + inputs (min-combination at
          choose-plan nodes) *)
  | Rows_exceed_inputs
      (** DQEP205 (warning): row estimate wider than the inputs allow *)
  | Pareto_dominated
      (** DQEP206 (warning): a choose-plan alternative dominates another —
          the Pareto frontier is not actually incomparable *)
  (* 3xx: schema and semantics *)
  | Missing_relation  (** DQEP301: plan references an unknown relation *)
  | Missing_attribute  (** DQEP302: plan references an unknown attribute *)
  | Missing_index  (** DQEP303: plan requires an index that does not exist *)
  | Attribute_out_of_scope
      (** DQEP304: an operator's column does not resolve in its input
          schema *)
  | Join_pred_span  (** DQEP305: join predicate does not span the inputs *)
  | Rels_mismatch
      (** DQEP306: a node's [rels] differ from those derived from its
          subtree *)
  | Choose_rels_mismatch
      (** DQEP307: choose-plan alternatives cover different relation
          sets *)
  | Choose_order_unsupported
      (** DQEP308: the choose-plan node claims a sort order some
          alternative does not deliver *)
  (* 4xx: memo state *)
  | Dangling_group_ref
      (** DQEP401: logical expression references a non-existent group *)
  | Group_rels_mismatch
      (** DQEP402: a group's expressions do not reproduce its relation
          set *)
  | Winner_group_mismatch
      (** DQEP403: a memoized winner covers different relations than its
          group *)
  | Winner_order_mismatch
      (** DQEP404: a winner does not satisfy its goal's required
          property *)
  (* 5xx: abstract interpretation *)
  | Choose_uncovered
      (** DQEP501: a region of a choose-plan node's parameter space has no
          feasible, budget-admissible alternative — [Startup.resolve]
          would raise [Exhausted] there *)
  | Choose_dead_alternative
      (** DQEP502 (warning): a choose-plan alternative is strictly
          cost-dominated by a sibling over the whole parameter space —
          startup can never pick it, it only adds plan weight *)
  | Budget_unsatisfiable
      (** DQEP503: the plan's guaranteed memory demand exceeds the
          governor budget — every execution would end in
          [Memory_exceeded], so admission is refused statically *)
  | Fingerprint_collision
      (** DQEP504 (warning): distinct subplans share a checkpoint
          fingerprint with incompatible cardinalities or schemas — resume
          could splice the wrong intermediate *)
  | Unchecked_pipeline
      (** DQEP505 (warning): a long streaming pipeline between a
          choose-plan resolution and the root has no blocking point, so a
          busted validity band is never rechecked mid-pipeline *)

val id : code -> string
(** Stable identifier, e.g. ["DQEP203"]. *)

val is_feasibility : code -> bool
(** Whether the code belongs to the feasibility subset (missing catalog
    objects) that activation-time pruning of choose-plan alternatives can
    recover from, as opposed to outright plan corruption. *)

type t = {
  code : code;
  severity : severity;
  site : site;
  message : string;
}

val make : ?severity:severity -> site:site -> code -> string -> t
(** [severity] defaults to the code's own: the codes documented as
    warnings above are [Warning], every other code is [Error]. *)

val is_error : t -> bool
val errors : t list -> t list
val has_errors : t list -> bool

val severity_string : severity -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
val pp_list : Format.formatter -> t list -> unit
val list_to_string : t list -> string

val to_jsonv : t -> Json.t
(** One JSON object; keys [code], [name], [severity], [site], [message]. *)

val to_json : t -> string
(** [Json.to_string (to_jsonv d)]. *)

val list_to_json : t list -> string

val compare : t -> t -> int
(** Structural order, for sorting and de-duplication. *)
