(** Query evaluation plans.

    Plans are directed acyclic graphs, not trees: "all plans and
    alternative plans must be represented as DAGs with common
    subexpressions" (paper, Section 3) — sharing is what keeps dynamic
    plans to a reasonable size even though the number of possible plans
    grows exponentially.  Sharing is obtained structurally through the
    hash-consing {!Builder}; node identity is the [pid], and a pass over
    one plan works on its {!Dag} numbering.

    A [Choose_plan] node's inputs are equivalent alternative plans; every
    other node's inputs are its operational data-flow children. *)

module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Props = Dqep_algebra.Props

type t = private {
  pid : int;
  op : Physical.op;
  inputs : t list;
  rels : string list;  (** sorted relations contributing to the output *)
  rows : Interval.t;  (** estimated output cardinality *)
  bytes_per_row : int;
  own_cost : Interval.t;
  total_cost : Interval.t;  (** own + inputs; min-combination for choose *)
  props : Props.t;
}

exception Invalid_choose of Dqep_util.Diagnostic.t
(** A choose-plan node would have been unsound: its alternatives cover
    different relation sets (diagnostic code DQEP307). *)

(** Hash-consing constructor: structurally identical nodes get the same
    [pid], so equal subplans are physically shared. *)
module Builder : sig
  type plan := t
  type t

  val create : Dqep_cost.Env.t -> t

  val operator :
    t ->
    Physical.op ->
    inputs:plan list ->
    rels:string list ->
    rows:Interval.t ->
    bytes_per_row:int ->
    props:Props.t ->
    plan
  (** Build an operator node, computing its own cost from the cost model
      and its total cost as own + sum of inputs. *)

  val choose : t -> plan list -> plan
  (** Wrap two or more equivalent alternatives in a choose-plan node.
      @raise Invalid_argument on fewer than two alternatives.
      @raise Invalid_choose if the alternatives cover different relation
      sets — they cannot be logically equivalent. *)

  val copy_node : t -> plan -> inputs:plan list -> plan
  (** Rebuild a node with different inputs, keeping its operator, row
      estimate and own cost; totals are recomputed.  Used when resolving
      and shrinking dynamic plans. *)

  val raw :
    t ->
    op:Physical.op ->
    inputs:plan list ->
    rels:string list ->
    rows:Interval.t ->
    bytes_per_row:int ->
    own_cost:Interval.t ->
    total_cost:Interval.t ->
    props:Props.t ->
    plan
  (** Re-create a node with explicit costs; used when deserializing
      access modules. *)

  val created : t -> int
  (** Number of distinct nodes created so far. *)
end

val rels_key : t -> string
(** Stable identity of the node's relation set (["R|S|T"]) — the key
    under which the observation cache ([Dqep_obs.Feedback]) files
    cardinality observations, so a later query's node covering the same
    relations finds them. *)

val node_count : t -> int
(** Distinct nodes in the DAG — the paper's "plan size" (Figure 6). *)

val expanded_count : t -> float
(** Node count if the DAG were expanded to a tree (no sharing); float
    because it grows exponentially.  Quantifies how much DAG sharing
    saves (paper, Section 3). *)

(** One numbering of a plan's distinct nodes: every per-plan pass is a
    loop over its indices, with arrays where it would otherwise key a
    table by pid.  Nodes are numbered children first, inputs left to
    right, root last ({!iter}'s order), so every input index is below
    its node's.  A numbering can grow by further plans: {!Dag.add}
    numbers only the nodes it has not seen, on the same arrays. *)
module Dag : sig
  type plan := t

  type ids
  (** pid -> index *)

  type t = private {
    mutable length : int;  (** nodes numbered so far *)
    mutable nodes : plan array;  (** index -> node, below [length] *)
    mutable first_input : int array;
        (** node [i]'s inputs are [inputs.(first_input.(i))] up to
            [inputs.(first_input.(i + 1) - 1)], as indices *)
    mutable inputs : int array;
    ids : ids;
    mutable aliased : plan list;
        (** nodes met under a pid already numbered for a different
            physical node (pid aliasing; impossible through {!Builder}) *)
  }

  val create : unit -> t
  (** An empty numbering. *)

  val add : t -> plan -> int
  (** Number the plan's unseen nodes after the ones already numbered and
      return the plan's index.  A node is identified by its pid: one met
      again under a numbered pid is not numbered twice (nor descended
      into), and lands in [aliased] if it is a different physical
      node. *)

  val of_plan : plan -> t
  (** The plan's own numbering; its root is the last index. *)

  val find : t -> int -> int option
  (** The index of the node with this pid, in O(1). *)

  val input : t -> int -> int -> int
  (** [input d i k] is the index of node [i]'s [k]th input. *)

  val inputs : t -> int -> int list
  (** Node [i]'s input indices, in order. *)
end

val iter : (t -> unit) -> t -> unit
(** Visit every node exactly once, children before parents: the order of
    {!Dag.of_plan}. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a

val fingerprints : Dag.t -> string array
(** The logical fingerprint of every numbered node, by index, in one
    pass: the relation set ({!rels_key}), ["?"], then the sorted,
    deduplicated selection predicates applied anywhere in the subtree,
    joined with ["&"].  Equal for every alternative of one logical
    group, whatever operator applies a selection.  Checkpoint entries
    are keyed by it, and the DQEP504 lint groups nodes by it. *)

val fingerprint : t -> string
(** The plan root's entry of {!fingerprints}. *)

val rewrite :
  Dqep_cost.Env.t ->
  ?dead:(int -> bool) ->
  ?verbatim:(int -> bool) ->
  ?keep:(int -> int list) ->
  Dag.t ->
  t option
(** Rewrite the plan at a numbering's last index top-down, keeping a
    subset of every choose-plan node's alternatives — the one rewrite
    behind start-up extraction ({!Startup.resolve}), plan shrinking
    ({!Adapt.shrink}) and activation-time pruning of infeasible
    alternatives.  Callbacks name nodes by their index in the numbering.

    - [keep c] (default: all of them) picks which of choose node [c]'s
      original alternatives survive, in order.  It is called once per
      reached choose node, before any alternative is rewritten, so
      nested choose nodes are reached only through kept alternatives.
    - [dead n] (default: none) drops node [n]; a non-choose node with a
      dropped input is dropped too, and a choose node loses that
      alternative.
    - [verbatim n] (default: none) keeps [n] as it is without visiting
      its inputs.

    Every node is rewritten once.  A node whose inputs all came back
    unchanged is returned physically unchanged, with its pid; otherwise
    it is rebuilt in a fresh {!Builder} under the given environment,
    keeping its operator, rows and own cost.  A choose node left with one
    alternative collapses to it.  [None] when nothing survives. *)

val choose_count : t -> int
(** Number of choose-plan nodes in the DAG. *)

val contains_choose : t -> bool

val size_bytes : Dqep_cost.Device.t -> t -> int
(** Modelled access-module size: nodes x 128 bytes (paper, Section 6). *)

val schema : Dqep_catalog.Catalog.t -> t -> Dqep_algebra.Schema.t
(** Output schema of the plan. *)

val pp : Format.formatter -> t -> unit
(** Tree rendering; shared nodes are printed once and referenced by pid
    afterwards. *)

val to_dot : t -> string
(** Graphviz rendering of the DAG: one box per shared node, choose-plan
    operators as diamonds with dashed alternative edges.  Render with
    [dot -Tsvg]. *)
