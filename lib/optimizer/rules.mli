(** Logical transformation rules and group exploration.

    The rule set is join commutativity and join associativity, which at
    fixpoint in a memo generate all bushy join trees of a connected
    query (paper, Section 5: "the transformation rules permit generation
    of all bushy trees").  Cross products are never formed. *)

type rule = {
  name : string;
  apply : Memo.t -> group_id:int -> Lmexpr.t -> Lmexpr.t list;
      (** new expressions equivalent to the given one (same group);
          sub-expressions may be interned into other groups as a side
          effect *)
}

val explore : ?rules:rule list -> Memo.t -> int -> unit
(** Apply the rules to a group (recursively exploring children) until no
    rule produces a new expression.  Idempotent. *)
