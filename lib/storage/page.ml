type btree_node =
  | Leaf of {
      mutable keys : int array;
      mutable rids : Rid.t array;
      mutable next : int;
    }
  | Internal of {
      mutable keys : int array;
      mutable children : int array;
    }

type payload =
  | Free
  | Heap of { mutable tuples : int array array; mutable count : int }
  | Btree of btree_node

type t = { id : int; mutable payload : payload }
