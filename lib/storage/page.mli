(** Disk pages.

    A page is the unit of I/O accounting.  Payloads are structured (not
    raw bytes): heap pages hold tuple slots, B-tree pages hold node
    contents.  The byte budget of each payload is enforced by its owner
    ({!Heap_file}, {!Btree}) through capacity computations derived from
    the catalog's page size. *)

type btree_node =
  | Leaf of {
      mutable keys : int array;
      mutable rids : Rid.t array;
      mutable next : int;  (** page id of right sibling, or -1 *)
    }
  | Internal of {
      mutable keys : int array;  (** separator keys, length = children - 1 *)
      mutable children : int array;  (** child page ids *)
    }

type payload =
  | Free
  | Heap of { mutable tuples : int array array; mutable count : int }
  | Btree of btree_node

type t = { id : int; mutable payload : payload }
