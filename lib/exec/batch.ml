(* Tuple batches with a selection vector.

   The unit of the execution engine (Batch_exec): up to [capacity]
   references to tuples, plus a selection vector naming the rows that are
   logically present.  Operators work a batch at a time, so per-operator
   dispatch is paid once per batch instead of once per tuple.

   Rows are shared, never copied: a scan hands on the very arrays its
   heap page holds, and [tuple] and [to_tuples] return them as they are.
   The row array grows on demand up to [capacity], so a result of a few
   rows allocates a few slots, not a full block.  Both choices are
   measured on the serve path.  Allocating a full columnar block of
   [capacity] ints per column for every batch, however small the result,
   drives enough major-GC marking to cost about half of cache-hit
   throughput; copying scanned tuples out of their pages doubles the live
   heap wherever spilled pages stay resident.

   Invariants:
   - rows [0, len) are materialized and [len <= capacity];
   - [sel] is [None] when all materialized rows are selected (the dense
     case), or [Some v] where [v] holds strictly increasing physical row
     indices < [len]. *)

module Schema = Dqep_algebra.Schema

type tuple = int array

let default_capacity = 1024

type t = {
  schema : Schema.t;
  capacity : int;
  mutable rows : tuple array;
  mutable len : int;
  mutable sel : int array option;
}

let create ?(capacity = default_capacity) schema =
  if capacity <= 0 then invalid_arg "Batch.create: capacity <= 0";
  { schema; capacity; rows = [||]; len = 0; sel = None }

let capacity t = t.capacity
let physical_length t = t.len

(* Number of logically present (selected) rows. *)
let length t =
  match t.sel with None -> t.len | Some v -> Array.length v

let is_empty t = length t = 0
let is_full t = t.len >= t.capacity

(* Physical row index of the [i]-th selected row. *)
let row t i = match t.sel with None -> i | Some v -> v.(i)

(* Direct physical access, for kernels that already hold a physical row
   index (e.g. the predicate passed to [refine]). *)
let get_phys t ~col ~row = t.rows.(row).(col)

(* The [i]-th selected tuple: the shared array itself. *)
let tuple t i = t.rows.(row t i)

(* Append one tuple by reference, doubling the row array when it is
   full.  Only dense batches grow: pushing into a filtered batch would
   silently deselect the new row. *)
let push t tuple =
  (match t.sel with
  | Some _ -> invalid_arg "Batch.push: batch has a selection vector"
  | None -> ());
  if is_full t then invalid_arg "Batch.push: batch full";
  if Array.length tuple <> Schema.width t.schema then
    invalid_arg "Batch.push: width mismatch";
  if t.len = Array.length t.rows then begin
    let grown = Array.make (Int.min t.capacity (Int.max 8 (2 * t.len))) tuple in
    Array.blit t.rows 0 grown 0 t.len;
    t.rows <- grown
  end;
  t.rows.(t.len) <- tuple;
  t.len <- t.len + 1

(* Keep only the selected rows for which [keep] holds (given the physical
   row index).  This is the fused filter kernel: one pass over the
   selection, no tuple materialization. *)
let refine t keep =
  let n = length t in
  let out = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let r = row t i in
    if keep r then begin
      out.(!k) <- r;
      incr k
    end
  done;
  t.sel <- Some (Array.sub out 0 !k)

let to_tuples t =
  let acc = ref [] in
  for i = length t - 1 downto 0 do
    acc := tuple t i :: !acc
  done;
  !acc

(* Chunk a tuple list into dense batches of at most [capacity] rows. *)
let of_tuples ?(capacity = default_capacity) schema tuples =
  if capacity <= 0 then invalid_arg "Batch.of_tuples: capacity <= 0";
  let rec go acc current = function
    | [] -> List.rev (if is_empty current then acc else current :: acc)
    | tup :: rest ->
      if is_full current then go (current :: acc) (create ~capacity schema) (tup :: rest)
      else begin
        push current tup;
        go acc current rest
      end
  in
  go [] (create ~capacity schema) tuples

(* Present the batch under [target]'s column order.  A choose-plan node's
   alternatives may concatenate the same columns in different orders;
   consumers bind positions against the nominal schema, so each selected
   row of a differently laid out alternative is permuted by column name
   into a fresh dense batch.  Identity when the orders already agree. *)
let remap ~target t =
  if Schema.columns t.schema = Schema.columns target then t
  else begin
    let perm =
      Array.map (fun c -> Schema.position_exn t.schema c) (Schema.columns target)
    in
    let n = length t in
    { schema = target;
      capacity = t.capacity;
      rows = Array.init n (fun i -> Array.map (Array.get (tuple t i)) perm);
      len = n;
      sel = None }
  end
