module Schema = Dqep_algebra.Schema
module Logical = Dqep_algebra.Logical
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Database = Dqep_storage.Database
module Heap_file = Dqep_storage.Heap_file

let eval db bindings query =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let rec go = function
    | Logical.Get_set rel ->
      let schema =
        Schema.of_relation (Catalog.relation_exn (Database.catalog db) rel)
      in
      let acc = ref [] in
      Heap_file.scan (Database.pool db) (Database.heap db rel) (fun _ t ->
          acc := t :: !acc);
      (schema, List.rev !acc)
    | Logical.Select (e, pred) ->
      let schema, tuples = go e in
      (schema, List.filter (Pred_eval.select_matches env schema pred) tuples)
    | Logical.Join (l, r, preds) ->
      let ls, lt = go l in
      let rs, rt = go r in
      let matches = Pred_eval.equi_matches ~left:ls ~right:rs preds in
      (* Hash the right input on the columns of every predicate that
         spans the two sides; each bucket hit is still checked against
         all predicates. *)
      let keys =
        List.filter_map
          (fun (p : Dqep_algebra.Predicate.equi) ->
            let side c = (Schema.position ls c, Schema.position rs c) in
            match (side p.left, side p.right) with
            | (Some i, _), (_, Some j) | (_, Some j), (Some i, _) -> Some (i, j)
            | _ -> None)
          preds
      in
      let key_of pos t = List.map (fun i -> t.(i)) pos in
      let lpos = List.map fst keys and rpos = List.map snd keys in
      let table = Hashtbl.create (Int.max 16 (List.length rt)) in
      List.iter (fun b -> Hashtbl.add table (key_of rpos b) b) (List.rev rt);
      let out =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if matches a b then Some (Array.append a b) else None)
              (Hashtbl.find_all table (key_of lpos a)))
          lt
      in
      (Schema.concat ls rs, out)
  in
  go query

(* Structural [compare] orders int arrays by length, then element by
   element. *)
let multiset_equal a b =
  let sort l = List.sort compare l in
  List.compare_lengths a b = 0 && sort a = sort b

(* Positions of [schema]'s columns in canonical (sorted column) order. *)
let canonical_order schema =
  Schema.columns schema
  |> Array.mapi (fun i c -> (c, i))
  |> Array.to_list
  |> List.sort (fun (a, _) (b, _) -> Dqep_algebra.Col.compare a b)
  |> List.map snd
  |> Array.of_list

let normalize schema tuples =
  let order = canonical_order schema in
  List.map (fun t -> Array.map (fun i -> t.(i)) order) tuples

(* [multiset_equal] of the two normalized results, reading each tuple
   through its schema's canonical order instead of copying it. *)
let same_rows (sa, a) (sb, b) =
  let oa = canonical_order sa and ob = canonical_order sb in
  let n = Array.length oa in
  let compare_via o x o' y =
    let rec from i =
      if i = n then 0
      else
        let c = Int.compare x.(o.(i)) y.(o'.(i)) in
        if c <> 0 then c else from (i + 1)
    in
    from 0
  in
  let sorted o l =
    let arr = Array.of_list l in
    Array.stable_sort (fun x y -> compare_via o x o y) arr;
    arr
  in
  n = Array.length ob
  && List.compare_lengths a b = 0
  &&
  let a = sorted oa a and b = sorted ob b in
  let rec same i = i = Array.length a || (compare_via oa a.(i) ob b.(i) = 0 && same (i + 1)) in
  same 0
