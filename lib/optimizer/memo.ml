module Interval = Dqep_util.Interval
module Predicate = Dqep_algebra.Predicate
module Logical = Dqep_algebra.Logical
module Col = Dqep_algebra.Col
module Env = Dqep_cost.Env
module Estimate = Dqep_cost.Estimate

type group = {
  id : int;
  rels : string list;
  sels : Predicate.select list;
  mutable rows : Interval.t;
  bytes_per_row : int;
  mutable exprs : Lmexpr.t array;
  mutable n_exprs : int;
  mutable explored : bool;
  rel_bits : int;
  sel_bits : int;
  neighbours : int;
}

(* A join predicate, numbered at ingest: the bits of its columns'
   relations, both orientations, and each orientation's rank in the
   order of [pred_sort_key], so that sorting a predicate list compares
   integers. *)
type pred = {
  equi : Predicate.equi;
  mirrored : Predicate.equi;
  left_bit : int;
  right_bit : int;
  rank : int;
  mirrored_rank : int;
}

type t = {
  env : Env.t;
  mutable groups : group array;
  mutable used : int;
  (* relation bits -> (selection bits, group id) *)
  by_bits : (int, (int * int) list) Hashtbl.t;
  (* (group id, first child + 1): within a group, a get has no child
     and a select's child or a join's left child determines the rest *)
  seen : (int, unit) Hashtbl.t;
  mutable rel_names : string array;  (* by relation bit, in name order *)
  mutable sel_preds : Predicate.select array;
      (* by selection bit, in relation-name then [select_compare] order *)
  mutable sel_rel : int array;  (* a selection's relation bit index *)
  mutable preds : pred array;  (* in the order rows are estimated over *)
  mutable lexpr_count : int;
}

let create env =
  { env;
    groups = [||];
    used = 0;
    by_bits = Hashtbl.create 64;
    seen = Hashtbl.create 256;
    rel_names = [||];
    sel_preds = [||];
    sel_rel = [||];
    preds = [||];
    lexpr_count = 0 }

let group t id = t.groups.(id)
let group_count t = t.used
let lexpr_count t = t.lexpr_count
let lexprs g = List.init g.n_exprs (fun i -> g.exprs.(i))
let max_relations = Sys.int_size - 1

let bit i = 1 lsl i

(* Logical properties from the key alone: product of base cardinalities,
   selection selectivities, and the selectivity of every query predicate
   internal to the relation set. *)
let rows_of t ~rel_bits ~sel_bits =
  let base = ref (Interval.point 1.) in
  Array.iteri
    (fun i rel ->
      if rel_bits land bit i <> 0 then begin
        let rows = ref (Estimate.base_rows t.env rel) in
        Array.iteri
          (fun s sel ->
            if t.sel_rel.(s) = i && sel_bits land bit s <> 0 then
              rows := Interval.mul (Env.selectivity t.env sel) !rows)
          t.sel_preds;
        base := Interval.mul !base !rows
      end)
    t.rel_names;
  let internal =
    Array.fold_right
      (fun p acc ->
        if rel_bits land p.left_bit <> 0 && rel_bits land p.right_bit <> 0 then
          p.equi :: acc
        else acc)
      t.preds []
  in
  Interval.mul (Estimate.join_selectivity t.env internal) !base

let members names bits =
  List.filteri (fun i _ -> bits land bit i <> 0) (Array.to_list names)

let intern t ~rel_bits ~sel_bits =
  let same = Option.value ~default:[] (Hashtbl.find_opt t.by_bits rel_bits) in
  match List.assoc_opt sel_bits same with
  | Some id -> id
  | None ->
    let id = t.used in
    let rels = members t.rel_names rel_bits in
    let neighbours =
      Array.fold_left
        (fun acc p ->
          if rel_bits land p.left_bit <> 0 then acc lor p.right_bit
          else if rel_bits land p.right_bit <> 0 then acc lor p.left_bit
          else acc)
        0 t.preds
    in
    let g =
      { id;
        rels;
        sels = members t.sel_preds sel_bits;
        rows = rows_of t ~rel_bits ~sel_bits;
        bytes_per_row = Estimate.rel_row_bytes t.env rels;
        exprs = [||];
        n_exprs = 0;
        explored = false;
        rel_bits;
        sel_bits;
        neighbours }
    in
    if t.used = Array.length t.groups then begin
      let bigger = Array.make (Int.max 16 (2 * t.used)) g in
      Array.blit t.groups 0 bigger 0 t.used;
      t.groups <- bigger
    end;
    t.groups.(id) <- g;
    t.used <- t.used + 1;
    Hashtbl.replace t.by_bits rel_bits ((sel_bits, id) :: same);
    id

(* Whether group [id] has no expression over [first] child yet; marks it
   as having one. *)
let fresh t id first =
  let key = (id lsl 31) lor (first + 1) in
  (not (Hashtbl.mem t.seen key)) && (Hashtbl.add t.seen key (); true)

let push t g e =
  if g.n_exprs = Array.length g.exprs then begin
    let bigger = Array.make (Int.max 4 (2 * g.n_exprs)) e in
    Array.blit g.exprs 0 bigger 0 g.n_exprs;
    g.exprs <- bigger
  end;
  g.exprs.(g.n_exprs) <- e;
  g.n_exprs <- g.n_exprs + 1;
  t.lexpr_count <- t.lexpr_count + 1

let connected t a b = t.groups.(a).neighbours land t.groups.(b).rel_bits <> 0

(* The predicates between groups [a] and [b], each oriented so that its
   left column belongs to [a], sorted by [pred_sort_key]. *)
let preds_between t a b =
  let bits_a = t.groups.(a).rel_bits and bits_b = t.groups.(b).rel_bits in
  Array.fold_right
    (fun p acc ->
      if bits_a land p.left_bit <> 0 && bits_b land p.right_bit <> 0 then
        (p.rank, p.equi) :: acc
      else if bits_b land p.left_bit <> 0 && bits_a land p.right_bit <> 0 then
        (p.mirrored_rank, p.mirrored) :: acc
      else acc)
    t.preds []
  |> List.stable_sort (fun (x, _) (y, _) -> Int.compare x y)
  |> List.map snd

(* Add the join over ([a], [b]) to group [id], unless it is there. *)
let add_join t id a b =
  if fresh t id a then
    push t t.groups.(id)
      { Lmexpr.op = Lmexpr.Join (preds_between t a b); children = [| a; b |] }

(* The group joining groups [a] and [b], with the join over ([a], [b])
   in it; [None] when no predicate connects them (cross products are not
   generated).  The commuted join is added by exploration. *)
let join_group t a b =
  if not (connected t a b) then None
  else begin
    let ga = t.groups.(a) and gb = t.groups.(b) in
    let id =
      intern t ~rel_bits:(ga.rel_bits lor gb.rel_bits)
        ~sel_bits:(ga.sel_bits lor gb.sel_bits)
    in
    add_join t id a b;
    Some id
  end

(* Join commutativity and associativity to a fixpoint: all bushy join
   trees of a connected query (paper, Section 5: "the transformation
   rules permit generation of all bushy trees").  A group's expressions
   are taken in the order they were added, each once; a join's children
   are explored first, so associativity sees all of the left child's
   joins.  That order is the order the search considers alternatives
   in, and so the order of a choose-plan node's alternatives. *)
let rec explore t id =
  let g = t.groups.(id) in
  if not g.explored then begin
    g.explored <- true;
    let i = ref 0 in
    while !i < g.n_exprs do
      let e = g.exprs.(!i) in
      incr i;
      Array.iter (explore t) e.Lmexpr.children;
      match e.Lmexpr.op with
      | Lmexpr.Get _ | Lmexpr.Select _ -> ()
      | Lmexpr.Join _ ->
        let l = e.Lmexpr.children.(0) and c = e.Lmexpr.children.(1) in
        add_join t id c l;
        (* (A join B) join C -> A join (B join C), skipping splits that
           would need a cross product. *)
        let lg = t.groups.(l) in
        for k = 0 to lg.n_exprs - 1 do
          match lg.exprs.(k) with
          | { Lmexpr.op = Lmexpr.Join _; children = [| a; b |] } -> (
            match join_group t b c with
            | Some bc when connected t a bc -> add_join t id a bc
            | Some _ | None -> ())
          | _ -> ()
        done
    done
  end

let pred_sort_key (p : Predicate.equi) =
  Col.to_string p.left ^ "=" ^ Col.to_string p.right

(* Number the query's relations (by name), selections (by relation
   name, then [select_compare]; one bit per occurrence) and distinct
   join predicates, once. *)
let number t query =
  let rel_names =
    Array.of_list (List.sort_uniq String.compare (Logical.relations query))
  in
  let index rel =
    let rec find i =
      if i = Array.length rel_names then None
      else if String.equal rel_names.(i) rel then Some i
      else find (i + 1)
    in
    find 0
  in
  let sels =
    Logical.selections query
    |> List.filter_map (fun (p : Predicate.select) ->
           Option.map (fun i -> (i, p)) (index p.target.Col.rel))
    |> List.stable_sort (fun (i, p) (j, q) ->
           match Int.compare i j with
           | 0 -> Predicate.select_compare p q
           | c -> c)
  in
  if Array.length rel_names > max_relations || List.length sels > max_relations
  then invalid_arg "Memo.ingest: too many relations or selections";
  let equis =
    List.fold_left
      (fun acc p ->
        if List.exists (Predicate.equi_equal p) acc then acc else p :: acc)
      [] (Logical.join_predicates query)
  in
  let keys =
    List.concat_map
      (fun p -> [ pred_sort_key p; pred_sort_key (Predicate.mirror p) ])
      equis
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let rank p =
    let key = pred_sort_key p in
    let rec find i = if String.equal keys.(i) key then i else find (i + 1) in
    find 0
  in
  let bit_of rel = match index rel with Some i -> bit i | None -> 0 in
  t.rel_names <- rel_names;
  t.sel_rel <- Array.of_list (List.map fst sels);
  t.sel_preds <- Array.of_list (List.map snd sels);
  t.preds <-
    Array.of_list
      (List.map
         (fun (p : Predicate.equi) ->
           let mirrored = Predicate.mirror p in
           { equi = p; mirrored; left_bit = bit_of p.left.Col.rel;
             right_bit = bit_of p.right.Col.rel; rank = rank p;
             mirrored_rank = rank mirrored })
         equis);
  bit_of

let ingest t query =
  if t.used > 0 then invalid_arg "Memo.ingest: the memo holds a query";
  let bit_of = number t query in
  let taken = ref 0 in
  (* The first unused selection bit equal to [p]. *)
  let sel_bit (p : Predicate.select) =
    let rec find s =
      if !taken land bit s = 0 && Predicate.select_equal t.sel_preds.(s) p
      then begin
        taken := !taken lor bit s;
        bit s
      end
      else find (s + 1)
    in
    find 0
  in
  let rec go = function
    | Logical.Get_set rel ->
      let id = intern t ~rel_bits:(bit_of rel) ~sel_bits:0 in
      if fresh t id (-1) then
        push t t.groups.(id) { Lmexpr.op = Lmexpr.Get rel; children = [||] };
      id
    | Logical.Select (e, p) ->
      let child = go e in
      let g = t.groups.(child) in
      if g.rel_bits land bit_of p.target.Col.rel = 0 then
        invalid_arg "Memo.ingest: selection target not in its input";
      let id =
        intern t ~rel_bits:g.rel_bits ~sel_bits:(g.sel_bits lor sel_bit p)
      in
      if fresh t id child then
        push t t.groups.(id)
          { Lmexpr.op = Lmexpr.Select p; children = [| child |] };
      id
    | Logical.Join (l, r, _) ->
      let gl = go l and gr = go r in
      if t.groups.(gl).rel_bits land t.groups.(gr).rel_bits <> 0 then
        invalid_arg "Memo.ingest: overlapping relation sets";
      (match join_group t gl gr with
      | Some id -> id
      | None -> invalid_arg "Memo.ingest: cross product (no connecting predicate)")
  in
  go query

(* Plain-data projection for the static verifier: the analysis library
   must not depend on the optimizer (the search engine calls it), so the
   memo crosses the boundary as data. *)
let to_view t : Dqep_analysis.Verify.memo_view =
  List.init t.used (fun id ->
      let g = t.groups.(id) in
      { Dqep_analysis.Verify.gid = g.id;
        rels = g.rels;
        exprs =
          List.map
            (fun (e : Lmexpr.t) ->
              { Dqep_analysis.Verify.label =
                  (match e.Lmexpr.op with
                  | Lmexpr.Get _ -> "get"
                  | Lmexpr.Select _ -> "select"
                  | Lmexpr.Join _ -> "join");
                base =
                  (match e.Lmexpr.op with
                  | Lmexpr.Get rel -> Some rel
                  | Lmexpr.Select _ | Lmexpr.Join _ -> None);
                children = Array.to_list e.Lmexpr.children })
            (lexprs g) })

(* Incremental re-optimization: fold run-time cardinality observations
   (keyed by relation set) into the matching groups' row intervals.
   [Interval.refine] never widens and never leaves the prior, so refined
   rows stay within the contract every already-memoized winner was costed
   under — which is what makes reusing unmoved groups sound.  Returns the
   ids of groups whose interval actually moved. *)
let refine_rows t observations =
  let moved = ref [] in
  for id = 0 to t.used - 1 do
    let g = t.groups.(id) in
    match List.assoc_opt (String.concat "|" g.rels) observations with
    | None -> ()
    | Some obs ->
      let refined = Interval.refine g.rows (Interval.point obs) in
      if not (Interval.equal refined g.rows) then begin
        g.rows <- refined;
        moved := id :: !moved
      end
  done;
  List.rev !moved

let logical_tree_count t root =
  let memo = Array.make t.used Float.nan in
  let rec count id =
    if Float.is_nan memo.(id) then begin
      let g = t.groups.(id) in
      let v = ref 0. in
      for i = 0 to g.n_exprs - 1 do
        let children = g.exprs.(i).Lmexpr.children in
        v := !v +. Array.fold_left (fun p c -> p *. count c) 1. children
      done;
      memo.(id) <- !v
    end;
    memo.(id)
  in
  count root
