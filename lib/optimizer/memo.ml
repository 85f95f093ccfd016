module Interval = Dqep_util.Interval
module Predicate = Dqep_algebra.Predicate
module Logical = Dqep_algebra.Logical
module Col = Dqep_algebra.Col
module Env = Dqep_cost.Env
module Estimate = Dqep_cost.Estimate

type group = {
  id : int;
  key : Group_key.t;
  rels : string list;
  mutable rows : Interval.t;
  bytes_per_row : int;
  mutable lexprs : Lmexpr.t list;
  mutable explored : bool;
}

type t = {
  env : Env.t;
  mutable groups : group array;
  mutable used : int;
  by_key : (string, int) Hashtbl.t;
  fingerprints : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  mutable query_preds : Predicate.equi list;
  mutable lexpr_count : int;
}

let create env =
  { env;
    groups = [||];
    used = 0;
    by_key = Hashtbl.create 64;
    fingerprints = Hashtbl.create 64;
    query_preds = [];
    lexpr_count = 0 }

let env t = t.env
let group t id = t.groups.(id)
let group_count t = t.used
let lexpr_count t = t.lexpr_count

(* Logical properties from the key alone: product of base cardinalities,
   selection selectivities, and the selectivity of every query predicate
   internal to the relation set. *)
let rows_of_key t key =
  let base =
    List.fold_left
      (fun acc (item : Group_key.item) ->
        let rows =
          List.fold_left
            (fun rows sel -> Interval.mul (Env.selectivity t.env sel) rows)
            (Estimate.base_rows t.env item.rel)
            item.sels
        in
        Interval.mul acc rows)
      (Interval.point 1.) (Group_key.items key)
  in
  let internal =
    List.filter
      (fun (p : Predicate.equi) ->
        Group_key.mem_rel key p.left.Col.rel && Group_key.mem_rel key p.right.Col.rel)
      t.query_preds
  in
  Interval.mul (Estimate.join_selectivity t.env internal) base

let intern_group t key =
  let ks = Group_key.to_string key in
  match Hashtbl.find_opt t.by_key ks with
  | Some id -> id
  | None ->
    let id = t.used in
    let g =
      { id;
        key;
        rels = Group_key.rels key;
        rows = rows_of_key t key;
        bytes_per_row = Estimate.rel_row_bytes t.env (Group_key.rels key);
        lexprs = [];
        explored = false }
    in
    if t.used = Array.length t.groups then begin
      let bigger = Array.make (Int.max 16 (2 * t.used)) g in
      Array.blit t.groups 0 bigger 0 t.used;
      t.groups <- bigger
    end;
    t.groups.(id) <- g;
    t.used <- t.used + 1;
    Hashtbl.add t.by_key ks id;
    Hashtbl.add t.fingerprints id (Hashtbl.create 8);
    id

let add_lexpr t id (e : Lmexpr.t) =
  let fps = Hashtbl.find t.fingerprints id in
  let fp = Lmexpr.fingerprint e in
  if Hashtbl.mem fps fp then false
  else begin
    Hashtbl.add fps fp ();
    let g = t.groups.(id) in
    g.lexprs <- g.lexprs @ [ e ];
    t.lexpr_count <- t.lexpr_count + 1;
    true
  end

let orient key_left (p : Predicate.equi) =
  if Group_key.mem_rel key_left p.left.Col.rel then p else Predicate.mirror p

let pred_sort_key (p : Predicate.equi) =
  Col.to_string p.left ^ "=" ^ Col.to_string p.right

let preds_between t ka kb =
  t.query_preds
  |> List.filter (fun (p : Predicate.equi) ->
         let la = Group_key.mem_rel ka p.left.Col.rel
         and lb = Group_key.mem_rel kb p.left.Col.rel
         and ra = Group_key.mem_rel ka p.right.Col.rel
         and rb = Group_key.mem_rel kb p.right.Col.rel in
         (la && rb) || (lb && ra))
  |> List.map (orient ka)
  |> List.sort (fun a b -> String.compare (pred_sort_key a) (pred_sort_key b))

let make_join_lexpr t a b =
  let ga = t.groups.(a) and gb = t.groups.(b) in
  match preds_between t ga.key gb.key with
  | [] -> None
  | preds -> Some { Lmexpr.op = Lmexpr.Join preds; children = [| a; b |] }

let join_group t a b =
  match make_join_lexpr t a b with
  | None -> None
  | Some e ->
    let ga = t.groups.(a) and gb = t.groups.(b) in
    let id = intern_group t (Group_key.union ga.key gb.key) in
    ignore (add_lexpr t id e);
    (* The commuted form is added by the commutativity rule during
       exploration. *)
    Some id

let record_query_pred t (p : Predicate.equi) =
  if not (List.exists (Predicate.equi_equal p) t.query_preds) then
    t.query_preds <- p :: t.query_preds

let ingest t query =
  (* Register all join predicates first: group row estimates depend on
     the full predicate set. *)
  List.iter (record_query_pred t) (Logical.join_predicates query);
  let rec go = function
    | Logical.Get_set rel ->
      let id = intern_group t (Group_key.base rel) in
      ignore (add_lexpr t id { Lmexpr.op = Lmexpr.Get rel; children = [||] });
      id
    | Logical.Select (e, p) ->
      let child = go e in
      let key = Group_key.with_selection (t.groups.(child)).key p in
      let id = intern_group t key in
      ignore (add_lexpr t id { Lmexpr.op = Lmexpr.Select p; children = [| child |] });
      id
    | Logical.Join (l, r, _) ->
      let gl = go l and gr = go r in
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
            g.lexprs })

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
  let memo = Hashtbl.create 32 in
  let rec count id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let g = t.groups.(id) in
      let v =
        List.fold_left
          (fun acc (e : Lmexpr.t) ->
            acc +. Array.fold_left (fun p c -> p *. count c) 1. e.children)
          0. g.lexprs
      in
      Hashtbl.replace memo id v;
      v
  in
  count root
