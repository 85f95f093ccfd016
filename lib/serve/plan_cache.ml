(* The parameterized dynamic-plan cache.

   Choose-plan is exactly the right primitive for serving: optimize a
   query SHAPE once into a dynamic plan, then resolve the choose-plan
   operators per request under the actual bindings (Startup.resolve via
   the executor).  The cache therefore keys on the normalized shape of
   a statement — tables sorted, join pairs ordered and sorted,
   selection VALUES abstracted into positional parameters p1..pn — so
   any two requests differing only in literals, host-variable names or
   clause order share one cached plan.

   Generalization turns every selection value into a host variable
   p1..pn, which is what makes the optimizer keep the selectivity
   uncertain and emit a dynamic plan; [bind] then recovers each
   parameter's point value from the request's own AST (literal /
   domain_size, or the client's binding for its host variable) in the
   same canonical order.

   Invalidation:
   - catalog drift: entries remember the catalog fingerprint they were
     optimized under; a lookup under a different fingerprint evicts;
   - replan storms: [note_replan] accumulates Estimate_busted /
     replan events per entry and evicts at the threshold, so a shape
     whose cached plan keeps busting re-optimizes instead of thrashing;
   - LRU capacity.

   Thread-safe: one mutex around the table; entries are immutable
   except for counters mutated under the lock. *)

module Sql = Dqep_sql.Sql
module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Attribute = Dqep_catalog.Attribute
module Index = Dqep_catalog.Index
module Bindings = Dqep_cost.Bindings
module Plan = Dqep_plans.Plan
module Feedback = Dqep_obs.Feedback

(* --- shape normalization -------------------------------------------------- *)

let normalize (ast : Sql.ast) : Sql.ast =
  let tables = List.sort_uniq String.compare ast.Sql.tables in
  let joins =
    List.sort_uniq compare
      (List.map
         (fun (l, r) -> if compare l r <= 0 then (l, r) else (r, l))
         ast.Sql.joins)
  in
  let selections =
    (* Sort by column only (stable), so the canonical parameter order is
       independent of the request's values. *)
    List.stable_sort
      (fun (r1, a1, _) (r2, a2, _) -> compare (r1, a1) (r2, a2))
      ast.Sql.selections
  in
  { Sql.tables; selections; joins }

(* The name of positional parameter [i] (from 0): "p1", "p2", ...;
   the first few are made once, since every bind names each
   parameter. *)
let param_names_made = Array.init 32 (fun i -> "p" ^ string_of_int (i + 1))

let param_name i =
  if i < Array.length param_names_made then param_names_made.(i)
  else "p" ^ string_of_int (i + 1)

let generalize_normalized n =
  { n with
    Sql.selections =
      List.mapi
        (fun i (rel, attr, _) -> (rel, attr, Sql.Host (param_name i)))
        n.Sql.selections }

let generalize ast = generalize_normalized (normalize ast)

type statement = {
  key : string;
  selections : (string * string * Sql.value) list;
}

let statement ast =
  let n = normalize ast in
  { key = Sql.render (generalize_normalized n); selections = n.Sql.selections }

let key ast = (statement ast).key

let param_names ast =
  List.mapi (fun i _ -> param_name i) (normalize ast).Sql.selections

let max_memory_pages = 65_536

exception Bind_error of string

let bind_fail fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

let selection_value catalog bindings (rel, attr, v) =
  match v with
  | Sql.Literal lit -> (
    match Catalog.relation catalog rel with
    | None -> bind_fail "unknown table %s" rel
    | Some r -> (
      match Relation.attribute r attr with
      | None -> bind_fail "unknown column %s.%s" rel attr
      | Some a ->
        if lit < 0 || lit > a.Attribute.domain_size then
          bind_fail "literal %d outside the domain of %s.%s" lit rel attr;
        float_of_int lit /. float_of_int a.Attribute.domain_size))
  | Sql.Host hv -> (
    match List.assoc hv bindings with
    | exception Not_found -> bind_fail "no binding for host variable :%s" hv
    | s ->
      if not (Float.is_finite s) || s < 0. || s > 1. then
        bind_fail "binding %s=%g outside [0, 1]" hv s;
      s)

let bind_selections catalog selections ~bindings ~memory_pages =
  let rec bind i = function
    | [] -> []
    | sel :: rest ->
      let p = (param_name i, selection_value catalog bindings sel) in
      p :: bind (i + 1) rest
  in
  match bind 0 selections with
  | selectivities ->
    if memory_pages < 1 then
      Error (Printf.sprintf "memory grant %d < 1 page" memory_pages)
    else if memory_pages > max_memory_pages then
      Error
        (Printf.sprintf "memory grant %d > %d pages" memory_pages
           max_memory_pages)
    else Ok (Bindings.make ~selectivities ~memory_pages)
  | exception Bind_error e -> Error e

let bind catalog ast =
  bind_selections catalog (normalize ast).Sql.selections

let bind_statement catalog st = bind_selections catalog st.selections

(* --- catalog fingerprint -------------------------------------------------- *)

let fingerprint catalog =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (string_of_int (Catalog.page_bytes catalog));
  List.iter
    (fun (r : Relation.t) ->
      Buffer.add_string buf
        (Printf.sprintf "|%s:%d:%d" r.Relation.name r.Relation.cardinality
           r.Relation.record_bytes);
      List.iter
        (fun (a : Attribute.t) ->
          Buffer.add_string buf
            (Printf.sprintf ",%s:%d" a.Attribute.name a.Attribute.domain_size))
        r.Relation.attributes)
    (List.sort
       (fun (a : Relation.t) b -> compare a.Relation.name b.Relation.name)
       (Catalog.relations catalog));
  List.iter
    (fun (i : Index.t) ->
      Buffer.add_string buf
        (Printf.sprintf "|ix:%s.%s:%b" i.Index.relation i.Index.attribute
           i.Index.clustered))
    (List.sort compare (Catalog.indexes catalog));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- the cache ------------------------------------------------------------ *)

type entry = {
  key : string;  (* the table's own key string, which memoized texts share *)
  plan : Plan.t;
  fp : string;  (* catalog fingerprint the plan was optimized under *)
  mutable hits : int;
  mutable replan_events : int;
  mutable tick : int;  (* LRU stamp *)
  mutable text : (string * statement) option;
      (* the statement text memoized against this entry, if any *)
}

type stats = {
  size : int;
  hits : int;
  misses : int;
  evictions : int;
  invalidated_drift : int;
  invalidated_replan : int;
  texts : int;
}

module Texts = Hashtbl.Make (String)

type t = {
  capacity : int;
  replan_threshold : int;
  mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
  (* The statement memo: exact SQL text -> the entry it hit.  At most one
     text per entry, dropped with the entry, so the memo never outgrows
     the cache. *)
  memo : entry Texts.t;
  (* Per-shape run feedback (a band of realized selectivities per
     parameter),
     deliberately NOT tied to plan entries: evicting or invalidating a
     plan discards the plan, not what its runs measured, so the
     re-optimization that follows an eviction still sees every
     observation accumulated against the shape.  Each Feedback.t carries
     its own lock; this table is only touched under [mu]. *)
  feedback : (string, Feedback.t) Hashtbl.t;
  mutable clock : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
  mutable s_drift : int;
  mutable s_replan : int;
}

let create ?(capacity = 64) ?(replan_threshold = 3) () =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity < 1";
  if replan_threshold < 1 then
    invalid_arg "Plan_cache.create: replan_threshold < 1";
  { capacity; replan_threshold; mu = Mutex.create ();
    entries = Hashtbl.create 64; memo = Texts.create 64;
    feedback = Hashtbl.create 64; clock = 0; s_hits = 0; s_misses = 0;
    s_evictions = 0; s_drift = 0; s_replan = 0 }

let locked t f = Mutex.protect t.mu f

type lookup = Hit of Plan.t | Miss | Invalidated_drift

(* The helpers below run under [mu]. *)

let forget_text t e =
  match e.text with
  | Some (sql, _) ->
    Texts.remove t.memo sql;
    e.text <- None
  | None -> ()

let remove_entry t (e : entry) =
  Hashtbl.remove t.entries e.key;
  forget_text t e

let hit t (e : entry) =
  e.hits <- e.hits + 1;
  t.clock <- t.clock + 1;
  e.tick <- t.clock;
  t.s_hits <- t.s_hits + 1

let find_entry t ~fingerprint ~key =
  match Hashtbl.find_opt t.entries key with
  | None ->
    t.s_misses <- t.s_misses + 1;
    Error Miss
  | Some e when not (String.equal e.fp fingerprint) ->
    (* The catalog moved under the cached plan: its costs, access
       modules and even referenced objects may be stale.  Evict and
       force a re-optimization. *)
    remove_entry t e;
    t.s_drift <- t.s_drift + 1;
    t.s_misses <- t.s_misses + 1;
    Error Invalidated_drift
  | Some e ->
    hit t e;
    Ok e

let find t ~fingerprint ~key =
  locked t (fun () ->
      match find_entry t ~fingerprint ~key with
      | Ok e -> Hit e.plan
      | Error l -> l)

let find_statement t ~fingerprint ~sql (st : statement) =
  locked t (fun () ->
      match find_entry t ~fingerprint ~key:st.key with
      | Ok (e : entry) ->
        (* A text enters the memo on a hit, never on the miss that
           stores the plan, so texts seen once stay out of it.  Its
           statement shares the entry's key string. *)
        forget_text t e;
        e.text <- Some (sql, { st with key = e.key });
        Texts.replace t.memo sql e;
        Hit e.plan
      | Error l -> l)

let find_text t ~fingerprint ~sql =
  locked t (fun () ->
      match Texts.find_opt t.memo sql with
      | Some ({ text = Some (_, st); _ } as e)
        when String.equal e.fp fingerprint ->
        hit t e;
        Some (st, e.plan)
      | Some _ | None -> None)

let store t ~fingerprint ~key plan =
  locked t (fun () ->
      Option.iter (forget_text t) (Hashtbl.find_opt t.entries key);
      t.clock <- t.clock + 1;
      Hashtbl.replace t.entries key
        { key; plan; fp = fingerprint; hits = 0; replan_events = 0;
          tick = t.clock; text = None };
      while Hashtbl.length t.entries > t.capacity do
        let victim =
          Hashtbl.fold
            (fun _ e acc ->
              match acc with
              | Some v when v.tick <= e.tick -> acc
              | _ -> Some e)
            t.entries None
        in
        match victim with
        | Some e ->
          remove_entry t e;
          t.s_evictions <- t.s_evictions + 1
        | None -> assert false
      done)

let note_replan t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> false
      | Some e ->
        e.replan_events <- e.replan_events + 1;
        if e.replan_events >= t.replan_threshold then begin
          (* A replan storm: the cached plan's estimates keep busting
             against this shape's actual data.  Evict so the next
             request re-optimizes with the env its feedback bands
             refine. *)
          remove_entry t e;
          t.s_replan <- t.s_replan + 1;
          true
        end
        else false)

let invalidate t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries key with
      | None -> false
      | Some e ->
        remove_entry t e;
        t.s_drift <- t.s_drift + 1;
        true)

let mem t ~key = locked t (fun () -> Hashtbl.mem t.entries key)

let shape_feedback t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.feedback key with
      | Some fb -> fb
      | None ->
        let fb = Feedback.create () in
        Hashtbl.add t.feedback key fb;
        fb)

let stats t =
  locked t (fun () ->
      { size = Hashtbl.length t.entries; hits = t.s_hits; misses = t.s_misses;
        evictions = t.s_evictions; invalidated_drift = t.s_drift;
        invalidated_replan = t.s_replan; texts = Texts.length t.memo })
