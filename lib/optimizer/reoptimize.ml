(* Incremental re-optimization: re-enter a retained search with refined
   cardinalities instead of optimizing from scratch.

   [prepare] runs the normal Volcano search but keeps the memo, the
   search state and the root group alive.  When execution later observes
   a cardinality that escapes the plan's validity band
   ([Checkpoint.Estimate_busted]), [replan] folds the observations into
   the memo's row intervals ([Memo.refine_rows] — refinement never
   leaves the prior, so winners of unmoved groups stay soundly costed),
   marks the transitive parents of every moved group dirty, drops only
   those groups' memoized goals ([Search.reseed]) and re-runs the search.
   Clean groups answer from cache; the dirty closure is re-costed, and
   the replanned plan is the one a fresh search of the refined memo
   returns.

   The dirty closure is a fixpoint of passes over the groups: ingest
   interns children first, but exploration adds joins over groups it
   creates later (associativity's [B join C]), so a child's id can be
   above its parent's and one ascending pass can miss a parent. *)

module Props = Dqep_algebra.Props
module Plan = Dqep_plans.Plan

type stats = {
  groups_total : int;
  groups_moved : int;
  groups_dirty : int;
  reused_winners : int;
}

type t = {
  memo : Memo.t;
  search : Search.t;
  root : int;
  mutable last : stats option;
}

let prepare ?options ~mode catalog query =
  match Optimizer.search_config ?options ~mode catalog query with
  | Error _ as e -> e
  | Ok (env, config) ->
    let memo = Memo.create env in
    let root = Memo.ingest memo query in
    let search = Search.create config memo in
    (match Search.optimize search root Props.Any ~limit:Float.infinity with
    | None -> Error "optimization produced no plan"
    | Some plan -> Ok ({ memo; search; root; last = None }, plan))

let replan t ~rels_rows =
  match Memo.refine_rows t.memo rels_rows with
  | [] -> None
  | moved ->
    let n = Memo.group_count t.memo in
    let dirty = Array.make n false in
    List.iter (fun id -> dirty.(id) <- true) moved;
    let changed = ref true in
    while !changed do
      changed := false;
      for id = 0 to n - 1 do
        if
          (not dirty.(id))
          && List.exists
               (fun e -> Array.exists (fun c -> dirty.(c)) e.Lmexpr.children)
               (Memo.lexprs (Memo.group t.memo id))
        then begin
          dirty.(id) <- true;
          changed := true
        end
      done
    done;
    let reused =
      Search.reseed t.search ~dirty:(fun gid -> gid < n && dirty.(gid))
    in
    let plan = Search.optimize t.search t.root Props.Any ~limit:Float.infinity in
    let groups_dirty =
      Array.fold_left (fun a d -> if d then a + 1 else a) 0 dirty
    in
    t.last <-
      Some
        { groups_total = n;
          groups_moved = List.length moved;
          groups_dirty;
          reused_winners = reused };
    plan

let last_stats t = t.last
