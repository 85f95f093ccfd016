module Interval = Dqep_util.Interval
module Plan = Dqep_plans.Plan

type t = Plan.t list

let insert ~keep_equal ?(force_incomparable = false) ?sample_dominates ?rank
    ?scenario_costs ?(margin = 0.) ?on_rank_drop set (plan : Plan.t) =
  if List.exists (fun (e : Plan.t) -> e.Plan.pid = plan.Plan.pid) set then
    (set, false)
  else if force_incomparable then (set @ [ plan ], true)
  else
  let dominated_by (existing : Plan.t) =
    match Interval.compare_cost existing.Plan.total_cost plan.Plan.total_cost with
    | Interval.Lt -> true
    | Interval.Eq -> not keep_equal
    | Interval.Gt -> false
    | Interval.Incomparable -> (
      match sample_dominates with
      | None -> false
      | Some f -> f existing plan)
  in
  if List.exists dominated_by set then (set, false)
  else begin
    let dominates (existing : Plan.t) =
      match Interval.compare_cost plan.Plan.total_cost existing.Plan.total_cost with
      | Interval.Lt -> true
      | Interval.Gt | Interval.Eq -> false
      | Interval.Incomparable -> (
        match sample_dominates with
        | None -> false
        | Some f -> f plan existing)
    in
    let survivors = List.filter (fun e -> not (dominates e)) set in
    match rank with
    | None -> (survivors @ [ plan ], true)
    | Some rk ->
      (* Risk-ranked collapse: after interval dominance has had its say,
         only plans whose rank is within [margin] of the set's best
         survive — plus, per scenario of the grid, the plan achieving
         that scenario's minimum cost whenever the kept set is more
         than [margin] worse there.  Start-up resolution picks the
         cheapest alternative per point environment, so this keeps the
         group's resolved cost on every grid scenario within a
         (1 + margin) factor of what interval incomparability would
         have delivered; drops are redundant up to that tolerance, not
         merely mid-ranked.  Everything reaching this point is pairwise
         incomparable (or a kept equal), so every rank drop is a plan
         interval mode would have retained — the callback lets the
         search count them. *)
      let candidates = Array.of_list (survivors @ [ plan ]) in
      let ranks = Array.map rk candidates in
      let cutoff =
        (1. +. margin) *. Array.fold_left Float.min Float.infinity ranks
      in
      let kept = Array.map (fun r -> r <= cutoff) ranks in
      (match scenario_costs with
      | None -> ()
      | Some vec ->
        let vecs = Array.map vec candidates in
        let scenarios =
          Array.fold_left (fun acc v -> max acc (Array.length v)) 0 vecs
        in
        for j = 0 to scenarios - 1 do
          let at k =
            if j < Array.length vecs.(k) then vecs.(k).(j) else Float.infinity
          in
          let mj = ref Float.infinity and kept_mj = ref Float.infinity in
          for k = 0 to Array.length vecs - 1 do
            mj := Float.min !mj (at k);
            if kept.(k) then kept_mj := Float.min !kept_mj (at k)
          done;
          if !kept_mj > (1. +. margin) *. !mj then begin
            let k = ref 0 in
            while !k < Array.length vecs && not (at !k <= !mj) do
              incr k
            done;
            if !k < Array.length vecs then kept.(!k) <- true
          end
        done);
      (* Candidate order: membership, not insertion order, is what the
         retention pass decided. *)
      let survivors = ref [] and dropped = ref [] in
      for k = Array.length candidates - 1 downto 0 do
        if kept.(k) then survivors := candidates.(k) :: !survivors
        else dropped := candidates.(k) :: !dropped
      done;
      Option.iter (fun f -> List.iter f !dropped) on_rank_drop;
      (!survivors, kept.(Array.length candidates - 1))
  end
