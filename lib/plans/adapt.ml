type t = {
  mutable plan : Plan.t;
  mutable counts : (int * int, int) Hashtbl.t;  (* (choose pid, alt pid) *)
  mutable invocations : int;
}

let create plan = { plan; counts = Hashtbl.create 32; invocations = 0 }
let plan t = t.plan
let invocations t = t.invocations

let record t (r : Startup.resolution) =
  t.invocations <- t.invocations + 1;
  List.iter
    (fun key ->
      let c = Option.value ~default:0 (Hashtbl.find_opt t.counts key) in
      Hashtbl.replace t.counts key (c + 1))
    r.Startup.choices

let shrink env t =
  let dag = Plan.Dag.of_plan t.plan in
  let pid i = dag.Plan.Dag.nodes.(i).Plan.pid in
  let used c =
    let alts = Plan.Dag.inputs dag c in
    match List.filter (fun a -> Hashtbl.mem t.counts (pid c, pid a)) alts with
    | [] -> alts  (* no statistics: keep every alternative *)
    | used -> used
  in
  Option.get (Plan.rewrite env ~keep:used dag)

let maybe_replace ~threshold env t =
  if t.invocations >= threshold then begin
    t.plan <- shrink env t;
    t.counts <- Hashtbl.create 32;
    t.invocations <- 0;
    true
  end
  else false
