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
  let used (p : Plan.t) =
    match
      List.filter
        (fun (alt : Plan.t) -> Hashtbl.mem t.counts (p.Plan.pid, alt.Plan.pid))
        p.Plan.inputs
    with
    | [] -> p.Plan.inputs  (* no statistics: keep every alternative *)
    | used -> used
  in
  Option.get (Plan.rewrite env ~keep:used t.plan)

let maybe_replace ~threshold env t =
  if t.invocations >= threshold then begin
    t.plan <- shrink env t;
    t.counts <- Hashtbl.create 32;
    t.invocations <- 0;
    true
  end
  else false
