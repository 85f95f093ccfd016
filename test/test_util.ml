(* Shared helpers for the test suites.

   [with_watchdog] turns a hang into a hard failure: a daemon thread
   polls a completion flag and kills the whole process (exit 124, the
   conventional timeout status) if the wrapped case is still running at
   the deadline.  Long-running cases — the chaos/soak harnesses, the
   differential suites — wrap
   themselves in it so a deadlock fails CI in seconds instead of
   stalling the job until the runner's own timeout. *)

let with_watchdog ?(deadline = 60.) name f =
  let finished = Atomic.make false in
  let _watchdog : Thread.t =
    Thread.create
      (fun () ->
        let rec wait elapsed =
          if Atomic.get finished then ()
          else if elapsed >= deadline then begin
            prerr_endline
              (Printf.sprintf "watchdog: %s still running after %.0fs" name
                 deadline);
            exit 124
          end
          else begin
            Thread.delay 0.25;
            wait (elapsed +. 0.25)
          end
        in
        wait 0.)
      ()
  in
  Fun.protect ~finally:(fun () -> Atomic.set finished true) f

(* Copies of [catalog] after DDL since a plan was optimized: the
   catalog drift a cached plan can meet when it is activated.
   [without_index] drops the index on [rel].[attr]; [without_attribute]
   drops the attribute itself together with that index. *)
let without_index catalog ~rel ~attr =
  let module C = Dqep.Catalog in
  C.create ~page_bytes:(C.page_bytes catalog) ~relations:(C.relations catalog)
    ~indexes:
      (List.filter
         (fun (i : Dqep.Index.t) ->
           not (i.Dqep.Index.relation = rel && i.Dqep.Index.attribute = attr))
         (C.indexes catalog))
    ()

let without_attribute catalog ~rel ~attr =
  let module C = Dqep.Catalog in
  let module R = Dqep.Relation in
  let relations =
    List.map
      (fun (r : R.t) ->
        if r.R.name <> rel then r
        else
          R.make ~name:r.R.name ~cardinality:r.R.cardinality
            ~record_bytes:r.R.record_bytes
            ~attributes:
              (List.filter
                 (fun (a : Dqep.Attribute.t) -> a.Dqep.Attribute.name <> attr)
                 r.R.attributes))
      (C.relations catalog)
  in
  C.create ~page_bytes:(C.page_bytes catalog) ~relations
    ~indexes:(C.indexes (without_index catalog ~rel ~attr))
    ()

(* Whether [diags] holds a [code] diagnostic naming [what]: a relation
   ("R1") or a column ("R1.a"), as the verifier's feasibility messages
   spell them. *)
let reports code what diags =
  List.exists
    (fun (d : Dqep.Diagnostic.t) ->
      d.Dqep.Diagnostic.code = code
      && List.mem what (String.split_on_char ' ' d.Dqep.Diagnostic.message))
    diags

(* Plan shape up to pids and sharing: structurally equal subplans get
   one id, however many nodes they are spread over.  Pids are unique
   across builders, so one table serves any number of plans. *)
let shape () =
  let ids = Hashtbl.create 256 and by_pid = Hashtbl.create 256 in
  let rec id (p : Dqep.Plan.t) =
    match Hashtbl.find_opt by_pid p.Dqep.Plan.pid with
    | Some i -> i
    | None ->
      let key = (p.Dqep.Plan.op, List.map id p.Dqep.Plan.inputs) in
      let i =
        match Hashtbl.find_opt ids key with
        | Some i -> i
        | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids key i;
          i
      in
      Hashtbl.add by_pid p.Dqep.Plan.pid i;
      i
  in
  id

(* A 2-way chain whose R1 carries two selections, [R1.a <= :v1] and
   [R1.jl <= :v2]: the plan holds nodes over R1 alone with either
   selection and with both, which agree on their relation set but not on
   their logical result. *)
let two_selection_query () =
  let module D = Dqep in
  let q = D.Queries.chain ~relations:2 in
  let sel attr hv =
    D.Predicate.select ~rel:"R1" ~attr (D.Predicate.Host_var hv)
  in
  let r1 =
    D.Logical.Select (D.Logical.Select (D.Logical.Get_set "R1", sel "a" "v1"),
                      sel "jl" "v2")
  in
  let join =
    D.Predicate.equi
      ~left:(D.Col.make ~rel:"R1" ~attr:"jr")
      ~right:(D.Col.make ~rel:"R2" ~attr:"jl")
  in
  ( q.D.Queries.catalog,
    D.Logical.Join (r1, D.Logical.Get_set "R2", [ join ]),
    [ "v1"; "v2" ] )

(* Every B-tree page on disk — breaking them all kills the index access
   paths while leaving heap scans untouched. *)
let btree_page_ids db =
  let module D = Dqep in
  let disk = D.Buffer_pool.disk (D.Database.pool db) in
  let ids = ref [] in
  for id = 0 to D.Disk.page_count disk - 1 do
    match (D.Disk.get disk id).D.Page.payload with
    | D.Page.Btree _ -> ids := id :: !ids
    | D.Page.Heap _ | D.Page.Free -> ()
  done;
  !ids

(* Whether two plans are the same plan up to pids: the same operators,
   relations, properties and row sizes, rows and own and total costs
   equal bit for bit, and the same sharing — a bijection between the
   two plans' nodes. *)
let same_plan (a : Dqep.Plan.t) (b : Dqep.Plan.t) =
  let module P = Dqep.Plan in
  let fwd = Hashtbl.create 256 and bwd = Hashtbl.create 256 in
  let bits (i : Dqep.Interval.t) =
    (Int64.bits_of_float i.Dqep.Interval.lo, Int64.bits_of_float i.Dqep.Interval.hi)
  in
  let rec same (a : P.t) (b : P.t) =
    match (Hashtbl.find_opt fwd a.P.pid, Hashtbl.find_opt bwd b.P.pid) with
    | Some b', Some a' -> b' = b.P.pid && a' = a.P.pid
    | Some _, None | None, Some _ -> false
    | None, None ->
      Hashtbl.add fwd a.P.pid b.P.pid;
      Hashtbl.add bwd b.P.pid a.P.pid;
      a.P.op = b.P.op && a.P.rels = b.P.rels && a.P.props = b.P.props
      && a.P.bytes_per_row = b.P.bytes_per_row
      && bits a.P.rows = bits b.P.rows
      && bits a.P.own_cost = bits b.P.own_cost
      && bits a.P.total_cost = bits b.P.total_cost
      && List.length a.P.inputs = List.length b.P.inputs
      && List.for_all2 same a.P.inputs b.P.inputs
  in
  same a b
