(* Shared helpers for the test suites.

   [with_watchdog] turns a hang into a hard failure: a daemon thread
   polls a completion flag and kills the whole process (exit 124, the
   conventional timeout status) if the wrapped case is still running at
   the deadline.  Long-running cases — anything draining a parallel
   exchange, the chaos/soak harnesses, the differential suites — wrap
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
