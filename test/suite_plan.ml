(* Plan DAGs: hash-consing/sharing, traversal, choose-plan wrapping,
   cost composition, schemas. *)

module D = Dqep
module I = D.Interval

let catalog () = D.Paper_catalog.make ~relations:2

let builder () =
  let env = D.Env.dynamic (catalog ()) in
  (env, D.Plan.Builder.create env)

let scan b name rows =
  D.Plan.Builder.operator b (D.Physical.File_scan name) ~inputs:[] ~rels:[ name ]
    ~rows:(I.point rows) ~bytes_per_row:512 ~props:D.Props.unordered

let test_hash_consing () =
  let _, b = builder () in
  let s1 = scan b "R1" 467. in
  let s2 = scan b "R1" 467. in
  Alcotest.(check int) "same pid" s1.D.Plan.pid s2.D.Plan.pid;
  Alcotest.(check int) "one node created" 1 (D.Plan.Builder.created b);
  let s3 = scan b "R2" 834. in
  Alcotest.(check bool) "different op, new node" true (s3.D.Plan.pid <> s1.D.Plan.pid)

let join_pred =
  D.Predicate.equi
    ~left:(D.Col.make ~rel:"R1" ~attr:"jr")
    ~right:(D.Col.make ~rel:"R2" ~attr:"jl")

let join b l r =
  D.Plan.Builder.operator b (D.Physical.Hash_join [ join_pred ]) ~inputs:[ l; r ]
    ~rels:[ "R1"; "R2" ] ~rows:(I.point 100.) ~bytes_per_row:1024
    ~props:D.Props.unordered

let test_total_cost_composition () =
  let _, b = builder () in
  let l = scan b "R1" 467. in
  let r = scan b "R2" 834. in
  let j = join b l r in
  let expected =
    I.mid j.D.Plan.own_cost +. I.mid l.D.Plan.total_cost +. I.mid r.D.Plan.total_cost
  in
  Alcotest.(check (float 1e-9)) "total = own + children" expected
    (I.mid j.D.Plan.total_cost)

let test_choose_wrapping () =
  let env, b = builder () in
  (* Two alternative access paths to the same relation. *)
  let l = scan b "R1" 467. in
  let r =
    D.Plan.Builder.operator b (D.Physical.Btree_scan { rel = "R1"; attr = "a" })
      ~inputs:[] ~rels:[ "R1" ] ~rows:(I.point 834.) ~bytes_per_row:512
      ~props:(D.Props.ordered [ D.Col.make ~rel:"R1" ~attr:"a" ])
  in
  Alcotest.check_raises "needs 2+"
    (Invalid_argument "Plan.Builder.choose: needs >= 2 alternatives") (fun () ->
      ignore (D.Plan.Builder.choose b [ l ]));
  (match D.Plan.Builder.choose b [ l; scan b "R2" 1. ] with
  | _ -> Alcotest.fail "mismatched relation sets accepted"
  | exception D.Plan.Invalid_choose d ->
    Alcotest.(check string) "typed diagnostic" "DQEP307"
      (D.Diagnostic.id d.D.Diagnostic.code));
  let c = D.Plan.Builder.choose b [ l; r ] in
  Alcotest.(check bool) "is choose" true (c.D.Plan.op = D.Physical.Choose_plan);
  let overhead = (D.Env.device env).D.Device.choose_plan_overhead in
  Alcotest.(check (float 1e-9)) "min-combination + overhead"
    (Float.min l.D.Plan.total_cost.I.lo r.D.Plan.total_cost.I.lo +. overhead)
    c.D.Plan.total_cost.I.lo

let test_dag_counting () =
  let _, b = builder () in
  let shared = scan b "R1" 467. in
  let r = scan b "R2" 834. in
  let j1 = join b shared r in
  let j2 = join b r shared in
  let c = D.Plan.Builder.choose b [ j1; j2 ] in
  (* Nodes: shared scan, r scan, two joins, choose = 5 distinct. *)
  Alcotest.(check int) "node_count respects sharing" 5 (D.Plan.node_count c);
  (* Expanded: choose(1) + 2 * (join(1) + 2 scans) = 7... each join
     expands to 3 nodes. *)
  Alcotest.(check (float 0.)) "expanded count" 7. (D.Plan.expanded_count c);
  Alcotest.(check int) "choose count" 1 (D.Plan.choose_count c);
  Alcotest.(check bool) "contains choose" true (D.Plan.contains_choose c);
  Alcotest.(check bool) "plain plan has no choose" false (D.Plan.contains_choose j1);
  Alcotest.(check int) "modelled size" (5 * 128)
    (D.Plan.size_bytes D.Device.default c)

let test_iter_visits_once () =
  let _, b = builder () in
  let shared = scan b "R1" 467. in
  let j = join b shared (scan b "R2" 834.) in
  let j2 = join b (scan b "R2" 834.) shared in
  let c = D.Plan.Builder.choose b [ j; j2 ] in
  let visits = ref [] in
  D.Plan.iter (fun p -> visits := p.D.Plan.pid :: !visits) c;
  let sorted = List.sort compare !visits in
  Alcotest.(check bool) "no duplicates" true
    (List.sort_uniq compare sorted = sorted);
  (* Children precede parents. *)
  let pos pid =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = pid then i else go (i + 1) rest
    in
    go 0 (List.rev !visits)
  in
  Alcotest.(check bool) "topological" true
    (pos shared.D.Plan.pid < pos j.D.Plan.pid && pos j.D.Plan.pid < pos c.D.Plan.pid)

let test_schema () =
  let _, b = builder () in
  let j = join b (scan b "R1" 467.) (scan b "R2" 834.) in
  let s = D.Plan.schema (catalog ()) j in
  Alcotest.(check int) "join schema width" 6 (D.Schema.width s);
  Alcotest.(check int) "left cols first" 0
    (D.Schema.position_exn s (D.Col.make ~rel:"R1" ~attr:"a"))

let test_copy_node () =
  let _, b = builder () in
  let l = scan b "R1" 467. in
  let r = scan b "R2" 834. in
  let j = join b l r in
  let j' = D.Plan.Builder.copy_node b j ~inputs:[ r; l ] in
  Alcotest.(check bool) "new structure, new pid" true (j'.D.Plan.pid <> j.D.Plan.pid);
  Alcotest.(check bool) "same op" true (j'.D.Plan.op = j.D.Plan.op);
  (* Copying with identical inputs hash-conses back to the original. *)
  let j'' = D.Plan.Builder.copy_node b j ~inputs:[ l; r ] in
  Alcotest.(check int) "hash-consed" j.D.Plan.pid j''.D.Plan.pid

(* Pids are process-global and domains build nodes concurrently: a
   server client optimizing on a cache miss, every start-up resolution
   that rebuilds a node.  Four domains each build 100k nodes (a fresh
   builder every 1000, so hash-consing cannot hand back an old node and
   the builders stay small); every pid must be distinct.  Whether the
   domains really overlap depends on the host's load, so the round is
   repeated. *)
let test_pids_distinct_across_domains () =
  let domains = 4 and per_domain = 100_000 and batch = 1000 in
  let env = D.Env.dynamic (catalog ()) in
  let ops = Array.init batch (fun i -> D.Physical.File_scan (string_of_int i)) in
  let one = I.point 1. in
  let round () =
    let started = Atomic.make 0 in
    let build () =
      (* Start together, so the domains can overlap. *)
      Atomic.incr started;
      while Atomic.get started < domains do Domain.cpu_relax () done;
      let pids = Array.make per_domain 0 in
      let b = ref (D.Plan.Builder.create env) in
      for i = 0 to per_domain - 1 do
        if i mod batch = 0 then b := D.Plan.Builder.create env;
        let p =
          D.Plan.Builder.raw !b ~op:ops.(i mod batch) ~inputs:[] ~rels:[ "R1" ]
            ~rows:one ~bytes_per_row:8 ~own_cost:one ~total_cost:one
            ~props:D.Props.unordered
        in
        pids.(i) <- p.D.Plan.pid
      done;
      pids
    in
    let pids =
      Array.concat
        (List.map Domain.join (List.init domains (fun _ -> Domain.spawn build)))
    in
    Array.sort compare pids;
    let duplicates = ref 0 in
    Array.iteri
      (fun i pid -> if i > 0 && pids.(i - 1) = pid then incr duplicates)
      pids;
    !duplicates
  in
  for r = 1 to 8 do
    Alcotest.(check int) (Printf.sprintf "round %d: duplicate pids" r) 0 (round ())
  done

(* --- the numbering ------------------------------------------------------- *)

(* Children first, inputs left to right, each pid once: an independent
   walk, numbering on after the pids in [seen]. *)
let reference_order ?(seen = Hashtbl.create 64) plan =
  let order = ref [] in
  let rec go (p : D.Plan.t) =
    if not (Hashtbl.mem seen p.D.Plan.pid) then begin
      Hashtbl.add seen p.D.Plan.pid ();
      List.iter go p.D.Plan.inputs;
      order := p.D.Plan.pid :: !order
    end
  in
  go plan;
  List.rev !order

let dag_pids (d : D.Plan.Dag.t) ~from =
  List.init (d.D.Plan.Dag.length - from) (fun i ->
      d.D.Plan.Dag.nodes.(from + i).D.Plan.pid)

(* Every property of one numbering, for the indices from [from] on. *)
let check_numbering (d : D.Plan.Dag.t) ~from =
  let ok = ref true in
  for i = from to d.D.Plan.Dag.length - 1 do
    let p = d.D.Plan.Dag.nodes.(i) in
    let ins = D.Plan.Dag.inputs d i in
    ok :=
      !ok
      && D.Plan.Dag.find d p.D.Plan.pid = Some i
      && List.for_all (fun j -> j < i) ins
      && List.compare_lengths ins p.D.Plan.inputs = 0
      && List.for_all2
           (fun j (c : D.Plan.t) -> d.D.Plan.Dag.nodes.(j) == c)
           ins p.D.Plan.inputs
  done;
  !ok && d.D.Plan.Dag.aliased = []

type source = Plangen of int | Corpus of (string * D.Queries.t)

let postures = [| D.Risk.Expected; D.Risk.Worst_case; D.Risk.Quantile 0.9 |]

(* Plangen seeds and the query corpus, under the worst-case, expected
   and q90 postures. *)
let numbering_instance =
  let corpus = Array.of_list (D.Queries.corpus ()) in
  QCheck.make
    ~print:(fun (src, k) ->
      Printf.sprintf "%s, %s"
        (match src with
        | Plangen seed -> Printf.sprintf "plangen seed %d" seed
        | Corpus (name, _) -> name)
        (D.Risk.to_string postures.(k)))
    QCheck.Gen.(
      pair
        (oneof
           [ map (fun s -> Plangen s) (int_range 1 200);
             map
               (fun i -> Corpus corpus.(i))
               (int_bound (Array.length corpus - 1)) ])
        (int_bound 2))

let prop_numbering =
  QCheck.Test.make ~name:"numbering: order, inputs, lookup, extension" ~count:60
    numbering_instance (fun (src, k) ->
      let catalog, query =
        match src with
        | Plangen seed ->
          let inst = D.Plangen.generate ~seed in
          (inst.D.Plangen.catalog, inst.D.Plangen.query)
        | Corpus (_, q) -> (q.D.Queries.catalog, q.D.Queries.query)
      in
      let options = { D.Optimizer.default_options with risk = postures.(k) } in
      let plan =
        (Result.get_ok
           (D.Optimizer.optimize ~options ~mode:(D.Optimizer.dynamic ()) catalog
              query))
          .D.Optimizer.plan
      in
      let d = D.Plan.Dag.of_plan plan in
      let n = d.D.Plan.Dag.length in
      let iter_order = ref [] in
      D.Plan.iter (fun p -> iter_order := p.D.Plan.pid :: !iter_order) plan;
      let first = reference_order plan in
      let own =
        dag_pids d ~from:0 = first
        && List.rev !iter_order = first
        && d.D.Plan.Dag.nodes.(n - 1) == plan
        && check_numbering d ~from:0
      in
      (* A resolved plan shares most of its nodes with the dynamic one
         and rebuilds the rest: only those are numbered, after [n]. *)
      let before = Array.sub d.D.Plan.Dag.nodes 0 n in
      let resolved =
        (D.Startup.resolve (D.Env.dynamic catalog) plan).D.Startup.plan
      in
      let seen = Hashtbl.create 64 in
      List.iter (fun pid -> Hashtbl.replace seen pid ()) first;
      let unseen = reference_order ~seen resolved in
      let root = D.Plan.Dag.add d resolved in
      own
      && Array.for_all2 ( == ) before (Array.sub d.D.Plan.Dag.nodes 0 n)
      && dag_pids d ~from:n = unseen
      && d.D.Plan.Dag.nodes.(root) == resolved
      && check_numbering d ~from:n)

let suite =
  ( "plan",
    [ Alcotest.test_case "hash-consing" `Quick test_hash_consing;
      Alcotest.test_case "total cost composition" `Quick test_total_cost_composition;
      Alcotest.test_case "choose-plan wrapping" `Quick test_choose_wrapping;
      Alcotest.test_case "DAG counting" `Quick test_dag_counting;
      Alcotest.test_case "iter visits once, topologically" `Quick test_iter_visits_once;
      Alcotest.test_case "schema" `Quick test_schema;
      Alcotest.test_case "copy_node" `Quick test_copy_node;
      Alcotest.test_case "pids distinct across domains" `Quick
        test_pids_distinct_across_domains;
      QCheck_alcotest.to_alcotest prop_numbering ] )
