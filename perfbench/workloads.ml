(* The benchmark's request rounds.

   A workload is a fixed round of distinct RUN lines generated from the
   workload seed; the server only ever sees the lines.  The seed moves
   every binding inside its stratum and the request order, but not the
   round's composition: the shapes are fixed and the bindings stratified
   (see [stratified]), so the end-to-end percentiles do not depend on
   which seed ran.

   All workloads run over the paper catalog with ten relations, whose
   chains join [Ri.jr = R(i+1).jl]. *)

module D = Dqep
module Rng = D.Rng
module Protocol = D.Serve.Protocol

let relations = 10

type t = {
  round : string array;  (** distinct request lines, replayed in order *)
  queries : (string * (string * float) list * int) array;
      (** per line: SQL, host-variable bindings, memory grant *)
  expect : Protocol.cache_role;
      (** the cache path every reply after warm-up must take *)
  shapes : int;
  grants : int list;
  nominal_round_s : float;
      (** about the round time on the reference host (2 vCPU, row
          engine; 1.4 s for [miss_churn] and [scan_join]); [--seconds]
          divided by it fixes the replay count, which then stays the
          same whatever the speed of the code under test *)
}

(* A query shape: a chain of relations joined in order, and the
   selections (relation, attribute) each bound by a host variable. *)
type shape = { rels : int list; sels : (int * string) list }

let filter_all rels attrs = { rels; sels = List.combine rels attrs }

let sql_of_shape { rels; sels } =
  let rel = D.Paper_catalog.rel_name in
  let selections =
    List.mapi
      (fun k (i, a) -> Printf.sprintf "%s.%s <= :v%d" (rel i) a (k + 1))
      sels
  in
  let rec joins = function
    | a :: (b :: _ as rest) ->
      Printf.sprintf "%s.%s = %s.%s" (rel a) D.Paper_catalog.join_right_attr
        (rel b) D.Paper_catalog.join_left_attr
      :: joins rest
    | [ _ ] | [] -> []
  in
  Printf.sprintf "SELECT * FROM %s WHERE %s"
    (String.concat ", " (List.map rel rels))
    (String.concat " AND " (selections @ joins rels))

let chain first len = List.init len (fun k -> first + k)

(* [n] values of host variable [k] of a shape: value [j] lies in
   stratum [(a j + k) mod n] of [n] equal strata of the unit interval
   (a fixed permutation, [a] coprime with [n]), at a seeded offset inside
   the stratum, mapped through [scale].  Which strata meet in one
   request is thus the same for every seed, and so is the spread of
   request costs; the seed moves each value within its stratum. *)
let stratified rng n k scale =
  let rec coprime a = if gcd a n = 1 then a else coprime (a + 1)
  and gcd a b = if b = 0 then a else gcd b (a mod b) in
  let a = coprime (k + 1) in
  Array.init n (fun j ->
      let stratum = ((a * j) + k) mod n in
      scale ((float_of_int stratum +. Rng.float rng) /. float_of_int n))

let log_range lo hi x = lo *. ((hi /. lo) ** x)
let lin_range lo hi x = lo +. ((hi -. lo) *. x)

(* [per_shape] requests for each shape, every host variable stratified
   over its range; returns (shape index, bindings) in shape-major
   order. *)
let requests rng shapes ~per_shape ~scale =
  List.concat
    (List.mapi
       (fun s shape ->
         let columns =
           List.mapi (fun k _ -> stratified rng per_shape k scale) shape.sels
         in
         List.init per_shape (fun j ->
             ( s,
               List.mapi
                 (fun k col -> (Printf.sprintf "v%d" (k + 1), col.(j)))
                 columns )))
       shapes)

(* The order for a cached workload: one lead request per shape, in shape
   order and with every variable at the middle of its range, then the
   remaining stratified requests shuffled.  A shape's dynamic plan is
   optimized at its first request, under feedback from the requests
   before it; with seed-independent leads every seed caches the same
   plans. *)
let leads_then_shuffled rng shapes ~per_shape ~scale =
  let leads =
    List.mapi
      (fun s shape ->
        (s, List.mapi (fun k _ -> (Printf.sprintf "v%d" (k + 1), scale 0.5)) shape.sels))
      shapes
  in
  let rest = Array.of_list (requests rng shapes ~per_shape:(per_shape - 1) ~scale) in
  Rng.shuffle rng rest;
  Array.append (Array.of_list leads) rest

let build ~expect ~nominal_round_s ~grant shapes order =
  let shapes_a = Array.of_list shapes in
  let queries =
    Array.map
      (fun (s, bindings) -> (sql_of_shape shapes_a.(s), bindings, grant s))
      order
  in
  let round =
    Array.mapi
      (fun i (sql, bindings, memory) ->
        Protocol.render_request
          (Protocol.Run
             { Protocol.id = Some i; bindings; memory_pages = Some memory;
               deadline_ms = None; retries = None; risk = None; sql }))
      queries
  in
  { round; queries; expect; shapes = List.length shapes;
    grants =
      List.sort_uniq compare (List.mapi (fun s _ -> grant s) shapes);
    nominal_round_s }

(* hit_point: eight hot 2-5-way chains, every relation filtered, 125
   requests each with bindings in [0.001, 0.05] (log-stratified, so
   start-up resolution flips between index and scan alternatives).
   After the warm-up replay every request is a cache hit. *)
let hit_point seed =
  let rng = Rng.create seed in
  let shapes =
    List.map
      (fun (first, len) ->
        let rels = chain first len in
        filter_all rels (List.map (fun _ -> "a") rels))
      [ (1, 2); (6, 2); (3, 3); (8, 3); (1, 4); (5, 4); (2, 5); (6, 5) ]
  in
  let order =
    leads_then_shuffled rng shapes ~per_shape:125 ~scale:(log_range 0.001 0.05)
  in
  build ~expect:Protocol.Hit ~nominal_round_s:0.35
    ~grant:(fun _ -> 64) shapes order

(* miss_churn: 180 shapes (20 attribute variants of each of three
   4-way and six 5-way chains), visited in one fixed cyclic order, six
   cycles per round.  The plan cache holds 64 entries, so under LRU every
   request misses and re-optimizes.  A 5-way optimize costs about twice
   a 4-way one; with two thirds of the shapes 5-way, the median request
   lies inside the 5-way mode rather than on the step between the two. *)
let miss_churn seed =
  let rng = Rng.create seed in
  (* The shape set is the same for every seed (its plans' sizes set the
     heap the cache holds); the seed moves bindings and visit order. *)
  let shape_rng = Rng.create 0x5eed in
  let variants = 20 in
  let attrs = [| "a"; D.Paper_catalog.join_left_attr; D.Paper_catalog.join_right_attr |] in
  let chains =
    List.map (fun first -> chain first 4) [ 1; 4; 7 ]
    @ List.init 6 (fun i -> chain (i + 1) 5)
  in
  let shapes =
    List.concat_map
      (fun rels ->
        let len = List.length rels in
        let total = int_of_float (3. ** float_of_int len) in
        let codes = Array.init total Fun.id in
        Rng.shuffle shape_rng codes;
        List.init variants (fun v ->
            let code = ref codes.(v) in
            let attrs =
              List.init len (fun _ ->
                  let a = attrs.(!code mod 3) in
                  code := !code / 3;
                  a)
            in
            filter_all rels attrs))
      chains
  in
  let cycles = 6 in
  let by_shape =
    Array.of_list
      (requests rng shapes ~per_shape:cycles ~scale:(log_range 0.001 0.05))
  in
  let visit = Array.init (List.length shapes) Fun.id in
  Rng.shuffle rng visit;
  let order =
    Array.init (cycles * Array.length visit) (fun i ->
        let s = visit.(i mod Array.length visit) in
        by_shape.((s * cycles) + (i / Array.length visit)))
  in
  build ~expect:Protocol.Miss ~nominal_round_s:1.55
    ~grant:(fun _ -> 64) shapes order

(* scan_join: four cached 2-way chains with one loose selection in
   [0.1, 1.0] and an 8-16 page grant; full scans and hash joins spill
   through a pool far smaller than the inputs (159-242 pages a
   request). *)
let scan_join seed =
  let rng = Rng.create seed in
  let shapes =
    List.map
      (fun (first, filtered) -> { rels = chain first 2; sels = [ (filtered, "a") ] })
      [ (4, 4); (5, 6); (9, 9); (3, 3) ]
  in
  let order =
    leads_then_shuffled rng shapes ~per_shape:25 ~scale:(lin_range 0.1 1.0)
  in
  build ~expect:Protocol.Hit ~nominal_round_s:1.45
    ~grant:(fun s -> [| 8; 10; 12; 16 |].(s)) shapes order

let all = [ ("hit_point", hit_point); ("miss_churn", miss_churn); ("scan_join", scan_join) ]
