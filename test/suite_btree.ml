(* B+-trees: structural invariants, search, range scans, duplicates,
   bulk loading — with property tests over random key sets. *)

module D = Dqep

let fresh () =
  let disk = D.Disk.create () in
  D.Buffer_pool.create ~frames:10_000 disk

let rid i = D.Rid.make ~page:i ~slot:0

(* Small pages force deep trees and many splits. *)
let small_page = 64

let check_ok pool tree =
  match D.Btree.check_invariants pool tree with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariant violated: %s" e

let test_empty () =
  let pool = fresh () in
  let t = D.Btree.create pool ~page_bytes:small_page in
  Alcotest.(check int) "empty" 0 (D.Btree.entry_count pool t);
  Alcotest.(check int) "search empty" 0 (List.length (D.Btree.search pool t 5));
  check_ok pool t

let test_insert_and_search () =
  let pool = fresh () in
  let t = D.Btree.create pool ~page_bytes:small_page in
  List.iter (fun k -> D.Btree.insert pool t k (rid k)) [ 5; 3; 8; 1; 9; 7; 2 ];
  check_ok pool t;
  Alcotest.(check int) "count" 7 (D.Btree.entry_count pool t);
  List.iter
    (fun k ->
      match D.Btree.search pool t k with
      | [ r ] -> Alcotest.(check bool) "found rid" true (D.Rid.equal r (rid k))
      | l -> Alcotest.failf "key %d: %d results" k (List.length l))
    [ 5; 3; 8; 1; 9; 7; 2 ];
  Alcotest.(check int) "missing key" 0 (List.length (D.Btree.search pool t 6))

let test_many_inserts_split () =
  let pool = fresh () in
  let t = D.Btree.create pool ~page_bytes:small_page in
  for k = 0 to 499 do
    D.Btree.insert pool t ((k * 37) mod 500) (rid k)
  done;
  check_ok pool t;
  Alcotest.(check int) "count" 500 (D.Btree.entry_count pool t);
  (* A lone leaf is one page: more pages means the tree split. *)
  Alcotest.(check bool) "tree split" true (D.Buffer_pool.live_pages pool > 1)

let test_duplicates () =
  let pool = fresh () in
  let t = D.Btree.create pool ~page_bytes:small_page in
  (* 60 entries under only 3 distinct keys: duplicate runs span leaves. *)
  for i = 0 to 59 do
    D.Btree.insert pool t (i mod 3) (rid i)
  done;
  check_ok pool t;
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "key %d duplicates" k)
        20
        (List.length (D.Btree.search pool t k)))
    [ 0; 1; 2 ]

let test_range () =
  let pool = fresh () in
  let t = D.Btree.create pool ~page_bytes:small_page in
  for k = 0 to 99 do
    D.Btree.insert pool t k (rid k)
  done;
  let collect lo hi =
    let acc = ref [] in
    D.Btree.range pool t ~lo ~hi (fun k _ -> acc := k :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "bounded" [ 10; 11; 12 ] (collect (Some 10) (Some 12));
  Alcotest.(check int) "unbounded" 100 (List.length (collect None None));
  Alcotest.(check (list int)) "open lo" [ 0; 1 ] (collect None (Some 1));
  Alcotest.(check (list int)) "open hi" [ 98; 99 ] (collect (Some 98) None);
  Alcotest.(check (list int)) "empty range" [] (collect (Some 50) (Some 49))

let test_bulk_load_matches_inserts () =
  let pool = fresh () in
  let keys = Array.init 300 (fun i -> (i * 61) mod 97) in
  let entries = Array.mapi (fun i k -> (k, rid i)) keys in
  let bulk = D.Btree.bulk_load pool ~page_bytes:small_page entries in
  check_ok pool bulk;
  let incr_tree = D.Btree.create pool ~page_bytes:small_page in
  Array.iteri (fun i k -> D.Btree.insert pool incr_tree k (rid i)) keys;
  check_ok pool incr_tree;
  let dump t =
    let acc = ref [] in
    D.Btree.range pool t ~lo:None ~hi:None (fun k r -> acc := (k, r) :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check bool) "same contents" true (dump bulk = dump incr_tree)

(* --- properties ---------------------------------------------------------- *)

let keys_gen = QCheck.(list_of_size (Gen.int_range 0 400) (int_range 0 200))

let build_tree keys =
  let pool = fresh () in
  let t = D.Btree.create pool ~page_bytes:small_page in
  List.iteri (fun i k -> D.Btree.insert pool t k (rid i)) keys;
  (pool, t)

let prop_invariants =
  QCheck.Test.make ~name:"invariants hold after random inserts" ~count:100
    keys_gen (fun keys ->
      let pool, t = build_tree keys in
      match D.Btree.check_invariants pool t with Ok () -> true | Error _ -> false)

let prop_search_complete =
  QCheck.Test.make ~name:"search finds every inserted entry" ~count:100 keys_gen
    (fun keys ->
      let pool, t = build_tree keys in
      List.for_all
        (fun k ->
          let expected = List.length (List.filter (Int.equal k) keys) in
          List.length (D.Btree.search pool t k) = expected)
        (List.sort_uniq compare keys))

let prop_range_equals_filter =
  QCheck.Test.make ~name:"range scan equals sorted filter" ~count:100
    (QCheck.triple keys_gen (QCheck.int_range 0 200) (QCheck.int_range 0 200))
    (fun (keys, a, b) ->
      let lo = Int.min a b and hi = Int.max a b in
      let pool, t = build_tree keys in
      let scanned = ref [] in
      D.Btree.range pool t ~lo:(Some lo) ~hi:(Some hi) (fun k _ ->
          scanned := k :: !scanned);
      let expected =
        List.filter (fun k -> k >= lo && k <= hi) keys |> List.sort compare
      in
      List.rev !scanned = expected)

let suite =
  ( "btree",
    [ Alcotest.test_case "empty tree" `Quick test_empty;
      Alcotest.test_case "insert and search" `Quick test_insert_and_search;
      Alcotest.test_case "splits under load" `Quick test_many_inserts_split;
      Alcotest.test_case "duplicates across leaves" `Quick test_duplicates;
      Alcotest.test_case "range scans" `Quick test_range;
      Alcotest.test_case "bulk load = incremental" `Quick test_bulk_load_matches_inserts;
      QCheck_alcotest.to_alcotest prop_invariants;
      QCheck_alcotest.to_alcotest prop_search_complete;
      QCheck_alcotest.to_alcotest prop_range_equals_filter ] )
