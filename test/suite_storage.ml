(* Storage engine: disk, buffer pool (LRU, pinning, I/O accounting),
   heap files. *)

module D = Dqep

let fresh ?(frames = 4) () =
  let disk = D.Disk.create () in
  (disk, D.Buffer_pool.create ~frames disk)

let heap_page pool =
  let page = D.Buffer_pool.new_page pool in
  page.D.Page.payload <- D.Page.Heap { tuples = Array.make 4 [||]; count = 0 };
  D.Buffer_pool.unpin pool page.D.Page.id;
  page.D.Page.id

let test_disk_allocation () =
  let disk = D.Disk.create () in
  let ids = List.init 100 (fun _ -> (D.Disk.allocate disk).D.Page.id) in
  Alcotest.(check (list int)) "sequential ids" (List.init 100 Fun.id) ids;
  Alcotest.(check int) "page count" 100 (D.Disk.page_count disk);
  Alcotest.check_raises "unallocated" (Invalid_argument "Disk.get: unallocated page id")
    (fun () -> ignore (D.Disk.get disk 100))

let test_disk_free_list () =
  let disk = D.Disk.create () in
  for _ = 1 to 5 do
    ignore (D.Disk.allocate disk)
  done;
  D.Disk.free disk 1;
  D.Disk.free disk 3;
  Alcotest.(check int) "free pages" 2 (D.Disk.free_pages disk);
  Alcotest.check_raises "double free" (Invalid_argument "Disk.free: page not allocated")
    (fun () -> D.Disk.free disk 3);
  Alcotest.check_raises "free id unreadable" (Invalid_argument "Disk.get: unallocated page id")
    (fun () -> ignore (D.Disk.get disk 1));
  let reused = List.init 3 (fun _ -> (D.Disk.allocate disk).D.Page.id) in
  Alcotest.(check (list int)) "last freed, first reused; then fresh" [ 3; 1; 5 ] reused;
  Alcotest.(check int) "array grows only past the free list" 6 (D.Disk.page_count disk)

(* A consuming read-back returns what a scan does, releases every page,
   and moves no I/O: released frames stay resident until evicted, and
   only then are their ids reused. *)
let test_heap_consume_releases () =
  let tuples = Array.init 10 (fun i -> [| i; i * i |]) in
  let load () =
    let _, pool = fresh ~frames:4 () in
    (pool, D.Heap_file.of_tuples pool ~tuples_per_page:2 tuples)
  in
  let read f =
    let pool, heap = load () in
    let before = D.Buffer_pool.stats pool in
    let got = ref [] in
    f pool heap (fun t -> got := t :: !got);
    (pool, heap, List.rev !got, D.Buffer_pool.diff ~before ~after:(D.Buffer_pool.stats pool))
  in
  let _, _, scanned, scan_io = read (fun pool heap f -> D.Heap_file.scan pool heap (fun _ t -> f t)) in
  let pool, heap, got, io = read D.Heap_file.consume in
  Alcotest.(check bool) "a scan's tuples" true (got = scanned && got = Array.to_list tuples);
  Alcotest.(check bool) "a scan's I/O" true (io = scan_io);
  Alcotest.(check int) "file empty" 0 (D.Heap_file.page_count heap);
  Alcotest.(check int) "nothing live" 0 (D.Buffer_pool.live_pages pool);
  (* Pages 1-4 stay resident, released; page 0 was evicted while the
     read went on, so its id alone is free. *)
  let resident = D.Buffer_pool.resident_pages pool in
  Alcotest.(check (list int)) "released frames stay resident" [ 1; 2; 3; 4 ] resident;
  Alcotest.(check int) "only evicted ids are free" 1
    (D.Disk.free_pages (D.Buffer_pool.disk pool));
  Alcotest.check_raises "a released page cannot be pinned"
    (Invalid_argument "Buffer_pool.pin: released page") (fun () ->
      ignore (D.Buffer_pool.pin pool 2));
  (* Each new page first evicts the least recently used released frame,
     and takes the id that eviction just freed. *)
  Alcotest.(check (list int)) "ids reused after eviction only" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> heap_page pool))

(* A read-back stopped by a fault keeps its unread pages; releasing the
   file retires them, resident or not, with no I/O. *)
let test_heap_consume_abort () =
  let disk, pool = fresh ~frames:2 () in
  let live = D.Buffer_pool.live_pages pool in
  let heap =
    D.Heap_file.of_tuples pool ~tuples_per_page:1 (Array.init 6 (fun i -> [| i |]))
  in
  let ids = D.Heap_file.page_ids heap in
  let broken = List.nth ids 2 in
  D.Disk.set_faults disk
    (Some (D.Fault.create (D.Fault.config ~broken_pages:[ (broken, D.Fault.Transient) ] ~seed:1 ())));
  let got = ref 0 in
  (match D.Heap_file.consume pool heap (fun _ -> incr got) with
  | () -> Alcotest.fail "consume read a broken page"
  | exception D.Fault.Io_fault _ -> ());
  Alcotest.(check int) "two pages read" 2 !got;
  Alcotest.(check (list int)) "the unread rest stays"
    (List.filteri (fun i _ -> i >= 2) ids) (D.Heap_file.page_ids heap);
  Alcotest.(check int) "nothing pinned" 0 (D.Buffer_pool.pinned_count pool);
  let before = D.Buffer_pool.stats pool in
  D.Heap_file.release pool heap;
  let io = D.Buffer_pool.diff ~before ~after:(D.Buffer_pool.stats pool) in
  Alcotest.(check int) "release does no I/O" 0
    (io.D.Buffer_pool.physical_reads + io.D.Buffer_pool.physical_writes
   + io.D.Buffer_pool.logical_reads);
  Alcotest.(check int) "nothing live" live (D.Buffer_pool.live_pages pool)

let test_pool_counts_io () =
  let _, pool = fresh () in
  let p1 = heap_page pool and p2 = heap_page pool in
  D.Buffer_pool.reset_stats pool;
  (* First access after reset: pages are resident (new_page pinned them in). *)
  D.Buffer_pool.with_page pool p1 ignore;
  D.Buffer_pool.with_page pool p2 ignore;
  let s = D.Buffer_pool.stats pool in
  Alcotest.(check int) "logical" 2 s.D.Buffer_pool.logical_reads;
  Alcotest.(check int) "no physical (resident)" 0 s.D.Buffer_pool.physical_reads

let test_pool_lru_eviction () =
  let _, pool = fresh ~frames:2 () in
  let pages = List.init 3 (fun _ -> heap_page pool) in
  match pages with
  | [ a; b; c ] ->
    D.Buffer_pool.reset_stats pool;
    (* Pool holds 2 frames; after touching a then b, touching c evicts the
       LRU page a. *)
    D.Buffer_pool.with_page pool a ignore;
    D.Buffer_pool.with_page pool b ignore;
    D.Buffer_pool.with_page pool c ignore;
    let before = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads in
    D.Buffer_pool.with_page pool b ignore;
    (* b stayed resident. *)
    let after_b = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads in
    Alcotest.(check int) "b resident" before after_b;
    D.Buffer_pool.with_page pool a ignore;
    let after_a = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads in
    Alcotest.(check int) "a was evicted" (before + 1) after_a
  | _ -> assert false

let test_pool_pinned_not_evicted () =
  let _, pool = fresh ~frames:2 () in
  let a = heap_page pool and b = heap_page pool and c = heap_page pool in
  ignore (D.Buffer_pool.pin pool a);
  D.Buffer_pool.with_page pool b ignore;
  D.Buffer_pool.with_page pool c ignore;
  (* a must still be resident: pinned pages cannot be evicted. *)
  D.Buffer_pool.reset_stats pool;
  D.Buffer_pool.with_page pool a ignore;
  Alcotest.(check int) "pinned page resident" 0
    (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads;
  D.Buffer_pool.unpin pool a

let test_pool_dirty_writeback () =
  let _, pool = fresh ~frames:2 () in
  let a = heap_page pool in
  let _b = heap_page pool in
  D.Buffer_pool.with_page pool a (fun _ -> D.Buffer_pool.mark_dirty pool a);
  D.Buffer_pool.reset_stats pool;
  (* Force a's eviction by filling the pool. *)
  let _c = heap_page pool in
  let _d = heap_page pool in
  Alcotest.(check bool) "dirty eviction wrote" true
    ((D.Buffer_pool.stats pool).D.Buffer_pool.physical_writes >= 1)

let test_pool_unpin_errors () =
  let _, pool = fresh () in
  let a = heap_page pool in
  Alcotest.check_raises "double unpin"
    (Invalid_argument "Buffer_pool.unpin: page not pinned") (fun () ->
      D.Buffer_pool.unpin pool a)

let test_pool_resize () =
  let _, pool = fresh ~frames:8 () in
  let _pages = List.init 8 (fun _ -> heap_page pool) in
  D.Buffer_pool.resize pool 2;
  Alcotest.(check bool) "shrunk" true (D.Buffer_pool.resident pool <= 2);
  Alcotest.check_raises "bad resize"
    (Invalid_argument "Buffer_pool.resize: capacity <= 0") (fun () ->
      D.Buffer_pool.resize pool 0)

let test_pool_resize_refuses_below_pinned () =
  (* Shrinking below the pinned count must fail loudly, not evict pinned
     pages silently; the failed resize leaves the pool untouched. *)
  let _, pool = fresh ~frames:8 () in
  let pinned = List.init 3 (fun _ -> heap_page pool) in
  List.iter (fun id -> ignore (D.Buffer_pool.pin pool id)) pinned;
  Alcotest.(check int) "pinned count" 3 (D.Buffer_pool.pinned_count pool);
  Alcotest.check_raises "shrink below pinned"
    (Invalid_argument "Buffer_pool.resize: smaller than pinned pages")
    (fun () -> D.Buffer_pool.resize pool 2);
  Alcotest.(check int) "capacity unchanged" 8 (D.Buffer_pool.frames pool);
  D.Buffer_pool.reset_stats pool;
  (* The pinned pages are still resident... *)
  List.iter (fun id -> D.Buffer_pool.with_page pool id ignore) pinned;
  Alcotest.(check int) "pinned pages still resident" 0
    (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads;
  (* ...and the pool remains fully usable: shrinking to exactly the
     pinned count is allowed, as is unpinning and shrinking further. *)
  D.Buffer_pool.resize pool 3;
  Alcotest.(check int) "exact fit allowed" 3 (D.Buffer_pool.frames pool);
  List.iter (fun id -> D.Buffer_pool.unpin pool id) pinned;
  D.Buffer_pool.resize pool 1;
  Alcotest.(check bool) "shrunk after unpin" true
    (D.Buffer_pool.resident pool <= 1)

(* --- fault injection ----------------------------------------------------- *)

let test_fault_config_validation () =
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Fault.config: read_fault_rate outside [0, 1]")
    (fun () -> ignore (D.Fault.config ~read_fault_rate:1.5 ~seed:1 ()))

let test_fault_schedule_deterministic () =
  (* Two injectors with the same seed produce the same fault pattern. *)
  let pattern () =
    let f =
      D.Fault.create (D.Fault.config ~read_fault_rate:0.3 ~seed:21 ())
    in
    List.init 200 (fun page ->
        match D.Fault.on_read f ~page with
        | () -> false
        | exception D.Fault.Io_fault _ -> true)
  in
  let a = pattern () and b = pattern () in
  Alcotest.(check bool) "same trace" true (a = b);
  Alcotest.(check bool) "some faults fired" true (List.mem true a);
  Alcotest.(check bool) "some reads survived" true (List.mem false a)

let test_faulted_read_leaves_pool_unchanged () =
  (* A failed physical read counts as a fault, not as I/O, and the page
     is neither resident nor pinned afterwards — a retry is clean. *)
  let disk, pool = fresh ~frames:4 () in
  let a = heap_page pool in
  D.Buffer_pool.resize pool 1;
  let _b = heap_page pool in
  D.Buffer_pool.reset_stats pool;
  D.Disk.set_faults disk
    (Some (D.Fault.create (D.Fault.config ~broken_pages:[ (a, D.Fault.Transient) ] ~seed:1 ())));
  (match D.Buffer_pool.pin pool a with
  | _ -> Alcotest.fail "broken page read succeeded"
  | exception D.Fault.Io_fault { kind = D.Fault.Transient; op = D.Fault.Read; page } ->
    Alcotest.(check int) "faulted page id" a page);
  let s = D.Buffer_pool.stats pool in
  Alcotest.(check int) "fault counted" 1 s.D.Buffer_pool.read_faults;
  Alcotest.(check int) "no physical read counted" 0 s.D.Buffer_pool.physical_reads;
  Alcotest.(check int) "nothing pinned" 0 (D.Buffer_pool.pinned_count pool);
  (* Clearing the schedule makes the same pin succeed. *)
  D.Disk.set_faults disk None;
  D.Buffer_pool.with_page pool a ignore;
  Alcotest.(check int) "retry succeeded" 1
    (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads

let test_faulted_eviction_keeps_page_dirty () =
  (* A write fault during eviction keeps the dirty page resident so no
     update is lost; clearing the fault lets flush succeed. *)
  let disk, pool = fresh ~frames:1 () in
  let a = heap_page pool in
  D.Buffer_pool.with_page pool a (fun _ -> D.Buffer_pool.mark_dirty pool a);
  D.Disk.set_faults disk
    (Some (D.Fault.create (D.Fault.config ~broken_pages:[ (a, D.Fault.Transient) ] ~seed:1 ())));
  (match heap_page pool with
  | _ -> Alcotest.fail "eviction write succeeded"
  | exception D.Fault.Io_fault { op = D.Fault.Write; _ } -> ());
  Alcotest.(check int) "write fault counted" 1
    (D.Buffer_pool.stats pool).D.Buffer_pool.write_faults;
  D.Disk.set_faults disk None;
  D.Buffer_pool.flush_all pool;
  Alcotest.(check int) "flush wrote the page" 1
    (D.Buffer_pool.stats pool).D.Buffer_pool.physical_writes

let test_fail_after_schedule () =
  let f = D.Fault.create (D.Fault.config ~fail_after:(2, D.Fault.Permanent) ~seed:1 ()) in
  D.Fault.on_read f ~page:0;
  D.Fault.on_write f ~page:1;
  (match D.Fault.on_read f ~page:2 with
  | () -> Alcotest.fail "third I/O should fault"
  | exception D.Fault.Io_fault { kind = D.Fault.Permanent; _ } -> ());
  Alcotest.(check int) "attempts counted" 3 (D.Fault.ios_attempted f);
  Alcotest.(check int) "faults counted" 1 (D.Fault.injected f)

let test_io_budget_limit () =
  (* The physical access that exceeds the armed limit raises; disarming
     restores unbounded I/O. *)
  let _, pool = fresh ~frames:1 () in
  let pages = List.init 4 (fun _ -> heap_page pool) in
  D.Buffer_pool.reset_stats pool;
  let base = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_reads in
  D.Buffer_pool.set_io_limit pool (Some (base + 2));
  (match
     List.iter (fun id -> D.Buffer_pool.with_page pool id ignore) pages
   with
  | () -> Alcotest.fail "limit never hit"
  | exception D.Buffer_pool.Io_budget_exceeded { limit; observed } ->
    Alcotest.(check int) "limit echoed" (base + 2) limit;
    Alcotest.(check bool) "observed beyond limit" true (observed > limit));
  D.Buffer_pool.set_io_limit pool None;
  List.iter (fun id -> D.Buffer_pool.with_page pool id ignore) pages

let test_heap_roundtrip () =
  let _, pool = fresh ~frames:16 () in
  let tuples = Array.init 100 (fun i -> [| i; i * 2 |]) in
  let heap = D.Heap_file.of_tuples pool ~tuples_per_page:4 tuples in
  Alcotest.(check int) "tuple count" 100 (D.Heap_file.tuple_count heap);
  Alcotest.(check int) "page count" 25 (D.Heap_file.page_count heap);
  let seen = ref [] in
  D.Heap_file.scan pool heap (fun _ t -> seen := t :: !seen);
  Alcotest.(check int) "scanned all" 100 (List.length !seen);
  Alcotest.(check bool) "scan order" true
    (List.rev !seen = Array.to_list tuples)

let test_heap_fetch_by_rid () =
  let _, pool = fresh ~frames:16 () in
  let heap = D.Heap_file.create pool ~tuples_per_page:4 in
  let rids =
    List.init 10 (fun i -> D.Heap_file.append pool heap [| i; 100 + i |])
  in
  List.iteri
    (fun i rid ->
      let t = D.Heap_file.fetch pool rid in
      Alcotest.(check int) "fetched value" i t.(0))
    rids

(* The bulk writer against repeated [append] on every length from the
   empty file to three full pages and one more tuple, each through a
   two-frame pool so filled pages are evicted (and written) as the file
   grows. *)
let test_heap_append_list () =
  let per_page = 4 in
  let contents pool heap =
    let seen = ref [] in
    D.Heap_file.scan pool heap (fun _ t -> seen := t :: !seen);
    List.rev !seen
  in
  let build write n =
    let _, pool = fresh ~frames:2 () in
    let heap = D.Heap_file.create pool ~tuples_per_page:per_page in
    write pool heap (List.init n (fun i -> [| i; 7 * i |]));
    D.Buffer_pool.flush_all pool;
    let writes = (D.Buffer_pool.stats pool).D.Buffer_pool.physical_writes in
    (D.Heap_file.page_ids heap, D.Heap_file.tuple_count heap, writes,
     contents pool heap)
  in
  for n = 0 to (3 * per_page) + 1 do
    let ids, count, writes, tuples =
      build (fun pool heap -> List.iter (fun t -> ignore (D.Heap_file.append pool heap t))) n
    in
    let ids', count', writes', tuples' = build D.Heap_file.append_list n in
    let what = Printf.sprintf " (%d tuples)" n in
    Alcotest.(check (list int)) ("pages" ^ what) ids ids';
    Alcotest.(check int) ("page count" ^ what) ((n + per_page - 1) / per_page)
      (List.length ids');
    Alcotest.(check int) ("tuple count" ^ what) count count';
    Alcotest.(check int) ("physical writes" ^ what) writes writes';
    Alcotest.(check bool) ("tuples in file order" ^ what) true (tuples = tuples')
  done;
  let _, pool = fresh () in
  let heap = D.Heap_file.create pool ~tuples_per_page:per_page in
  ignore (D.Heap_file.append pool heap [| 1 |]);
  Alcotest.check_raises "non-empty file"
    (Invalid_argument "Heap_file.append_list: file not empty")
    (fun () -> D.Heap_file.append_list pool heap [ [| 2 |] ])

let test_heap_capacity_math () =
  Alcotest.(check int) "4 per page" 4
    (D.Heap_file.tuples_per_page ~page_bytes:2048 ~record_bytes:512);
  Alcotest.check_raises "too large"
    (Invalid_argument "Heap_file.tuples_per_page: record larger than page")
    (fun () -> ignore (D.Heap_file.tuples_per_page ~page_bytes:512 ~record_bytes:2048))

let test_database_build () =
  let catalog = D.Paper_catalog.make ~relations:2 in
  let db = D.Database.build ~seed:1 catalog in
  List.iter
    (fun (r : D.Relation.t) ->
      let heap = D.Database.heap db r.D.Relation.name in
      Alcotest.(check int)
        (r.D.Relation.name ^ " loaded")
        r.D.Relation.cardinality
        (D.Heap_file.tuple_count heap);
      (* Every value is within its attribute's domain. *)
      let pool = D.Database.pool db in
      D.Heap_file.scan pool heap (fun _ t ->
          List.iteri
            (fun i (a : D.Attribute.t) ->
              Alcotest.(check bool) "value in domain" true
                (t.(i) >= 0 && t.(i) < a.D.Attribute.domain_size))
            r.D.Relation.attributes))
    (D.Catalog.relations catalog)

let test_database_deterministic () =
  let catalog = D.Paper_catalog.make ~relations:1 in
  let collect seed =
    let db = D.Database.build ~seed catalog in
    let acc = ref [] in
    D.Heap_file.scan (D.Database.pool db) (D.Database.heap db "R1") (fun _ t ->
        acc := Array.to_list t :: !acc);
    !acc
  in
  Alcotest.(check bool) "same seed, same data" true (collect 5 = collect 5);
  Alcotest.(check bool) "different seed, different data" false (collect 5 = collect 6)

let suite =
  ( "storage",
    [ Alcotest.test_case "disk allocation" `Quick test_disk_allocation;
      Alcotest.test_case "disk free list" `Quick test_disk_free_list;
      Alcotest.test_case "pool counts I/O" `Quick test_pool_counts_io;
      Alcotest.test_case "pool LRU eviction" `Quick test_pool_lru_eviction;
      Alcotest.test_case "pinned pages stay" `Quick test_pool_pinned_not_evicted;
      Alcotest.test_case "dirty write-back" `Quick test_pool_dirty_writeback;
      Alcotest.test_case "unpin errors" `Quick test_pool_unpin_errors;
      Alcotest.test_case "pool resize" `Quick test_pool_resize;
      Alcotest.test_case "resize refuses to evict pinned pages" `Quick
        test_pool_resize_refuses_below_pinned;
      Alcotest.test_case "fault config validation" `Quick test_fault_config_validation;
      Alcotest.test_case "fault schedule deterministic" `Quick
        test_fault_schedule_deterministic;
      Alcotest.test_case "faulted read leaves pool unchanged" `Quick
        test_faulted_read_leaves_pool_unchanged;
      Alcotest.test_case "faulted eviction keeps page dirty" `Quick
        test_faulted_eviction_keeps_page_dirty;
      Alcotest.test_case "fail-after schedule" `Quick test_fail_after_schedule;
      Alcotest.test_case "I/O budget limit" `Quick test_io_budget_limit;
      Alcotest.test_case "heap round-trip" `Quick test_heap_roundtrip;
      Alcotest.test_case "heap fetch by rid" `Quick test_heap_fetch_by_rid;
      Alcotest.test_case "heap bulk append equals repeated append" `Quick
        test_heap_append_list;
      Alcotest.test_case "heap capacity math" `Quick test_heap_capacity_math;
      Alcotest.test_case "consuming read-back releases pages" `Quick
        test_heap_consume_releases;
      Alcotest.test_case "aborted read-back keeps the rest" `Quick
        test_heap_consume_abort;
      Alcotest.test_case "database build" `Quick test_database_build;
      Alcotest.test_case "database deterministic" `Quick test_database_deterministic ] )
