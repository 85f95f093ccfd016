(* Model-based test of the buffer pool.

   Random command sequences — pin, unpin, new page, mark dirty, resize,
   flush, a bulk load of unpinned dirty pages, arming or disarming the
   I/O budget, and the page lifecycle's release, unpin-and-release and
   misuses — run against the pool (one frame table behind one mutex,
   one flat eviction array) and against a pure LRU model.  After every
   command both must agree on the outcome (including the exception
   raised), the resident set, the pinned count, the live and free page
   counts and the logical, physical-read and physical-write counters.
   Resident sets agree before and after each command, so the two evict
   the same victims.  Where the budget trips, the model says what has
   already happened: a pin that trips it leaves its page resident and
   unpinned, and a dirty eviction that trips it has already removed the
   frame.

   The lifecycle: a released frame stays resident, is evicted in LRU
   order and written then if dirty, and only its eviction puts its id on
   the disk's free list (a stack); an unpinned page released while not
   resident is freed at once.  New pages take the id the model's free
   list says, so an id recycled while its frame is still resident shows
   up as a wrong id or a wrong resident set.  Releasing a pinned,
   released or free page raises, as does pinning a released or free
   one.

   Half the cases start the way [Database.build] does: a bulk load
   through a 4096-frame pool, a flush, and a shrink to 4-16 frames; the
   random tail then grows the pool again (up to 4096 frames) and shrinks
   it, so a frame table sized for a large pool is exercised after every
   kind of resize. *)

module D = Dqep
module Pool = D.Buffer_pool
module M = Map.Make (Int)

(* --- the reference model ------------------------------------------------- *)

type mframe = { pins : int; dirty : bool; used : int; released : bool }

type model = {
  cap : int;
  frames : mframe M.t;
  clock : int;
  next_id : int;  (* ids handed out so far: 0 .. next_id - 1 *)
  free : int list;  (* the disk's free list, next to be reused first *)
  logical : int;
  reads : int;
  writes : int;
  limit : int option;  (* the armed I/O budget *)
}

let empty cap =
  { cap; frames = M.empty; clock = 0; next_id = 0; free = []; logical = 0;
    reads = 0; writes = 0; limit = None }

let all_pinned = Printexc.to_string (Failure "Buffer_pool: all frames pinned")

let below_pinned =
  Printexc.to_string (Invalid_argument "Buffer_pool.resize: smaller than pinned pages")

let invalid msg = Printexc.to_string (Invalid_argument msg)

(* A command stopped by an error, in the state it had reached: an
   eviction or two may already have happened. *)
exception Stopped of model * string

let check_budget m =
  match m.limit with
  | Some limit when m.reads + m.writes > limit ->
    let observed = m.reads + m.writes in
    raise (Stopped (m, Printexc.to_string (Pool.Io_budget_exceeded { limit; observed })))
  | _ -> ()

(* The globally least-recently-used unpinned frame. *)
let evict m =
  let victim =
    M.fold
      (fun id f best ->
        if f.pins > 0 then best
        else
          match best with
          | Some (_, b) when b.used <= f.used -> best
          | _ -> Some (id, f))
      m.frames None
  in
  match victim with
  | None -> raise (Stopped (m, all_pinned))
  | Some (id, f) ->
    let m =
      { m with
        frames = M.remove id m.frames;
        writes = (m.writes + if f.dirty then 1 else 0);
        free = (if f.released then id :: m.free else m.free) }
    in
    if f.dirty then check_budget m;
    m

let rec make_room m = if M.cardinal m.frames >= m.cap then make_room (evict m) else m

let admit m id ~pins ~dirty =
  let m = { m with clock = m.clock + 1 } in
  { m with frames = M.add id { pins; dirty; used = m.clock; released = false } m.frames }

(* The id a new page gets, and the model with it handed out. *)
let allocate m =
  match m.free with
  | id :: rest -> (id, { m with free = rest })
  | [] -> (m.next_id, { m with next_id = m.next_id + 1 })

let pinned m = M.fold (fun id f acc -> if f.pins > 0 then id :: acc else acc) m.frames []

let released m =
  M.fold (fun id f acc -> if f.released then id :: acc else acc) m.frames []

(* Ids allocated and not released: what a caller may still pin. *)
let live m =
  List.filter
    (fun id ->
      (not (List.mem id m.free))
      && match M.find_opt id m.frames with Some f -> not f.released | None -> true)
    (List.init m.next_id Fun.id)

(* --- commands ------------------------------------------------------------ *)

(* Integer arguments of [Pin], [Unpin] and [Dirty] select among the
   pages that make the command legal in the current state. *)
type cmd =
  | Pin of int
  | Unpin of int
  | New_page
  | Dirty of int
  | Resize of int
  | Flush
  | Bulk of int
  | Set_io_limit of int option  (* headroom over the I/O done so far *)
  | Release of int  (* an unpinned live page, resident or not *)
  | Unpin_release of int  (* a pinned page *)
  | Release_dead of int  (* a pinned, released or free page: raises *)
  | Pin_dead of int  (* a released or free page: raises *)

let show_cmd = function
  | Pin i -> Printf.sprintf "Pin %d" i
  | Unpin i -> Printf.sprintf "Unpin %d" i
  | New_page -> "New_page"
  | Dirty i -> Printf.sprintf "Dirty %d" i
  | Resize n -> Printf.sprintf "Resize %d" n
  | Flush -> "Flush"
  | Bulk n -> Printf.sprintf "Bulk %d" n
  | Set_io_limit None -> "Set_io_limit None"
  | Set_io_limit (Some k) -> Printf.sprintf "Set_io_limit (+%d)" k
  | Release i -> Printf.sprintf "Release %d" i
  | Unpin_release i -> Printf.sprintf "Unpin_release %d" i
  | Release_dead i -> Printf.sprintf "Release_dead %d" i
  | Pin_dead i -> Printf.sprintf "Pin_dead %d" i

let nth_mod l i = List.nth l (i mod List.length l)

(* Apply [cmd] to both the pool and the model; [Error msg] when the
   command raised (the model says what the pool must raise). *)
let step pool m cmd =
  let real f = match f () with () -> Ok () | exception e -> Error (Printexc.to_string e) in
  let expect m f = match f m with m' -> (m', Ok ()) | exception Stopped (m', e) -> (m', Error e) in
  match cmd with
  | Pin _ when live m = [] -> (m, Ok (), Ok ())
  | Pin i ->
    let id = nth_mod (live m) i in
    let m = { m with logical = m.logical + 1 } in
    let m', want =
      expect m (fun m ->
          match M.find_opt id m.frames with
          | Some f ->
            let m = { m with clock = m.clock + 1 } in
            { m with frames = M.add id { f with pins = f.pins + 1; used = m.clock } m.frames }
          | None ->
            let m = make_room m in
            let m = admit { m with reads = m.reads + 1 } id ~pins:0 ~dirty:false in
            check_budget m;
            { m with frames = M.add id { (M.find id m.frames) with pins = 1 } m.frames })
    in
    (m', want, real (fun () -> ignore (Pool.pin pool id)))
  | Unpin _ when pinned m = [] -> (m, Ok (), Ok ())
  | Unpin i ->
    let id = nth_mod (pinned m) i in
    let f = M.find id m.frames in
    ( { m with frames = M.add id { f with pins = f.pins - 1 } m.frames },
      Ok (),
      real (fun () -> Pool.unpin pool id) )
  | Dirty _ when M.is_empty m.frames -> (m, Ok (), Ok ())
  | Dirty i ->
    let id = nth_mod (List.map fst (M.bindings m.frames)) i in
    let f = M.find id m.frames in
    ( { m with frames = M.add id { f with dirty = true } m.frames },
      Ok (),
      real (fun () -> Pool.mark_dirty pool id) )
  | New_page ->
    (* The id is the one free after making room: an eviction may have
       just freed it. *)
    let expected = ref (-1) in
    let m', want =
      expect m (fun m ->
          let id, m = allocate (make_room m) in
          expected := id;
          admit m id ~pins:1 ~dirty:true)
    in
    let got =
      real (fun () ->
          let page = Pool.new_page pool in
          if page.D.Page.id <> !expected then
            failwith (Printf.sprintf "new page id %d, model %d" page.D.Page.id !expected))
    in
    (m', want, got)
  | Resize n ->
    let m', want =
      expect m (fun m ->
          if n < List.length (pinned m) then raise (Stopped (m, below_pinned));
          let rec shrink m = if M.cardinal m.frames > n then shrink (evict m) else m in
          shrink { m with cap = n })
    in
    (m', want, real (fun () -> Pool.resize pool n))
  | Flush ->
    (* Page-id order, one budget check per write. *)
    let m', want =
      expect m (fun m ->
          M.fold
            (fun id f m ->
              if not f.dirty then m
              else
                let m =
                  { m with
                    frames = M.add id { f with dirty = false } m.frames;
                    writes = m.writes + 1 }
                in
                check_budget m;
                m)
            m.frames m)
    in
    (m', want, real (fun () -> Pool.flush_all pool))
  | Bulk k ->
    (* [k] fresh pages, each written and released — how a table load
       fills the pool. *)
    let rec load m j =
      if j = 0 then (m, Ok ())
      else
        match expect m make_room with
        | m, (Error _ as failed) -> (m, failed)
        | m, Ok () ->
          let id, m = allocate m in
          load (admit m id ~pins:0 ~dirty:true) (j - 1)
    in
    let m', want = load m k in
    let got =
      real (fun () ->
          for _ = 1 to k do
            Pool.unpin pool (Pool.new_page pool).D.Page.id
          done)
    in
    (m', want, got)
  | Set_io_limit k ->
    let limit = Option.map (fun k -> m.reads + m.writes + k) k in
    ({ m with limit }, Ok (), real (fun () -> Pool.set_io_limit pool limit))
  | Release i -> (
    match List.filter (fun id -> not (List.mem id (pinned m))) (live m) with
    | [] -> (m, Ok (), Ok ())
    | unpinned ->
      let id = nth_mod unpinned i in
      let m' =
        match M.find_opt id m.frames with
        | Some f -> { m with frames = M.add id { f with released = true } m.frames }
        | None -> { m with free = id :: m.free }
      in
      (m', Ok (), real (fun () -> Pool.release pool id)))
  | Unpin_release _ when pinned m = [] -> (m, Ok (), Ok ())
  | Unpin_release i ->
    let id = nth_mod (pinned m) i in
    let f = M.find id m.frames in
    let m', want =
      if f.pins > 1 then
        (m, Error (invalid "Buffer_pool.unpin_and_release: page pinned elsewhere"))
      else ({ m with frames = M.add id { f with pins = 0; released = true } m.frames }, Ok ())
    in
    (m', want, real (fun () -> Pool.unpin_and_release pool id))
  | Release_dead i -> (
    let targets =
      List.map (fun id -> (id, "Buffer_pool.release: page pinned")) (pinned m)
      @ List.map (fun id -> (id, "Buffer_pool.release: page already released")) (released m)
      @ List.map (fun id -> (id, "Disk.free: page not allocated")) m.free
    in
    match targets with
    | [] -> (m, Ok (), Ok ())
    | _ ->
      let id, msg = nth_mod targets i in
      (m, Error (invalid msg), real (fun () -> Pool.release pool id)))
  | Pin_dead i -> (
    let targets =
      List.map (fun id -> (id, "Buffer_pool.pin: released page")) (released m)
      @ List.map (fun id -> (id, "Disk.get: unallocated page id")) m.free
    in
    match targets with
    | [] -> (m, Ok (), Ok ())
    | _ ->
      let id, msg = nth_mod targets i in
      ( { m with logical = m.logical + 1 },
        Error (invalid msg),
        real (fun () -> ignore (Pool.pin pool id)) ))

(* --- the property --------------------------------------------------------- *)

type case = { initial : int; cmds : cmd list }  (* initial frame count *)

let show_case c =
  Printf.sprintf "frames %d: [%s]" c.initial (String.concat "; " (List.map show_cmd c.cmds))

let cmd_gen =
  let open QCheck.Gen in
  frequency
    [ (6, map (fun i -> Pin i) nat);
      (5, map (fun i -> Unpin i) nat);
      (3, return New_page);
      (2, map (fun i -> Dirty i) nat);
      (2, map (fun n -> Resize n) (int_range 1 24));
      (1, map (fun n -> Resize n) (oneofl [ 64; 4096 ]));
      (1, return Flush);
      (1, map (fun n -> Bulk n) (int_range 1 40));
      (1, map (fun k -> Set_io_limit (Some k)) (int_range 0 8));
      (1, return (Set_io_limit None));
      (2, map (fun i -> Release i) nat);
      (2, map (fun i -> Unpin_release i) nat);
      (1, map (fun i -> Release_dead i) nat);
      (1, map (fun i -> Pin_dead i) nat) ]

let case_gen =
  let open QCheck.Gen in
  let tail = list_size (int_range 0 150) cmd_gen in
  oneof
    [ map2 (fun initial cmds -> { initial; cmds }) (int_range 1 16) tail;
      map3
        (fun loaded shrink cmds ->
          { initial = 4096; cmds = Bulk loaded :: Flush :: Resize shrink :: cmds })
        (int_range 16 400) (int_range 4 16) tail ]

let prop_pool_matches_model =
  QCheck.Test.make ~name:"pool = LRU model, with I/O budget" ~count:150
    (QCheck.make ~print:show_case case_gen) (fun c ->
      let disk = D.Disk.create () in
      let pool = Pool.create ~frames:c.initial disk in
      let check m i cmd want got =
        let fail what =
          QCheck.Test.fail_reportf "command %d (%s): %s" i (show_cmd cmd) what
        in
        if want <> got then
          fail
            (Printf.sprintf "outcome %s, model %s"
               (match got with Ok () -> "ok" | Error e -> e)
               (match want with Ok () -> "ok" | Error e -> e));
        let s = Pool.stats pool in
        if Pool.resident_pages pool <> List.map fst (M.bindings m.frames) then
          fail "resident sets differ";
        if Pool.pinned_count pool <> List.length (pinned m) then fail "pinned counts differ";
        if Pool.live_pages pool <> List.length (live m) then fail "live pages differ";
        if D.Disk.free_pages disk <> List.length m.free then fail "free lists differ";
        if s.Pool.logical_reads <> m.logical then fail "logical reads differ";
        if s.Pool.physical_reads <> m.reads then fail "physical reads differ";
        if s.Pool.physical_writes <> m.writes then fail "physical writes differ"
      in
      ignore
        (List.fold_left
           (fun (m, i) cmd ->
             let m, want, got = step pool m cmd in
             check m i cmd want got;
             (m, i + 1))
           (empty c.initial, 0) c.cmds);
      true)

(* --- concurrent domains ----------------------------------------------------- *)

(* A database serves one run at a time, so no run pins a pool from two
   domains; this checks that the pool's one mutex keeps it consistent
   when a caller breaks that contract.  Four domains run random pin /
   unpin / new page / mark dirty commands on one small pool over shared
   pages.  No domain holds more than a
   quarter of the frames, so a miss always finds an unpinned victim.
   After every command a domain samples the resident count, which must
   never exceed the frames: a miss checks for room and admits in one
   critical section.  At the end nothing is pinned, every pin is one
   logical read, and the pool's physical reads and writes equal the
   reads and writes the disk served — one per miss and per dirty
   eviction. *)
let test_concurrent_domains () =
  List.iter
    (fun frames ->
      let disk = D.Disk.create () in
      let pool = Pool.create ~frames disk in
      let shared =
        Array.init 24 (fun _ ->
            let page = Pool.new_page pool in
            Pool.unpin pool page.D.Page.id;
            page.D.Page.id)
      in
      let disk_stats () = Pool.stats_of_trace (D.Disk.obs disk) in
      let before = Pool.stats pool and disk_before = disk_stats () in
      let hold = Int.max 1 (frames / 4) in
      let overshoots = Atomic.make 0 in
      let domain seed () =
        let rng = Random.State.make [| seed |] in
        let held = ref [] and pins = ref 0 in
        let release id =
          Pool.unpin pool id;
          held := List.filter (( <> ) id) !held
        in
        for _ = 1 to 3000 do
          (match Random.State.int rng 10 with
          | 0 | 1 | 2 | 3 | 4 when List.length !held < hold ->
            let id = shared.(Random.State.int rng (Array.length shared)) in
            if not (List.mem id !held) then begin
              ignore (Pool.pin pool id);
              incr pins;
              held := id :: !held
            end
          | 5 | 6 | 7 when !held <> [] ->
            release (List.nth !held (Random.State.int rng (List.length !held)))
          | 8 when List.length !held < hold ->
            held := (Pool.new_page pool).D.Page.id :: !held
          | 9 when !held <> [] ->
            Pool.mark_dirty pool (List.nth !held (Random.State.int rng (List.length !held)))
          | _ -> ());
          if Pool.resident pool > frames then Atomic.incr overshoots
        done;
        List.iter release !held;
        !pins
      in
      let pins =
        List.init 4 (fun i -> Domain.spawn (domain (frames * 10 + i)))
        |> List.fold_left (fun n d -> n + Domain.join d) 0
      in
      let s = Pool.diff ~before ~after:(Pool.stats pool) in
      let served = Pool.diff ~before:disk_before ~after:(disk_stats ()) in
      let label what = Printf.sprintf "%d frames: %s" frames what in
      Alcotest.(check int) (label "resident never above frames") 0 (Atomic.get overshoots);
      Alcotest.(check (result unit string)) (label "leak check") (Ok ()) (Pool.leak_check pool);
      Alcotest.(check int) (label "logical reads = pins") pins s.Pool.logical_reads;
      Alcotest.(check int) (label "physical reads = disk reads") served.Pool.physical_reads
        s.Pool.physical_reads;
      Alcotest.(check int) (label "physical writes = disk writes")
        served.Pool.physical_writes s.Pool.physical_writes)
    [ 4; 6; 8 ]

let suite =
  ( "pool model",
    [ QCheck_alcotest.to_alcotest prop_pool_matches_model;
      Alcotest.test_case "concurrent domains never overshoot" `Quick
        test_concurrent_domains ] )
