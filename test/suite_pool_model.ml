(* Model-based test of the buffer pool.

   Random command sequences — pin, unpin, new page, mark dirty, resize,
   flush, and a bulk load of unpinned dirty pages — run against the
   sharded pool and against a pure single-table LRU model.  After every
   command both must agree on the outcome (including the exception
   raised), the resident set, the pinned count and the logical,
   physical-read and physical-write counters.  Resident sets agree
   before and after each command, so the two evict the same victims.

   Half the cases start the way [Database.build] does: a bulk load
   through a 4096-frame pool, a flush, and a shrink to 4-16 frames; the
   random tail then grows the pool again (up to 4096 frames) and shrinks
   it, so shard tables sized for a large pool are exercised after every
   kind of resize. *)

module D = Dqep
module Pool = D.Buffer_pool
module M = Map.Make (Int)

(* --- the reference model ------------------------------------------------- *)

type mframe = { pins : int; dirty : bool; used : int }

type model = {
  cap : int;
  frames : mframe M.t;
  clock : int;
  next_id : int;  (* pages allocated so far; ids are 0 .. next_id - 1 *)
  logical : int;
  reads : int;
  writes : int;
}

let empty cap =
  { cap; frames = M.empty; clock = 0; next_id = 0; logical = 0; reads = 0;
    writes = 0 }

let all_pinned = Printexc.to_string (Failure "Buffer_pool: all frames pinned")

let below_pinned =
  Printexc.to_string (Invalid_argument "Buffer_pool.resize: smaller than pinned pages")

exception Refused of string

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
  | None -> raise (Refused all_pinned)
  | Some (id, f) ->
    { m with
      frames = M.remove id m.frames;
      writes = (m.writes + if f.dirty then 1 else 0) }

let rec make_room m = if M.cardinal m.frames >= m.cap then make_room (evict m) else m

let admit m id ~pins ~dirty =
  let m = { m with clock = m.clock + 1 } in
  { m with frames = M.add id { pins; dirty; used = m.clock } m.frames }

let pinned m = M.fold (fun id f acc -> if f.pins > 0 then id :: acc else acc) m.frames []

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

let show_cmd = function
  | Pin i -> Printf.sprintf "Pin %d" i
  | Unpin i -> Printf.sprintf "Unpin %d" i
  | New_page -> "New_page"
  | Dirty i -> Printf.sprintf "Dirty %d" i
  | Resize n -> Printf.sprintf "Resize %d" n
  | Flush -> "Flush"
  | Bulk n -> Printf.sprintf "Bulk %d" n

let nth_mod l i = List.nth l (i mod List.length l)

(* Apply [cmd] to both the pool and the model; [Error msg] when the
   command raised (the model says what the pool must raise). *)
let step pool m cmd =
  let real f = match f () with () -> Ok () | exception e -> Error (Printexc.to_string e) in
  (* A refused command leaves the model as it was before [f]. *)
  let expect m f = match f m with m' -> (m', Ok ()) | exception Refused e -> (m, Error e) in
  match cmd with
  | Pin _ when m.next_id = 0 -> (m, Ok (), Ok ())
  | Pin i ->
    let id = i mod m.next_id in
    let m = { m with logical = m.logical + 1 } in
    let m', want =
      expect m (fun m ->
          match M.find_opt id m.frames with
          | Some f ->
            let m = { m with clock = m.clock + 1 } in
            { m with frames = M.add id { f with pins = f.pins + 1; used = m.clock } m.frames }
          | None ->
            let m = make_room m in
            admit { m with reads = m.reads + 1 } id ~pins:1 ~dirty:false)
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
    let m', want =
      expect m (fun m ->
          let m = make_room m in
          admit { m with next_id = m.next_id + 1 } m.next_id ~pins:1 ~dirty:true)
    in
    let got =
      real (fun () ->
          let page = Pool.new_page pool in
          if page.D.Page.id <> m.next_id then
            failwith (Printf.sprintf "new page id %d, model %d" page.D.Page.id m.next_id))
    in
    (m', want, got)
  | Resize n ->
    let m', want =
      expect m (fun m ->
          if n < List.length (pinned m) then raise (Refused below_pinned);
          let rec shrink m = if M.cardinal m.frames > n then shrink (evict m) else m in
          shrink { m with cap = n })
    in
    (m', want, real (fun () -> Pool.resize pool n))
  | Flush ->
    let dirty = M.filter (fun _ f -> f.dirty) m.frames in
    ( { m with
        frames = M.map (fun f -> { f with dirty = false }) m.frames;
        writes = m.writes + M.cardinal dirty },
      Ok (),
      real (fun () -> Pool.flush_all pool) )
  | Bulk k ->
    (* [k] fresh pages, each written and released — how a table load
       fills the pool. *)
    let rec load m j =
      if j = 0 then (m, Ok ())
      else
        match expect m make_room with
        | m, (Error _ as refused) -> (m, refused)
        | m, Ok () ->
          load (admit { m with next_id = m.next_id + 1 } m.next_id ~pins:0 ~dirty:true) (j - 1)
    in
    let m', want = load m k in
    let got =
      real (fun () ->
          for _ = 1 to k do
            Pool.unpin pool (Pool.new_page pool).D.Page.id
          done)
    in
    (m', want, got)

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
      (1, map (fun n -> Bulk n) (int_range 1 40)) ]

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
  QCheck.Test.make ~name:"sharded pool = pure LRU model" ~count:150
    (QCheck.make ~print:show_case case_gen) (fun c ->
      let pool = Pool.create ~frames:c.initial (D.Disk.create ()) in
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

let suite = ("pool model", [ QCheck_alcotest.to_alcotest prop_pool_matches_model ])
