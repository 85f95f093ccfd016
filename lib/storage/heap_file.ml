type t = {
  tuples_per_page : int;
  mutable pages : int list;  (* reverse file order *)
  mutable count : int;
}

let tuples_per_page ~page_bytes ~record_bytes =
  if record_bytes > page_bytes then
    invalid_arg "Heap_file.tuples_per_page: record larger than page";
  Int.max 1 (page_bytes / record_bytes)

let create _pool ~tuples_per_page =
  if tuples_per_page <= 0 then invalid_arg "Heap_file.create: capacity <= 0";
  { tuples_per_page; pages = []; count = 0 }

let append pool t tuple =
  let fresh () =
    let page = Buffer_pool.new_page pool in
    page.Page.payload <-
      Page.Heap { tuples = Array.make t.tuples_per_page [||]; count = 0 };
    t.pages <- page.Page.id :: t.pages;
    page
  in
  let page =
    match t.pages with
    | [] -> fresh ()
    | last :: _ ->
      let page = Buffer_pool.pin pool last in
      (match page.Page.payload with
      | Page.Heap h when h.count < t.tuples_per_page -> page
      | Page.Heap _ ->
        Buffer_pool.unpin pool last;
        fresh ()
      | Page.Free | Page.Btree _ ->
        Buffer_pool.unpin pool last;
        invalid_arg "Heap_file.append: corrupt page")
  in
  let rid =
    match page.Page.payload with
    | Page.Heap h ->
      h.tuples.(h.count) <- tuple;
      h.count <- h.count + 1;
      Buffer_pool.mark_dirty pool page.Page.id;
      Rid.make ~page:page.Page.id ~slot:(h.count - 1)
    | Page.Free | Page.Btree _ -> assert false
  in
  Buffer_pool.unpin pool page.Page.id;
  t.count <- t.count + 1;
  rid

(* Fill an empty file a page at a time: each page comes pinned and dirty
   from [Buffer_pool.new_page] and is unpinned once, full.  The pages,
   their contents and the pool's LRU order are those of repeated
   [append]; only the re-pins of the page being filled are gone. *)
let append_list pool t tuples =
  if t.pages <> [] then invalid_arg "Heap_file.append_list: file not empty";
  let rec fill = function
    | [] -> ()
    | tuples ->
      let page = Buffer_pool.new_page pool in
      let slots = Array.make t.tuples_per_page [||] in
      let rec put n = function
        | tuple :: rest when n < t.tuples_per_page ->
          slots.(n) <- tuple;
          put (n + 1) rest
        | rest -> (n, rest)
      in
      let count, rest = put 0 tuples in
      page.Page.payload <- Page.Heap { tuples = slots; count };
      t.pages <- page.Page.id :: t.pages;
      t.count <- t.count + count;
      Buffer_pool.unpin pool page.Page.id;
      fill rest
  in
  fill tuples

let of_tuples pool ~tuples_per_page tuples =
  let t = create pool ~tuples_per_page in
  append_list pool t (Array.to_list tuples);
  t

let scan pool t f =
  List.iter
    (fun id ->
      Buffer_pool.with_page pool id (fun page ->
          match page.Page.payload with
          | Page.Heap h ->
            for slot = 0 to h.count - 1 do
              f (Rid.make ~page:id ~slot) h.tuples.(slot)
            done
          | Page.Free | Page.Btree _ ->
            invalid_arg "Heap_file.scan: corrupt page"))
    (List.rev t.pages)

(* Each page is released on the unpin that ends its read, so the read
   costs one pool lookup per page, as [scan] does.  The file keeps the
   pages not yet read: if a pin raises, [release] can still retire
   them. *)
let consume pool t f =
  let rest = ref (List.rev t.pages) in
  t.pages <- [];
  let rec next () =
    match !rest with
    | [] -> ()
    | id :: later ->
      let page = Buffer_pool.pin pool id in
      (match page.Page.payload with
      | Page.Heap h ->
        let tuples = h.tuples and count = h.count in
        Buffer_pool.unpin_and_release pool id;
        rest := later;
        t.count <- t.count - count;
        for slot = 0 to count - 1 do
          f tuples.(slot)
        done
      | Page.Free | Page.Btree _ ->
        Buffer_pool.unpin pool id;
        invalid_arg "Heap_file.consume: corrupt page");
      next ()
  in
  match next () with
  | () -> ()
  | exception e ->
    t.pages <- List.rev !rest;
    raise e

let release pool t =
  let pages = t.pages in
  t.pages <- [];
  t.count <- 0;
  List.iter (Buffer_pool.release pool) pages

let fetch pool (rid : Rid.t) =
  Buffer_pool.with_page pool rid.page (fun page ->
      match page.Page.payload with
      | Page.Heap h when rid.slot < h.count -> h.tuples.(rid.slot)
      | Page.Heap _ | Page.Free | Page.Btree _ ->
        invalid_arg "Heap_file.fetch: bad rid")

let page_count t = List.length t.pages
let tuple_count t = t.count
let page_ids t = List.rev t.pages

(* Split the file into at most [parts] contiguous page stripes (in file
   order), the unit a file scan reads at a time.  Every page appears in
   exactly one stripe; empty stripes are dropped, so the result may be
   shorter than [parts] for small files. *)
let partition t ~parts =
  if parts <= 0 then invalid_arg "Heap_file.partition: parts <= 0";
  let ids = Array.of_list (page_ids t) in
  let n = Array.length ids in
  let per = Int.max 1 ((n + parts - 1) / parts) in
  let rec stripes i acc =
    if i >= n then List.rev acc
    else
      let stop = Int.min n (i + per) in
      stripes stop (Array.to_list (Array.sub ids i (stop - i)) :: acc)
  in
  stripes 0 []
