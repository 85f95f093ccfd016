(* Node conventions:
   - Leaf entries are sorted by key (duplicates allowed) and leaves are
     chained left-to-right through [next].
   - For an internal node, [keys.(i)] is an upper bound for every key in
     [children.(i)] and a lower bound for every key in [children.(i+1)]
     (both non-strict, to accommodate duplicate runs spanning nodes).
   - Descent always takes the leftmost child that may contain the key, so
     range scans starting at the located leaf and walking the chain see
     every matching entry. *)

type t = {
  mutable root : int;
  leaf_capacity : int;
  max_children : int;
}

let entry_bytes = 16
let child_bytes = 16

let capacities ~page_bytes =
  let leaf = Int.max 4 (page_bytes / entry_bytes) in
  let children = Int.max 4 (page_bytes / child_bytes) in
  (leaf, children)

let new_leaf pool ~keys ~rids ~next =
  let page = Buffer_pool.new_page pool in
  page.Page.payload <- Page.Btree (Page.Leaf { keys; rids; next });
  Buffer_pool.unpin pool page.Page.id;
  page.Page.id

let new_internal pool ~keys ~children =
  let page = Buffer_pool.new_page pool in
  page.Page.payload <- Page.Btree (Page.Internal { keys; children });
  Buffer_pool.unpin pool page.Page.id;
  page.Page.id

let create pool ~page_bytes =
  let leaf_capacity, max_children = capacities ~page_bytes in
  let root = new_leaf pool ~keys:[||] ~rids:[||] ~next:(-1) in
  { root; leaf_capacity; max_children }

let node_of page =
  match page.Page.payload with
  | Page.Btree n -> n
  | Page.Free | Page.Heap _ -> invalid_arg "Btree: not a btree page"

(* Index of the leftmost child that may contain [key]: the first
   separator >= key selects its left child. *)
let descend_index keys key =
  let n = Array.length keys in
  let rec go i = if i < n && keys.(i) < key then go (i + 1) else i in
  go 0

(* First position in a sorted array with value >= key. *)
let lower_bound keys key =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let m = (lo + hi) / 2 in
      if keys.(m) < key then go (m + 1) hi else go lo m
  in
  go 0 (Array.length keys)

let array_insert a i v =
  let n = Array.length a in
  let b = Array.make (n + 1) v in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let insert pool t key rid =
  (* Returns [Some (separator, new_right_page)] if the visited node split. *)
  let rec go page_id =
    let page = Buffer_pool.pin pool page_id in
    (* Unpin also when a child pin faults mid-descent: a leaked pin would
       wedge the pool for every later run. *)
    Fun.protect ~finally:(fun () -> Buffer_pool.unpin pool page_id)
    @@ fun () ->
      match node_of page with
      | Page.Leaf l ->
        let i = lower_bound l.keys key in
        l.keys <- array_insert l.keys i key;
        l.rids <- array_insert l.rids i rid;
        Buffer_pool.mark_dirty pool page_id;
        if Array.length l.keys <= t.leaf_capacity then None
        else begin
          let n = Array.length l.keys in
          let mid = n / 2 in
          let right_keys = Array.sub l.keys mid (n - mid) in
          let right_rids = Array.sub l.rids mid (n - mid) in
          let right = new_leaf pool ~keys:right_keys ~rids:right_rids ~next:l.next in
          l.keys <- Array.sub l.keys 0 mid;
          l.rids <- Array.sub l.rids 0 mid;
          let sep = l.keys.(mid - 1) in
          l.next <- right;
          Some (sep, right)
        end
      | Page.Internal node ->
        let ci = descend_index node.keys key in
        let child = node.children.(ci) in
        (match go child with
        | None -> None
        | Some (sep, right) ->
          node.keys <- array_insert node.keys ci sep;
          node.children <- array_insert node.children (ci + 1) right;
          Buffer_pool.mark_dirty pool page_id;
          if Array.length node.children <= t.max_children then None
          else begin
            let nc = Array.length node.children in
            let midc = nc / 2 in
            (* Children [0..midc-1] stay; key midc-1 moves up; the rest go
               right. *)
            let up = node.keys.(midc - 1) in
            let right_keys = Array.sub node.keys midc (nc - 1 - midc) in
            let right_children = Array.sub node.children midc (nc - midc) in
            let right = new_internal pool ~keys:right_keys ~children:right_children in
            node.keys <- Array.sub node.keys 0 (midc - 1);
            node.children <- Array.sub node.children 0 midc;
            Some (up, right)
          end)
  in
  match go t.root with
  | None -> ()
  | Some (sep, right) ->
    t.root <- new_internal pool ~keys:[| sep |] ~children:[| t.root; right |]

let rec leftmost_leaf_for pool page_id key =
  Buffer_pool.with_page pool page_id (fun page ->
      match node_of page with
      | Page.Leaf _ -> page_id
      | Page.Internal node ->
        let ci =
          match key with
          | None -> 0
          | Some k -> descend_index node.keys k
        in
        leftmost_leaf_for pool node.children.(ci) key)

let range pool t ~lo ~hi f =
  let start = leftmost_leaf_for pool t.root lo in
  let above_hi key = match hi with None -> false | Some h -> key > h in
  let below_lo key = match lo with None -> false | Some l -> key < l in
  let rec walk page_id =
    if page_id >= 0 then begin
      let next =
        Buffer_pool.with_page pool page_id (fun page ->
            match node_of page with
            | Page.Internal _ -> invalid_arg "Btree.range: internal in chain"
            | Page.Leaf l ->
              let n = Array.length l.keys in
              let stop = ref false in
              let i = ref 0 in
              while (not !stop) && !i < n do
                let k = l.keys.(!i) in
                if above_hi k then stop := true
                else begin
                  if not (below_lo k) then f k l.rids.(!i);
                  incr i
                end
              done;
              if !stop then -1 else l.next)
      in
      walk next
    end
  in
  walk start

let search pool t key =
  let acc = ref [] in
  range pool t ~lo:(Some key) ~hi:(Some key) (fun _ rid -> acc := rid :: !acc);
  List.rev !acc

let bulk_load pool ~page_bytes entries =
  let leaf_capacity, max_children = capacities ~page_bytes in
  let entries = Array.copy entries in
  Array.sort
    (fun (k1, r1) (k2, r2) ->
      match Int.compare k1 k2 with 0 -> Rid.compare r1 r2 | c -> c)
    entries;
  let n = Array.length entries in
  if n = 0 then create pool ~page_bytes
  else begin
    (* Pack leaves at ~90% fill. *)
    let fill = Int.max 1 (leaf_capacity * 9 / 10) in
    let leaves = ref [] in
    let i = ref 0 in
    while !i < n do
      let len = Int.min fill (n - !i) in
      let keys = Array.init len (fun j -> fst entries.(!i + j)) in
      let rids = Array.init len (fun j -> snd entries.(!i + j)) in
      let id = new_leaf pool ~keys ~rids ~next:(-1) in
      leaves := (id, keys.(len - 1)) :: !leaves;
      i := !i + len
    done;
    let leaves = Array.of_list (List.rev !leaves) in
    (* Chain the leaf level. *)
    for j = 0 to Array.length leaves - 2 do
      let id, _ = leaves.(j) in
      let next_id, _ = leaves.(j + 1) in
      Buffer_pool.with_page pool id (fun page ->
          match node_of page with
          | Page.Leaf l ->
            l.next <- next_id;
            Buffer_pool.mark_dirty pool id
          | Page.Internal _ -> assert false)
    done;
    (* Build internal levels bottom-up; each entry carries its max key. *)
    let fanout = Int.max 2 (max_children * 9 / 10) in
    let rec build level =
      if Array.length level = 1 then fst level.(0)
      else begin
        let groups = ref [] in
        let i = ref 0 in
        let n = Array.length level in
        while !i < n do
          let len = Int.min fanout (n - !i) in
          (* Avoid a trailing singleton group. *)
          let len = if n - !i - len = 1 then len - 1 else len in
          let children = Array.init len (fun j -> fst level.(!i + j)) in
          let keys = Array.init (len - 1) (fun j -> snd level.(!i + j)) in
          let id = new_internal pool ~keys ~children in
          groups := (id, snd level.(!i + len - 1)) :: !groups;
          i := !i + len
        done;
        build (Array.of_list (List.rev !groups))
      end
    in
    let root = build leaves in
    { root; leaf_capacity; max_children }
  end

(* Folds [f acc nkeys] over every leaf, where [nkeys] is its entry count. *)
let rec fold_leaves pool page_id f acc =
  Buffer_pool.with_page pool page_id (fun page ->
      match node_of page with
      | Page.Leaf l -> f acc (Array.length l.keys)
      | Page.Internal node ->
        Array.fold_left (fun acc child -> fold_leaves pool child f acc) acc node.children)

let entry_count pool t = fold_leaves pool t.root (fun acc n -> acc + n) 0

let rec depth_of pool page_id =
  Buffer_pool.with_page pool page_id (fun page ->
      match node_of page with
      | Page.Leaf _ -> 1
      | Page.Internal node -> 1 + depth_of pool node.children.(0))

let depth pool t = depth_of pool t.root

let check_invariants pool t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let exception Bad of string in
  (* Returns (min_key, max_key, depth) of the subtree; None for empty. *)
  let rec check page_id =
    Buffer_pool.with_page pool page_id (fun page ->
        match node_of page with
        | Page.Leaf l ->
          let n = Array.length l.keys in
          if n > t.leaf_capacity then
            raise (Bad (Printf.sprintf "leaf %d over capacity" page_id));
          if Array.length l.rids <> n then
            raise (Bad (Printf.sprintf "leaf %d keys/rids mismatch" page_id));
          for i = 1 to n - 1 do
            if l.keys.(i - 1) > l.keys.(i) then
              raise (Bad (Printf.sprintf "leaf %d unsorted" page_id))
          done;
          if n = 0 then (None, 1) else (Some (l.keys.(0), l.keys.(n - 1)), 1)
        | Page.Internal node ->
          let nc = Array.length node.children in
          if nc > t.max_children then
            raise (Bad (Printf.sprintf "internal %d over capacity" page_id));
          if Array.length node.keys <> nc - 1 then
            raise (Bad (Printf.sprintf "internal %d keys/children mismatch" page_id));
          if nc < 2 then
            raise (Bad (Printf.sprintf "internal %d under-full" page_id));
          let stats = Array.map check node.children in
          let _, d0 = stats.(0) in
          Array.iter
            (fun (_, d) ->
              if d <> d0 then raise (Bad "uneven leaf depth"))
            stats;
          Array.iteri
            (fun i (bounds, _) ->
              match bounds with
              | None -> ()
              | Some (mn, mx) ->
                if i > 0 && mn < node.keys.(i - 1) then
                  raise (Bad (Printf.sprintf "internal %d separator violated (left)" page_id));
                if i < nc - 1 && mx > node.keys.(i) then
                  raise (Bad (Printf.sprintf "internal %d separator violated (right)" page_id)))
            stats;
          let mins = Array.to_list stats |> List.filter_map (fun (b, _) -> Option.map fst b) in
          let maxs = Array.to_list stats |> List.filter_map (fun (b, _) -> Option.map snd b) in
          let bounds =
            match (mins, maxs) with
            | [], _ | _, [] -> None
            | _ -> Some (List.fold_left Int.min max_int mins, List.fold_left Int.max min_int maxs)
          in
          (bounds, d0 + 1))
  in
  match check t.root with
  | exception Bad msg -> fail "btree invariant violated: %s" msg
  | _ ->
    (* The leaf chain must visit keys in non-decreasing order and cover
       every entry. *)
    let chain = ref [] in
    range pool t ~lo:None ~hi:None (fun k _ -> chain := k :: !chain);
    let chain = List.rev !chain in
    let total = entry_count pool t in
    if List.length chain <> total then
      fail "leaf chain covers %d of %d entries" (List.length chain) total
    else begin
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: (b :: _ as rest) -> a <= b && sorted rest
      in
      if sorted chain then Ok () else fail "leaf chain out of order"
    end
