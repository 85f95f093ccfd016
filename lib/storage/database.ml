module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Attribute = Dqep_catalog.Attribute
module Rng = Dqep_util.Rng

type t = {
  catalog : Catalog.t;
  pool : Buffer_pool.t;
  heaps : (string, Heap_file.t) Hashtbl.t;
  indexes : (string * string, Btree.t) Hashtbl.t;
}

let actual_selectivity ~skew s = if s <= 0. then 0. else s ** (1. /. skew)

let build ?(frames = 64) ?(skew = 1.0) ~seed catalog =
  if skew <= 0. then invalid_arg "Database.build: skew <= 0";
  let disk = Disk.create () in
  (* Loading is not part of any measured experiment, so build with a pool
     large enough to avoid thrash, then shrink to the requested frames. *)
  let pool = Buffer_pool.create ~frames:(Int.max frames 4096) disk in
  let heaps = Hashtbl.create 16 in
  let indexes = Hashtbl.create 16 in
  let rng = Rng.create seed in
  let page_bytes = Catalog.page_bytes catalog in
  List.iter
    (fun (r : Relation.t) ->
      let rng = Rng.split rng in
      let width = List.length r.attributes in
      let domains =
        Array.of_list (List.map (fun (a : Attribute.t) -> a.domain_size) r.attributes)
      in
      let value dom =
        if skew = 1.0 then Rng.int rng dom
        else begin
          let u = Rng.float rng in
          Int.min (dom - 1) (int_of_float (float_of_int dom *. (u ** skew)))
        end
      in
      let tuples =
        Array.init r.cardinality (fun _ ->
            Array.init width (fun i -> value domains.(i)))
      in
      let tuples_per_page =
        Heap_file.tuples_per_page ~page_bytes ~record_bytes:r.record_bytes
      in
      let heap = Heap_file.create pool ~tuples_per_page in
      let rids = Array.map (fun tuple -> Heap_file.append pool heap tuple) tuples in
      Hashtbl.add heaps r.name heap;
      List.iter
        (fun (ix : Dqep_catalog.Index.t) ->
          if ix.relation = r.name then begin
            let pos =
              let rec find i = function
                | [] -> raise Not_found
                | (a : Attribute.t) :: rest ->
                  if a.name = ix.attribute then i else find (i + 1) rest
              in
              find 0 r.attributes
            in
            let entries =
              Array.init r.cardinality (fun i -> (tuples.(i).(pos), rids.(i)))
            in
            let tree = Btree.bulk_load pool ~page_bytes entries in
            Hashtbl.add indexes (ix.relation, ix.attribute) tree
          end)
        (Catalog.indexes catalog))
    (Catalog.relations catalog);
  Buffer_pool.flush_all pool;
  Buffer_pool.resize pool frames;
  Buffer_pool.reset_stats pool;
  { catalog; pool; heaps; indexes }

let catalog t = t.catalog
let pool t = t.pool
let heap t name = Hashtbl.find t.heaps name
let index t ~rel ~attr = Hashtbl.find t.indexes (rel, attr)

