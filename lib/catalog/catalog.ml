(* Relations by name, hashed and compared as strings rather than
   through the polymorphic primitives. *)
module Names = Hashtbl.Make (String)

type t = {
  page_bytes : int;
  relations : Relation.t list;
  indexes : Index.t list;
  by_name : Relation.t Names.t;
}

let create ?(page_bytes = 2048) ~relations ~indexes () =
  if page_bytes <= 0 then invalid_arg "Catalog.create: page_bytes <= 0";
  let by_name = Names.create 16 in
  List.iter
    (fun (r : Relation.t) ->
      if Names.mem by_name r.name then
        invalid_arg ("Catalog.create: duplicate relation " ^ r.name);
      Names.add by_name r.name r)
    relations;
  List.iter
    (fun (i : Index.t) ->
      match Names.find_opt by_name i.relation with
      | None -> invalid_arg ("Catalog.create: index on unknown relation " ^ i.relation)
      | Some r ->
        if Relation.attribute r i.attribute = None then
          invalid_arg
            (Printf.sprintf "Catalog.create: index on unknown attribute %s.%s"
               i.relation i.attribute))
    indexes;
  { page_bytes; relations; indexes; by_name }

let page_bytes t = t.page_bytes
let relations t = t.relations
let indexes t = t.indexes
let relation t name = Names.find_opt t.by_name name

let relation_exn t name =
  match relation t name with
  | Some r -> r
  | None -> raise Not_found

let index_on t ~rel ~attr =
  List.find_opt
    (fun (i : Index.t) -> i.relation = rel && i.attribute = attr)
    t.indexes

let has_index t ~rel ~attr = index_on t ~rel ~attr <> None
let indexes_of t rel = List.filter (fun (i : Index.t) -> i.relation = rel) t.indexes
let pages t rel = Relation.pages ~page_bytes:t.page_bytes (relation_exn t rel)

let domain_size t ~rel ~attr =
  let r = relation_exn t rel in
  (Relation.attribute_exn r attr).domain_size

let pp ppf t =
  Format.fprintf ppf "@[<v>catalog (page=%dB)@," t.page_bytes;
  List.iter (fun r -> Format.fprintf ppf "  %a@," Relation.pp r) t.relations;
  List.iter (fun i -> Format.fprintf ppf "  %a@," Index.pp i) t.indexes;
  Format.fprintf ppf "@]"
