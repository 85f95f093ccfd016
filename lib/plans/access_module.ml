module Interval = Dqep_util.Interval
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Col = Dqep_algebra.Col
module Props = Dqep_algebra.Props

(* --- token encoding ---------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' ->
        Buffer.add_char buf c
      | _ -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      if s.[i] = '%' && i + 2 < n then begin
        Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ String.sub s (i + 1) 2)));
        go (i + 3)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let float_tok v = Printf.sprintf "%h" v
let float_of_tok s = float_of_string s
let interval_tok (i : Interval.t) = float_tok i.Interval.lo ^ ":" ^ float_tok i.Interval.hi

(* Decoding is purely syntactic: bounds are taken as written, even if
   ill-formed.  Semantic validation of decoded plans belongs to the
   static verifier ([Dqep_analysis.Verify]), which the executor runs
   before activating any plan. *)
let interval_of_tok s =
  match String.index_opt s ':' with
  | None -> failwith "bad interval"
  | Some i ->
    Interval.unchecked
      ~lo:(float_of_tok (String.sub s 0 i))
      ~hi:(float_of_tok (String.sub s (i + 1) (String.length s - i - 1)))

let sel_toks (p : Predicate.select) =
  let v =
    match p.selectivity with
    | Predicate.Bound s -> "B" ^ float_tok s
    | Predicate.Host_var h -> "H" ^ escape h
  in
  [ escape p.target.Col.rel; escape p.target.Col.attr; v ]

let equi_toks (e : Predicate.equi) =
  [ escape e.left.Col.rel; escape e.left.Col.attr;
    escape e.right.Col.rel; escape e.right.Col.attr ]

(* --- encoding ----------------------------------------------------------- *)

let op_toks = function
  | Physical.File_scan rel -> [ "FS"; escape rel ]
  | Physical.Btree_scan { rel; attr } -> [ "BS"; escape rel; escape attr ]
  | Physical.Filter p -> "FLT" :: sel_toks p
  | Physical.Filter_btree_scan { rel; attr; pred } ->
    [ "FBS"; escape rel; escape attr ] @ sel_toks pred
  | Physical.Hash_join ps ->
    ("HJ" :: string_of_int (List.length ps) :: List.concat_map equi_toks ps)
  | Physical.Merge_join ps ->
    ("MJ" :: string_of_int (List.length ps) :: List.concat_map equi_toks ps)
  | Physical.Index_join { preds; inner_rel; inner_attr; inner_filter } ->
    ("IJ" :: string_of_int (List.length preds) :: List.concat_map equi_toks preds)
    @ [ escape inner_rel; escape inner_attr ]
    @ (match inner_filter with None -> [ "-" ] | Some p -> "F" :: sel_toks p)
  | Physical.Sort cols ->
    ("SORT" :: string_of_int (List.length cols)
    :: List.concat_map (fun (c : Col.t) -> [ escape c.rel; escape c.attr ]) cols)
  | Physical.Choose_plan -> [ "CP" ]

let order_tok (props : Props.t) =
  match props.Props.order with
  | Props.Unordered -> "-"
  | Props.Ordered cols ->
    String.concat ","
      (List.map (fun (c : Col.t) -> escape c.rel ^ ";" ^ escape c.attr) cols)

let encode plan =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "dqep-access-module 1\n";
  (* Nodes are written under their index in the plan's numbering, so
     the output is independent of process-global plan identifiers and
     re-encoding a decoded module is the identity. *)
  let dag = Plan.Dag.of_plan plan in
  for i = 0 to dag.Plan.Dag.length - 1 do
    let p = dag.Plan.Dag.nodes.(i) in
    let fields =
      [ "node"; string_of_int i ]
      @ op_toks p.Plan.op
      @ [ "in="
          ^ (match Plan.Dag.inputs dag i with
            | [] -> "-"
            | l -> String.concat "," (List.map string_of_int l));
          "rels=" ^ String.concat "," (List.map escape p.Plan.rels);
          "rows=" ^ interval_tok p.Plan.rows;
          "width=" ^ string_of_int p.Plan.bytes_per_row;
          "own=" ^ interval_tok p.Plan.own_cost;
          "total=" ^ interval_tok p.Plan.total_cost;
          "order=" ^ order_tok p.Plan.props ]
    in
    Buffer.add_string buf (String.concat " " fields);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf (Printf.sprintf "root %d\n" (dag.Plan.Dag.length - 1));
  Buffer.contents buf

(* --- decoding ----------------------------------------------------------- *)

exception Parse of string

let parse_sel = function
  | rel :: attr :: v :: rest ->
    let selectivity =
      if String.length v = 0 then raise (Parse "empty selectivity")
      else if v.[0] = 'B' then
        Predicate.Bound (float_of_tok (String.sub v 1 (String.length v - 1)))
      else if v.[0] = 'H' then
        Predicate.Host_var (unescape (String.sub v 1 (String.length v - 1)))
      else raise (Parse "bad selectivity tag")
    in
    (Predicate.select ~rel:(unescape rel) ~attr:(unescape attr) selectivity, rest)
  | _ -> raise (Parse "truncated selection predicate")

let rec parse_equis n toks =
  if n = 0 then ([], toks)
  else
    match toks with
    | lr :: la :: rr :: ra :: rest ->
      let e =
        Predicate.equi
          ~left:(Col.make ~rel:(unescape lr) ~attr:(unescape la))
          ~right:(Col.make ~rel:(unescape rr) ~attr:(unescape ra))
      in
      let es, rest = parse_equis (n - 1) rest in
      (e :: es, rest)
    | _ -> raise (Parse "truncated join predicates")

let parse_op = function
  | "FS" :: rel :: rest -> (Physical.File_scan (unescape rel), rest)
  | "BS" :: rel :: attr :: rest ->
    (Physical.Btree_scan { rel = unescape rel; attr = unescape attr }, rest)
  | "FLT" :: rest ->
    let p, rest = parse_sel rest in
    (Physical.Filter p, rest)
  | "FBS" :: rel :: attr :: rest ->
    let p, rest = parse_sel rest in
    (Physical.Filter_btree_scan { rel = unescape rel; attr = unescape attr; pred = p }, rest)
  | "HJ" :: n :: rest ->
    let ps, rest = parse_equis (int_of_string n) rest in
    (Physical.Hash_join ps, rest)
  | "MJ" :: n :: rest ->
    let ps, rest = parse_equis (int_of_string n) rest in
    (Physical.Merge_join ps, rest)
  | "IJ" :: n :: rest ->
    let ps, rest = parse_equis (int_of_string n) rest in
    (match rest with
    | rel :: attr :: "-" :: rest ->
      ( Physical.Index_join
          { preds = ps; inner_rel = unescape rel; inner_attr = unescape attr;
            inner_filter = None },
        rest )
    | rel :: attr :: "F" :: rest ->
      let p, rest = parse_sel rest in
      ( Physical.Index_join
          { preds = ps; inner_rel = unescape rel; inner_attr = unescape attr;
            inner_filter = Some p },
        rest )
    | _ -> raise (Parse "truncated index join"))
  | "SORT" :: n :: rest ->
    let rec cols n toks =
      if n = 0 then ([], toks)
      else
        match toks with
        | r :: a :: rest ->
          let cs, rest = cols (n - 1) rest in
          (Col.make ~rel:(unescape r) ~attr:(unescape a) :: cs, rest)
        | _ -> raise (Parse "truncated sort columns")
    in
    let cs, rest = cols (int_of_string n) rest in
    (Physical.Sort cs, rest)
  | "CP" :: rest -> (Physical.Choose_plan, rest)
  | tok :: _ -> raise (Parse ("unknown opcode " ^ tok))
  | [] -> raise (Parse "missing opcode")

let strip_prefix ~prefix s =
  if String.length s >= String.length prefix
     && String.sub s 0 (String.length prefix) = prefix
  then String.sub s (String.length prefix) (String.length s - String.length prefix)
  else raise (Parse ("expected field " ^ prefix))

let parse_order s =
  if s = "-" then Props.unordered
  else
    let cols =
      String.split_on_char ',' s
      |> List.map (fun part ->
             match String.split_on_char ';' part with
             | [ r; a ] -> Col.make ~rel:(unescape r) ~attr:(unescape a)
             | _ -> raise (Parse "bad order column"))
    in
    Props.ordered cols

let decode env text =
  let builder = Plan.Builder.create env in
  let nodes : (int, Plan.t) Hashtbl.t = Hashtbl.create 64 in
  let root = ref None in
  try
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           match String.split_on_char ' ' line with
           | [ "" ] | [] -> ()
           | [ "dqep-access-module"; "1" ] -> ()
           | [ "root"; pid ] ->
             (match Hashtbl.find_opt nodes (int_of_string pid) with
             | Some p -> root := Some p
             | None -> raise (Parse "root refers to unknown node"))
           | "node" :: pid :: rest ->
             let pid = int_of_string pid in
             let op, rest = parse_op rest in
             (match rest with
             | [ ins; rels; rows; width; own; total; order ] ->
               let ins = strip_prefix ~prefix:"in=" ins in
               let inputs =
                 if ins = "-" then []
                 else
                   String.split_on_char ',' ins
                   |> List.map (fun s ->
                          match Hashtbl.find_opt nodes (int_of_string s) with
                          | Some p -> p
                          | None -> raise (Parse "forward reference"))
               in
               let rels =
                 match strip_prefix ~prefix:"rels=" rels with
                 | "" -> []
                 | s -> String.split_on_char ',' s |> List.map unescape
               in
               let plan =
                 Plan.Builder.raw builder ~op ~inputs ~rels
                   ~rows:(interval_of_tok (strip_prefix ~prefix:"rows=" rows))
                   ~bytes_per_row:(int_of_string (strip_prefix ~prefix:"width=" width))
                   ~own_cost:(interval_of_tok (strip_prefix ~prefix:"own=" own))
                   ~total_cost:(interval_of_tok (strip_prefix ~prefix:"total=" total))
                   ~props:(parse_order (strip_prefix ~prefix:"order=" order))
               in
               Hashtbl.replace nodes pid plan
             | _ -> raise (Parse "bad node line"))
           | _ -> raise (Parse ("bad line: " ^ line)));
    match !root with
    | Some p -> Ok p
    | None -> Error "access module has no root"
  with
  | Parse msg -> Error msg
  | Failure msg -> Error msg
  | Invalid_argument msg -> Error msg

let encoded_bytes plan = String.length (encode plan)
let modelled_bytes device plan = Plan.size_bytes device plan

let activation_io_time (device : Dqep_cost.Device.t) plan =
  Dqep_cost.Device.plan_io_time device ~nodes:(Plan.node_count plan)
