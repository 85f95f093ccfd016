module Catalog = Dqep_catalog.Catalog
module Relation = Dqep_catalog.Relation
module Attribute = Dqep_catalog.Attribute
module Logical = Dqep_algebra.Logical
module Predicate = Dqep_algebra.Predicate
module Col = Dqep_algebra.Col

type ast = {
  tables : string list;
  selections : (string * string * value) list;
  joins : ((string * string) * (string * string)) list;
}

and value =
  | Literal of int
  | Host of string

(* --- lexer --------------------------------------------------------------- *)

type token =
  | Ident of string
  | Int of int
  | Star
  | Comma
  | Dot
  | Colon
  | Le
  | Eq
  | Kw_select
  | Kw_from
  | Kw_where
  | Kw_and

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let keyword s =
  match String.lowercase_ascii s with
  | "select" -> Some Kw_select
  | "from" -> Some Kw_from
  | "where" -> Some Kw_where
  | "and" -> Some Kw_and
  | _ -> None

let is_ident_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let tokenize input =
  let n = String.length input in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | '*' -> go (i + 1) (Star :: acc)
      | ',' -> go (i + 1) (Comma :: acc)
      | '.' -> go (i + 1) (Dot :: acc)
      | ':' -> go (i + 1) (Colon :: acc)
      | '=' -> go (i + 1) (Eq :: acc)
      | '<' ->
        if i + 1 < n && input.[i + 1] = '=' then go (i + 2) (Le :: acc)
        else fail "character %d: expected '<='" i
      | '0' .. '9' ->
        let j = ref i in
        while !j < n && input.[!j] >= '0' && input.[!j] <= '9' do
          incr j
        done;
        let digits = String.sub input i (!j - i) in
        (match int_of_string_opt digits with
        | Some v -> go !j (Int v :: acc)
        | None -> fail "character %d: integer %s out of range" i digits)
      | c when is_ident_char c ->
        let j = ref i in
        while !j < n && is_ident_char input.[!j] do
          incr j
        done;
        let word = String.sub input i (!j - i) in
        let tok = match keyword word with Some k -> k | None -> Ident word in
        go !j (tok :: acc)
      | c -> fail "character %d: unexpected '%c'" i c
  in
  go 0 []

(* --- parser -------------------------------------------------------------- *)

let parse_col = function
  | Ident rel :: Dot :: Ident attr :: rest -> ((rel, attr), rest)
  | _ -> fail "expected qualified column (table.attr)"

let parse_cond toks =
  let col, rest = parse_col toks in
  match rest with
  | Le :: Int v :: rest -> (`Selection (col, Literal v), rest)
  | Le :: Colon :: Ident h :: rest -> (`Selection (col, Host h), rest)
  | Eq :: rest ->
    let col2, rest = parse_col rest in
    (`Join (col, col2), rest)
  | _ -> fail "expected '<= value' or '= table.attr' after column"

let rec parse_conds toks acc =
  let cond, rest = parse_cond toks in
  let acc = cond :: acc in
  match rest with
  | Kw_and :: rest -> parse_conds rest acc
  | [] -> List.rev acc
  | _ -> fail "trailing input after condition"

let rec parse_tables toks acc =
  match toks with
  | Ident t :: Comma :: rest -> parse_tables rest (t :: acc)
  | Ident t :: rest -> (List.rev (t :: acc), rest)
  | _ -> fail "expected table name in FROM"

let parse input =
  try
    match tokenize input with
    | Kw_select :: Star :: Kw_from :: rest ->
      let tables, rest = parse_tables rest [] in
      let conds =
        match rest with
        | [] -> []
        | Kw_where :: rest -> parse_conds rest []
        | _ -> fail "expected WHERE or end of statement"
      in
      let selections =
        List.filter_map
          (function `Selection ((r, a), v) -> Some (r, a, v) | `Join _ -> None)
          conds
      in
      let joins =
        List.filter_map
          (function `Join (a, b) -> Some (a, b) | `Selection _ -> None)
          conds
      in
      Ok { tables; selections; joins }
    | _ -> Error "statement must start with SELECT * FROM"
  with Parse_error e -> Error e

(* --- resolution ----------------------------------------------------------- *)

let to_logical catalog ast =
  try
    if ast.tables = [] then fail "empty FROM list";
    let sorted = List.sort_uniq String.compare ast.tables in
    if List.length sorted <> List.length ast.tables then
      fail "a table is listed twice in FROM";
    List.iter
      (fun t ->
        if Catalog.relation catalog t = None then fail "unknown table %s" t)
      ast.tables;
    let resolve_attr rel attr =
      match Catalog.relation catalog rel with
      | None -> fail "unknown table %s" rel
      | Some r -> (
        match Relation.attribute r attr with
        | None -> fail "unknown column %s.%s" rel attr
        | Some a -> a)
    in
    (* Base inputs with their selections applied. *)
    let with_selections rel =
      List.fold_left
        (fun acc (r, attr, v) ->
          if r <> rel then acc
          else begin
            let a = resolve_attr rel attr in
            let selectivity =
              match v with
              | Host h -> Predicate.Host_var h
              | Literal lit ->
                if lit < 0 || lit > a.Attribute.domain_size then
                  fail "literal %d outside the domain of %s.%s" lit rel attr;
                Predicate.Bound
                  (float_of_int lit /. float_of_int a.Attribute.domain_size)
            in
            Logical.Select (acc, Predicate.select ~rel ~attr selectivity)
          end)
        (Logical.Get_set rel) ast.selections
    in
    List.iter
      (fun (r, a, _) ->
        ignore (resolve_attr r a);
        if not (List.mem r ast.tables) then
          fail "selection on %s, which is not in FROM" r)
      ast.selections;
    List.iter
      (fun (((lr, la), (rr, ra)) : (string * string) * (string * string)) ->
        ignore (resolve_attr lr la);
        ignore (resolve_attr rr ra);
        if not (List.mem lr ast.tables) then fail "join uses %s, not in FROM" lr;
        if not (List.mem rr ast.tables) then fail "join uses %s, not in FROM" rr)
      ast.joins;
    (* Join tables greedily: repeatedly attach a table connected to the
       expression built so far, so any connected FROM list works
       regardless of its order. *)
    let joins_between covered rel =
      List.filter_map
        (fun ((l, r) : (string * string) * (string * string)) ->
          let lr, la = l and rr, ra = r in
          if List.mem lr covered && rr = rel then
            Some
              (Predicate.equi
                 ~left:(Col.make ~rel:lr ~attr:la)
                 ~right:(Col.make ~rel:rr ~attr:ra))
          else if List.mem rr covered && lr = rel then
            Some
              (Predicate.equi
                 ~left:(Col.make ~rel:rr ~attr:ra)
                 ~right:(Col.make ~rel:lr ~attr:la))
          else None)
        ast.joins
    in
    match ast.tables with
    | [] -> assert false
    | first :: rest ->
      let rec attach expr covered remaining =
        match remaining with
        | [] -> expr
        | _ -> (
          let candidate =
            List.find_opt (fun rel -> joins_between covered rel <> []) remaining
          in
          match candidate with
          | None ->
            fail "FROM list is not connected by join predicates (cross product)"
          | Some rel ->
            let preds = joins_between covered rel in
            attach
              (Logical.Join (expr, with_selections rel, preds))
              (rel :: covered)
              (List.filter (fun r -> r <> rel) remaining))
      in
      Ok (attach (with_selections first) [ first ] rest)
  with Parse_error e -> Error e

let compile catalog input =
  match parse input with
  | Error e -> Error e
  | Ok ast -> to_logical catalog ast

(* --- rendering ------------------------------------------------------------ *)

let render ast =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "SELECT * FROM ";
  Buffer.add_string buf (String.concat ", " ast.tables);
  let conds =
    List.map
      (fun (rel, attr, v) ->
        let rhs =
          match v with
          | Literal n -> string_of_int n
          | Host h -> ":" ^ h
        in
        Printf.sprintf "%s.%s <= %s" rel attr rhs)
      ast.selections
    @ List.map
        (fun ((lr, la), (rr, ra)) ->
          Printf.sprintf "%s.%s = %s.%s" lr la rr ra)
        ast.joins
  in
  (match conds with
  | [] -> ()
  | _ ->
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf (String.concat " AND " conds));
  Buffer.contents buf
