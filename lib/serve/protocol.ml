(* The serving layer's line-oriented wire protocol.

   One request per line, one response line per request — trivially
   framable over any byte stream and directly usable by the in-process
   driver.  Requests are a verb followed by [k=v] fields; [sql=] must
   come last because its value is the raw remainder of the line (SQL
   contains spaces).  Responses mirror the request's [id] so clients
   can pipeline.

   Parsing never raises: malformed lines come back as [Error _] and the
   server turns them into an [Error_reply] with class "protocol". *)

module Risk = Dqep_cost.Risk

type run = {
  id : int option;
  bindings : (string * float) list;  (* host var -> selectivity *)
  memory_pages : int option;
  deadline_ms : float option;
  retries : int option;
  risk : Risk.t option;  (* start-up resolution policy override *)
  sql : string;
}

type request = Run of run | Stats | Ping | Quit

type cache_role = Hit | Miss

type response =
  | Ok_reply of {
      id : int option;
      rows : int;
      cache : cache_role;
      latency_ms : float;
    }
  | Error_reply of { id : int option; class_ : string; detail : string }
  | Shed_reply of { id : int option; reason : string }
  | Pong
  | Stats_reply of string  (* one line of JSON *)
  | Bye

(* --- helpers -------------------------------------------------------------- *)

(* %h (hex float) round-trips every finite double exactly through
   [float_of_string], which plain %g does not guarantee; binding floats
   cross the wire twice in the tests' round-trip properties. *)
let float_to_wire f = Printf.sprintf "%h" f

let float_of_wire s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "malformed float %S" s)

let int_of_wire s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "malformed integer %S" s)

let ( let* ) = Result.bind

(* --- requests ------------------------------------------------------------- *)

(* A request line is scanned by index: nothing is copied but the field
   values the request keeps or converts, and the statement text. *)

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* [String.trim]'s blanks. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The first index in [\[i, j)] holding [c], or [j]. *)
let rec index_in line c i j =
  if i >= j || line.[i] = c then i else index_in line c (i + 1) j

let rec skip_spaces line i j =
  if i < j && line.[i] = ' ' then skip_spaces line (i + 1) j else i

let rec same_from ~fold line i lit k =
  k = String.length lit
  || ((if fold then Char.uppercase_ascii line.[i + k] else line.[i + k])
      = lit.[k]
     && same_from ~fold line i lit (k + 1))

(* Whether [line.[i..j)] is [lit], comparing letters case-blind when
   [fold] is set. *)
let span_is ?(fold = false) line i j lit =
  j - i = String.length lit && same_from ~fold line i lit 0

let sub line i j = String.sub line i (j - i)

let wire_int line i j =
  match int_of_wire (sub line i j) with
  | Ok n -> n
  | Error e -> raise (Malformed e)

let wire_float line i j =
  match float_of_wire (sub line i j) with
  | Ok f -> f
  | Error e -> raise (Malformed e)

(* [hv:float] pairs separated by commas, in [\[i, j)]. *)
let parse_bindings line i j =
  let rec pairs i acc =
    let stop = index_in line ',' i j in
    let colon = index_in line ':' i stop in
    if colon = stop then
      malformed "malformed binding %S (want hv:float)" (sub line i stop);
    if colon = i then malformed "empty host var in %S" (sub line i stop);
    let acc = (sub line i colon, wire_float line (colon + 1) stop) :: acc in
    if stop < j then pairs (stop + 1) acc else List.rev acc
  in
  if i = j then [] else pairs i []

(* The fields of a RUN line in [\[i, j)]: every field before [sql=] is
   checked for its [k=v] form before any value is read, so the first
   malformed field is reported ahead of a bad value in an earlier
   one. *)
let parse_run line i j =
  let rec find_sql i =
    let i = skip_spaces line i j in
    if i >= j then raise (Malformed "missing sql= field")
    else if i + 4 <= j && span_is line i (i + 4) "sql=" then i
    else begin
      let stop = index_in line ' ' i j in
      if index_in line '=' i stop = stop then
        malformed "malformed field %S (want k=v)" (sub line i stop);
      find_sql stop
    end
  in
  let sql_at = find_sql i in
  let s = ref (sql_at + 4) and e = ref j in
  while !s < !e && is_blank line.[!s] do incr s done;
  while !e > !s && is_blank line.[!e - 1] do decr e done;
  if !s = !e then raise (Malformed "empty sql= field");
  let sql = sub line !s !e in
  let id = ref None and bindings = ref [] and memory_pages = ref None in
  let deadline_ms = ref None and retries = ref None and risk = ref None in
  let i = ref (skip_spaces line i sql_at) in
  while !i < sql_at do
    let k = !i in
    let stop = index_in line ' ' k sql_at in
    let eq = index_in line '=' k stop in
    let v = eq + 1 in
    if span_is line k eq "id" then id := Some (wire_int line v stop)
    else if span_is line k eq "set" then bindings := parse_bindings line v stop
    else if span_is line k eq "memory" then
      memory_pages := Some (wire_int line v stop)
    else if span_is line k eq "deadline_ms" then begin
      let d = wire_float line v stop in
      if Float.is_nan d || d < 0. then
        malformed "deadline_ms %S is not a budget >= 0" (sub line v stop);
      deadline_ms := Some d
    end
    else if span_is line k eq "retries" then
      retries := Some (wire_int line v stop)
    else if span_is line k eq "risk" then begin
      match Risk.of_string (sub line v stop) with
      | Some rk -> risk := Some rk
      | None ->
        malformed "malformed risk %S (want expected|worst|quantile:P)"
          (sub line v stop)
    end
    else malformed "unknown field %S" (sub line k eq);
    i := skip_spaces line stop sql_at
  done;
  { id = !id; bindings = !bindings; memory_pages = !memory_pages;
    deadline_ms = !deadline_ms; retries = !retries; risk = !risk; sql }

let parse_request line =
  let a = ref 0 and b = ref (String.length line) in
  while !a < !b && is_blank line.[!a] do incr a done;
  while !b > !a && is_blank line.[!b - 1] do decr b done;
  let a = !a and b = !b in
  let sp = index_in line ' ' a b in
  let verb lit = span_is ~fold:true line a sp lit in
  match
    if sp = b then
      if verb "STATS" then Stats
      else if verb "PING" then Ping
      else if verb "QUIT" then Quit
      else if verb "RUN" then raise (Malformed "missing sql= field")
      else malformed "unknown request %S" (sub line a b)
    else if verb "RUN" then Run (parse_run line sp b)
    else
      let v = String.uppercase_ascii (sub line a sp) in
      if verb "STATS" || verb "PING" || verb "QUIT" then
        malformed "%s takes no arguments" v
      else malformed "unknown request %S" v
  with
  | request -> Ok request
  | exception Malformed e -> Error e

let render_request = function
  | Stats -> "STATS"
  | Ping -> "PING"
  | Quit -> "QUIT"
  | Run r ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "RUN";
    let field k v = Buffer.add_string buf (Printf.sprintf " %s=%s" k v) in
    Option.iter (fun id -> field "id" (string_of_int id)) r.id;
    (match r.bindings with
    | [] -> ()
    | bs ->
      field "set"
        (String.concat ","
           (List.map (fun (hv, v) -> hv ^ ":" ^ float_to_wire v) bs)));
    Option.iter (fun m -> field "memory" (string_of_int m)) r.memory_pages;
    Option.iter (fun d -> field "deadline_ms" (float_to_wire d)) r.deadline_ms;
    Option.iter (fun t -> field "retries" (string_of_int t)) r.retries;
    (* Quantile probabilities travel in %h like every other wire float,
       so a rendered request round-trips its policy exactly. *)
    Option.iter
      (fun rk ->
        field "risk"
          (match rk with
          | Risk.Quantile p -> "quantile:" ^ float_to_wire p
          | rk -> Risk.to_string rk))
      r.risk;
    field "sql" r.sql;
    Buffer.contents buf

(* --- responses ------------------------------------------------------------ *)

let cache_role_name = function Hit -> "hit" | Miss -> "miss"

let id_field = function
  | Some id -> " id=" ^ string_of_int id
  | None -> ""

(* Concatenated rather than formatted: only the float goes through
   [Printf], for its exact %h. *)
let render_response = function
  | Ok_reply { id; rows; cache; latency_ms } ->
    String.concat ""
      [ "OK"; id_field id; " rows="; string_of_int rows; " cache=";
        cache_role_name cache; " latency_ms="; float_to_wire latency_ms ]
  | Error_reply { id; class_; detail } ->
    String.concat ""
      [ "ERR"; id_field id; " class="; class_; " detail="; detail ]
  | Shed_reply { id; reason } ->
    String.concat "" [ "SHED"; id_field id; " reason="; reason ]
  | Pong -> "PONG"
  | Stats_reply json -> "STATS " ^ json
  | Bye -> "BYE"

(* Split " k1=v1 k2=v2 last=rest of line" where [last] consumes the
   remainder; shared by ERR (detail=) parsing. *)
let parse_fields ~last rest =
  let n = String.length rest in
  let rec skip i = if i < n && rest.[i] = ' ' then skip (i + 1) else i in
  let prefix = last ^ "=" in
  let plen = String.length prefix in
  let rec go i acc =
    let i = skip i in
    if i >= n then Ok (List.rev acc, None)
    else if i + plen <= n && String.sub rest i plen = prefix then
      Ok (List.rev acc, Some (String.sub rest (i + plen) (n - i - plen)))
    else
      let stop =
        match String.index_from_opt rest i ' ' with Some j -> j | None -> n
      in
      let field = String.sub rest i (stop - i) in
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "malformed field %S" field)
      | Some eq ->
        let k = String.sub field 0 eq in
        let v = String.sub field (eq + 1) (String.length field - eq - 1) in
        go stop ((k, v) :: acc)
  in
  go 0 []

let lookup k fields =
  match List.assoc_opt k fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" k)

let opt_id fields =
  match List.assoc_opt "id" fields with
  | None -> Ok None
  | Some v -> Result.map Option.some (int_of_wire v)

let parse_response line =
  let line = String.trim line in
  let verb, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some sp ->
      (String.sub line 0 sp, String.sub line sp (String.length line - sp))
  in
  match verb with
  | "PONG" -> Ok Pong
  | "BYE" -> Ok Bye
  | "STATS" -> Ok (Stats_reply (String.trim rest))
  | "OK" ->
    let* fields, _ = parse_fields ~last:"\x00" rest in
    let* id = opt_id fields in
    let* rows = Result.bind (lookup "rows" fields) int_of_wire in
    let* cache =
      match lookup "cache" fields with
      | Ok "hit" -> Ok Hit
      | Ok "miss" -> Ok Miss
      | Ok other -> Error (Printf.sprintf "unknown cache role %S" other)
      | Error _ as e -> e
    in
    let* latency_ms = Result.bind (lookup "latency_ms" fields) float_of_wire in
    Ok (Ok_reply { id; rows; cache; latency_ms })
  | "ERR" ->
    let* fields, detail = parse_fields ~last:"detail" rest in
    let* id = opt_id fields in
    let* class_ = lookup "class" fields in
    let detail = Option.value detail ~default:"" in
    Ok (Error_reply { id; class_; detail })
  | "SHED" ->
    let* fields, _ = parse_fields ~last:"\x00" rest in
    let* id = opt_id fields in
    let* reason = lookup "reason" fields in
    Ok (Shed_reply { id; reason })
  | _ -> Error (Printf.sprintf "unknown response %S" verb)
