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

let parse_bindings s =
  if s = "" then Ok []
  else
    List.fold_left
      (fun acc pair ->
        let* acc = acc in
        match String.index_opt pair ':' with
        | None -> Error (Printf.sprintf "malformed binding %S (want hv:float)" pair)
        | Some i ->
          let name = String.sub pair 0 i in
          let value = String.sub pair (i + 1) (String.length pair - i - 1) in
          if name = "" then Error (Printf.sprintf "empty host var in %S" pair)
          else
            let* v = float_of_wire value in
            Ok ((name, v) :: acc))
      (Ok [])
      (String.split_on_char ',' s)
    |> Result.map List.rev

let parse_run rest =
  let n = String.length rest in
  let rec skip i = if i < n && rest.[i] = ' ' then skip (i + 1) else i in
  let rec fields i acc =
    let i = skip i in
    if i >= n then Error "missing sql= field"
    else if i + 4 <= n && String.sub rest i 4 = "sql=" then
      let sql = String.trim (String.sub rest (i + 4) (n - i - 4)) in
      if sql = "" then Error "empty sql= field" else Ok (List.rev acc, sql)
    else
      let stop =
        match String.index_from_opt rest i ' ' with Some j -> j | None -> n
      in
      let field = String.sub rest i (stop - i) in
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "malformed field %S (want k=v)" field)
      | Some eq ->
        let k = String.sub field 0 eq in
        let v = String.sub field (eq + 1) (String.length field - eq - 1) in
        fields stop ((k, v) :: acc)
  in
  let* fields, sql = fields 0 [] in
  List.fold_left
    (fun acc (k, v) ->
      let* r = acc in
      match k with
      | "id" ->
        let* id = int_of_wire v in
        Ok { r with id = Some id }
      | "set" ->
        let* bindings = parse_bindings v in
        Ok { r with bindings }
      | "memory" ->
        let* m = int_of_wire v in
        Ok { r with memory_pages = Some m }
      | "deadline_ms" ->
        let* d = float_of_wire v in
        if Float.is_nan d || d < 0. then
          Error (Printf.sprintf "deadline_ms %S is not a budget >= 0" v)
        else Ok { r with deadline_ms = Some d }
      | "retries" ->
        let* t = int_of_wire v in
        Ok { r with retries = Some t }
      | "risk" -> (
        match Risk.of_string v with
        | Some rk -> Ok { r with risk = Some rk }
        | None ->
          Error
            (Printf.sprintf "malformed risk %S (want expected|worst|quantile:P)"
               v))
      | _ -> Error (Printf.sprintf "unknown field %S" k))
    (Ok
       { id = None; bindings = []; memory_pages = None; deadline_ms = None;
         retries = None; risk = None; sql })
    fields

let parse_request line =
  let line = String.trim line in
  match String.index_opt line ' ' with
  | None -> (
    match String.uppercase_ascii line with
    | "STATS" -> Ok Stats
    | "PING" -> Ok Ping
    | "QUIT" -> Ok Quit
    | "RUN" -> Error "missing sql= field"
    | _ -> Error (Printf.sprintf "unknown request %S" line))
  | Some sp -> (
    let verb = String.uppercase_ascii (String.sub line 0 sp) in
    let rest = String.sub line sp (String.length line - sp) in
    match verb with
    | "RUN" -> Result.map (fun r -> Run r) (parse_run rest)
    | "STATS" | "PING" | "QUIT" ->
      Error (Printf.sprintf "%s takes no arguments" verb)
    | _ -> Error (Printf.sprintf "unknown request %S" verb))

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
  | Some id -> Printf.sprintf " id=%d" id
  | None -> ""

let render_response = function
  | Ok_reply { id; rows; cache; latency_ms } ->
    Printf.sprintf "OK%s rows=%d cache=%s latency_ms=%s" (id_field id) rows
      (cache_role_name cache) (float_to_wire latency_ms)
  | Error_reply { id; class_; detail } ->
    Printf.sprintf "ERR%s class=%s detail=%s" (id_field id) class_ detail
  | Shed_reply { id; reason } ->
    Printf.sprintf "SHED%s reason=%s" (id_field id) reason
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
