type format = Jsonl | Compact

type t = { emit : Event.t -> unit; flush : unit -> unit }

let null = { emit = (fun _ -> ()); flush = (fun () -> ()) }

let memory () =
  let events = ref [] in
  let sink =
    { emit = (fun e -> events := e :: !events); flush = (fun () -> ()) }
  in
  (sink, fun () -> List.rev !events)

let render format e =
  match format with
  | Jsonl -> Event.to_json e
  | Compact -> Format.asprintf "%a" Event.pp_compact e

let channel ?(format = Jsonl) oc =
  (* Serialize writers: session domains may emit concurrently. *)
  let mu = Mutex.create () in
  {
    emit =
      (fun e ->
        let line = render format e in
        Mutex.lock mu;
        output_string oc line;
        output_char oc '\n';
        Mutex.unlock mu);
    flush =
      (fun () ->
        Mutex.lock mu;
        flush oc;
        Mutex.unlock mu);
  }

let buffer ?(format = Jsonl) buf =
  let mu = Mutex.create () in
  {
    emit =
      (fun e ->
        let line = render format e in
        Mutex.lock mu;
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        Mutex.unlock mu);
    flush = (fun () -> ());
  }

let emit t e = t.emit e
let flush t = t.flush ()
