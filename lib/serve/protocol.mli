(** The serving layer's line-oriented wire protocol.

    One request per line, one response line per request.  A request is a
    verb followed by space-separated [k=v] fields:

    {v
    RUN [id=N] [set=hv:float,...] [memory=PAGES] [deadline_ms=F]
        [retries=N] [risk=expected|worst|quantile:P] sql=SELECT ...
    STATS
    PING
    QUIT
    v}

    [sql=] must be the last field: its value is the raw remainder of the
    line.  Responses mirror the request [id] when one was given:

    {v
    OK [id=N] rows=N cache=hit|miss latency_ms=F
    ERR [id=N] class=NAME detail=TEXT        (detail runs to end of line)
    SHED [id=N] reason=queue_full|queue_timeout|breaker_open
    PONG
    STATS { ...one JSON object... }
    BYE
    v}

    Floats cross the wire in OCaml's [%h] hex notation, so every finite
    double round-trips exactly. *)

type run = {
  id : int option;  (** echoed in the response *)
  bindings : (string * float) list;  (** host variable -> selectivity *)
  memory_pages : int option;
      (** start-up memory grant; the server refuses one above
          [Plan_cache.max_memory_pages] *)
  deadline_ms : float option;
      (** wall-clock budget, queueing included; a negative or NaN value
          is a malformed field *)
  retries : int option;  (** per-request retry budget (server clamps) *)
  risk : Dqep_cost.Risk.t option;
      (** start-up resolution policy for this request; the server's
          configured resilience policy when absent *)
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
  | Stats_reply of string  (** one line of JSON *)
  | Bye

val parse_request : string -> (request, string) result
(** Never raises; the error names the malformed field. *)

val render_request : request -> string
(** [parse_request (render_request r)] yields [r] (bindings order
    preserved; an empty bindings list renders without a [set=] field). *)

val parse_response : string -> (response, string) result
val render_response : response -> string
val cache_role_name : cache_role -> string
