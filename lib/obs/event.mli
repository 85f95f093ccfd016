(** Trace events: the wire format of the observation pipeline.

    Every observable fact — a span opening or closing, a counter
    increment, a gauge sample, a per-operator cardinality tap — is one
    event, stamped with a sequence number and a clock reading, and
    rendered either as one JSON object per line (machine sinks) or a
    compact text line (human sinks).

    The JSON schema, validated by {!validate_json} and by
    [dqep trace validate]:

    - every event: ["seq" : int >= 0], ["at" : number],
      ["kind" : string], optional ["span" : int] (enclosing span id);
    - [span_begin]: ["name" : string];
    - [span_end]: ["name" : string], ["elapsed" : number];
    - [count]: ["counter" : string] (a {!Counter.name}),
      ["delta" : int], ["total" : int];
    - [gauge]: ["name" : string], ["value" : number];
    - [tap]: ["pid" : int], ["op" : string], ["rows" : int],
      ["batches" : int]. *)

type payload =
  | Span_begin of { name : string }
  | Span_end of { name : string; elapsed : float }
  | Count of { counter : Counter.t; delta : int; total : int }
  | Gauge of { name : string; value : float }
  | Tap of { pid : int; op : string; rows : int; batches : int }

type t = {
  seq : int;  (** per-trace sequence number, 0-based *)
  at : float;  (** trace clock reading, seconds *)
  span : int option;  (** id of the enclosing span, if any *)
  payload : payload;
}

val kind : payload -> string
(** The ["kind"] discriminator: ["span_begin"], ["span_end"],
    ["count"], ["gauge"] or ["tap"]. *)

val to_json : t -> string

val validate_json : string -> (unit, string) result
(** [validate_json line] checks one JSON-lines trace record against the
    schema above: parses, has the required fields with the right types
    for its kind, and names only counters from the closed taxonomy. *)

val pp_compact : Format.formatter -> t -> unit
(** One-line human rendering used by the compact sink. *)
