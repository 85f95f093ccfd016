(** Event sinks: where a trace's events go.

    Sinks are thread-safe — concurrent session domains may emit through
    the same sink. *)

type format =
  | Jsonl  (** one JSON object per line ({!Event.to_json}) *)
  | Compact  (** one human-readable text line ({!Event.pp_compact}) *)

type t

val null : t
(** Discards everything. *)

val memory : unit -> t * (unit -> Event.t list)
(** In-memory sink for tests; the closure returns the events emitted so
    far in emission order. *)

val channel : ?format:format -> out_channel -> t
(** Writes one line per event; [format] defaults to [Jsonl].  The
    channel is not closed by the sink. *)

val emit : t -> Event.t -> unit
val flush : t -> unit
