type tap_cell = { op : string; mutable rows : int; mutable batches : int }

type t = {
  enabled : bool;
  clock : unit -> float;
  started : float;
  sink : Sink.t;
  emitting : bool;
  taps_on : bool;
  counts : int Atomic.t array;
  seq : int Atomic.t;
  span_ids : int Atomic.t;
  current_span : int option Atomic.t;
  mu : Mutex.t; (* protects [taps] and [gauges] *)
  taps : (int, tap_cell) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
}

(* Only an emitting trace timestamps anything, so only it reads its
   clock at creation: a run trace without a sink costs no clock read. *)
let make ~enabled ~clock ~sink ~emitting ~taps_on =
  {
    enabled;
    clock;
    started = (if emitting then clock () else 0.);
    sink;
    emitting;
    taps_on;
    counts = Array.init Counter.count (fun _ -> Atomic.make 0);
    seq = Atomic.make 0;
    span_ids = Atomic.make 0;
    current_span = Atomic.make None;
    mu = Mutex.create ();
    taps = Hashtbl.create 7;
    gauges = Hashtbl.create 7;
  }

(* The disabled trace: every operation short-circuits on [enabled],
   mirroring [Governor.none]'s limited-flag pattern, so code can thread
   a trace unconditionally without paying for it. *)
let null =
  make ~enabled:false
    ~clock:(fun () -> 0.)
    ~sink:Sink.null ~emitting:false ~taps_on:false

let create ?(clock = Sys.time) ?sink ?(taps = false) () =
  let sink, emitting =
    match sink with None -> (Sink.null, false) | Some s -> (s, true)
  in
  make ~enabled:true ~clock ~sink ~emitting ~taps_on:taps

let enabled t = t.enabled
let emitting t = t.emitting
let taps_enabled t = t.enabled && t.taps_on
let now t = t.clock () -. t.started

let emit t span payload =
  let seq = Atomic.fetch_and_add t.seq 1 in
  Sink.emit t.sink { Event.seq; at = now t; span; payload }

(* --- counters ------------------------------------------------------------- *)

let add t c n =
  if t.enabled && n <> 0 then
    ignore (Atomic.fetch_and_add t.counts.(Counter.index c) n)

let incr t c = add t c 1
let get t c = Atomic.get t.counts.(Counter.index c)

(* Filled in place as an [int array]: about half the cost of
   [Array.map Atomic.get], and every supervised run takes one. *)
let snapshot t =
  let n = Array.length t.counts in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- Atomic.get t.counts.(i)
  done;
  a

let fold_counts ~into ?since t =
  if into.enabled then
    Array.iteri
      (fun i cell ->
        let d =
          match since with
          | None -> Atomic.get cell
          | Some base -> Atomic.get cell - base.(i)
        in
        if d <> 0 then ignore (Atomic.fetch_and_add into.counts.(i) d))
      t.counts

let counts t =
  List.filter_map
    (fun c ->
      let v = get t c in
      if v = 0 then None else Some (c, v))
    Counter.all

(* Zero every counter and drop taps and gauges, keeping the trace's
   clock, sink and tap setting.  Only its owner may call this, with no
   run recording through it. *)
let reset t =
  if t.enabled then begin
    Array.iter (fun cell -> Atomic.set cell 0) t.counts;
    Atomic.set t.seq 0;
    Atomic.set t.span_ids 0;
    Atomic.set t.current_span None;
    if Hashtbl.length t.taps > 0 then Hashtbl.reset t.taps;
    if Hashtbl.length t.gauges > 0 then Hashtbl.reset t.gauges
  end

(* --- spans ---------------------------------------------------------------- *)

let span t name f =
  if not (t.enabled && t.emitting) then f ()
  else begin
    let id = Atomic.fetch_and_add t.span_ids 1 in
    let parent = Atomic.get t.current_span in
    let t0 = now t in
    emit t parent (Event.Span_begin { name });
    Atomic.set t.current_span (Some id);
    let finish () =
      Atomic.set t.current_span parent;
      emit t (Some id) (Event.Span_end { name; elapsed = now t -. t0 })
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* --- gauges --------------------------------------------------------------- *)

let gauge t name value =
  if t.enabled then begin
    Mutex.lock t.mu;
    Hashtbl.replace t.gauges name value;
    Mutex.unlock t.mu;
    if t.emitting then
      emit t (Atomic.get t.current_span) (Event.Gauge { name; value })
  end

let gauges t =
  Mutex.lock t.mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.gauges [] in
  Mutex.unlock t.mu;
  List.sort compare l

(* --- operator taps -------------------------------------------------------- *)

let tap t ~pid ~op ~rows =
  if taps_enabled t then begin
    Mutex.lock t.mu;
    (match Hashtbl.find_opt t.taps pid with
    | Some cell ->
      cell.rows <- cell.rows + rows;
      cell.batches <- cell.batches + 1
    | None -> Hashtbl.add t.taps pid { op; rows; batches = 1 });
    Mutex.unlock t.mu
  end

let tap_rows t pid =
  if not t.enabled then None
  else begin
    Mutex.lock t.mu;
    let r = Hashtbl.find_opt t.taps pid in
    Mutex.unlock t.mu;
    Option.map (fun cell -> cell.rows) r
  end

let taps t =
  Mutex.lock t.mu;
  let l =
    Hashtbl.fold
      (fun pid cell acc -> (pid, cell.op, cell.rows, cell.batches) :: acc)
      t.taps []
  in
  Mutex.unlock t.mu;
  List.sort compare l

(* --- flush ----------------------------------------------------------------- *)

(* Counter and tap totals are emitted here, once, rather than per
   increment: the per-tuple path must stay one atomic add, and trace
   files must stay bounded by the number of counters, not the number of
   tuples. *)
let flush t =
  if t.enabled && t.emitting then begin
    List.iter
      (fun (c, total) ->
        emit t None (Event.Count { counter = c; delta = total; total }))
      (counts t);
    List.iter
      (fun (pid, op, rows, batches) ->
        emit t None (Event.Tap { pid; op; rows; batches }))
      (taps t)
  end;
  Sink.flush t.sink
