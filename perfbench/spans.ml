(* The benchmark's span recorder.

   Every span is one call into a layer's public function made by the
   traced mirror: its layer, start and end (milliseconds on the
   monotonic clock), its parent span and the request it served.  Spans
   stay in memory and are written out once, at the end of the run.  A
   layer's self time is a span's duration minus the part its child
   spans cover; the per-layer totals accumulate as spans close. *)

type layer =
  | Request  (** the whole request; its self time is unattributed *)
  | Protocol
  | Sql
  | Plan_cache
  | Optimizer
  | Verify
  | Startup
  | Executor
  | Feedback

let layers =
  [ Request; Protocol; Sql; Plan_cache; Optimizer; Verify; Startup; Executor;
    Feedback ]

let index = function
  | Request -> 0
  | Protocol -> 1
  | Sql -> 2
  | Plan_cache -> 3
  | Optimizer -> 4
  | Verify -> 5
  | Startup -> 6
  | Executor -> 7
  | Feedback -> 8

let name = function
  | Request -> "request"
  | Protocol -> "protocol"
  | Sql -> "sql"
  | Plan_cache -> "plan_cache"
  | Optimizer -> "optimizer"
  | Verify -> "verify"
  | Startup -> "startup"
  | Executor -> "executor"
  | Feedback -> "feedback"

let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

type t = {
  mutable len : int;
  mutable layer : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable req : int array;
  self_ms : float array;  (** per layer, summed over every closed span *)
  calls : int array;
  mutable open_ : (int * float ref) list;  (** open span, time in children *)
  mutable request : int;
}

let create () =
  let cap = 1024 in
  { len = 0; layer = Array.make cap 0; start = Array.make cap 0.;
    stop = Array.make cap 0.; parent = Array.make cap 0; req = Array.make cap 0;
    self_ms = Array.make (List.length layers) 0.;
    calls = Array.make (List.length layers) 0; open_ = []; request = 0 }

let grow t =
  let cap = 2 * Array.length t.layer in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.layer <- extend t.layer 0;
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.parent <- extend t.parent 0;
  t.req <- extend t.req 0

let set_request t id = t.request <- id

let span t layer f =
  if t.len = Array.length t.layer then grow t;
  let i = t.len in
  t.len <- i + 1;
  let l = index layer in
  t.layer.(i) <- l;
  t.parent.(i) <- (match t.open_ with (p, _) :: _ -> p | [] -> -1);
  t.req.(i) <- t.request;
  let children = ref 0. in
  t.open_ <- (i, children) :: t.open_;
  let t0 = now_ms () in
  let close () =
    let t1 = now_ms () in
    t.open_ <- List.tl t.open_;
    let d = t1 -. t0 in
    (match t.open_ with (_, c) :: _ -> c := !c +. d | [] -> ());
    t.self_ms.(l) <- t.self_ms.(l) +. d -. !children;
    t.calls.(l) <- t.calls.(l) + 1;
    t.start.(i) <- t0;
    t.stop.(i) <- t1
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let self_ms t layer = t.self_ms.(index layer)
let calls t layer = t.calls.(index layer)

(* Total wall time of every traced request: the self times of all
   layers, the root's included, add up to the root spans' durations. *)
let request_ms t = Array.fold_left ( +. ) 0. t.self_ms

let write t path =
  let names = Array.of_list (List.map name layers) in
  let oc = open_out path in
  output_string oc "span\tlayer\tstart_ms\tend_ms\tparent\trequest\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\n" i names.(t.layer.(i))
      t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
  done;
  close_out oc
