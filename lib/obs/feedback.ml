(* The observation cache: per-session (and, in the server, per-shape)
   running histograms of realized parameter selectivities, and of
   operator cardinalities for callers that file them.  Every completed
   run writes here; the readers ([selectivity_dists],
   [selectivity_band]) run only when a plan is optimized. *)

module Interval = Dqep_util.Interval
module Dist = Dqep_cost.Dist

(* A histogram: the exact [lo, hi] envelope every prior consumer relies
   on, plus at most [Dist.max_buckets] (value, count) buckets recording
   where inside the envelope the observations actually fell.  Buckets
   are sorted by value and the extreme ones always sit exactly at [lo]
   and [hi] (overflow merges absorb into the endpoints, mirroring
   [Dist.compact]), so the histogram's hull IS the band.

   Every completed run files each of its bindings here, so an
   observation updates the histogram in place: buckets live in fixed
   arrays of [Dist.max_buckets + 1] slots (the extra one holds a new
   value until the merge), and [lo]/[hi] in a float array, so filing an
   observation allocates nothing. *)
type band = {
  bounds : float array;  (* [| lo; hi |] *)
  values : float array;
  counts : int array;
  mutable len : int;  (* buckets in use *)
  mutable n : int;
}

let slots = Dist.max_buckets + 1

type t = {
  mu : Mutex.t;
  selectivities : (string, band) Hashtbl.t;
  cardinalities : (string, band) Hashtbl.t;
}

let create () =
  {
    mu = Mutex.create ();
    selectivities = Hashtbl.create 7;
    cardinalities = Hashtbl.create 7;
  }

let new_band v =
  let b =
    { bounds = [| v; v |]; values = Array.make slots v;
      counts = Array.make slots 0; len = 1; n = 1 }
  in
  b.counts.(0) <- 1;
  b

(* Count [v] into its bucket, or open a bucket for it in value order. *)
let insert_bucket b (v : float) =
  let vs = b.values and cs = b.counts in
  let i = ref 0 in
  while !i < b.len && v > vs.(!i) do
    incr i
  done;
  let i = !i in
  if i < b.len && v = vs.(i) then cs.(i) <- cs.(i) + 1
  else begin
    for j = b.len downto i + 1 do
      vs.(j) <- vs.(j - 1);
      cs.(j) <- cs.(j - 1)
    done;
    vs.(i) <- v;
    cs.(i) <- 1;
    b.len <- b.len + 1
  end

(* Merge the closest adjacent pair (the first, on ties); a pair touching
   an end collapses onto the endpoint's value so the extremes never
   move. *)
let compact_buckets b =
  if b.len > Dist.max_buckets then begin
    let vs = b.values and cs = b.counts in
    let best = ref 0 and best_gap = ref infinity in
    for i = 0 to b.len - 2 do
      let gap = vs.(i + 1) -. vs.(i) in
      if gap < !best_gap then begin
        best := i;
        best_gap := gap
      end
    done;
    let i = !best and last = b.len - 2 in
    let v0 = vs.(i) and c0 = cs.(i) and v1 = vs.(i + 1) and c1 = cs.(i + 1) in
    vs.(i) <-
      (if i = 0 then v0
       else if i = last then v1
       else
         ((v0 *. float_of_int c0) +. (v1 *. float_of_int c1))
         /. float_of_int (c0 + c1));
    cs.(i) <- c0 + c1;
    for j = i + 1 to b.len - 2 do
      vs.(j) <- vs.(j + 1);
      cs.(j) <- cs.(j + 1)
    done;
    b.len <- b.len - 1
  end

(* The bounds move as [Float.min]/[Float.max] would move them (NaN never
   gets here; -0. is below 0.), without boxing a float. *)
let observe_band table key v =
  if not (Float.is_nan v) && v >= 0. then
    match Hashtbl.find table key with
    | b ->
      let lo = b.bounds.(0) and hi = b.bounds.(1) in
      if v < lo || (v = lo && Float.sign_bit v) then b.bounds.(0) <- v;
      if v > hi || (v = hi && not (Float.sign_bit v)) then b.bounds.(1) <- v;
      b.n <- b.n + 1;
      insert_bucket b v;
      compact_buckets b
    | exception Not_found -> Hashtbl.add table key (new_band v)

let locked t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

(* The two writers lock by hand rather than through [locked]: a closure
   per observation is most of what filing one would allocate. *)
let observe_selectivity t var v =
  Mutex.lock t.mu;
  observe_band t.selectivities var v;
  Mutex.unlock t.mu

let observe_selectivities t bindings =
  Mutex.lock t.mu;
  let rec file = function
    | [] -> ()
    | (var, v) :: rest ->
      observe_band t.selectivities var v;
      file rest
  in
  file bindings;
  Mutex.unlock t.mu

let observe_rows t ~key rows =
  Mutex.lock t.mu;
  observe_band t.cardinalities key (float_of_int rows);
  Mutex.unlock t.mu

let band_of table key =
  Option.map
    (fun b -> Interval.make b.bounds.(0) b.bounds.(1))
    (Hashtbl.find_opt table key)

let dist_of_band b =
  Dist.make
    (List.init b.len (fun i -> (b.values.(i), float_of_int b.counts.(i))))

let selectivity_band t var = locked t (fun () -> band_of t.selectivities var)

let selectivity_dists t =
  locked t (fun () ->
      Hashtbl.fold (fun k b acc -> (k, dist_of_band b) :: acc) t.selectivities []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let observations t =
  locked t (fun () ->
      let tally table =
        Hashtbl.fold (fun _ b acc -> acc + b.n) table 0
      in
      tally t.selectivities + tally t.cardinalities)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.selectivities;
      Hashtbl.reset t.cardinalities)
