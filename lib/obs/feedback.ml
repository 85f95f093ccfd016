module Interval = Dqep_util.Interval
module Dist = Dqep_cost.Dist

(* A histogram: the exact [lo, hi] envelope every prior consumer relies
   on, plus at most [Dist.max_buckets] (value, count) buckets recording
   where inside the envelope the observations actually fell.  The bucket
   list is sorted by value and its extreme buckets always sit exactly at
   [lo] and [hi] (overflow merges absorb into the endpoints, mirroring
   [Dist.compact]), so the histogram's hull IS the band. *)
type band = {
  mutable lo : float;
  mutable hi : float;
  mutable n : int;
  mutable buckets : (float * int) list;
}

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

let rec insert_bucket v = function
  | [] -> [ (v, 1) ]
  | (bv, c) :: rest ->
    if v = bv then (bv, c + 1) :: rest
    else if v < bv then (v, 1) :: (bv, c) :: rest
    else (bv, c) :: insert_bucket v rest

(* Merge the closest adjacent pair; a pair touching an end of the list
   collapses onto the endpoint's value so the extremes never move. *)
let compact_buckets buckets =
  let arr = Array.of_list buckets in
  let n = Array.length arr in
  if n <= Dist.max_buckets then buckets
  else begin
    let best = ref 0 and best_gap = ref infinity in
    for i = 0 to n - 2 do
      let gap = fst arr.(i + 1) -. fst arr.(i) in
      if gap < !best_gap then begin
        best_gap := gap;
        best := i
      end
    done;
    let i = !best in
    let v0, c0 = arr.(i) and v1, c1 = arr.(i + 1) in
    let merged =
      if i = 0 then (v0, c0 + c1)
      else if i + 1 = n - 1 then (v1, c0 + c1)
      else
        ( ((v0 *. float_of_int c0) +. (v1 *. float_of_int c1))
          /. float_of_int (c0 + c1),
          c0 + c1 )
    in
    List.concat
      [ Array.to_list (Array.sub arr 0 i);
        [ merged ];
        Array.to_list (Array.sub arr (i + 2) (n - i - 2)) ]
  end

let observe_band table key v =
  if not (Float.is_nan v) && v >= 0. then
    match Hashtbl.find_opt table key with
    | Some b ->
      b.lo <- Float.min b.lo v;
      b.hi <- Float.max b.hi v;
      b.n <- b.n + 1;
      b.buckets <- compact_buckets (insert_bucket v b.buckets)
    | None -> Hashtbl.add table key { lo = v; hi = v; n = 1; buckets = [ (v, 1) ] }

let locked t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

let observe_selectivity t var v =
  locked t (fun () -> observe_band t.selectivities var v)

let observe_rows t ~key rows =
  locked t (fun () -> observe_band t.cardinalities key (float_of_int rows))

let band_of table key =
  Option.map
    (fun b -> Interval.make b.lo b.hi)
    (Hashtbl.find_opt table key)

let dist_of_band b =
  Dist.make (List.map (fun (v, c) -> (v, float_of_int c)) b.buckets)

let dist_of table key = Option.map dist_of_band (Hashtbl.find_opt table key)

let selectivity_band t var = locked t (fun () -> band_of t.selectivities var)
let rows_band t key = locked t (fun () -> band_of t.cardinalities key)

let selectivity_dist t var = locked t (fun () -> dist_of t.selectivities var)
let rows_dist t key = locked t (fun () -> dist_of t.cardinalities key)

let bands table =
  Hashtbl.fold (fun k b acc -> (k, Interval.make b.lo b.hi) :: acc) table []
  |> List.sort compare

let dists table =
  Hashtbl.fold (fun k b acc -> (k, dist_of_band b) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let selectivity_bounds t = locked t (fun () -> bands t.selectivities)
let cardinality_bounds t = locked t (fun () -> bands t.cardinalities)

let selectivity_dists t = locked t (fun () -> dists t.selectivities)

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

(* Cross-cache accumulation ([Plan_cache]'s eviction-surviving side
   table): fold every band of [src] into [dst], observation counts and
   bucket shapes included.  Bands only grow, so merging is commutative
   up to bucket compaction. *)
let absorb ~into src =
  let snapshot =
    locked src (fun () ->
        let dump table =
          Hashtbl.fold (fun k b acc -> (k, (b.lo, b.hi, b.n, b.buckets)) :: acc)
            table []
        in
        (dump src.selectivities, dump src.cardinalities))
  in
  let sels, cards = snapshot in
  locked into (fun () ->
      let file table (key, (lo, hi, n, buckets)) =
        match Hashtbl.find_opt table key with
        | None -> Hashtbl.add table key { lo; hi; n; buckets }
        | Some b ->
          b.lo <- Float.min b.lo lo;
          b.hi <- Float.max b.hi hi;
          b.n <- b.n + n;
          b.buckets <-
            List.fold_left
              (fun acc (v, c) ->
                let rec add = function
                  | [] -> [ (v, c) ]
                  | (bv, bc) :: rest ->
                    if v = bv then (bv, bc + c) :: rest
                    else if v < bv then (v, c) :: (bv, bc) :: rest
                    else (bv, bc) :: add rest
                in
                compact_buckets (add acc))
              b.buckets buckets
      in
      List.iter (file into.selectivities) sels;
      List.iter (file into.cardinalities) cards)
