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

let rec insert_bucket (v : float) = function
  | [] -> [ (v, 1) ]
  | (bv, c) :: rest ->
    if v = bv then (bv, c + 1) :: rest
    else if v < bv then (v, 1) :: (bv, c) :: rest
    else (bv, c) :: insert_bucket v rest

(* Merge the closest adjacent pair (the first, on ties); a pair touching
   an end of the list collapses onto the endpoint's value so the extremes
   never move. *)
let compact_buckets buckets =
  if List.compare_length_with buckets Dist.max_buckets <= 0 then buckets
  else begin
    let rec closest i best best_gap = function
      | ((v0 : float), _) :: ((v1, _) :: _ as rest) ->
        let gap = v1 -. v0 in
        if gap < best_gap then closest (i + 1) i gap rest
        else closest (i + 1) best best_gap rest
      | [ _ ] | [] -> best
    in
    let best = closest 0 0 infinity buckets in
    let last = List.length buckets - 2 in
    let rec merge i = function
      | (v0, c0) :: (v1, c1) :: rest when i = best ->
        let merged =
          if i = 0 then (v0, c0 + c1)
          else if i = last then (v1, c0 + c1)
          else
            ( ((v0 *. float_of_int c0) +. (v1 *. float_of_int c1))
              /. float_of_int (c0 + c1),
              c0 + c1 )
        in
        merged :: rest
      | b :: rest -> b :: merge (i + 1) rest
      | [] -> []
    in
    merge 0 buckets
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
