module Interval = Dqep_util.Interval

(* Small discrete distributions: weighted support points kept sorted by
   value, weights normalized to sum 1, at most [max_buckets] points.
   The convex hull of the support is the interval the rest of the system
   reasons with; every operation preserves the exact hull endpoints, so
   interval mode is literally the degenerate two-point case. *)

let max_buckets = 8

type t = { xs : float array; ws : float array }

let support d = Array.to_list (Array.mapi (fun i x -> (x, d.ws.(i))) d.xs)
let buckets d = Array.length d.xs

let hull d = Interval.make d.xs.(0) d.xs.(Array.length d.xs - 1)
let is_point d = Array.length d.xs = 1

(* Merge the closest adjacent interior pair until the support fits.
   A pair touching an endpoint collapses onto the endpoint's value
   (absorbing the neighbour's weight) rather than averaging, so the
   hull — the contract with the interval world — never moves. *)
let compact xs ws =
  let xs = ref xs and ws = ref ws in
  while Array.length !xs > max_buckets do
    let n = Array.length !xs in
    let best = ref 0 and best_gap = ref infinity in
    for i = 0 to n - 2 do
      let gap = !xs.(i + 1) -. !xs.(i) in
      if gap < !best_gap then begin
        best_gap := gap;
        best := i
      end
    done;
    let i = !best in
    let w = !ws.(i) +. !ws.(i + 1) in
    let x =
      if i = 0 then !xs.(0)
      else if i + 1 = n - 1 then !xs.(n - 1)
      else ((!xs.(i) *. !ws.(i)) +. (!xs.(i + 1) *. !ws.(i + 1))) /. w
    in
    let nxs = Array.make (n - 1) 0. and nws = Array.make (n - 1) 0. in
    for j = 0 to i - 1 do
      nxs.(j) <- !xs.(j);
      nws.(j) <- !ws.(j)
    done;
    nxs.(i) <- x;
    nws.(i) <- w;
    for j = i + 2 to n - 1 do
      nxs.(j - 1) <- !xs.(j);
      nws.(j - 1) <- !ws.(j)
    done;
    xs := nxs;
    ws := nws
  done;
  (!xs, !ws)

let make points =
  (match points with [] -> invalid_arg "Dist.make: empty support" | _ -> ());
  List.iter
    (fun (x, w) ->
      if Float.is_nan x || Float.is_nan w then invalid_arg "Dist.make: NaN";
      if x < 0. then invalid_arg "Dist.make: negative support point";
      if w < 0. then invalid_arg "Dist.make: negative weight")
    points;
  let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. points in
  if total <= 0. then invalid_arg "Dist.make: zero total weight";
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) points in
  (* Coalesce duplicate support values, normalize weights. *)
  let merged =
    List.fold_left
      (fun acc (x, w) ->
        match acc with
        | (px, pw) :: rest when px = x -> (px, pw +. w) :: rest
        | _ -> (x, w) :: acc)
      [] sorted
    |> List.rev
  in
  let xs = Array.of_list (List.map fst merged) in
  let ws = Array.of_list (List.map (fun (_, w) -> w /. total) merged) in
  let xs, ws = compact xs ws in
  { xs; ws }

let point v = make [ (v, 1.) ]

let of_interval (i : Interval.t) =
  if Interval.is_point i then point i.Interval.lo
  else make [ (i.Interval.lo, 0.5); (i.Interval.hi, 0.5) ]

let mean d =
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. (x *. d.ws.(i))) d.xs;
  !acc

(* Interpolated inverse CDF (midpoint rule): support point [i] sits at
   cumulative level [W_i - w_i/2]; between points the quantile is linear,
   and it clamps to the exact endpoints outside — so [quantile d 0.] is
   the hull's lower bound and [quantile d 1.] its upper bound, exactly. *)
let quantile d q =
  if Float.is_nan q then invalid_arg "Dist.quantile: NaN level";
  let q = Float.max 0. (Float.min 1. q) in
  let n = Array.length d.xs in
  if n = 1 then d.xs.(0)
  else begin
    let levels = Array.make n 0. in
    let cum = ref 0. in
    for i = 0 to n - 1 do
      levels.(i) <- !cum +. (d.ws.(i) /. 2.);
      cum := !cum +. d.ws.(i)
    done;
    if q <= levels.(0) then d.xs.(0)
    else if q >= levels.(n - 1) then d.xs.(n - 1)
    else begin
      let i = ref 0 in
      while q > levels.(!i + 1) do incr i done;
      let l0 = levels.(!i) and l1 = levels.(!i + 1) in
      let frac = if l1 > l0 then (q -. l0) /. (l1 -. l0) else 0. in
      d.xs.(!i) +. (frac *. (d.xs.(!i + 1) -. d.xs.(!i)))
    end
  end

(* The scenario grid: [levels] equally weighted quantile levels
   j/(levels-1).  The two extreme levels are the exact hull endpoints,
   so any monotone function evaluated over the grid has the same hull
   as its interval-arithmetic image — the embedding the refactor rests
   on. *)
let default_levels = max_buckets

let scenario_levels ?(levels = default_levels) () =
  if levels < 2 then invalid_arg "Dist.scenario_levels: levels < 2";
  List.init levels (fun j -> float_of_int j /. float_of_int (levels - 1))

(* Refinement mirrors [Interval.refine] on the hull and reshapes the
   support from the observation, clamped into the refined hull.  The
   endpoint analysis: when the observation overlaps the prior the
   refined hull's endpoints are themselves clamped observation points,
   so the result's hull is exactly [Interval.refine (hull prior)
   (hull obs)] — never wider, never outside the prior. *)
let refine prior obs =
  let h = Interval.refine (hull prior) (hull obs) in
  make (List.map (fun (x, w) -> (Interval.clamp h x, w)) (support obs))

let pp ppf d =
  if is_point d then Format.fprintf ppf "%.4g" d.xs.(0)
  else begin
    Format.fprintf ppf "{";
    Array.iteri
      (fun i x ->
        if i > 0 then Format.fprintf ppf ", ";
        Format.fprintf ppf "%.4g:%.3g" x d.ws.(i))
      d.xs;
    Format.fprintf ppf "}"
  end

let to_string d = Format.asprintf "%a" pp d
