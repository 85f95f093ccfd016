type t = { lo : float; hi : float }

let make lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo < 0. then invalid_arg "Interval.make: negative lower bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let point v = make v v
let unchecked ~lo ~hi = { lo; hi }

let is_valid a =
  (not (Float.is_nan a.lo)) && (not (Float.is_nan a.hi)) && a.lo >= 0.
  && a.lo <= a.hi

let zero = { lo = 0.; hi = 0. }
let is_point a = a.lo = a.hi
let width a = a.hi -. a.lo
let mid a = (a.lo +. a.hi) /. 2.
let add a b = { lo = a.lo +. b.lo; hi = a.hi +. b.hi }

let mul a b = { lo = a.lo *. b.lo; hi = a.hi *. b.hi }

let combine_min a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let union a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let refine prior obs =
  (* Intersect with the prior; an observation disjoint from the prior
     collapses to the nearest prior bound.  The result is always a valid
     sub-interval of [prior], so refinement can never widen a bound and
     repeated refinement is monotone. *)
  let lo = Float.max prior.lo (Float.min prior.hi obs.lo) in
  let hi = Float.min prior.hi (Float.max prior.lo obs.hi) in
  if lo <= hi then { lo; hi }
  else
    (* obs sits entirely outside prior: snap to the violated edge. *)
    let v = if obs.hi < prior.lo then prior.lo else prior.hi in
    { lo = v; hi = v }

let contains a v = a.lo <= v && v <= a.hi

type order = Lt | Gt | Eq | Incomparable

let compare_cost a b =
  if a.lo = b.lo && a.hi = b.hi && is_point a then Eq
  else if a.hi < b.lo then Lt
  else if b.hi < a.lo then Gt
  else Incomparable

let equal a b = a.lo = b.lo && a.hi = b.hi

let pp ppf a =
  if is_point a then Format.fprintf ppf "%.4g" a.lo
  else Format.fprintf ppf "[%.4g, %.4g]" a.lo a.hi

let to_string a = Format.asprintf "%a" pp a
