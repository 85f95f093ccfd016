module Interval = Dqep_util.Interval

type t = Expected | Worst_case | Quantile of float

let default = Worst_case

let to_string = function
  | Expected -> "expected"
  | Worst_case -> "worst"
  | Quantile p -> Printf.sprintf "quantile:%g" p

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "expected" | "mean" -> Some Expected
  | "worst" | "worst_case" | "worst-case" -> Some Worst_case
  | s when String.length s > 9 && String.sub s 0 9 = "quantile:" -> (
    match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
    | Some p when p >= 0. && p <= 1. && not (Float.is_nan p) ->
      Some (Quantile p)
    | Some _ | None -> None)
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Interval scalarization.  Expected over the 2-point embedding of an
   interval is exactly its midpoint — the same scalarization Startup has
   always used to break ties inside choose-plan nodes, which is what
   makes Expected the compatible default for start-up resolution. *)
let scalarize_bounds t ~lo ~hi =
  match t with
  | Expected -> (lo +. hi) /. 2.
  | Worst_case -> hi
  | Quantile p -> lo +. (p *. (hi -. lo))

let scalarize t (i : Interval.t) =
  scalarize_bounds t ~lo:i.Interval.lo ~hi:i.Interval.hi

(* Aggregate per-scenario costs (equally weighted scenarios) into the
   policy's rank. *)
let aggregate t costs =
  match costs with
  | [||] -> invalid_arg "Risk.aggregate: no scenarios"
  | _ -> (
    match t with
    | Expected ->
      Array.fold_left ( +. ) 0. costs /. float_of_int (Array.length costs)
    | Worst_case -> Array.fold_left Float.max neg_infinity costs
    | Quantile p ->
      let sorted = Array.copy costs in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      if n = 1 then sorted.(0)
      else begin
        let pos = p *. float_of_int (n - 1) in
        let i = int_of_float (Float.of_int (n - 1) *. p) in
        let i = if i >= n - 1 then n - 2 else i in
        let frac = pos -. float_of_int i in
        sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
      end)
