(* The observation cache: per-session (and, in the server, per-shape)
   bands of realized parameter selectivities, and of
   operator cardinalities for callers that file them.  Every completed
   run writes here; the readers ([selectivity_dists],
   [selectivity_band]) run only when a plan is optimized. *)

module Interval = Dqep_util.Interval

(* A band: the exact [lo, hi] envelope of every value observed under a
   key, and how many values that was.  Every completed run files each of
   its bindings here, so the bounds live in a float array updated in
   place: filing an observation allocates nothing. *)
type band = {
  bounds : float array;  (* [| lo; hi |] *)
  mutable n : int;
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

let new_band v = { bounds = [| v; v |]; n = 1 }
let interval b = Interval.make b.bounds.(0) b.bounds.(1)

(* The bounds move as [Float.min]/[Float.max] would move them (NaN never
   gets here; -0. is below 0.), without boxing a float. *)
let observe_band table key v =
  if not (Float.is_nan v) && v >= 0. then
    match Hashtbl.find table key with
    | b ->
      let lo = b.bounds.(0) and hi = b.bounds.(1) in
      if v < lo || (v = lo && Float.sign_bit v) then b.bounds.(0) <- v;
      if v > hi || (v = hi && not (Float.sign_bit v)) then b.bounds.(1) <- v;
      b.n <- b.n + 1
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

let selectivity_band t var =
  locked t (fun () -> Option.map interval (Hashtbl.find_opt t.selectivities var))

let selectivity_dists t =
  locked t (fun () ->
      Hashtbl.fold (fun k b acc -> (k, interval b) :: acc) t.selectivities []
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
