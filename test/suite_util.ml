(* PRNG determinism and summary statistics. *)

module Rng = Dqep.Rng
module Stats = Dqep.Stats

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let prop_float_range =
  QCheck.Test.make ~name:"float in [0,1)" ~count:1000 QCheck.small_nat (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng in
      v >= 0. && v < 1.)

let prop_int_range =
  QCheck.Test.make ~name:"int in [0,bound)" ~count:1000
    (QCheck.pair QCheck.small_nat (QCheck.int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_int_range_inclusive =
  QCheck.Test.make ~name:"int_range inclusive" ~count:1000
    (QCheck.pair QCheck.small_nat (QCheck.pair (QCheck.int_range 0 100) (QCheck.int_range 0 100)))
    (fun (seed, (a, b)) ->
      let lo = Int.min a b and hi = Int.max a b in
      let rng = Rng.create seed in
      let v = Rng.int_range rng lo hi in
      v >= lo && v <= hi)

let test_rng_uniformity () =
  (* Coarse sanity: mean of many uniforms is near 0.5. *)
  let rng = Rng.create 99 in
  let n = 10_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Alcotest.(check bool) "same multiset" true
    (List.sort compare (Array.to_list b) = Array.to_list a)

let near = Alcotest.check (Alcotest.float 1e-9)

let test_stats () =
  near "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  near "mean empty" 0. (Stats.mean []);
  near "sum" 6. (Stats.sum [ 1.; 2.; 3. ]);
  near "stddev" (sqrt (2. /. 3.)) (Stats.stddev [ 1.; 2.; 3. ]);
  near "stddev single" 0. (Stats.stddev [ 5. ]);
  let lo, hi = Stats.min_max [ 3.; 1.; 2. ] in
  near "min" 1. lo;
  near "max" 3. hi;
  near "p50" 2. (Stats.percentile 50. [ 1.; 2.; 3. ]);
  near "p100" 3. (Stats.percentile 100. [ 1.; 2.; 3. ]);
  near "geomean" 2. (Stats.geometric_mean [ 1.; 2.; 4. ]);
  Alcotest.check_raises "empty min_max" (Invalid_argument "Stats.min_max: empty list")
    (fun () -> ignore (Stats.min_max []))

(* The documented nearest-rank edge cases: a single sample answers every
   p, ties are returned verbatim (never interpolated), p = 100 is the
   maximum, and the input need not be pre-sorted. *)
let test_percentile_edges () =
  near "n=1 p0" 5. (Stats.percentile 0. [ 5. ]);
  near "n=1 p37" 5. (Stats.percentile 37. [ 5. ]);
  near "n=1 p100" 5. (Stats.percentile 100. [ 5. ]);
  let ties = [ 1.; 2.; 2.; 2.; 3. ] in
  near "ties p25" 2. (Stats.percentile 25. ties);
  near "ties p50" 2. (Stats.percentile 50. ties);
  near "ties p75" 2. (Stats.percentile 75. ties);
  near "ties p100" 3. (Stats.percentile 100. ties);
  near "unsorted p50" 2. (Stats.percentile 50. [ 3.; 1.; 2. ]);
  near "p0 is min" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
  (* rank = ceil(90/100 * 4) = 4 on four samples: nearest rank, not
     interpolation, so p90 of [1..4] is 4. *)
  near "p90 of four" 4. (Stats.percentile 90. [ 1.; 2.; 3.; 4. ]);
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 50. []));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile 101. [ 1. ]))

let prop_percentile_is_sample =
  QCheck.Test.make ~name:"percentile returns an actual sample" ~count:500
    (QCheck.pair
       (QCheck.list_of_size QCheck.Gen.(int_range 1 20) (QCheck.float_bound_inclusive 100.))
       (QCheck.float_bound_inclusive 100.))
    (fun (xs, p) ->
      match xs with
      | [] -> true
      | _ -> List.exists (fun x -> x = Stats.percentile p xs) xs)

let test_timer () =
  let (), t = Dqep.Timer.cpu (fun () -> ()) in
  Alcotest.(check bool) "non-negative" true (t >= 0.);
  let v, per = Dqep.Timer.cpu_auto ~min_seconds:0.001 (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 v;
  Alcotest.(check bool) "per-run non-negative" true (per >= 0.)

(* Two key pairs hashing to one set both stay; a third evicts the pair
   used least recently, and a stored pair's own entry is overwritten in
   place. *)
let test_weak_memo_two_ways () =
  let module M = Dqep_util.Weak_memo in
  let t = M.create 4 in
  let a = ref 1 and b = ref 2 and c = ref 3 and k = ref 0 in
  let find x = M.find t ~hash:1 x k in
  M.replace t ~hash:1 a k "a";
  M.replace t ~hash:1 b k "b";
  Alcotest.(check (option string)) "first pair kept" (Some "a") (find a);
  Alcotest.(check (option string)) "second pair kept" (Some "b") (find b);
  Alcotest.(check (option string)) "other set empty" None (M.find t ~hash:0 a k);
  ignore (find a);
  M.replace t ~hash:1 c k "c";
  Alcotest.(check (option string)) "recently used pair kept" (Some "a") (find a);
  Alcotest.(check (option string)) "least recently used pair evicted" None (find b);
  M.replace t ~hash:1 c k "c'";
  Alcotest.(check (option string)) "own entry overwritten" (Some "c'") (find c);
  Alcotest.(check (option string)) "its neighbour untouched" (Some "a") (find a);
  Alcotest.(check (option string)) "keys match physically" None
    (M.find t ~hash:1 (ref 1) k)

let suite =
  ( "util",
    [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
      Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
      Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
      Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "percentile nearest-rank edges" `Quick
        test_percentile_edges;
      Alcotest.test_case "timer" `Quick test_timer;
      Alcotest.test_case "weak memo keeps two pairs per set" `Quick
        test_weak_memo_two_ways;
      QCheck_alcotest.to_alcotest prop_percentile_is_sample;
      QCheck_alcotest.to_alcotest prop_float_range;
      QCheck_alcotest.to_alcotest prop_int_range;
      QCheck_alcotest.to_alcotest prop_int_range_inclusive ] )
