(* The interval domain: arithmetic, the partial order, and the
   choose-plan minimum combination. *)

module I = Dqep.Interval

let check = Alcotest.check (Alcotest.float 0.)
let near = Alcotest.check (Alcotest.float 1e-9)

let test_make_validates () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (I.make 2. 1.));
  Alcotest.check_raises "negative"
    (Invalid_argument "Interval.make: negative lower bound") (fun () ->
      ignore (I.make (-1.) 1.));
  Alcotest.check_raises "nan" (Invalid_argument "Interval.make: NaN bound")
    (fun () -> ignore (I.make Float.nan 1.))

let test_point () =
  let p = I.point 3. in
  Alcotest.(check bool) "is_point" true (I.is_point p);
  check "lo" 3. p.I.lo;
  check "hi" 3. p.I.hi;
  near "width" 0. (I.width p);
  near "mid" 3. (I.mid p)

let test_add () =
  let a = I.make 1. 2. and b = I.make 10. 20. in
  let s = I.add a b in
  check "lo" 11. s.I.lo;
  check "hi" 22. s.I.hi

let test_combine_min () =
  (* The paper's example: [0,10] and [1,1] combine to [0,1] (+ overhead,
     added elsewhere). *)
  let c = I.combine_min (I.make 0. 10.) (I.point 1.) in
  check "lo" 0. c.I.lo;
  check "hi" 1. c.I.hi

let test_compare () =
  let cmp = I.compare_cost in
  Alcotest.(check bool) "Lt" true (cmp (I.make 1. 2.) (I.make 3. 4.) = I.Lt);
  Alcotest.(check bool) "Gt" true (cmp (I.make 3. 4.) (I.make 1. 2.) = I.Gt);
  Alcotest.(check bool) "Eq points" true (cmp (I.point 2.) (I.point 2.) = I.Eq);
  Alcotest.(check bool) "overlap" true
    (cmp (I.make 1. 3.) (I.make 2. 4.) = I.Incomparable);
  (* Equal non-point intervals cannot be declared equal: the actual costs
     may differ. *)
  Alcotest.(check bool) "equal intervals incomparable" true
    (cmp (I.make 1. 3.) (I.make 1. 3.) = I.Incomparable);
  (* Touching intervals may be equal at the boundary. *)
  Alcotest.(check bool) "touching incomparable" true
    (cmp (I.make 1. 2.) (I.make 2. 3.) = I.Incomparable)

let test_mul () =
  let m = I.mul (I.make 2. 3.) (I.make 4. 5.) in
  check "mul lo" 8. m.I.lo;
  check "mul hi" 15. m.I.hi

let test_union_contains_clamp () =
  let u = I.union (I.make 1. 2.) (I.make 5. 6.) in
  check "union lo" 1. u.I.lo;
  check "union hi" 6. u.I.hi;
  Alcotest.(check bool) "contains" true (I.contains u 3.);
  near "clamp low" 1. (I.clamp u 0.);
  near "clamp high" 6. (I.clamp u 9.);
  near "clamp inside" 3. (I.clamp u 3.)

let test_refine () =
  (* Overlap: intersection. *)
  let r = I.refine (I.make 1. 10.) (I.make 2. 5.) in
  check "overlap lo" 2. r.I.lo;
  check "overlap hi" 5. r.I.hi;
  (* Partial overlap clips to the prior. *)
  let r = I.refine (I.make 1. 10.) (I.make 0. 3.) in
  check "clip lo" 1. r.I.lo;
  check "clip hi" 3. r.I.hi;
  (* Disjoint: the nearest prior bound, as a point — evidence never
     steps outside the contract the plan costs were derived under. *)
  let r = I.refine (I.make 1. 10.) (I.make 20. 30.) in
  check "disjoint above lo" 10. r.I.lo;
  check "disjoint above hi" 10. r.I.hi;
  let r = I.refine (I.make 5. 10.) (I.make 0. 2.) in
  check "disjoint below" 5. r.I.lo;
  Alcotest.(check bool) "disjoint below is point" true (I.is_point r)

(* --- properties ---------------------------------------------------------- *)

let interval_gen =
  QCheck.Gen.(
    map2
      (fun a b -> I.make (Float.min a b) (Float.max a b))
      (float_bound_inclusive 1000.) (float_bound_inclusive 1000.))

let arb_interval =
  QCheck.make ~print:(fun i -> I.to_string i) interval_gen

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      match (I.compare_cost a b, I.compare_cost b a) with
      | I.Lt, I.Gt | I.Gt, I.Lt | I.Eq, I.Eq | I.Incomparable, I.Incomparable ->
        true
      | _ -> false)

let prop_add_monotone =
  QCheck.Test.make ~name:"add preserves domination" ~count:500
    (QCheck.triple arb_interval arb_interval arb_interval) (fun (a, b, c) ->
      match I.compare_cost a b with
      | I.Lt -> I.compare_cost (I.add a c) (I.add b c) <> I.Gt
      | _ -> true)

let prop_combine_min_bounds =
  QCheck.Test.make ~name:"combine_min within both alternatives" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      let c = I.combine_min a b in
      c.I.lo = Float.min a.I.lo b.I.lo && c.I.hi = Float.min a.I.hi b.I.hi)

(* The three documented laws of Interval.refine — the contract the
   feedback re-optimization loop leans on. *)

let prop_refine_never_widens =
  QCheck.Test.make ~name:"refine never widens the prior" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (p, o) ->
      let r = I.refine p o in
      r.I.lo >= p.I.lo && r.I.hi <= p.I.hi)

let prop_refine_within_prior =
  QCheck.Test.make ~name:"refine stays a sub-interval of the prior"
    ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (p, o) ->
      let r = I.refine p o in
      r.I.lo <= r.I.hi && I.contains p r.I.lo && I.contains p r.I.hi)

let prop_refine_monotone =
  QCheck.Test.make ~name:"refine monotone under repeated observation"
    ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (p, o) ->
      let once = I.refine p o in
      let twice = I.refine once o in
      twice.I.lo = once.I.lo && twice.I.hi = once.I.hi)

let prop_union_contains =
  QCheck.Test.make ~name:"union contains operands" ~count:500
    (QCheck.pair arb_interval arb_interval) (fun (a, b) ->
      let u = I.union a b in
      u.I.lo <= a.I.lo && u.I.hi >= a.I.hi && u.I.lo <= b.I.lo && u.I.hi >= b.I.hi)

let suite =
  ( "interval",
    [ Alcotest.test_case "make validates" `Quick test_make_validates;
      Alcotest.test_case "point" `Quick test_point;
      Alcotest.test_case "add" `Quick test_add;
      Alcotest.test_case "combine_min (choose-plan)" `Quick test_combine_min;
      Alcotest.test_case "partial order" `Quick test_compare;
      Alcotest.test_case "mul" `Quick test_mul;
      Alcotest.test_case "union, contains, clamp" `Quick test_union_contains_clamp;
      Alcotest.test_case "refine (observation narrowing)" `Quick test_refine;
      QCheck_alcotest.to_alcotest prop_refine_never_widens;
      QCheck_alcotest.to_alcotest prop_refine_within_prior;
      QCheck_alcotest.to_alcotest prop_refine_monotone;
      QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
      QCheck_alcotest.to_alcotest prop_add_monotone;
      QCheck_alcotest.to_alcotest prop_combine_min_bounds;
      QCheck_alcotest.to_alcotest prop_union_contains ] )
