(* The discrete-distribution uncertainty domain: embedding round-trips,
   compaction, quantile/mean laws and refinement narrowing.  These are
   the laws that make interval mode the degenerate 2-point case of
   distribution mode — every existing interval consumer keeps seeing
   exactly the bounds it saw before the refactor. *)

module D = Dqep
module I = D.Interval
module Dist = D.Dist

(* --- generators ----------------------------------------------------------- *)

let arb_interval =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" I.pp i)
    QCheck.Gen.(
      map
        (fun (a, b) -> I.make (Float.min a b) (Float.max a b))
        (pair (float_range 0. 1000.) (float_range 0. 1000.)))

let dist_gen =
  QCheck.Gen.(
    map Dist.make
      (list_size (int_range 1 12)
         (pair (float_range 0. 1000.) (float_range 0.01 1.))))

let arb_dist = QCheck.make ~print:Dist.to_string dist_gen

let level = QCheck.Gen.float_range 0. 1.

(* --- embedding ------------------------------------------------------------ *)

let prop_embedding_roundtrip =
  QCheck.Test.make ~name:"hull (of_interval i) = i exactly" ~count:500
    arb_interval (fun i -> I.equal (Dist.hull (Dist.of_interval i)) i)

let prop_embedding_mean_is_mid =
  QCheck.Test.make ~name:"mean of 2-point embedding = Interval.mid" ~count:500
    arb_interval (fun i -> Dist.mean (Dist.of_interval i) = I.mid i)

let test_point () =
  let d = Dist.point 42. in
  Alcotest.(check bool) "is_point" true (Dist.is_point d);
  Alcotest.(check (float 0.)) "mean" 42. (Dist.mean d);
  Alcotest.(check (float 0.)) "quantile" 42. (Dist.quantile d 0.5);
  Alcotest.(check bool) "hull degenerate" true
    (I.equal (Dist.hull d) (I.point 42.))

(* --- mean and quantiles --------------------------------------------------- *)

let prop_mean_in_hull =
  QCheck.Test.make ~name:"mean lies in the hull" ~count:500 arb_dist (fun d ->
      let h = Dist.hull d in
      let m = Dist.mean d in
      h.I.lo -. 1e-9 <= m && m <= h.I.hi +. 1e-9)

let prop_quantile_in_hull_and_monotone =
  QCheck.Test.make ~name:"quantile in hull, monotone in level" ~count:500
    QCheck.(triple arb_dist (QCheck.make level) (QCheck.make level))
    (fun (d, p, q) ->
      let p, q = (Float.min p q, Float.max p q) in
      let h = Dist.hull d in
      let vp = Dist.quantile d p and vq = Dist.quantile d q in
      h.I.lo <= vp && vp <= vq && vq <= h.I.hi)

let prop_quantile_extremes_exact =
  QCheck.Test.make ~name:"quantile 0/1 = exact hull endpoints" ~count:500
    arb_dist (fun d ->
      Dist.quantile d 0. = (Dist.hull d).I.lo
      && Dist.quantile d 1. = (Dist.hull d).I.hi)

(* --- compaction ----------------------------------------------------------- *)

let prop_compaction_bound_and_hull =
  QCheck.Test.make ~name:"make compacts to <= max_buckets, hull never moves"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 40)
           (pair (float_range 0. 1000.) (float_range 0.01 1.))))
    (fun points ->
      let d = Dist.make points in
      let lo = List.fold_left (fun a (v, _) -> Float.min a v) infinity points in
      let hi =
        List.fold_left (fun a (v, _) -> Float.max a v) neg_infinity points
      in
      Dist.buckets d <= Dist.max_buckets
      && I.equal (Dist.hull d) (I.make lo hi))

(* --- refinement ----------------------------------------------------------- *)

let prop_refine_hull_exact =
  QCheck.Test.make
    ~name:"hull (refine p o) = Interval.refine of the hulls exactly"
    ~count:500 (QCheck.pair arb_dist arb_dist) (fun (p, o) ->
      I.equal
        (Dist.hull (Dist.refine p o))
        (I.refine (Dist.hull p) (Dist.hull o)))

let prop_refine_never_widens =
  QCheck.Test.make ~name:"refine never leaves the prior hull" ~count:500
    (QCheck.pair arb_dist arb_dist) (fun (p, o) ->
      let hp = Dist.hull p and hr = Dist.hull (Dist.refine p o) in
      hp.I.lo <= hr.I.lo && hr.I.hi <= hp.I.hi)

(* --- scenario grid -------------------------------------------------------- *)

let test_scenario_levels () =
  let levels = Dist.scenario_levels () in
  Alcotest.(check int) "default grid size" Dist.default_levels
    (List.length levels);
  Alcotest.(check (float 0.)) "first level" 0. (List.hd levels);
  Alcotest.(check (float 0.)) "last level" 1.
    (List.nth levels (List.length levels - 1));
  Alcotest.(check bool) "monotone" true
    (List.sort Float.compare levels = levels)

(* --- certificates come from hulls, never expectations --------------------- *)

(* Abstract-interpretation resource certificates must cover a
   rare-but-huge tail: however the probability mass is shaped inside a
   band, the certificate depends only on the band (the hull), so a
   selectivity that is almost always tiny but occasionally ~1 still
   certifies the full working set of the unselective case. *)
let prop_certificates_tail_sound =
  let q = D.Queries.chain ~relations:2 in
  let plan =
    lazy
      ((Result.get_ok
          (D.Optimizer.optimize
             ~mode:(D.Optimizer.dynamic ~uncertain_memory:true ())
             q.D.Queries.catalog q.D.Queries.query))
         .D.Optimizer.plan)
  in
  QCheck.Test.make
    ~name:"absint certificates are hull-determined (skewed tails covered)"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 6)
           (pair (float_range 0.02 0.98) (float_range 0.01 1.))))
    (fun interior ->
      (* Heavy mass near zero, a sliver of mass at 1.0 — the shape an
         expectation-based certificate would dangerously discount. *)
      let skewed =
        Dist.make ((0.01, 100.) :: (1.0, 0.001) :: interior)
      in
      let hull = Dist.hull skewed in
      let env_of ~dists =
        D.Env.dynamic
          ~memory:(I.make 16. 112.)
          ?selectivity_bounds:(if dists then None else Some [ ("hv1", hull) ])
          ?selectivity_dists:(if dists then Some [ ("hv1", skewed) ] else None)
          q.D.Queries.catalog
      in
      let budget_bytes = 64 * 1024 in
      let cert ~dists =
        D.Absint.guaranteed_bytes (env_of ~dists) ~budget_bytes
          (Lazy.force plan)
      in
      (* Identical hull -> identical certificate, regardless of shape;
         and the certificate covers the tail-point (worst-case) env. *)
      let point_env =
        D.Env.of_bindings q.D.Queries.catalog
          (D.Bindings.make
             ~selectivities:[ ("hv1", hull.I.hi); ("hv2", 1.0) ]
             ~memory_pages:16)
      in
      let tail_cert =
        D.Absint.guaranteed_bytes point_env ~budget_bytes (Lazy.force plan)
      in
      cert ~dists:true = cert ~dists:false && cert ~dists:true >= tail_cert)

let suite =
  ( "dist",
    [ Alcotest.test_case "point distribution" `Quick test_point;
      Alcotest.test_case "scenario grid" `Quick test_scenario_levels;
      QCheck_alcotest.to_alcotest prop_embedding_roundtrip;
      QCheck_alcotest.to_alcotest prop_embedding_mean_is_mid;
      QCheck_alcotest.to_alcotest prop_mean_in_hull;
      QCheck_alcotest.to_alcotest prop_quantile_in_hull_and_monotone;
      QCheck_alcotest.to_alcotest prop_quantile_extremes_exact;
      QCheck_alcotest.to_alcotest prop_compaction_bound_and_hull;
      QCheck_alcotest.to_alcotest prop_refine_hull_exact;
      QCheck_alcotest.to_alcotest prop_refine_never_widens;
      QCheck_alcotest.to_alcotest prop_certificates_tail_sound ] )
