let () =
  Alcotest.run "dqep"
    [ Suite_interval.suite;
      Suite_util.suite;
      Suite_catalog.suite;
      Suite_storage.suite;
      Suite_pool_model.suite;
      Suite_btree.suite;
      Suite_algebra.suite;
      Suite_cost.suite;
      Suite_plan.suite;
      Suite_startup.suite;
      Suite_optimizer.suite;
      Suite_exec.suite;
      Suite_batch.suite;
      Suite_experiments.suite;
      Suite_sql.suite;
      Suite_modes.suite;
      Suite_midquery.suite;
      Suite_validate.suite;
      Suite_resilience.suite;
      Suite_checkpoint.suite;
      Suite_governor.suite;
      Suite_session.suite;
      Suite_integration.suite;
      Suite_bounds.suite;
      Suite_exec_edge.suite;
      Suite_explain.suite;
      Suite_cost_extra.suite;
      Suite_orders.suite;
      Suite_analysis.suite;
      Suite_absint.suite;
      Suite_obs.suite;
      Suite_serve.suite;
      Suite_dist.suite;
      Suite_risk.suite ]
