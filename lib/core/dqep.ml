(** Dynamic Query Evaluation Plans — public API.

    An OCaml reproduction of dynamic query evaluation plans (Graefe &
    Ward, SIGMOD 1989) and their compile-time construction (Cole &
    Graefe, SIGMOD 1994): a Volcano-style query optimizer with interval
    costs that emits plans containing choose-plan operators, plus the
    relational substrate (storage, execution engine, cost model) needed
    to run and evaluate them.

    Quick tour:
    - build a {!Catalog} (or use {!Paper_catalog} / {!Queries});
    - express a query in the {!Logical} algebra;
    - {!Optimizer.optimize} it in [Static], [Dynamic] or [Run_time] mode;
    - at start-up-time, {!Startup.resolve} the dynamic plan under actual
      {!Bindings};
    - execute any plan on a materialized {!Database} with {!Executor}.

    See the [examples/] directory for runnable walkthroughs. *)

(** {1 Foundations} *)

module Interval = Dqep_util.Interval
module Rng = Dqep_util.Rng
module Stats = Dqep_util.Stats
module Timer = Dqep_util.Timer
module Diagnostic = Dqep_util.Diagnostic
module Json = Dqep_util.Json

(** {1 Observation pipeline}

    Structured telemetry — typed counters, spans, gauges, per-operator
    cardinality taps — plus the per-session observation cache that feeds
    re-optimization.  See DESIGN.md, "Observation pipeline". *)

module Obs = struct
  module Counter = Dqep_obs.Counter
  module Event = Dqep_obs.Event
  module Sink = Dqep_obs.Sink
  module Trace = Dqep_obs.Trace
  module Feedback = Dqep_obs.Feedback
end

(** {1 Catalog} *)

module Attribute = Dqep_catalog.Attribute
module Relation = Dqep_catalog.Relation
module Index = Dqep_catalog.Index
module Catalog = Dqep_catalog.Catalog

(** {1 Storage engine} *)

module Rid = Dqep_storage.Rid
module Page = Dqep_storage.Page
module Fault = Dqep_storage.Fault
module Disk = Dqep_storage.Disk
module Buffer_pool = Dqep_storage.Buffer_pool
module Heap_file = Dqep_storage.Heap_file
module Btree = Dqep_storage.Btree
module Database = Dqep_storage.Database

(** {1 Algebras} *)

module Col = Dqep_algebra.Col
module Schema = Dqep_algebra.Schema
module Predicate = Dqep_algebra.Predicate
module Logical = Dqep_algebra.Logical
module Physical = Dqep_algebra.Physical
module Props = Dqep_algebra.Props

(** {1 Cost model} *)

module Device = Dqep_cost.Device
module Bindings = Dqep_cost.Bindings
module Dist = Dqep_cost.Dist
module Risk = Dqep_cost.Risk
module Env = Dqep_cost.Env
module Estimate = Dqep_cost.Estimate
module Cost_model = Dqep_cost.Cost_model

(** {1 Plans and the run-time primitives} *)

module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Access_module = Dqep_plans.Access_module
module Adapt = Dqep_plans.Adapt

(** {1 Static analysis} *)

module Verify = Dqep_analysis.Verify
module Absint = Dqep_analysis.Absint
module Analyses = Dqep_analysis.Analyses

(** {1 Optimizer} *)

module Group_key = Dqep_optimizer.Group_key
module Lmexpr = Dqep_optimizer.Lmexpr
module Memo = Dqep_optimizer.Memo
module Rules = Dqep_optimizer.Rules
module Pareto = Dqep_optimizer.Pareto
module Search = Dqep_optimizer.Search
module Optimizer = Dqep_optimizer.Optimizer
module Reoptimize = Dqep_optimizer.Reoptimize

(** {1 SQL front-end} *)

module Sql = Dqep_sql.Sql

(** {1 Execution engine} *)

module Pred_eval = Dqep_exec.Pred_eval
module Executor = Dqep_exec.Executor
module Exec_common = Dqep_exec.Exec_common
module Batch = Dqep_exec.Batch
module Batch_exec = Dqep_exec.Batch_exec
module Reference = Dqep_exec.Reference
module Midquery = Dqep_exec.Midquery
module Resilience = Dqep_exec.Resilience
module Governor = Dqep_exec.Governor
module Checkpoint = Dqep_exec.Checkpoint
module Session = Dqep_exec.Session

(** {1 Serving layer}

    A concurrent front door over the session: line-oriented wire
    protocol, parameterized dynamic-plan cache keyed by normalized
    query shape, and per-shape circuit breakers.  See DESIGN.md, "The
    serving layer". *)

module Serve = struct
  module Protocol = Dqep_serve.Protocol
  module Plan_cache = Dqep_serve.Plan_cache
  module Breaker = Dqep_serve.Breaker
  module Server = Dqep_serve.Server
end

(** {1 Workloads and experiments} *)

module Paper_catalog = Dqep_workload.Paper_catalog
module Queries = Dqep_workload.Queries
module Paramgen = Dqep_workload.Paramgen
module Plangen = Dqep_workload.Plangen

module Experiments = struct
  module Common = Dqep_experiments.Common
  module Report = Dqep_experiments.Report
  module Figures = Dqep_experiments.Figures
  module Table1 = Dqep_experiments.Table1
  module Validation = Dqep_experiments.Validation
  module Ablations = Dqep_experiments.Ablations
  module Chaos = Dqep_experiments.Chaos
end
