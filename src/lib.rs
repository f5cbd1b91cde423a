//! # gumbo — Parallel Evaluation of Multi-Semi-Joins
//!
//! A Rust reproduction of *Parallel Evaluation of Multi-Semi-Joins*
//! (Daenen, Neven, Tan, Vansummeren, 2016): evaluation of Strictly Guarded
//! Fragment (SGF) queries on a MapReduce substrate using the multi-semi-join
//! operator `MSJ(S)`, the `EVAL` job for Boolean combinations, and the
//! cost-model-driven `Greedy-BSGF` / `Greedy-SGF` planners, together with
//! the baselines (SEQ, PAR, simulated Pig/Hive) the paper compares against.
//!
//! ## Quick start
//!
//! ```
//! use gumbo::prelude::*;
//!
//! // A database: R(x, y) with conditional relations S and T.
//! let mut db = Database::new();
//! for (rel, tuple) in [
//!     ("R", vec![1i64, 10]),
//!     ("R", vec![2, 20]),
//!     ("R", vec![3, 30]),
//!     ("S", vec![1]),
//!     ("S", vec![2]),
//!     ("T", vec![20]),
//! ] {
//!     db.insert_fact(Fact::new(rel, Tuple::from_ints(&tuple))).unwrap();
//! }
//!
//! // The paper's SQL-like SGF syntax.
//! let query = parse_program(
//!     "Answer := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);",
//! ).unwrap();
//!
//! // Plan + execute on the simulated MapReduce cluster. Swap `SimDfs`
//! // for `FileDfs::create(path, cache_bytes)` to persist every relation
//! // to disk — answers and metered statistics are identical.
//! let engine = GumboEngine::with_defaults();
//! let dfs = SimDfs::from_database(&db);
//! let (stats, answer) = engine.eval().run_with_output(&dfs, &query).unwrap();
//!
//! assert_eq!(answer.len(), 1); // only R(1, 10) survives
//! assert!(stats.net_time() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`gumbo_common`] | values, tuples, facts, relations, databases |
//! | [`gumbo_sgf`] | SGF/BSGF ASTs, parser, dependency graphs, naive evaluator |
//! | [`gumbo_storage`] | `Dfs` trait with simulated and durable file-segment backends, byte accounting, LRU block cache, sampling |
//! | [`gumbo_obs`] | zero-dependency tracing and metrics: spans, events, counters, ring/Chrome-trace sinks |
//! | [`gumbo_mr`] | the `Executor` (one metered map→shuffle→reduce pipeline on a worker pool), job DAGs, cluster model, cost models |
//! | [`gumbo_sched`] | dependency-driven DAG scheduler, fair-share admission queue charged measured service time |
//! | [`gumbo_core`] | the request/assert operator (MSJ and 1-ROUND fusion), EVAL, plans, greedy + optimal planners |
//! | [`gumbo_service`] | resident multi-tenant query service: TCP protocol, fair-share admission, streaming client |
//! | [`gumbo_baselines`] | SEQ chains, PAR presets, Pig/Hive simulators |
//! | [`gumbo_datagen`] | the paper's workloads (A1–A5, B1/B2, C1–C4, sweeps) |
//!
//! ## One runtime, sized by a worker count
//!
//! Every job runs on the one [`mr::Executor`]: a metered
//! map→shuffle→reduce pipeline on a worker pool whose answers and
//! statistics are byte-identical at every worker count. The default
//! sizing is `sim` — one worker, every phase inline on the calling
//! thread, the reference configuration of the §5 experiments;
//! `parallel[:N]` runs the same pipeline on a real pool. Select one with
//! [`mr::ExecutorKind`]:
//!
//! ```
//! use gumbo::prelude::*;
//!
//! let engine = GumboEngine::with_executor(
//!     EngineConfig::default(),
//!     ExecutorKind::Parallel { threads: 4 },
//!     EvalOptions::default(),
//! );
//! assert_eq!(engine.runtime().effective_threads(), 4);
//! ```

pub use gumbo_baselines as baselines;
pub use gumbo_common as common;
pub use gumbo_core as core;
pub use gumbo_datagen as datagen;
pub use gumbo_mr as mr;
pub use gumbo_obs as obs;
pub use gumbo_sched as sched;
pub use gumbo_service as service;
pub use gumbo_sgf as sgf;
pub use gumbo_storage as storage;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use gumbo_baselines::{
        greedy_engine, greedy_sgf_engine, one_round_engine, par_engine, parunit_engine,
        sequnit_engine, HiveSim, PigSim, SeqStrategy,
    };
    pub use gumbo_common::{ByteSize, Database, Fact, GumboError, Relation, Result, Tuple, Value};
    pub use gumbo_core::{
        BsgfSetPlan, EvalOptions, EvalRequest, Grouping, GumboEngine, PayloadMode, QueryContext,
        SortStrategy,
    };
    pub use gumbo_datagen::{DataSpec, Workload};
    pub use gumbo_mr::{
        Cluster, CostConstants, CostModelKind, EngineConfig, Executor, ExecutorKind, JobConfig,
        JobDag, JobEstimate, MrProgram, ProgramStats,
    };
    pub use gumbo_obs::{ChromeTraceSink, Counter, Gauge, RingSink, TraceSink};
    pub use gumbo_sched::{
        AdmissionQueue, DagScheduler, FairShareLedger, SchedulerConfig, SubmissionReport,
    };
    pub use gumbo_service::{
        serve, QueryReply, ServeConfig, ServeSummary, ServerHandle, ServiceClient, ServiceError,
    };
    pub use gumbo_sgf::{
        parse_program, parse_query, Atom, BsgfQuery, Condition, DependencyGraph, NaiveEvaluator,
        SgfQuery, Term, Var,
    };
    pub use gumbo_storage::{CacheStats, Dfs, FileDfs, RelationScan, SimDfs, DEFAULT_CACHE_BYTES};
}
