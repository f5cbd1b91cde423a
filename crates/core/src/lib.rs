//! # gumbo-core
//!
//! The paper's contribution (Daenen, Neven, Tan, Vansummeren, *Parallel
//! Evaluation of Multi-Semi-Joins*, 2016): the multi-semi-join operator and
//! its one-job MapReduce implementation `MSJ(S)` (§4.2, Algorithm 1), the
//! `EVAL` job for Boolean combinations (§4.3), query plans for (sets of)
//! BSGF queries (§4.4/§4.5), the NP-hard plan-optimization problems and
//! their greedy heuristics `Greedy-BSGF` (§4.4) and `Greedy-SGF` (§4.6),
//! plus Gumbo's optimizations (§5.1): message packing, guard-tuple
//! references, sampling-based reducer allocation and 1-ROUND MSJ+EVAL
//! fusion.
//!
//! The top-level entry point is [`engine::GumboEngine`], which plans and
//! executes SGF queries over a `gumbo-storage` DFS using the `gumbo-mr`
//! substrate.

pub mod engine;
pub mod estimate;
pub mod eval;
pub mod msj;
pub mod plan;
pub mod planner;
pub mod semijoin;

pub use engine::{EvalOptions, EvalRequest, Grouping, GumboEngine, SortStrategy};
pub use estimate::Estimator;
pub use plan::{BsgfSetPlan, PayloadMode, PlanJob};
pub use semijoin::{QueryContext, SemiJoin};
