//! # gumbo-baselines
//!
//! The evaluation strategies the paper compares Gumbo's planner against
//! (§5.2/§5.3):
//!
//! * **SEQ** — sequential semi-join reducers: each semi-join is applied to
//!   the (shrinking) output of the previous stage; disjunctions at the top
//!   level evaluate their conjunctive branches in parallel (the B2 note).
//! * **PAR** — parallel evaluation without grouping: every semi-join in its
//!   own MSJ job (provided by `gumbo-core` via `Grouping::Singletons`).
//! * **SEQUNIT / PARUNIT** — SGF strategies: one BSGF at a time bottom-up,
//!   resp. level-by-level with per-level parallelism, both with ungrouped
//!   semi-joins (§5.3).
//! * **HPAR / HPARS** — Hive simulations: 2-round plans built from
//!   outer-join resp. semi-join operators, with Hive's documented
//!   behaviours (forced sequential join stages; same-key join grouping;
//!   no packing/reference optimizations; full tuples on both shuffle
//!   sides).
//! * **PPAR** — Pig simulation: COGROUP-based repartition joins with
//!   input-based reducer allocation (1 GB of map input per reducer).
//!
//! [`Strategy`] is the one table of these names: labels, applicability,
//! and the engine each Gumbo-side strategy plans with. All strategies run
//! on the same `gumbo-mr` engine and produce real results, verified
//! against the naive evaluator in the test suites.

pub mod join;
pub mod seq;
pub mod strategy;
pub mod systems;

pub use seq::SeqStrategy;
pub use strategy::Strategy;
pub use systems::{HiveSim, PigSim};
