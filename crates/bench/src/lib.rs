//! # gumbo-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§5).
//!
//! The `experiments` binary drives the [`experiments`] module:
//!
//! ```text
//! cargo run --release -p gumbo-bench --bin experiments -- all
//! cargo run --release -p gumbo-bench --bin experiments -- fig3 --tuples 20000
//! ```
//!
//! Every run executes the *real* engine on generated data (results are
//! verified against the naive evaluator) and reports the paper's four
//! metrics: net time, total time, input bytes and communication bytes —
//! in simulated cost-units and GB at the configured scale.

pub mod experiments;
pub mod report;
pub mod runner;

pub use runner::{run_strategy, RunConfig, RunResult, Strategy};
