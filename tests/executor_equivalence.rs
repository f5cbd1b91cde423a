//! Worker-count equivalence: a `parallel` worker pool and the one-worker
//! `sim` configuration must be observationally identical. These are the
//! worker-axis slices of the engine matrix (`tests/common/matrix.rs`):
//! every cell leaves byte-identical relations and I/O meters and reports
//! identical statistics, so the paper's four metrics agree exactly.

mod common;

use common::matrix::{self, Row, TINY_BUDGET};
use gumbo::datagen::queries;
use gumbo::prelude::*;

/// Greedy plans on a `SimDfs` at one job slot, on either worker count.
fn one_slot_on_sim_dfs(row: &Row) -> bool {
    row.grouping == Grouping::Greedy && row.file_cache.is_none() && row.slots() == Some(1)
}

#[test]
fn parallel_and_simulated_agree_on_every_datagen_preset() {
    matrix::check(queries::presets(), |row| {
        one_slot_on_sim_dfs(row) && row.budget().is_none()
    });
}

#[test]
fn tiny_budget_spilling_is_observationally_identical_on_every_preset() {
    // Every cell under the 4 KiB budget must spill and keep its tracked
    // peak within the budget.
    matrix::check(queries::presets(), |row| {
        one_slot_on_sim_dfs(row) && row.budget() == Some(TINY_BUDGET)
    });
}

#[test]
fn parallel_runtime_matches_naive_reference_on_a3() {
    // An auto-sized pool under options that name no scheduler; the
    // reference is itself held to `sgf::naive`.
    matrix::check(vec![queries::a3()], |row| {
        row.scheduler.is_none() && matches!(row.executor, ExecutorKind::Parallel { threads: 0 })
    });
}
