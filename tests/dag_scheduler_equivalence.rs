//! Scheduler equivalence: the dependency-driven DAG scheduler, the one
//! path every planned program runs on, must be observationally identical
//! to the serial round-barrier loop. These are the job-slot slices of the
//! engine matrix (`tests/common/matrix.rs`), whose reference per preset is
//! the engine's own plans on that loop: the scheduler may only change
//! *when* jobs run, never what they compute or how they are metered.

mod common;

use common::matrix::{self, TINY_BUDGET};
use gumbo::datagen::queries;
use gumbo::prelude::*;

#[test]
fn dag_scheduler_matches_round_barrier_on_every_datagen_preset() {
    // One worker, no budget, at every slot count (PAR plans included).
    matrix::check(queries::presets(), |row| {
        row.executor == ExecutorKind::Simulated
            && row.slots().is_some()
            && row.budget().is_none()
            && row.file_cache.is_none()
    });
}

#[test]
fn dag_scheduler_with_tiny_budget_matches_unbudgeted_round_barrier() {
    // Concurrent jobs share one 4 KiB tracker: every cell spills and keeps
    // its peak within the budget.
    matrix::check(queries::presets(), |row| {
        row.executor == ExecutorKind::Simulated
            && row.slots() == Some(4)
            && row.budget() == Some(TINY_BUDGET)
            && row.file_cache.is_none()
    });
}

#[test]
fn job_slots_match_round_barrier_on_every_preset() {
    // Slots × workers × budget.
    matrix::check(queries::presets(), |row| {
        matches!(row.slots(), Some(1 | 4))
            && row.scheduler.is_some_and(|s| s.threads_per_job == 0)
            && row.grouping == Grouping::Greedy
            && row.file_cache.is_none()
    });
}

#[test]
fn dag_scheduler_composes_with_parallel_runtime() {
    // Inter-job concurrency from the scheduler, per-job threads from the
    // parallel runtime.
    matrix::check(queries::presets(), |row| {
        row.scheduler.is_some_and(|s| s.threads_per_job == 2)
    });
}

#[test]
fn dag_scheduler_matches_naive_reference_on_c2() {
    // A nested program at four slots; the reference is held to
    // `sgf::naive`.
    matrix::check(vec![queries::c2()], |row| {
        row.executor == ExecutorKind::Simulated
            && row.slots() == Some(4)
            && row.budget().is_none()
            && row.file_cache.is_none()
    });
}
