//! # gumbo-sched
//!
//! The one way planned MapReduce programs run: a dependency-driven DAG
//! job scheduler — the execution layer the paper's §3.2 "MR program = DAG
//! of jobs" definition calls for. Rounds are only the levels of that DAG
//! (and the unit the paper prices net and total time by, §3.3, carried on
//! every [`gumbo_mr::JobStats::round`]), so there is no separate
//! round-by-round engine: with **one job slot**
//! ([`SchedulerConfig::ONE_SLOT`]) the scheduler runs every job inline
//! on the calling thread in round order, and with more slots a slow `MSJ`
//! no longer stalls unrelated work.
//!
//! * [`gumbo_mr::JobDag`] — jobs plus edges inferred from input/output
//!   relation names (`MrProgram::into_dag()`);
//! * [`DagScheduler`] — runs each job the moment its inputs are
//!   materialized, in the order jobs became ready (one FIFO queue), on at
//!   most [`SchedulerConfig::max_concurrent_jobs`] job slots (one slot =
//!   inline on the calling thread), and reports the predicted DAG net
//!   time ([`gumbo_mr::ProgramStats::predicted_net_time`]). Workers share
//!   the DFS directly — every [`gumbo_storage::Dfs`] method takes `&self`
//!   and synchronizes internally — so planning, the compute phases and
//!   commits need no scheduler-level lock;
//! * [`SubmissionReport`] — what the resident service reports per
//!   submission (statistics plus `queued_ns`/`admitted_ns`/`completed_ns`
//!   on the obs monotonic clock);
//! * [`admission`] — the resident-service layer on top: a bounded
//!   [`AdmissionQueue`] with **fair-share admission charged measured
//!   service time** ([`FairShareLedger`]): each tenant carries a weight
//!   and a running account of the wall seconds its finished submissions
//!   took, and the pending entry whose tenant has the least
//!   weight-normalized charge is admitted next — so under contention a
//!   weight-4 tenant receives ~4× the service time of a weight-1 tenant,
//!   in an order determined by the submit/charge sequence;
//! * [`equivalence`] — the oracle: [`serial_reference`] runs a program on
//!   the 16-line serial round loop ([`gumbo_mr::Executor::execute`]), and
//!   the two `assert_identical_*` checks define "observationally
//!   identical".
//!
//! Execution is *observationally identical* to that serial reference at
//! every slot count: answer relations are byte-identical and per-job
//! [`gumbo_mr::JobStats`] (and the per-round wall-clock accounting pooled
//! from them) match exactly — only the real wall-clock changes. The
//! workspace-level `tests/engine_matrix.rs` enforces this over every
//! datagen preset, and `proptests.rs` on random conflicting programs.

pub mod admission;
pub mod equivalence;
pub mod scheduler;
pub mod submission;

pub use admission::{AdmissionQueue, FairShareLedger, QueuedEntry, SubmitError, TenantAccount};
pub use equivalence::{assert_identical_dfs, assert_identical_stats, serial_reference};
pub use scheduler::{DagScheduler, SchedulerConfig};
pub use submission::SubmissionReport;

#[cfg(test)]
mod proptests;
