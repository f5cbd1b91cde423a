//! What the resident service reports per submission.

use gumbo_mr::ProgramStats;

/// What one submission got out of a scheduling run.
#[derive(Debug)]
pub struct SubmissionReport {
    /// The tenant label of the submission.
    pub tenant: String,
    /// Per-job and per-round statistics, identical to what the serial
    /// reference loop produces for the same program.
    pub stats: ProgramStats,
    /// Real elapsed time from admission to the last committed job of
    /// this submission, in seconds.
    pub wall_seconds: f64,
    /// When the submission entered the admission queue (monotonic ns
    /// since the obs epoch — [`gumbo_obs::now_ns`]).
    pub queued_ns: u64,
    /// When the submission was admitted onto the scheduler (monotonic
    /// ns since the obs epoch).
    pub admitted_ns: u64,
    /// When the submission's last job committed (monotonic ns since the
    /// obs epoch).
    pub completed_ns: u64,
}

impl SubmissionReport {
    /// Per-job calibration records: `(job name, observed/estimated cost
    /// ratio)` for every job of this submission that carried a plan-time
    /// estimate, in execution order. The raw input of the
    /// feedback-calibration roadmap item.
    pub fn estimate_errors(&self) -> Vec<(&str, f64)> {
        self.stats
            .jobs
            .iter()
            .filter_map(|j| j.estimate_error().map(|e| (j.name.as_str(), e)))
            .collect()
    }

    /// Mean observed/estimated cost ratio over this submission's
    /// estimated jobs; `None` when no job carried an estimate.
    pub fn mean_estimate_error(&self) -> Option<f64> {
        self.stats.mean_estimate_error()
    }

    /// Time spent waiting in the admission queue, in nanoseconds.
    pub fn queue_wait_ns(&self) -> u64 {
        self.admitted_ns.saturating_sub(self.queued_ns)
    }

    /// Time from admission to completion, in nanoseconds.
    pub fn service_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.admitted_ns)
    }
}
