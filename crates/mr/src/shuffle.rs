//! The bounded-memory shuffle's shared parts: the memory budget, spill
//! accounting and the job-scoped spill directory. The partition buffers
//! and the streaming merge that use them live in [`crate::batch_shuffle`].
//!
//! The in-memory shuffle of the original engine buffered every key-value
//! pair, so the largest evaluable input was bounded by RAM. This module
//! makes memory a *budget* instead of an assumption:
//!
//! * [`MemBudget`] — the configuration knob (a `Copy` spec: a byte limit
//!   or unlimited), carried by `EngineConfig`, `EvalOptions` and
//!   `SchedulerConfig` and parsed from `--mem-budget` on the CLI;
//! * [`MemoryBudget`] — the runtime tracker: one instance per executor,
//!   shared by every job that executor runs (including jobs running
//!   *concurrently* under the DAG scheduler, which hands one executor to
//!   all its workers). Map output is charged as it lands in the
//!   per-reducer buffers; charging is compare-and-swap guarded, so the
//!   tracked shuffle memory can never exceed the limit — a partition
//!   that cannot charge flushes itself to disk instead;
//! * [`ShuffleSpill`] — the job-scoped [`gumbo_storage::SpillDir`] the
//!   partitions of one job write their sorted runs under;
//! * [`SpillStats`] — per-job spill counters, reported in
//!   [`crate::JobStats`]. They may legitimately differ across runs when
//!   concurrent partitions or jobs share the budget, so they are excluded
//!   from cross-runtime equivalence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gumbo_common::Result;
use gumbo_storage::SpillDir;

/// How many sources (runs + the in-memory tail) a single streaming merge
/// may read at once. With more runs than this, intermediate merge passes
/// first collapse windows of adjacent runs, the cheapest first, into one.
pub const MERGE_FANIN: usize = 16;

/// Charging granule for *unlimited* budgets: with no cap to enforce, the
/// shared tracker is bumped once per 64 KiB of buffered data rather than
/// once per pair, so the default path pays almost no shared-atomic
/// traffic while `used`/`peak` stay observable (over-reported by at most
/// one granule per live partition).
pub(crate) const UNLIMITED_GRANULE: u64 = 64 * 1024;

/// Workspace-wide shuffle metrics. Inert (one relaxed load) unless
/// tracing or `--metrics-dump` is on.
pub(crate) static SPILL_RUNS: gumbo_obs::Counter = gumbo_obs::Counter::new("shuffle.spill_runs");
pub(crate) static SPILL_BYTES: gumbo_obs::Counter =
    gumbo_obs::Counter::new("shuffle.spilled_bytes");
pub(crate) static BUDGET_DENIALS: gumbo_obs::Counter =
    gumbo_obs::Counter::new("shuffle.budget_denials");
pub(crate) static MERGE_PASSES: gumbo_obs::Counter =
    gumbo_obs::Counter::new("shuffle.merge_passes");

// ---------------------------------------------------------------------------
// Budget spec + tracker
// ---------------------------------------------------------------------------

/// A shuffle memory budget *specification*: a byte limit, or unlimited.
///
/// This is the `Copy` value the configuration layers carry
/// (`EngineConfig::mem_budget`, `EvalOptions::mem_budget`,
/// `SchedulerConfig::mem_budget`); executors resolve it into a shared
/// [`MemoryBudget`] tracker when built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemBudget {
    limit: Option<u64>,
}

impl MemBudget {
    /// No limit: the shuffle buffers everything in memory (the historical
    /// behavior), while still tracking usage for observability.
    pub const UNLIMITED: MemBudget = MemBudget { limit: None };

    /// A hard limit on tracked shuffle memory, in bytes.
    pub fn bytes(limit: u64) -> MemBudget {
        MemBudget { limit: Some(limit) }
    }

    /// The limit in bytes, or `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Whether a limit is set.
    pub fn is_limited(&self) -> bool {
        self.limit.is_some()
    }

    /// Parse a CLI spelling: `unlimited` / `none`, a plain byte count, or
    /// a count with a binary suffix (`64k`, `16m`, `1g`).
    pub fn parse(s: &str) -> Option<MemBudget> {
        let s = s.trim().to_ascii_lowercase();
        if s == "unlimited" || s == "none" {
            return Some(MemBudget::UNLIMITED);
        }
        let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
            Some(prefix) => {
                let mult = match s.as_bytes()[s.len() - 1] {
                    b'k' => 1u64 << 10,
                    b'm' => 1 << 20,
                    _ => 1 << 30,
                };
                (prefix, mult)
            }
            None => (s.as_str(), 1),
        };
        let n: u64 = digits.parse().ok()?;
        Some(MemBudget::bytes(n.checked_mul(mult)?))
    }

    /// The CLI spelling of this budget.
    pub fn label(&self) -> String {
        match self.limit {
            None => "unlimited".into(),
            Some(b) => b.to_string(),
        }
    }
}

/// The runtime memory tracker backing a [`MemBudget`].
///
/// One instance is shared by every job an executor runs; the DAG
/// scheduler shares one executor across its worker threads, so
/// concurrent jobs draw from (and are bounded by) the *same* budget.
/// `try_charge` is CAS-guarded: tracked usage — and therefore the
/// recorded peak — never exceeds the limit.
#[derive(Debug, Default)]
pub struct MemoryBudget {
    spec: MemBudget,
    used: AtomicU64,
    peak: AtomicU64,
}

impl MemoryBudget {
    /// Create a tracker for a budget spec.
    pub fn new(spec: MemBudget) -> MemoryBudget {
        MemoryBudget {
            spec,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// The spec this tracker enforces.
    pub fn spec(&self) -> MemBudget {
        self.spec
    }

    /// The byte limit, or `None` when unlimited.
    pub fn limit(&self) -> Option<u64> {
        self.spec.limit()
    }

    /// Try to reserve `bytes` of shuffle memory. Returns `false` (without
    /// reserving anything) when the reservation would exceed the limit.
    pub fn try_charge(&self, bytes: u64) -> bool {
        let Some(limit) = self.spec.limit() else {
            // Unlimited: nothing to enforce, so skip the CAS loop — plain
            // relaxed counters keep usage/peak observable.
            let next = self
                .used
                .fetch_add(bytes, Ordering::Relaxed)
                .saturating_add(bytes);
            self.peak.fetch_max(next, Ordering::Relaxed);
            return true;
        };
        let mut current = self.used.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(bytes);
            if next > limit {
                return false;
            }
            match self.used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return true;
                }
                Err(now) => current = now,
            }
        }
    }

    /// Return previously charged bytes to the pool.
    pub fn release(&self, bytes: u64) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Currently tracked shuffle bytes.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of tracked shuffle bytes. By construction this
    /// never exceeds the limit. Exact when a limit is set; under an
    /// unlimited budget partitions charge in 64 KiB granules
    /// (`UNLIMITED_GRANULE`), so the peak is an upper bound (over by at
    /// most one granule per live partition).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// One partition's soft share of the budget: a partition flushes once
    /// its buffer crosses this, keeping `partitions` concurrent buffers
    /// collectively under the limit.
    pub fn partition_share(&self, partitions: usize) -> u64 {
        match self.spec.limit() {
            None => u64::MAX,
            Some(limit) => limit / partitions.max(1) as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-job spill statistics
// ---------------------------------------------------------------------------

/// Spill accounting for one job (summed over its partitions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Estimated bytes of key-value data flushed to disk (same
    /// `estimated_bytes` accounting the budget charges) — the *raw* side
    /// of the raw/on-disk pair.
    pub spilled_bytes: u64,
    /// Actual file bytes of those initial flushes (length-prefixed
    /// encoded frames) — the *on-disk* side. Encoded frames differ from
    /// the estimated accounting.
    pub spilled_disk_bytes: u64,
    /// Run files written (initial flushes plus intermediate merge
    /// outputs).
    pub spill_files: u64,
    /// Intermediate merge passes needed to bring the run count under the
    /// merge fan-in before the final streaming pass.
    pub merge_passes: u64,
}

impl SpillStats {
    /// Accumulate another partition's (or job's) counters.
    pub fn absorb(&mut self, other: SpillStats) {
        self.spilled_bytes += other.spilled_bytes;
        self.spilled_disk_bytes += other.spilled_disk_bytes;
        self.spill_files += other.spill_files;
        self.merge_passes += other.merge_passes;
    }
}

// ---------------------------------------------------------------------------
// Job-scoped spill directory (lazily created, shared across partitions)
// ---------------------------------------------------------------------------

/// Lazily-created, job-scoped spill directory shared by every partition
/// of one job's shuffle. The directory only touches the filesystem on
/// the first actual flush and is removed when this handle drops (success
/// and error paths alike).
///
/// Public (like [`crate::BatchPartition`]) so the workspace-level
/// allocation smoke test can drive the shuffle layer directly; not a
/// stability surface.
pub struct ShuffleSpill {
    label: String,
    dir: Mutex<Option<SpillDir>>,
}

impl ShuffleSpill {
    /// A lazily-created spill scope for one job's shuffle.
    pub fn new(job_name: &str) -> ShuffleSpill {
        ShuffleSpill {
            label: job_name.to_string(),
            dir: Mutex::new(None),
        }
    }

    /// The job name this spill scope belongs to (trace event labels).
    pub(crate) fn label(&self) -> &str {
        &self.label
    }

    /// Allocate the path for a new run file, creating the directory on
    /// first use.
    pub(crate) fn run_path(&self, partition: usize, seq: u64) -> Result<std::path::PathBuf> {
        let mut guard = self.dir.lock().expect("unpoisoned spill dir");
        if guard.is_none() {
            *guard = Some(SpillDir::create(&self.label)?);
        }
        Ok(guard
            .as_ref()
            .expect("just created")
            .run_path(partition, seq))
    }
}

/// One run on disk: a contiguous slice of the partition's emission-order
/// pair sequence, sorted by `(key hash, key)` with equal keys in emission
/// order.
pub(crate) struct Run {
    pub(crate) path: std::path::PathBuf,
    /// The frames and file bytes its writer reported: the merge refuses a
    /// file that no longer matches them (a run cut at a frame boundary
    /// would otherwise read as a shorter, well-formed run).
    pub(crate) frames: u64,
    pub(crate) bytes: u64,
}

impl Drop for Run {
    fn drop(&mut self) {
        // Eager per-run cleanup keeps disk usage bounded during long
        // merges; the SpillDir drop sweeps up anything left.
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_budget_parses_cli_spellings() {
        assert_eq!(MemBudget::parse("unlimited"), Some(MemBudget::UNLIMITED));
        assert_eq!(MemBudget::parse("none"), Some(MemBudget::UNLIMITED));
        assert_eq!(MemBudget::parse("262144"), Some(MemBudget::bytes(262144)));
        assert_eq!(MemBudget::parse("64k"), Some(MemBudget::bytes(64 << 10)));
        assert_eq!(MemBudget::parse("16M"), Some(MemBudget::bytes(16 << 20)));
        assert_eq!(MemBudget::parse("1g"), Some(MemBudget::bytes(1 << 30)));
        assert_eq!(MemBudget::parse("banana"), None);
        assert_eq!(MemBudget::parse(""), None);
    }

    #[test]
    fn charging_never_exceeds_the_limit() {
        let b = MemoryBudget::new(MemBudget::bytes(100));
        assert!(b.try_charge(60));
        assert!(b.try_charge(40));
        assert!(!b.try_charge(1));
        assert_eq!(b.used(), 100);
        assert_eq!(b.peak(), 100);
        b.release(50);
        assert!(b.try_charge(30));
        assert_eq!(b.peak(), 100);
    }

    #[test]
    fn concurrent_charging_respects_the_limit() {
        let b = MemoryBudget::new(MemBudget::bytes(1000));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        if b.try_charge(7) {
                            assert!(b.used() <= 1000);
                            b.release(7);
                        }
                    }
                });
            }
        });
        assert!(b.peak() <= 1000);
        assert_eq!(b.used(), 0);
    }
}
