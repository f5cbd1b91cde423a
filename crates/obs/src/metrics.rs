//! Atomic counter/gauge registry.
//!
//! Handles are declared as statics (`static SPILLS: Counter =
//! Counter::new("shuffle.spill_runs")`) and updated from hot paths.
//! While metrics are disabled — the default — `add`/`set` are a single
//! relaxed load and return; registration (the only allocating step)
//! happens lazily on the first *enabled* update, so the disabled path
//! never allocates. Metrics turn on automatically whenever a trace
//! sink is installed, or explicitly via [`set_metrics_enabled`]
//! (`gumbo-cli --metrics-dump`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Explicit switch (`--metrics-dump`), OR'd with the tracer switch.
static METRICS: AtomicBool = AtomicBool::new(false);
/// All registered cells, in registration order.
static REGISTRY: Mutex<Vec<Arc<MetricCell>>> = Mutex::new(Vec::new());

/// Counter vs gauge — affects dump semantics only (counters are
/// monotone sums, gauges are last-write-wins levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing sum.
    Counter,
    /// Last-set level.
    Gauge,
}

#[derive(Debug)]
struct MetricCell {
    name: &'static str,
    kind: MetricKind,
    value: AtomicU64,
}

/// Enable or disable metric collection independently of tracing.
pub fn set_metrics_enabled(on: bool) {
    METRICS.store(on, Ordering::SeqCst);
}

/// Are metric updates being applied? True when either the explicit
/// switch or a trace sink is on.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed) || crate::enabled()
}

fn register(name: &'static str, kind: MetricKind) -> Arc<MetricCell> {
    let cell = Arc::new(MetricCell {
        name,
        kind,
        value: AtomicU64::new(0),
    });
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(cell.clone());
    cell
}

/// A named monotone counter. `const`-constructible; cheap to bump.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    cell: OnceLock<Arc<MetricCell>>,
}

impl Counter {
    /// Declare a counter (registration is deferred to first use).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Add `n`. A no-op (one relaxed load) while metrics are disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !metrics_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| register(self.name, MetricKind::Counter))
            .value
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Bump by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }
}

/// A named last-write-wins gauge. `const`-constructible.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    cell: OnceLock<Arc<MetricCell>>,
}

impl Gauge {
    /// Declare a gauge (registration is deferred to first use).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Set the level. A no-op while metrics are disabled.
    #[inline]
    pub fn set(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| register(self.name, MetricKind::Gauge))
            .value
            .store(v, Ordering::Relaxed);
    }

    /// Record `v` if it exceeds the current level (high-water mark).
    #[inline]
    pub fn max(&self, v: u64) {
        if !metrics_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| register(self.name, MetricKind::Gauge))
            .value
            .fetch_max(v, Ordering::Relaxed);
    }
}

/// Snapshot every registered metric as `(name, kind, value)`, in
/// registration order.
pub fn metrics_snapshot() -> Vec<(&'static str, MetricKind, u64)> {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|c| (c.name, c.kind, c.value.load(Ordering::Relaxed)))
        .collect()
}

/// Print every registered metric to stdout as one
/// `metric <counter|gauge> <name>=<value>` line (`--metrics-dump`).
pub fn print_metrics() {
    for (name, kind, value) in metrics_snapshot() {
        let kind = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        println!("metric {kind} {name}={value}");
    }
}

/// Zero every registered metric (tests; between CLI runs).
pub fn metrics_reset() {
    for cell in REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        cell.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static HITS: Counter = Counter::new("test.hits");
    static DEPTH: Gauge = Gauge::new("test.depth");

    #[test]
    fn disabled_updates_are_dropped_and_enabled_ones_stick() {
        let _serial = crate::tests::EXCLUSIVE
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_metrics_enabled(false);
        crate::uninstall();
        HITS.incr(); // dropped — and must not register either
        assert!(!metrics_snapshot().iter().any(|(n, _, _)| *n == "test.hits"));

        set_metrics_enabled(true);
        HITS.add(2);
        HITS.incr();
        DEPTH.set(7);
        DEPTH.max(3); // below the level — keeps 7
        DEPTH.max(11);
        set_metrics_enabled(false);

        let snap = metrics_snapshot();
        let get = |name: &str| snap.iter().find(|(n, _, _)| *n == name).unwrap();
        assert_eq!(get("test.hits"), &("test.hits", MetricKind::Counter, 3));
        assert_eq!(get("test.depth"), &("test.depth", MetricKind::Gauge, 11));

        metrics_reset();
        let snap = metrics_snapshot();
        assert!(snap
            .iter()
            .filter(|(n, _, _)| n.starts_with("test."))
            .all(|(_, _, v)| *v == 0));
    }
}
