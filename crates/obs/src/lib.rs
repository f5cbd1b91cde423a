//! # gumbo-obs
//!
//! Zero-dependency observability for the gumbo engine: a lock-cheap
//! tracer emitting **spans** (enter/exit with monotonic timestamps and
//! key=value fields) and **typed instant events** to an installable
//! [`TraceSink`], plus an atomic counter/gauge registry ([`metrics`]).
//!
//! The design constraint is the *disabled* path: every executor phase,
//! shuffle flush and scheduler transition in the engine is instrumented,
//! so with no sink installed the whole subsystem must collapse to one
//! relaxed atomic load — **no allocation, no formatting, no locking**
//! (the workspace `alloc_smoke` test pins the zero-allocation claim
//! down with a counting global allocator). Field construction is
//! deferred behind closures that are never invoked while disabled.
//!
//! ```
//! use std::sync::Arc;
//! let ring = Arc::new(gumbo_obs::RingSink::new(1024));
//! gumbo_obs::install(ring.clone());
//! {
//!     let mut span = gumbo_obs::span_with("map", |f| f.u64("tasks", 8));
//!     gumbo_obs::event("spill:run", |f| f.u64("bytes", 4096));
//!     span.record(|f| f.f64("observed_cost", 1.5));
//! } // span closes here
//! gumbo_obs::uninstall();
//! assert_eq!(ring.events().len(), 3); // begin, instant, end
//! ```
//!
//! Two sinks are provided ([`sink`]): an in-memory ring buffer for
//! tests and a Chrome trace-event exporter (`chrome://tracing` /
//! Perfetto) keyed by worker-thread lanes.
//! Timestamps are monotonic nanoseconds since the first install;
//! each OS thread gets a small dense lane id on first emission, so
//! spans opened and closed on one thread nest correctly in a timeline.

pub mod json;
pub mod metrics;
pub mod sink;

pub use metrics::{
    metrics_enabled, metrics_reset, metrics_snapshot, print_metrics, set_metrics_enabled, Counter,
    Gauge, MetricKind,
};
pub use sink::{install_trace_file, ChromeTraceSink, RingSink, TraceSink};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Events and fields
// ---------------------------------------------------------------------------

/// A field value. Numbers and booleans are stored unboxed; only string
/// fields own heap data — and they are only ever built when a sink is
/// installed.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (byte counts, indices, cardinalities).
    U64(u64),
    /// A float (costs, ratios, seconds).
    F64(f64),
    /// A boolean flag.
    Bool(bool),
    /// An owned string (job names, tenants, policies).
    Str(String),
}

/// One `key=value` annotation on a span or event.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Static field name.
    pub key: &'static str,
    /// The value.
    pub value: FieldValue,
}

/// A write-only builder handed to the field closures of [`span_with`],
/// [`event`] and [`Span::record`]. The closure is never invoked while
/// tracing is disabled.
#[derive(Debug, Default)]
pub struct FieldSet(Vec<Field>);

impl FieldSet {
    fn push(&mut self, key: &'static str, value: FieldValue) {
        self.0.push(Field { key, value });
    }

    /// Attach an unsigned integer field.
    pub fn u64(&mut self, key: &'static str, value: u64) {
        self.push(key, FieldValue::U64(value));
    }

    /// Attach a float field.
    pub fn f64(&mut self, key: &'static str, value: f64) {
        self.push(key, FieldValue::F64(value));
    }

    /// Attach a boolean field.
    pub fn bool(&mut self, key: &'static str, value: bool) {
        self.push(key, FieldValue::Bool(value));
    }

    /// Attach a string field (copied — the closure only runs when a
    /// sink is installed).
    pub fn str(&mut self, key: &'static str, value: &str) {
        self.push(key, FieldValue::Str(value.to_string()));
    }
}

/// What kind of trace record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened ([`span`] / [`span_with`]).
    Begin,
    /// A span closed (guard drop; carries the span's recorded fields,
    /// plus `aborted=true` when closed by a panic unwind).
    End,
    /// A point-in-time event ([`event`]).
    Instant,
}

/// One trace record, as delivered to a [`TraceSink`].
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic nanoseconds since the tracing epoch (first install).
    pub ts_ns: u64,
    /// Dense per-thread lane id (1-based; assigned on first emission).
    pub lane: u64,
    /// Begin/End/Instant.
    pub kind: EventKind,
    /// Static span/event name (e.g. `"map"`, `"sched:claim"`).
    pub name: &'static str,
    /// Attached fields.
    pub fields: Vec<Field>,
}

// ---------------------------------------------------------------------------
// Global tracer state
// ---------------------------------------------------------------------------

/// Fast-path switch: one relaxed load decides everything.
static TRACING: AtomicBool = AtomicBool::new(false);
/// The installed sink. Only read-locked on the (sink-installed) slow
/// path; install/uninstall take the write lock.
static SINK: RwLock<Option<Arc<dyn TraceSink>>> = RwLock::new(None);
/// The tracing epoch: set once, at the first install.
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Next lane id to hand to a thread (0 means "unassigned").
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LANE: Cell<u64> = const { Cell::new(0) };
}

/// This thread's lane id, assigned densely on first use.
pub fn lane() -> u64 {
    LANE.with(|slot| {
        let lane = slot.get();
        if lane != 0 {
            return lane;
        }
        let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        slot.set(lane);
        lane
    })
}

/// Monotonic nanoseconds since the shared tracing epoch (the process's
/// first observability touch). Every trace event's `ts_ns` and the
/// scheduler's submission timestamps (`queued_ns`/`admitted_ns`/
/// `completed_ns`) come from this one clock, so they are directly
/// comparable.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Install a sink and enable tracing. Replaces any previous sink
/// (without finishing it — callers own that hand-off).
pub fn install(sink: Arc<dyn TraceSink>) {
    let _ = EPOCH.get_or_init(Instant::now);
    *SINK.write().expect("unpoisoned sink slot") = Some(sink);
    TRACING.store(true, Ordering::SeqCst);
}

/// Disable tracing, remove the sink, and call its
/// [`TraceSink::finish`] (flushing file-backed sinks). Returns the
/// sink so callers can inspect it. No-op when nothing is installed.
pub fn uninstall() -> Option<Arc<dyn TraceSink>> {
    TRACING.store(false, Ordering::SeqCst);
    let sink = SINK.write().expect("unpoisoned sink slot").take();
    if let Some(sink) = &sink {
        sink.finish();
    }
    sink
}

/// Is a sink installed? One relaxed atomic load — the engine's hot
/// paths gate all field construction on this.
#[inline]
pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn emit(kind: EventKind, name: &'static str, fields: Vec<Field>) {
    let guard = SINK.read().expect("unpoisoned sink slot");
    if let Some(sink) = guard.as_ref() {
        sink.record(&Event {
            ts_ns: now_ns(),
            lane: lane(),
            kind,
            name,
            fields,
        });
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A live span: emits [`EventKind::End`] when dropped, on the same
/// thread (lane) that opened it, so per-lane Begin/End sequences are
/// properly nested by construction. When the drop happens during a
/// panic unwind the End event carries `aborted=true`.
#[must_use = "a span closes when this guard drops; bind it with `let`"]
#[derive(Debug)]
pub struct Span {
    live: bool,
    name: &'static str,
    end_fields: Vec<Field>,
}

impl Span {
    /// Append fields to be emitted on this span's End event (e.g.
    /// measured costs known only at the end). The closure only runs if
    /// the span was opened with tracing enabled.
    pub fn record(&mut self, fill: impl FnOnce(&mut FieldSet)) {
        if !self.live {
            return;
        }
        let mut fields = FieldSet(std::mem::take(&mut self.end_fields));
        fill(&mut fields);
        self.end_fields = fields.0;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let mut fields = std::mem::take(&mut self.end_fields);
        if std::thread::panicking() {
            fields.push(Field {
                key: "aborted",
                value: FieldValue::Bool(true),
            });
        }
        emit(EventKind::End, self.name, fields);
    }
}

/// Open a span with no fields. Free when disabled.
pub fn span(name: &'static str) -> Span {
    span_with(name, |_| {})
}

/// Open a span, building its Begin fields with `fill`. The closure is
/// not invoked while tracing is disabled, so callers may format/clone
/// freely inside it.
pub fn span_with(name: &'static str, fill: impl FnOnce(&mut FieldSet)) -> Span {
    if !enabled() {
        return Span {
            live: false,
            name,
            end_fields: Vec::new(),
        };
    }
    let mut fields = FieldSet::default();
    fill(&mut fields);
    emit(EventKind::Begin, name, fields.0);
    Span {
        live: true,
        name,
        end_fields: Vec::new(),
    }
}

/// Emit a point-in-time event. The field closure is not invoked while
/// tracing is disabled.
pub fn event(name: &'static str, fill: impl FnOnce(&mut FieldSet)) {
    if !enabled() {
        return;
    }
    let mut fields = FieldSet::default();
    fill(&mut fields);
    emit(EventKind::Instant, name, fields.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tracer state is process-global; tests that install sinks take
    /// this lock so their event streams cannot interleave.
    pub(crate) static EXCLUSIVE: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_and_events_are_inert() {
        let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        uninstall();
        let mut span = span_with("x", |_| panic!("field closure must not run"));
        span.record(|_| panic!("record closure must not run"));
        event("y", |_| panic!("event closure must not run"));
        drop(span);
        assert!(!enabled());
    }

    #[test]
    fn ring_sink_sees_balanced_spans_with_fields() {
        let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(RingSink::new(64));
        install(ring.clone());
        {
            let mut outer = span_with("outer", |f| f.str("job", "j1"));
            {
                let _inner = span("inner");
                event("tick", |f| f.u64("n", 3));
            }
            outer.record(|f| f.f64("cost", 2.5));
        }
        uninstall();
        let events = ring.events();
        let names: Vec<_> = events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            names,
            vec![
                (EventKind::Begin, "outer"),
                (EventKind::Begin, "inner"),
                (EventKind::Instant, "tick"),
                (EventKind::End, "inner"),
                (EventKind::End, "outer"),
            ]
        );
        let end = events.last().unwrap();
        assert_eq!(end.fields[0].key, "cost");
        assert_eq!(end.fields[0].value, FieldValue::F64(2.5));
        assert!(events.iter().all(|e| e.lane >= 1));
        // Timestamps are monotone within the lane.
        let ts: Vec<_> = events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn spans_closed_by_unwind_are_marked_aborted() {
        let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let ring = Arc::new(RingSink::new(64));
        install(ring.clone());
        let boom = std::panic::catch_unwind(|| {
            let _span = span("doomed");
            panic!("unwind through the span guard");
        });
        uninstall();
        assert!(boom.is_err());
        let events = ring.events();
        let end = events
            .iter()
            .find(|e| e.kind == EventKind::End && e.name == "doomed")
            .expect("span closed during unwind");
        assert!(end
            .fields
            .iter()
            .any(|f| f.key == "aborted" && f.value == FieldValue::Bool(true)));
    }
}
