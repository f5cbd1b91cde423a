//! Trace sinks: where emitted [`Event`]s go.
//!
//! * [`RingSink`] — bounded in-memory buffer; the test workhorse.
//! * [`ChromeTraceSink`] — the Chrome trace-event array format, loadable
//!   in `chrome://tracing` or <https://ui.perfetto.dev>; thread lanes
//!   map to trace `tid`s so per-lane Begin/End pairs render as nested
//!   slices.

use crate::json::Json;
use crate::{Event, EventKind, Field, FieldValue};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A destination for trace events. Implementations must tolerate
/// concurrent `record` calls from many worker threads.
pub trait TraceSink: Send + Sync {
    /// Deliver one event.
    fn record(&self, event: &Event);
    /// Flush/close; called once by [`crate::uninstall`].
    fn finish(&self) {}
}

/// Install the process-global Chrome trace sink a `--trace PATH` asks
/// for. The caller owns the matching [`crate::uninstall`], which
/// finalizes the file.
pub fn install_trace_file(path: &Path) -> std::io::Result<()> {
    crate::install(std::sync::Arc::new(ChromeTraceSink::create(path)?));
    Ok(())
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// Bounded in-memory sink. When full, the oldest events are dropped
/// (and counted), so a small ring never aborts a long run.
pub struct RingSink {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Snapshot the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discard all buffered events.
    pub fn clear(&self) {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &Event) {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event.clone());
    }
}

// ---------------------------------------------------------------------------
// Shared JSON shaping
// ---------------------------------------------------------------------------

fn field_json(value: &FieldValue) -> Json {
    match value {
        FieldValue::U64(n) => Json::Int(*n),
        FieldValue::F64(x) => Json::Num(*x),
        FieldValue::Bool(b) => Json::Bool(*b),
        FieldValue::Str(s) => Json::Str(s.clone()),
    }
}

fn args_json(fields: &[Field]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|f| (f.key.to_string(), field_json(&f.value)))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Chrome trace events
// ---------------------------------------------------------------------------

fn phase_code(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    }
}

struct ChromeState {
    out: BufWriter<File>,
    wrote_any: bool,
    done: bool,
}

/// Streaming Chrome trace-event sink: a single JSON array of
/// `{"name","cat","ph","ts","pid","tid","args"}` objects. Timestamps
/// are microseconds; `tid` is the tracing lane, so every lane's
/// Begin/End events nest into slices in the Perfetto timeline.
pub struct ChromeTraceSink {
    state: Mutex<ChromeState>,
}

impl ChromeTraceSink {
    /// Create (truncating) the file at `path` and write the array
    /// opener.
    pub fn create(path: &Path) -> std::io::Result<ChromeTraceSink> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"[")?;
        Ok(ChromeTraceSink {
            state: Mutex::new(ChromeState {
                out,
                wrote_any: false,
                done: false,
            }),
        })
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&self, event: &Event) {
        let mut pairs = vec![
            ("name", Json::Str(event.name.to_string())),
            ("cat", Json::Str("gumbo".to_string())),
            ("ph", Json::Str(phase_code(event.kind).to_string())),
            ("ts", Json::Num(event.ts_ns as f64 / 1000.0)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(event.lane)),
        ];
        if event.kind == EventKind::Instant {
            pairs.push(("s", Json::Str("t".to_string())));
        }
        pairs.push(("args", args_json(&event.fields)));
        let obj = Json::obj(pairs);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.done {
            return;
        }
        if state.wrote_any {
            let _ = state.out.write_all(b",\n");
        }
        state.wrote_any = true;
        let _ = write!(state.out, "{obj}");
    }

    fn finish(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.done {
            return;
        }
        state.done = true;
        let _ = state.out.write_all(b"]\n");
        let _ = state.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, name: &'static str, fields: Vec<Field>) -> Event {
        Event {
            ts_ns: 1500,
            lane: 2,
            kind,
            name,
            fields,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gumbo-obs-{}-{name}", std::process::id()))
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let ring = RingSink::new(2);
        for name in ["a", "b", "c"] {
            ring.record(&ev(EventKind::Instant, name, Vec::new()));
        }
        let names: Vec<_> = ring.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(ring.dropped(), 1);
        ring.clear();
        assert!(ring.events().is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn chrome_emits_a_valid_event_array() {
        let path = tmp("chrome");
        let sink = ChromeTraceSink::create(&path).unwrap();
        sink.record(&ev(EventKind::Begin, "job", Vec::new()));
        sink.record(&ev(
            EventKind::Instant,
            "spill:run",
            vec![Field {
                key: "bytes",
                value: FieldValue::U64(4096),
            }],
        ));
        sink.record(&ev(EventKind::End, "job", Vec::new()));
        sink.finish();
        sink.finish(); // idempotent
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(events[0].get("tid").unwrap().as_u64(), Some(2));
        assert_eq!(events[1].get("s").unwrap().as_str(), Some("t"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("bytes")
                .unwrap()
                .as_u64(),
            Some(4096)
        );
        std::fs::remove_file(&path).ok();
    }
}
