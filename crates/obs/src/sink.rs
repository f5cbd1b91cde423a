//! Trace sinks: where emitted [`Event`]s go.
//!
//! * [`RingSink`] — bounded in-memory buffer; the test workhorse.
//! * [`JsonlSink`] — one JSON object per line; greppable, streamable.
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

/// File trace format selected by `--trace-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON array (default; Perfetto-loadable).
    Chrome,
    /// One JSON object per line.
    Jsonl,
}

impl TraceFormat {
    /// Parse a `--trace-format` value.
    pub fn parse(s: &str) -> Result<TraceFormat, String> {
        match s {
            "chrome" => Ok(TraceFormat::Chrome),
            "jsonl" => Ok(TraceFormat::Jsonl),
            other => Err(format!(
                "unknown trace format '{other}' (expected chrome|jsonl)"
            )),
        }
    }
}

/// Install the process-global file sink a `--trace PATH
/// [--trace-format F]` pair asks for (Chrome when no format is given).
/// The caller owns the matching [`crate::uninstall`], which finalizes
/// the file.
pub fn install_trace_file(path: &Path, format: Option<TraceFormat>) -> std::io::Result<()> {
    let sink: std::sync::Arc<dyn TraceSink> = match format.unwrap_or(TraceFormat::Chrome) {
        TraceFormat::Chrome => std::sync::Arc::new(ChromeTraceSink::create(path)?),
        TraceFormat::Jsonl => std::sync::Arc::new(JsonlSink::create(path)?),
    };
    crate::install(sink);
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
// JSONL
// ---------------------------------------------------------------------------

/// Streaming sink writing one JSON object per event per line:
/// `{"ts_ns":..,"lane":..,"ph":"B|E|i","name":..,"args":{..}}`.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

fn phase_code(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &Event) {
        let line = Json::obj([
            ("ts_ns", Json::Int(event.ts_ns)),
            ("lane", Json::Int(event.lane)),
            ("ph", Json::Str(phase_code(event.kind).to_string())),
            ("name", Json::Str(event.name.to_string())),
            ("args", args_json(&event.fields)),
        ]);
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(out, "{line}");
    }

    fn finish(&self) {
        let _ = self.out.lock().unwrap_or_else(|e| e.into_inner()).flush();
    }
}

// ---------------------------------------------------------------------------
// Chrome trace events
// ---------------------------------------------------------------------------

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
    fn jsonl_writes_one_parseable_object_per_line() {
        let path = tmp("jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&ev(
            EventKind::Begin,
            "map",
            vec![Field {
                key: "tasks",
                value: FieldValue::U64(4),
            }],
        ));
        sink.record(&ev(EventKind::End, "map", Vec::new()));
        sink.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ph").unwrap().as_str(), Some("B"));
        assert_eq!(first.get("name").unwrap().as_str(), Some("map"));
        assert_eq!(
            first.get("args").unwrap().get("tasks").unwrap().as_u64(),
            Some(4)
        );
        std::fs::remove_file(&path).ok();
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
