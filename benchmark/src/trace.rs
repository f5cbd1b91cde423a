//! The benchmark's two trace tables.
//!
//! 1. Its *own* spans, recorded around the calls into each layer:
//!    `bench:request` with the five-way latency partition as children,
//!    and `probe:<layer>.<call>` around every probe.
//! 2. The spans the program already emits (`execute`, `job`, `map`, …),
//!    captured by a `RingSink` during the traced pass and folded into
//!    per-name self time: a span's duration minus the part covered by
//!    its child spans on the same lane.

use std::collections::BTreeMap;

use gumbo::obs::json::Json;
use gumbo::obs::{Event, EventKind};

/// One span of the benchmark's own table.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessSpan {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request sequence number; spans of one request share it.
    pub request: Option<u64>,
}

/// The six timestamps of one request. `send`, `first_byte` and `done`
/// are stamped by the client, `queued`, `admitted` and `completed` by
/// the server — all on `gumbo::obs::now_ns()`, the one shared clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// Request line about to be written.
    pub send_ns: u64,
    pub queued_ns: u64,
    pub admitted_ns: u64,
    pub completed_ns: u64,
    /// First reply line read.
    pub first_byte_ns: u64,
    /// Terminal `stats` frame read.
    pub done_ns: u64,
}

/// Names of the five parts, in request order; also the per-layer metric
/// each one feeds.
pub const PARTS: [&str; 5] = [
    "service:submit",
    "sched:queue_wait",
    "sched:service",
    "service:collect",
    "service:stream",
];

impl Timing {
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.send_ns)
    }

    pub fn first_frame_ns(&self) -> u64 {
        self.first_byte_ns.saturating_sub(self.send_ns)
    }

    fn boundaries(&self) -> [u64; 6] {
        [
            self.send_ns,
            self.queued_ns,
            self.admitted_ns,
            self.completed_ns,
            self.first_byte_ns,
            self.done_ns,
        ]
    }

    /// Submit, queue wait, service, collect, stream — each the distance
    /// between two consecutive timestamps (0 if they run backwards).
    pub fn parts_ns(&self) -> [u64; 5] {
        let b = self.boundaries();
        std::array::from_fn(|i| b[i + 1].saturating_sub(b[i]))
    }

    /// The five parts partition the latency: timestamps never run
    /// backwards and the parts sum to the latency within 1 %.
    pub fn partitions_latency(&self) -> bool {
        let ordered = self.boundaries().windows(2).all(|w| w[0] <= w[1]);
        let sum: u64 = self.parts_ns().iter().sum();
        let latency = self.latency_ns();
        ordered && sum.abs_diff(latency) as f64 <= latency as f64 * 0.01
    }

    /// `bench:request` and its five children, appended to `table`.
    pub fn record(&self, request: u64, table: &mut Vec<HarnessSpan>) {
        let root = table.len();
        table.push(HarnessSpan {
            name: "bench:request".into(),
            start_ns: self.send_ns,
            end_ns: self.done_ns,
            parent: None,
            request: Some(request),
        });
        let b = self.boundaries();
        for (i, name) in PARTS.iter().enumerate() {
            table.push(HarnessSpan {
                name: (*name).into(),
                start_ns: b[i],
                end_ns: b[i + 1],
                parent: Some(root),
                request: Some(request),
            });
        }
    }
}

/// Run `call` inside a `probe:<name>` span of the harness table; the
/// span is the stopwatch, so its duration is returned with the value.
pub fn probe<T>(table: &mut Vec<HarnessSpan>, name: &str, call: impl FnOnce() -> T) -> (T, u64) {
    let start_ns = gumbo::obs::now_ns();
    let value = call();
    let end_ns = gumbo::obs::now_ns();
    table.push(HarnessSpan {
        name: format!("probe:{name}"),
        start_ns,
        end_ns,
        parent: None,
        request: None,
    });
    (value, end_ns - start_ns)
}

/// What the program's spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Folded {
    /// Closed spans of this name.
    pub count: u64,
    /// Duration of the spans not nested inside a same-named span.
    pub total_ns: u64,
    /// Duration minus the part covered by child spans on the same lane.
    pub self_ns: u64,
}

/// Fold Begin/End events into per-name totals with a stack per lane.
/// An End without its Begin (evicted from the ring) and a Begin that
/// never closed are skipped.
pub fn fold_self_time(events: &[Event]) -> BTreeMap<&'static str, Folded> {
    struct Open {
        name: &'static str,
        start_ns: u64,
        children_ns: u64,
    }
    let mut lanes: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut folded: BTreeMap<&'static str, Folded> = BTreeMap::new();
    for event in events {
        let stack = lanes.entry(event.lane).or_default();
        match event.kind {
            EventKind::Instant => {}
            EventKind::Begin => stack.push(Open {
                name: event.name,
                start_ns: event.ts_ns,
                children_ns: 0,
            }),
            EventKind::End => {
                if stack.last().map(|open| open.name) != Some(event.name) {
                    continue;
                }
                let open = stack.pop().expect("checked non-empty");
                let duration = event.ts_ns.saturating_sub(open.start_ns);
                let entry = folded.entry(open.name).or_default();
                entry.count += 1;
                entry.self_ns += duration.saturating_sub(open.children_ns);
                if !stack.iter().any(|outer| outer.name == open.name) {
                    entry.total_ns += duration;
                }
                if let Some(parent) = stack.last_mut() {
                    parent.children_ns += duration;
                }
            }
        }
    }
    folded
}

/// What the traced pass captured of the program's own spans.
#[derive(Debug, Default)]
pub struct ProgramTrace {
    pub folded: BTreeMap<&'static str, Folded>,
    /// Events the ring held when the pass ended.
    pub events: u64,
    /// Events the ring evicted because it was full.
    pub dropped: u64,
}

/// Both tables as one JSON document (`<workload>.trace.json`).
pub fn to_json(harness: &[HarnessSpan], program: &ProgramTrace) -> Json {
    let opt = |v: Option<u64>| v.map(Json::Int).unwrap_or(Json::Null);
    Json::obj([
        (
            "harness_spans",
            Json::Arr(
                harness
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::Str(s.name.clone())),
                            ("start_ns", Json::Int(s.start_ns)),
                            ("end_ns", Json::Int(s.end_ns)),
                            ("parent", opt(s.parent.map(|p| p as u64))),
                            ("request", opt(s.request)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "program_spans",
            Json::Obj(
                program
                    .folded
                    .iter()
                    .map(|(name, f)| {
                        (
                            name.to_string(),
                            Json::obj([
                                ("count", Json::Int(f.count)),
                                ("total_ns", Json::Int(f.total_ns)),
                                ("self_ns", Json::Int(f.self_ns)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("program_events", Json::Int(program.events)),
        ("dropped_events", Json::Int(program.dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(lane: u64, kind: EventKind, name: &'static str, ts_ns: u64) -> Event {
        Event {
            ts_ns,
            lane,
            kind,
            name,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_excludes_children_on_the_same_lane_only() {
        use EventKind::{Begin, End, Instant};
        let events = [
            // Lane 1: job[0,100] > map[10,40] > spill:run[20,25], then a
            // sibling reduce[50,90]; an instant changes nothing.
            event(1, Begin, "job", 0),
            event(1, Begin, "map", 10),
            // Lane 2 interleaves: its spans never count as lane 1's children.
            event(2, Begin, "job", 15),
            event(1, Begin, "spill:run", 20),
            event(1, End, "spill:run", 25),
            event(1, Instant, "sched:ready", 30),
            event(2, Begin, "map", 30),
            event(1, End, "map", 40),
            event(1, Begin, "reduce", 50),
            event(2, End, "map", 60),
            event(1, End, "reduce", 90),
            event(2, End, "job", 95),
            event(1, End, "job", 100),
        ];
        let folded = fold_self_time(&events);
        assert_eq!(
            folded["job"],
            Folded {
                count: 2,
                total_ns: 100 + 80,
                // lane 1: 100 - (30 + 40); lane 2: 80 - 30.
                self_ns: 30 + 50,
            }
        );
        assert_eq!(
            folded["map"],
            Folded {
                count: 2,
                total_ns: 30 + 30,
                self_ns: 25 + 30,
            }
        );
        assert_eq!(folded["spill:run"].self_ns, 5);
        assert_eq!(folded["reduce"].self_ns, 40);
    }

    #[test]
    fn same_named_nesting_counts_the_outer_duration_once() {
        use EventKind::{Begin, End};
        let events = [
            event(1, Begin, "job", 0),
            event(1, Begin, "job", 5),
            event(1, End, "job", 45),
            event(1, End, "job", 50),
            // An End whose Begin was evicted, and a Begin left open.
            event(3, End, "commit", 60),
            event(3, Begin, "plan", 70),
        ];
        let folded = fold_self_time(&events);
        assert_eq!(
            folded["job"],
            Folded {
                count: 2,
                total_ns: 50,
                self_ns: 10 + 40,
            }
        );
        assert!(!folded.contains_key("commit") && !folded.contains_key("plan"));
    }

    #[test]
    fn five_parts_partition_the_latency() {
        let timing = Timing {
            send_ns: 1_000,
            queued_ns: 1_400,
            admitted_ns: 1_450,
            completed_ns: 9_000,
            first_byte_ns: 9_300,
            done_ns: 10_000,
        };
        assert_eq!(timing.parts_ns(), [400, 50, 7_550, 300, 700]);
        assert_eq!(timing.parts_ns().iter().sum::<u64>(), timing.latency_ns());
        assert_eq!(timing.first_frame_ns(), 8_300);
        assert!(timing.partitions_latency());

        // A server stamp from another clock breaks the partition.
        let skewed = Timing {
            completed_ns: 500,
            ..timing
        };
        assert!(!skewed.partitions_latency());

        let mut table = Vec::new();
        timing.record(7, &mut table);
        assert_eq!(table.len(), 6);
        assert_eq!(table[0].name, "bench:request");
        for (child, name) in table[1..].iter().zip(PARTS) {
            assert_eq!(child.name, name);
            assert_eq!((child.parent, child.request), (Some(0), Some(7)));
        }
        assert_eq!(table[1].start_ns, table[0].start_ns);
        assert_eq!(table[5].end_ns, table[0].end_ns);
    }
}
