//! The gumbo-serve wire protocol: line-delimited JSON over TCP.
//!
//! Every message is one JSON object on one `\n`-terminated line, built
//! on the workspace's own [`Json`] vocabulary (no external serializer).
//!
//! ## Requests (client → server)
//!
//! ```text
//! {"type":"query","tenant":T,"sgf":SGF}            evaluate an SGF program
//! {"type":"query","tenant":T,"weight":W,"sgf":SGF} …declaring T's weight
//! {"type":"ping"}                                  liveness probe
//! {"type":"shutdown"}                              drain and stop the server
//! ```
//!
//! A request line is at most [`crate::MAX_REQUEST_BYTES`] long; the
//! server answers a longer one with an `error` frame and hangs up.
//!
//! ## Responses (server → client)
//!
//! A `query` is answered by a stream of frames, ending with `stats` (on
//! success) or `error`:
//!
//! ```text
//! {"type":"rel","name":N,"arity":A,"rows":R}       one per output relation
//! {"type":"frame","name":N,"rows":[[v,…],…]}       ≤ FRAME_ROWS rows per line
//! {"type":"stats","report":{…}}                    per-submission report, ends the reply
//! {"type":"error","message":M}                     terminal failure, ends the reply
//! {"type":"pong"}                                  answers ping
//! {"type":"bye","accepted":A,"completed":C}        answers shutdown, after the drain
//! ```
//!
//! Values encode as JSON numbers when exact (`|i| ≤ 2⁵³`), as
//! `{"i":"…decimal…"}` for larger integers (floats would silently round
//! them), and as JSON strings for strings. Relations stream in the
//! [`Relation`]'s sorted tuple order, so a reply is byte-reproducible.

use gumbo_common::{Relation, Tuple, Value, ValueRef};
use gumbo_obs::json::{write_str, Json};
use gumbo_sched::SubmissionReport;

/// Rows per `frame` line: small enough to keep lines readable and
/// interleave progress, large enough to amortize the JSON framing.
pub const FRAME_ROWS: usize = 256;

/// Largest integer magnitude an f64-backed JSON number holds exactly.
const EXACT_INT: i64 = 1 << 53;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate an SGF program for a tenant (optionally declaring the
    /// tenant's fair-share weight).
    Query {
        /// The submitting tenant's label.
        tenant: String,
        /// Fair-share weight to declare for the tenant, if any.
        weight: Option<f64>,
        /// The SGF program text (the paper's SQL-like syntax).
        sgf: String,
    },
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain and stop the server.
    Shutdown,
}

impl Request {
    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Request::Query {
                tenant,
                weight,
                sgf,
            } => {
                let mut fields = vec![
                    ("type", Json::Str("query".into())),
                    ("tenant", Json::Str(tenant.clone())),
                ];
                if let Some(w) = weight {
                    fields.push(("weight", Json::Num(*w)));
                }
                fields.push(("sgf", Json::Str(sgf.clone())));
                Json::obj(fields)
            }
            Request::Ping => Json::obj([("type", Json::Str("ping".into()))]),
            Request::Shutdown => Json::obj([("type", Json::Str("shutdown".into()))]),
        };
        json.to_string()
    }

    /// Decode one wire line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let json = Json::parse(line.trim()).map_err(|e| format!("bad request JSON: {e}"))?;
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request is missing \"type\"")?;
        match kind {
            "query" => {
                let tenant = json
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("query is missing \"tenant\"")?
                    .to_string();
                let weight = match json.get("weight") {
                    None => None,
                    Some(w) => match w.as_f64() {
                        Some(n) if n.is_finite() && n > 0.0 => Some(n),
                        _ => return Err(format!("weight must be a positive number, got {w}")),
                    },
                };
                let sgf = json
                    .get("sgf")
                    .and_then(Json::as_str)
                    .ok_or("query is missing \"sgf\"")?
                    .to_string();
                Ok(Request::Query {
                    tenant,
                    weight,
                    sgf,
                })
            }
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type {other:?}")),
        }
    }
}

/// A parsed server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Header for one output relation about to stream.
    Rel {
        /// Relation name.
        name: String,
        /// Relation arity.
        arity: usize,
        /// Total rows that will stream for this relation.
        rows: u64,
    },
    /// A chunk of rows of the named relation, in sorted order.
    Rows {
        /// Relation name.
        name: String,
        /// The rows.
        rows: Vec<Tuple>,
    },
    /// Terminal success frame: the per-submission report.
    Stats {
        /// The report object (see [`report_to_json`]).
        report: Json,
    },
    /// Terminal failure frame.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Answer to a ping.
    Pong,
    /// Answer to a shutdown, sent after the drain finishes.
    Bye {
        /// Submissions accepted over the server's lifetime.
        accepted: u64,
        /// Submissions fully completed (must equal `accepted`).
        completed: u64,
    },
}

impl Frame {
    /// Encode as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Frame::Rel { name, arity, rows } => Json::obj([
                ("type", Json::Str("rel".into())),
                ("name", Json::Str(name.clone())),
                ("arity", Json::Int(*arity as u64)),
                ("rows", Json::Int(*rows)),
            ]),
            Frame::Rows { name, rows } => {
                let mut line = String::new();
                let rows = rows.iter().map(|t| t.values().iter().map(ValueRef::from));
                push_rows_line(&mut line, name, rows);
                return line;
            }
            Frame::Stats { report } => Json::obj([
                ("type", Json::Str("stats".into())),
                ("report", report.clone()),
            ]),
            Frame::Error { message } => Json::obj([
                ("type", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
            Frame::Pong => Json::obj([("type", Json::Str("pong".into()))]),
            Frame::Bye {
                accepted,
                completed,
            } => Json::obj([
                ("type", Json::Str("bye".into())),
                ("accepted", Json::Int(*accepted)),
                ("completed", Json::Int(*completed)),
            ]),
        };
        json.to_string()
    }

    /// Decode one wire line.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let json = Json::parse(line.trim()).map_err(|e| format!("bad frame JSON: {e}"))?;
        let kind = json
            .get("type")
            .and_then(Json::as_str)
            .ok_or("frame is missing \"type\"")?;
        match kind {
            "rel" => Ok(Frame::Rel {
                name: json
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("rel frame is missing \"name\"")?
                    .to_string(),
                arity: json
                    .get("arity")
                    .and_then(Json::as_u64)
                    .ok_or("rel frame is missing \"arity\"")? as usize,
                rows: json
                    .get("rows")
                    .and_then(Json::as_u64)
                    .ok_or("rel frame is missing \"rows\"")?,
            }),
            "frame" => {
                let name = json
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("frame is missing \"name\"")?
                    .to_string();
                let rows = json
                    .get("rows")
                    .and_then(Json::as_arr)
                    .ok_or("frame is missing \"rows\"")?
                    .iter()
                    .map(tuple_from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Frame::Rows { name, rows })
            }
            "stats" => Ok(Frame::Stats {
                report: json
                    .get("report")
                    .cloned()
                    .ok_or("stats frame is missing \"report\"")?,
            }),
            "error" => Ok(Frame::Error {
                message: json
                    .get("message")
                    .and_then(Json::as_str)
                    .ok_or("error frame is missing \"message\"")?
                    .to_string(),
            }),
            "pong" => Ok(Frame::Pong),
            "bye" => Ok(Frame::Bye {
                accepted: json
                    .get("accepted")
                    .and_then(Json::as_u64)
                    .ok_or("bye frame is missing \"accepted\"")?,
                completed: json
                    .get("completed")
                    .and_then(Json::as_u64)
                    .ok_or("bye frame is missing \"completed\"")?,
            }),
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

/// Encode one value: exact-in-f64 integers as numbers, larger integers
/// as `{"i":"…"}` (a float would silently round them), strings as
/// strings.
pub fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Int(i) if (0..=EXACT_INT).contains(i) => Json::Int(*i as u64),
        Value::Int(i) if (-EXACT_INT..0).contains(i) => Json::Num(*i as f64),
        Value::Int(i) => Json::obj([("i", Json::Str(i.to_string()))]),
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// Decode one value (inverse of [`value_to_json`]).
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    match json {
        Json::Int(u) => i64::try_from(*u)
            .map(Value::Int)
            .map_err(|_| format!("integer {u} overflows i64")),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() <= EXACT_INT as f64 {
                Ok(Value::Int(*n as i64))
            } else {
                Err(format!("non-integral value {n} in a tuple"))
            }
        }
        Json::Str(s) => Ok(Value::str(s)),
        Json::Obj(_) => {
            let digits = json
                .get("i")
                .and_then(Json::as_str)
                .ok_or("tuple value object without an \"i\" field")?;
            digits
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|e| format!("bad wide integer {digits:?}: {e}"))
        }
        other => Err(format!("unsupported tuple value {other}")),
    }
}

fn tuple_from_json(json: &Json) -> Result<Tuple, String> {
    let values = json
        .as_arr()
        .ok_or("tuple is not an array")?
        .iter()
        .map(value_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Tuple::new(values))
}

/// Append one value's wire text to `out`: what
/// `value_to_json(value).to_string()` writes, with no [`Json`] built.
fn push_value(out: &mut String, value: ValueRef<'_>) {
    use std::fmt::Write as _;
    // Writing to a `String` cannot fail.
    let _ = match value {
        ValueRef::Int(i) if (0..=EXACT_INT).contains(&i) => write!(out, "{i}"),
        ValueRef::Int(i) if (-EXACT_INT..0).contains(&i) => write!(out, "{}", i as f64),
        ValueRef::Int(i) => write!(out, "{{\"i\":\"{i}\"}}"),
        ValueRef::Str(s) => write_str(out, s),
    };
}

/// Append the `frame` line of relation `name` holding `rows` to `out`
/// (no trailing newline): the text [`Frame::to_line`] writes for
/// [`Frame::Rows`], written value by value.
fn push_rows_line<'v, R>(out: &mut String, name: &str, rows: impl Iterator<Item = R>)
where
    R: Iterator<Item = ValueRef<'v>>,
{
    out.push_str("{\"type\":\"frame\",\"name\":");
    let _ = write_str(out, name);
    out.push_str(",\"rows\":[");
    for (i, row) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, value) in row.enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_value(out, value);
        }
        out.push(']');
    }
    out.push_str("]}");
}

/// Split a relation into the frames that stream it: one [`Frame::Rel`]
/// header, then [`Frame::Rows`] chunks of at most [`FRAME_ROWS`] rows in
/// the relation's sorted order. Their [`Frame::to_line`] texts are the
/// lines `relation_lines` writes for the server.
pub fn relation_frames(relation: &Relation) -> Vec<Frame> {
    let mut frames = vec![rel_header(relation)];
    for start in (0..relation.len()).step_by(FRAME_ROWS) {
        let end = (start + FRAME_ROWS).min(relation.len());
        frames.push(Frame::Rows {
            name: relation.name().to_string(),
            rows: (start..end).map(|r| relation.row(r).to_tuple()).collect(),
        });
    }
    frames
}

fn rel_header(relation: &Relation) -> Frame {
    Frame::Rel {
        name: relation.name().to_string(),
        arity: relation.arity(),
        rows: relation.len() as u64,
    }
}

/// The wire lines that stream a relation, written straight from its rows
/// with no [`Frame`] and no per-row tuple: the `rel` header line, then one
/// `frame` line per [`FRAME_ROWS`] rows — byte for byte the
/// [`Frame::to_line`] texts of [`relation_frames`]. `line` receives each
/// line (no trailing newline) and whether it is a rows frame; the first
/// error it returns ends the stream.
pub(crate) fn relation_lines<E>(
    relation: &Relation,
    mut line: impl FnMut(&str, bool) -> Result<(), E>,
) -> Result<(), E> {
    line(&rel_header(relation).to_line(), false)?;
    let mut text = String::new();
    let name = relation.name().as_str();
    for start in (0..relation.len()).step_by(FRAME_ROWS) {
        let end = (start + FRAME_ROWS).min(relation.len());
        text.clear();
        push_rows_line(
            &mut text,
            name,
            (start..end).map(|r| relation.row(r).values()),
        );
        line(&text, true)?;
    }
    Ok(())
}

/// Lower a [`gumbo_mr::ProgramStats`] to one JSON document: the paper's
/// four metrics, the spill counters, the predicted DAG net time, the
/// per-job calibration ledger, and — for file-backed runs — the DFS
/// block-cache counters. This is the single stats
/// vocabulary: `gumbo-cli --stats-json` and the service's `stats` frame
/// both emit it.
pub fn stats_to_json(
    stats: &gumbo_mr::ProgramStats,
    cache: Option<&gumbo_storage::CacheStats>,
) -> Json {
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    let jobs: Vec<Json> = stats
        .jobs
        .iter()
        .map(|j| {
            Json::obj([
                ("name", Json::Str(j.name.clone())),
                ("round", Json::Int(j.round as u64)),
                ("total_cost", Json::Num(j.total_cost)),
                ("map_cost", Json::Num(j.map_cost)),
                ("reduce_cost", Json::Num(j.reduce_cost)),
                ("output_tuples", Json::Int(j.output_tuples)),
                ("input_bytes", Json::Int(j.input_bytes().0)),
                ("communication_bytes", Json::Int(j.communication_bytes().0)),
                ("output_bytes", Json::Int(j.output_bytes().0)),
                ("spilled_bytes", Json::Int(j.spilled_bytes)),
                ("spilled_disk_bytes", Json::Int(j.spilled_disk_bytes)),
                ("spill_files", Json::Int(j.spill_files)),
                ("spill_merge_passes", Json::Int(j.spill_merge_passes)),
                ("estimated_cost", opt(j.estimated_cost)),
                ("estimate_error", opt(j.estimate_error())),
            ])
        })
        .collect();
    let mut fields = vec![
        ("net_time", Json::Num(stats.net_time())),
        ("total_time", Json::Num(stats.total_time())),
        ("input_bytes", Json::Int(stats.input_bytes().0)),
        (
            "communication_bytes",
            Json::Int(stats.communication_bytes().0),
        ),
        ("num_jobs", Json::Int(stats.num_jobs() as u64)),
        ("num_rounds", Json::Int(stats.num_rounds() as u64)),
        ("predicted_net_time", opt(stats.predicted_net_time)),
        ("spilled_bytes", Json::Int(stats.spilled_bytes())),
        ("spilled_disk_bytes", Json::Int(stats.spilled_disk_bytes())),
        ("spill_files", Json::Int(stats.spill_files())),
        ("spill_merge_passes", Json::Int(stats.spill_merge_passes())),
        // Frozen wire contract: `benchmark/src/verify.rs` rejects a stats
        // frame without these three keys. No shuffle filter exists, so
        // they are always 0.
        ("filter_bytes", Json::Int(0)),
        ("suppressed_messages", Json::Int(0)),
        ("filter_probes", Json::Int(0)),
        ("mean_estimate_error", opt(stats.mean_estimate_error())),
        ("jobs", Json::Arr(jobs)),
    ];
    if let Some(c) = cache {
        fields.push((
            "dfs_cache",
            Json::obj([
                ("capacity_bytes", Json::Int(c.capacity_bytes)),
                ("hits", Json::Int(c.hits)),
                ("misses", Json::Int(c.misses)),
                ("evictions", Json::Int(c.evictions)),
                ("cached_bytes", Json::Int(c.cached_bytes)),
                ("hit_rate", opt(c.hit_rate())),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Lower a [`SubmissionReport`] to the `stats` frame's report object:
/// tenant, the three monotonic timestamps, derived waits, the measured
/// wall time its tenant was charged, and the full program stats document.
pub fn report_to_json(report: &SubmissionReport) -> Json {
    Json::obj([
        ("tenant", Json::Str(report.tenant.clone())),
        ("queued_ns", Json::Int(report.queued_ns)),
        ("admitted_ns", Json::Int(report.admitted_ns)),
        ("completed_ns", Json::Int(report.completed_ns)),
        ("queue_wait_ns", Json::Int(report.queue_wait_ns())),
        ("service_ns", Json::Int(report.service_ns())),
        ("wall_seconds", Json::Num(report.wall_seconds)),
        ("stats", stats_to_json(&report.stats, None)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Query {
                tenant: "t1".into(),
                weight: Some(4.0),
                sgf: "Out(x) :- R(x,y) & S(y)".into(),
            },
            Request::Query {
                tenant: "a \"quoted\" tenant".into(),
                weight: None,
                sgf: "line1\nline2".into(),
            },
            Request::Ping,
            Request::Shutdown,
        ] {
            let line = request.to_line();
            assert!(!line.contains('\n'), "one request per line: {line:?}");
            assert_eq!(Request::parse(&line).unwrap(), request);
        }
    }

    /// A `weight` that is present must be a positive number: a string,
    /// boolean, `null` or array is refused like a non-positive number,
    /// never read as "no weight declared".
    #[test]
    fn weight_must_be_a_positive_number_when_present() {
        let line = |weight: &str| {
            format!(r#"{{"type":"query","tenant":"t","weight":{weight},"sgf":"s"}}"#)
        };
        for bad in [r#""4""#, "true", "null", "[]", "0", "-1"] {
            let err = Request::parse(&line(bad)).expect_err(bad);
            assert!(
                err.starts_with("weight must be a positive number"),
                "{bad}: {err}"
            );
        }
        let weight = |r: Request| match r {
            Request::Query { weight, .. } => weight,
            other => panic!("not a query: {other:?}"),
        };
        assert_eq!(weight(Request::parse(&line("2.5")).unwrap()), Some(2.5));
        let absent = r#"{"type":"query","tenant":"t","sgf":"s"}"#;
        assert_eq!(weight(Request::parse(absent).unwrap()), None);
    }

    #[test]
    fn frames_round_trip() {
        let rel = Relation::from_tuples(
            "Out",
            2,
            [
                Tuple::from_ints(&[1, 2]),
                Tuple::from_ints(&[-3, 4]),
                Tuple::new(vec![Value::Int(i64::MAX), Value::str("x")]),
            ],
        )
        .unwrap();
        for frame in relation_frames(&rel) {
            let line = frame.to_line();
            assert!(!line.contains('\n'), "one frame per line: {line:?}");
            assert_eq!(Frame::parse(&line).unwrap(), frame);
        }
    }

    #[test]
    fn values_round_trip_exactly() {
        for v in [
            Value::Int(0),
            Value::Int(-1),
            Value::Int(EXACT_INT),
            Value::Int(-EXACT_INT + 1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::str(""),
            Value::str("tab\tand \"quote\""),
        ] {
            let json = value_to_json(&v);
            // Through the actual wire text, not just the Json tree.
            let wire = Json::parse(&json.to_string()).unwrap();
            assert_eq!(value_from_json(&wire).unwrap(), v, "via {json}");
        }
    }

    #[test]
    fn relation_frames_chunk_and_preserve_order() {
        let rel = Relation::from_tuples(
            "Big",
            1,
            (0..(FRAME_ROWS as i64 * 2 + 7)).map(|i| Tuple::from_ints(&[i])),
        )
        .unwrap();
        let frames = relation_frames(&rel);
        assert!(matches!(&frames[0], Frame::Rel { rows, .. } if *rows == rel.len() as u64));
        let mut rebuilt = Relation::new("Big", 1);
        let mut streamed = Vec::new();
        for frame in &frames[1..] {
            match frame {
                Frame::Rows { rows, .. } => {
                    assert!(rows.len() <= FRAME_ROWS);
                    for t in rows {
                        streamed.push(t.clone());
                        rebuilt.insert(t.clone()).unwrap();
                    }
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // Streamed in sorted order (the Relation's canonical iteration),
        // and the rebuild is the identical relation.
        assert!(streamed.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rebuilt, rel);
    }

    /// The lines the server writes straight from a relation's rows are
    /// byte for byte the `Frame::to_line` texts of `relation_frames`, and
    /// those equal the `Json` tree's own rendering: mixed int and string
    /// rows (negative, beyond 2⁵³, escaped and non-ASCII strings) across a
    /// `FRAME_ROWS` boundary.
    #[test]
    fn relation_lines_are_the_frame_lines_byte_for_byte() {
        let strings = [
            "plain",
            "quote\"d",
            "back\\slash",
            "new\nline",
            "tab\t\u{1}",
            "ünï",
        ];
        let n = FRAME_ROWS as i64 + 3;
        let tuples = (0..n).map(|i| {
            let int = match i % 4 {
                0 => i,
                1 => -i,
                2 => EXACT_INT + i,
                _ => -EXACT_INT - i,
            };
            Tuple::new(vec![
                Value::Int(int),
                Value::str(strings[i as usize % strings.len()]),
            ])
        });
        let rel = Relation::from_tuples("Out\"s", 2, tuples).unwrap();
        let mut lines = Vec::new();
        relation_lines(&rel, |line, rows| {
            lines.push((line.to_string(), rows));
            Ok::<(), ()>(())
        })
        .unwrap();
        let frames = relation_frames(&rel);
        assert_eq!(frames.len(), 3, "a header and two rows frames");
        assert_eq!(lines.len(), frames.len());
        for ((line, rows), frame) in lines.iter().zip(&frames) {
            assert_eq!(*line, frame.to_line());
            assert_eq!(*rows, matches!(frame, Frame::Rows { .. }));
            if let Frame::Rows { name, rows } = frame {
                let tree = Json::obj([
                    ("type", Json::Str("frame".into())),
                    ("name", Json::Str(name.clone())),
                    (
                        "rows",
                        Json::Arr(
                            (rows.iter())
                                .map(|t| Json::Arr(t.values().iter().map(value_to_json).collect()))
                                .collect(),
                        ),
                    ),
                ]);
                assert_eq!(*line, tree.to_string());
                assert_eq!(Frame::parse(line).unwrap(), *frame);
            }
        }
    }

    /// `benchmark/src/verify.rs` reads `filter_bytes`, `filter_probes`
    /// and `suppressed_messages` from every stats frame: they stay at the
    /// top level, always 0, and no other filter key is left anywhere.
    #[test]
    fn stats_keep_the_frozen_filter_keys_at_zero_and_nothing_else() {
        let mut db = gumbo_common::Database::new();
        for (rel, v) in [("R", 1), ("R", 2), ("S", 2)] {
            db.insert_fact(gumbo_common::Fact::new(rel, Tuple::from_ints(&[v])))
                .unwrap();
        }
        let dfs = gumbo_storage::SimDfs::from_database(&db);
        let query = gumbo_sgf::parse_program("Out := SELECT x FROM R(x) WHERE S(x);").unwrap();
        let stats = gumbo_core::GumboEngine::with_defaults()
            .eval()
            .run(&dfs, &query)
            .unwrap();
        assert!(stats.num_jobs() > 0);
        let cache = gumbo_storage::CacheStats::default();
        let json = Json::parse(&stats_to_json(&stats, Some(&cache)).to_string()).unwrap();

        for key in ["filter_bytes", "filter_probes", "suppressed_messages"] {
            assert_eq!(json.get(key).and_then(Json::as_u64), Some(0), "{key}");
        }
        fn filter_keys(json: &Json, path: &str, found: &mut Vec<String>) {
            match json {
                Json::Obj(pairs) => {
                    for (key, value) in pairs {
                        let at = format!("{path}/{key}");
                        filter_keys(value, &at, found);
                        let prefixes = ["filter_", "suppressed_", "observed_fp_"];
                        if prefixes.iter().any(|p| key.starts_with(p)) {
                            found.push(at);
                        }
                    }
                }
                Json::Arr(items) => items.iter().for_each(|v| filter_keys(v, path, found)),
                _ => {}
            }
        }
        let mut found = Vec::new();
        filter_keys(&json, "", &mut found);
        assert_eq!(
            found,
            ["/filter_bytes", "/suppressed_messages", "/filter_probes"]
        );
    }

    /// Request lines from four angles: printable noise, arbitrary bytes,
    /// JSON tokens in random order, and arrays/objects nested arbitrarily
    /// deep (a 1 MiB line has room for half a million `[`).
    fn arb_line() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        const TOKENS: [&str; 14] = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"type\"",
            "\"query\"",
            "\"sgf\"",
            "\"weight\"",
            "-1e9",
            "null",
            "\"\\u12\"",
            "\"\\",
        ];
        const NESTERS: [&str; 3] = ["[", "{\"type\":", "[{\"a\":"];
        prop_oneof![
            "[ -~]{0,80}".prop_map(|s| s),
            proptest::collection::vec(any::<u8>(), 0..80)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
            proptest::collection::vec(0..TOKENS.len(), 0..30)
                .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect()),
            (0..NESTERS.len(), 0usize..300_000).prop_map(|(n, depth)| NESTERS[n].repeat(depth)),
        ]
    }

    proptest::proptest! {
        /// Whatever a client sends, the answer is a request or an error
        /// message — never a panic or a stack overflow.
        #[test]
        fn request_parse_never_panics(line in arb_line()) {
            let _ = Request::parse(&line);
        }
    }
}
