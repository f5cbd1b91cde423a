//! Reply verification against the `sgf::naive` oracle.
//!
//! Replies are byte-reproducible (relations stream in sorted order), so
//! the load generator stays cheap: it hashes the raw bytes of `rel` and
//! `frame` lines and JSON-parses only the terminal `stats` line. The
//! expected hash is built at set-up by pushing the oracle's relations
//! through the server's own `relation_frames` + `Frame::to_line`.

use std::io::BufRead;

use gumbo::obs::json::Json;
use gumbo::obs::now_ns;
use gumbo::prelude::Relation;
use gumbo::service::protocol::relation_frames;

/// FNV-1a over the reply's data lines, newline included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyDigest {
    pub hash: u64,
    /// `rel` + `frame` lines.
    pub lines: u64,
    pub bytes: u64,
}

impl ReplyDigest {
    pub const EMPTY: ReplyDigest = ReplyDigest {
        hash: 0xcbf2_9ce4_8422_2325,
        lines: 0,
        bytes: 0,
    };

    pub fn push_line(&mut self, raw: &[u8]) {
        for &b in raw {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.lines += 1;
        self.bytes += raw.len() as u64;
    }
}

/// The wire lines (each `\n`-terminated) that stream `relations`.
pub fn reply_lines(relations: &[&Relation]) -> Vec<String> {
    relations
        .iter()
        .flat_map(|rel| relation_frames(rel))
        .map(|frame| frame.to_line() + "\n")
        .collect()
}

/// The digest a correct reply streaming `relations` must produce.
pub fn expected_digest(relations: &[&Relation]) -> ReplyDigest {
    let mut digest = ReplyDigest::EMPTY;
    for line in reply_lines(relations) {
        digest.push_line(line.as_bytes());
    }
    digest
}

/// The numbers one `stats` frame carries that the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplyStats {
    pub queued_ns: u64,
    pub admitted_ns: u64,
    pub completed_ns: u64,
    /// The cost model's predictions; identical on every reply of a template.
    pub model: ModelStats,
    pub jobs: u64,
    pub rounds: u64,
    pub estimate_error: Option<f64>,
    pub spilled_bytes: u64,
    pub spilled_disk_bytes: u64,
    pub spill_files: u64,
    pub merge_passes: u64,
    pub filter_bytes: u64,
    pub filter_probes: u64,
    pub suppressed: u64,
}

/// `total_time`, `net_time` and `communication_bytes` of a reply.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelStats {
    pub total_time: f64,
    pub net_time: f64,
    pub communication_bytes: u64,
}

impl ReplyStats {
    /// Read the report object of a `stats` frame.
    pub fn from_report(report: &Json) -> Result<ReplyStats, String> {
        let stats = report.get("stats").ok_or("report has no \"stats\"")?;
        let int = |obj: &Json, key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stats frame is missing {key:?}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            stats
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("stats frame is missing {key:?}"))
        };
        Ok(ReplyStats {
            queued_ns: int(report, "queued_ns")?,
            admitted_ns: int(report, "admitted_ns")?,
            completed_ns: int(report, "completed_ns")?,
            model: ModelStats {
                total_time: num("total_time")?,
                net_time: num("net_time")?,
                communication_bytes: int(stats, "communication_bytes")?,
            },
            jobs: int(stats, "num_jobs")?,
            rounds: int(stats, "num_rounds")?,
            estimate_error: stats.get("mean_estimate_error").and_then(Json::as_f64),
            spilled_bytes: int(stats, "spilled_bytes")?,
            spilled_disk_bytes: int(stats, "spilled_disk_bytes")?,
            spill_files: int(stats, "spill_files")?,
            merge_passes: int(stats, "spill_merge_passes")?,
            filter_bytes: int(stats, "filter_bytes")?,
            filter_probes: int(stats, "filter_probes")?,
            suppressed: int(stats, "suppressed_messages")?,
        })
    }
}

/// One reply as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub digest: ReplyDigest,
    pub first_byte_ns: u64,
    pub done_ns: u64,
    /// The terminal frame: the parsed stats, or why there are none.
    pub stats: Result<ReplyStats, String>,
}

fn has_type(line: &[u8], kind: &str) -> bool {
    // `Frame::to_line` always writes "type" first.
    line.strip_prefix(b"{\"type\":\"")
        .and_then(|rest| rest.strip_prefix(kind.as_bytes()))
        .is_some_and(|rest| rest.first() == Some(&b'"'))
}

/// Read one reply up to its terminal `stats` or `error` frame, hashing
/// data lines as raw bytes. An `Err` is a transport failure.
pub fn read_reply(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<Reply> {
    let mut digest = ReplyDigest::EMPTY;
    let mut first_byte_ns = 0;
    loop {
        line.clear();
        if reader.read_until(b'\n', line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let now = now_ns();
        if first_byte_ns == 0 {
            first_byte_ns = now;
        }
        let stats = if has_type(line, "rel") || has_type(line, "frame") {
            digest.push_line(line);
            continue;
        } else if has_type(line, "stats") {
            std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(Json::parse)
                .and_then(|frame| {
                    ReplyStats::from_report(frame.get("report").ok_or("stats without report")?)
                })
        } else {
            Err(format!(
                "reply ended with {}",
                String::from_utf8_lossy(line).trim_end()
            ))
        };
        return Ok(Reply {
            digest,
            first_byte_ns,
            done_ns: now,
            stats,
        });
    }
}

/// Checks every reply of one client against the oracle and against the
/// first reply of the same template, and counts what it was given.
#[derive(Debug)]
pub struct Verifier {
    expected: Vec<ReplyDigest>,
    /// Must a reply of this workload report spilled bytes (`true`), or
    /// must it report none (`false`)?
    expect_spill: bool,
    model: Vec<Option<ModelStats>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub reasons: Vec<String>,
}

impl Verifier {
    /// `expected[t]` is the digest of template `t`'s correct reply.
    pub fn new(expected: Vec<ReplyDigest>, expect_spill: bool) -> Verifier {
        Verifier {
            model: vec![None; expected.len()],
            expected,
            expect_spill,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
        }
    }

    /// The model predictions seen for template `t`, once a reply passed.
    pub fn model(&self, template: usize) -> Option<ModelStats> {
        self.model[template]
    }

    /// Count one request that produced no reply at all.
    pub fn transport_failure(&mut self, template: usize, error: &std::io::Error) {
        self.attempted += 1;
        self.reject(template, format!("transport error: {error}"));
    }

    /// Count a reply (already counted as attempted) as failed.
    pub fn reject(&mut self, template: usize, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("template {template}: {reason}"));
        }
    }

    /// Verify one reply; returns its stats when everything holds.
    pub fn check(&mut self, template: usize, reply: &Reply) -> Option<ReplyStats> {
        self.attempted += 1;
        let verdict = self.judge(template, reply);
        match verdict {
            Ok(stats) => Some(stats),
            Err(reason) => {
                self.reject(template, reason);
                None
            }
        }
    }

    fn judge(&mut self, template: usize, reply: &Reply) -> Result<ReplyStats, String> {
        let stats = reply.stats.clone()?;
        let expected = self.expected[template];
        if reply.digest != expected {
            return Err(format!(
                "reply differs from the oracle: {:?}, expected {expected:?}",
                reply.digest
            ));
        }
        match self.model[template] {
            None => self.model[template] = Some(stats.model),
            Some(first) if first != stats.model => {
                return Err(format!(
                    "non-deterministic stats: {:?}, first reply had {first:?}",
                    stats.model
                ));
            }
            Some(_) => {}
        }
        if self.expect_spill != (stats.spilled_bytes > 0) {
            return Err(format!(
                "workload is not exercising what its name says: spilled {} bytes",
                stats.spilled_bytes
            ));
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo::prelude::Tuple;
    use gumbo::service::Frame;

    fn relation(rows: i64) -> Relation {
        let mut rel = Relation::new("Out_c0", 2);
        for i in 0..rows {
            rel.insert(Tuple::from_ints(&[i, i * 7])).unwrap();
        }
        rel
    }

    fn stats_line(spilled: u64, total_time: f64) -> String {
        let stats = Json::obj([
            ("net_time", Json::Num(2.0)),
            ("total_time", Json::Num(total_time)),
            ("communication_bytes", Json::Int(4_000)),
            ("num_jobs", Json::Int(2)),
            ("num_rounds", Json::Int(2)),
            ("spilled_bytes", Json::Int(spilled)),
            ("spilled_disk_bytes", Json::Int(spilled)),
            ("spill_files", Json::Int(0)),
            ("spill_merge_passes", Json::Int(0)),
            ("filter_bytes", Json::Int(0)),
            ("filter_probes", Json::Int(0)),
            ("suppressed_messages", Json::Int(0)),
            ("mean_estimate_error", Json::Null),
        ]);
        let report = Json::obj([
            ("queued_ns", Json::Int(10)),
            ("admitted_ns", Json::Int(20)),
            ("completed_ns", Json::Int(30)),
            ("stats", stats),
        ]);
        Frame::Stats { report }.to_line() + "\n"
    }

    fn read(lines: &[String], terminal: &str) -> Reply {
        let wire = lines.concat() + terminal;
        read_reply(&mut wire.as_bytes(), &mut Vec::new()).expect("complete reply")
    }

    #[test]
    fn a_correct_reply_passes_and_yields_its_stats() {
        let rel = relation(600);
        let lines = reply_lines(&[&rel]);
        assert_eq!(lines.len(), 4, "header + 3 frames of <= 256 rows");
        let mut verifier = Verifier::new(vec![expected_digest(&[&rel])], false);
        let reply = read(&lines, &stats_line(0, 5.0));
        let stats = verifier.check(0, &reply).expect("verified");
        assert_eq!(
            (stats.queued_ns, stats.completed_ns, stats.jobs),
            (10, 30, 2)
        );
        assert_eq!(reply.digest.lines, 4);
        assert_eq!((verifier.attempted, verifier.failed), (1, 0));
    }

    #[test]
    fn an_altered_row_and_a_dropped_frame_both_count_as_failures() {
        let rel = relation(600);
        let lines = reply_lines(&[&rel]);
        let mut verifier = Verifier::new(vec![expected_digest(&[&rel])], false);

        let mut altered = lines.clone();
        assert!(altered[2].contains("[300,2100]"));
        altered[2] = altered[2].replace("[300,2100]", "[300,2101]");
        assert!(verifier
            .check(0, &read(&altered, &stats_line(0, 5.0)))
            .is_none());

        let mut dropped = lines.clone();
        dropped.remove(3);
        assert!(verifier
            .check(0, &read(&dropped, &stats_line(0, 5.0)))
            .is_none());

        assert_eq!((verifier.attempted, verifier.failed), (2, 2));
        assert!(verifier.reasons[0].contains("differs from the oracle"));
    }

    #[test]
    fn error_frames_unstable_stats_and_wrong_spill_state_fail() {
        let rel = relation(3);
        let lines = reply_lines(&[&rel]);
        let digest = expected_digest(&[&rel]);

        let mut verifier = Verifier::new(vec![digest], false);
        let error = Frame::Error {
            message: "server is draining".into(),
        }
        .to_line()
            + "\n";
        assert!(verifier.check(0, &read(&[], &error)).is_none());
        assert!(verifier
            .check(0, &read(&lines, &stats_line(0, 5.0)))
            .is_some());
        // Same template, different model prediction.
        assert!(verifier
            .check(0, &read(&lines, &stats_line(0, 5.5)))
            .is_none());
        // Spilled on a workload without a budget.
        assert!(verifier
            .check(0, &read(&lines, &stats_line(64, 5.0)))
            .is_none());
        assert_eq!((verifier.attempted, verifier.failed), (4, 3));

        // And the converse: a budgeted workload that never spills.
        let mut budgeted = Verifier::new(vec![digest], true);
        assert!(budgeted
            .check(0, &read(&lines, &stats_line(0, 5.0)))
            .is_none());
        assert!(budgeted
            .check(0, &read(&lines, &stats_line(64, 5.0)))
            .is_some());

        // A connection that closes mid-reply is a transport error.
        let torn = lines.concat();
        assert!(read_reply(&mut torn.as_bytes(), &mut Vec::new()).is_err());
    }
}
