//! Results files: what `run` writes, what it prints, and how `compare`
//! judges one results file against another.

use std::fmt::Write as _;

use gumbo::obs::json::Json;

use crate::harness::Outcome;
use crate::metrics::{Better, Gate, Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::{Workload, WORKLOADS};

fn number(value: Option<f64>) -> Json {
    value.map_or(Json::Null, Json::Num)
}

fn metric_object(outcome: &Outcome, metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = outcome.values.get(m.name).copied().flatten();
                (m.name.to_string(), number(value))
            })
            .collect(),
    )
}

/// One run of one workload, as stored under `workloads.<name>.runs`.
pub fn run_to_json(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(outcome.failed)),
        ("samples", Json::Int(outcome.samples as u64)),
        (
            "latency_tail",
            outcome.latency_tail.map_or(Json::Null, |(p, ms)| {
                Json::obj([("percentile", Json::Num(p)), ("ms", Json::Num(ms))])
            }),
        ),
        ("end_to_end", metric_object(outcome, END_TO_END)),
        ("per_layer", metric_object(outcome, PER_LAYER)),
        (
            "notes",
            Json::Arr(outcome.notes.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// What `run` stores for one run of a workload: the `--trace 0` child's
/// run with the per-layer metrics of the `--trace 1` child, and the
/// request counts, failures and notes of both.
pub fn merge_runs(end_to_end: &Json, layers: &Json) -> Json {
    let both = [end_to_end, layers];
    let count = |key: &str| -> u64 { both.iter().filter_map(|run| run.get(key)?.as_u64()).sum() };
    let (attempted, failed) = (count("attempted"), count("failed"));
    let notes = both
        .iter()
        .flat_map(|run| run.get("notes").and_then(Json::as_arr).unwrap_or(&[]))
        .cloned()
        .collect();
    let field = |run: &Json, key: &str| run.get(key).cloned().unwrap_or(Json::Null);
    let mut metrics = match field(end_to_end, "end_to_end") {
        Json::Obj(metrics) => metrics,
        _ => Vec::new(),
    };
    for (name, value) in &mut metrics {
        if name == "failed_share" {
            *value = Json::Num(failed as f64 / attempted.max(1) as f64);
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        ("samples", field(end_to_end, "samples")),
        ("latency_tail", field(end_to_end, "latency_tail")),
        ("end_to_end", Json::Obj(metrics)),
        ("per_layer", field(layers, "per_layer")),
        ("notes", Json::Arr(notes)),
    ])
}

/// The last line of a single-workload invocation, as the driver reads
/// it: only `metrics`' names, each with its value and unit. A metric
/// that does not apply on this workload reads 0.
pub fn driver_line<'a>(outcome: &Outcome, metrics: impl Iterator<Item = &'a Metric>) -> Json {
    let metrics = metrics
        .map(|m| {
            let value = outcome.values.get(m.name).copied().flatten().unwrap_or(0.0);
            (
                m.name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted.max(1))),
        ("failed", Json::Int(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Print every metric of one run by name, with its unit.
pub fn print_run(workload: &Workload, run: &Json) {
    let samples = run.get("samples").and_then(Json::as_u64).unwrap_or(0);
    println!("== {}: {}", workload.name, workload.why);
    println!("  {samples} latency samples in the window");
    for (section, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        for m in metrics {
            let value = run
                .get(section)
                .and_then(|s| s.get(m.name))
                .and_then(Json::as_f64);
            match value {
                Some(v) => println!("  {:<34} {:>14.4} {}", m.name, v, m.unit),
                None => println!("  {:<34} {:>14} {}", m.name, "n/a", m.unit),
            }
        }
    }
    if let Some(tail) = run.get("latency_tail").filter(|t| **t != Json::Null) {
        let get = |key| tail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "  highest percentile with >= 10 samples beyond it: p{} = {:.4} ms",
            get("percentile"),
            get("ms")
        );
    }
    for note in run.get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
        println!("  note: {}", note.as_str().unwrap_or("?"));
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Interquartile distance as a share of the median; `None` for one run.
fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    Some((q3 - q1) / q2.abs().max(f64::MIN_POSITIVE))
}

/// Judge the change's runs `b` against the base's runs `a`.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    match metric.gate {
        Gate::None => Verdict::Ok,
        Gate::Zero => {
            if b.iter().all(|v| *v == 0.0) {
                Verdict::Ok
            } else {
                Verdict::Worse
            }
        }
        Gate::Exact => {
            if a.iter().chain(b).all(|v| *v == a[0]) {
                Verdict::Ok
            } else {
                Verdict::Worse
            }
        }
        Gate::Share(bound) => {
            let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
            if widest > bound {
                let clear_win = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
                return if clear_win {
                    Verdict::Ok
                } else {
                    Verdict::Unresolved
                };
            }
            let (base, change) = (median(a), median(b));
            let worse_by = match metric.better {
                Better::Lower => (change - base) / base,
                Better::Higher => (base - change) / base,
            };
            if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            }
        }
    }
}

fn run_values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

/// Compare two results files. Returns the report and whether any
/// (workload, end-to-end metric) pair is worse; `Err` when the files
/// are not fit for comparison (a quick run, or different seeds).
pub fn compare(base: &Json, change: &Json) -> Result<(String, bool), String> {
    for (label, doc) in [("base", base), ("change", change)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            return Err(format!(
                "the {label} file is not comparable (a --quick run, or not a results file)"
            ));
        }
    }
    let seed = |doc: &Json| doc.get("header").and_then(|h| h.get("seed")).cloned();
    if seed(base) != seed(change) {
        return Err(format!(
            "the files were run with different seeds ({:?} and {:?}); inputs differ",
            seed(base),
            seed(change)
        ));
    }
    let mut out = String::new();
    let mut any_worse = false;
    writeln!(
        out,
        "{:<16} {:<20} {:>12} {:>12} {:>9}  verdict (ratio = change / base; bound)",
        "workload", "metric", "base", "change", "ratio"
    )
    .expect("write to a string");
    for w in WORKLOADS {
        for m in END_TO_END {
            let (a, b) = (
                run_values(base, w.name, m.name),
                run_values(change, w.name, m.name),
            );
            if a.is_empty() || b.is_empty() {
                any_worse = true;
                writeln!(
                    out,
                    "{:<16} {:<20} missing from a file: worse",
                    w.name, m.name
                )
                .expect("write to a string");
                continue;
            }
            let verdict = judge(m, &a, &b);
            any_worse |= verdict == Verdict::Worse;
            let (x, y) = (median(&a), median(&b));
            let ratio = if x == 0.0 {
                "-".into()
            } else {
                format!("{:.4}", y / x)
            };
            let bound = match m.gate {
                Gate::Share(s) => format!("{:.0}%", s * 100.0),
                Gate::Exact => "exact".into(),
                Gate::Zero => "0".into(),
                Gate::None => "-".into(),
            };
            writeln!(
                out,
                "{:<16} {:<20} {:>12.4} {:>12.4} {:>9}  {} ({} {}; {})",
                w.name,
                m.name,
                x,
                y,
                ratio,
                verdict.label(),
                m.better.label(),
                m.unit,
                bound
            )
            .expect("write to a string");
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    #[test]
    fn a_metric_may_worsen_by_its_bound_and_no_more() {
        let p50 = end_to_end("latency_ms_p50").unwrap(); // lower, 25 %
        assert_eq!(judge(p50, &[100.0], &[124.0]), Verdict::Ok);
        assert_eq!(judge(p50, &[100.0], &[126.0]), Verdict::Worse);
        assert_eq!(judge(p50, &[100.0], &[50.0]), Verdict::Ok);
        let qps = end_to_end("throughput_qps").unwrap(); // higher, 25 %
        assert_eq!(judge(qps, &[100.0], &[76.0]), Verdict::Ok);
        assert_eq!(judge(qps, &[100.0], &[74.0]), Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let p50 = end_to_end("latency_ms_p50").unwrap();
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(p50, &noisy, &[100.0, 101.0, 102.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(p50, &noisy, &[70.0, 71.0, 72.0]), Verdict::Ok);
        let steady = [100.0, 101.0, 102.0, 103.0];
        assert_eq!(judge(p50, &steady, &[130.0, 131.0, 132.0]), Verdict::Worse);
    }

    #[test]
    fn exact_and_zero_gates() {
        let model = end_to_end("model_total_time_s").unwrap();
        assert_eq!(judge(model, &[5.25, 5.25], &[5.25]), Verdict::Ok);
        assert_eq!(judge(model, &[5.25], &[5.250001]), Verdict::Worse);
        let failed = end_to_end("failed_share").unwrap();
        assert_eq!(judge(failed, &[0.0], &[0.0]), Verdict::Ok);
        assert_eq!(judge(failed, &[0.0], &[0.01]), Verdict::Worse);
    }

    #[test]
    fn a_stored_run_joins_the_two_driver_runs() {
        let child = |attempted, failed, p50: f64, parse_us| {
            Json::obj([
                ("correct", Json::Bool(failed == 0)),
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                ("samples", Json::Int(attempted - 10)),
                (
                    "end_to_end",
                    Json::obj([
                        ("latency_ms_p50", Json::Num(p50)),
                        ("failed_share", Json::Num(0.0)),
                    ]),
                ),
                ("per_layer", Json::obj([("sgf.parse_us_p50", parse_us)])),
                ("notes", Json::Arr(vec![Json::Str(format!("p50 {p50}"))])),
            ])
        };
        let run = merge_runs(
            &child(300, 0, 64.5, Json::Null),
            &child(100, 1, 70.0, Json::Num(8.5)),
        );
        let value = |section: &str, name: &str| run.get(section)?.get(name)?.as_f64();
        // Timings of the --trace 0 child, layers of the --trace 1 child.
        assert_eq!(value("end_to_end", "latency_ms_p50"), Some(64.5));
        assert_eq!(value("per_layer", "sgf.parse_us_p50"), Some(8.5));
        assert_eq!(run.get("samples"), Some(&Json::Int(290)));
        // Requests, failures and notes of both.
        assert_eq!(run.get("attempted"), Some(&Json::Int(400)));
        assert_eq!(run.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(value("end_to_end", "failed_share"), Some(1.0 / 400.0));
        assert_eq!(
            run.get("notes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn quick_runs_and_different_seeds_are_refused() {
        let quick = Json::obj([("comparable", Json::Bool(false))]);
        let full = Json::obj([("comparable", Json::Bool(true))]);
        assert!(compare(&full, &quick).is_err());
        assert!(compare(&quick, &full).is_err());
        let seeded = |seed| {
            Json::obj([
                ("comparable", Json::Bool(true)),
                ("header", Json::obj([("seed", Json::Int(seed))])),
            ])
        };
        assert!(compare(&seeded(1), &seeded(2)).is_err());
        assert!(compare(&seeded(2), &seeded(2)).is_ok());
        // Comparable but empty: every pair is missing, hence worse.
        assert!(compare(&full, &full).unwrap().1);
    }
}
