//! The repo's one benchmark: end-to-end and per-layer metrics of
//! `gumbo-serve` over five workloads. See `README.md` in this directory.
//!
//! ```text
//! gumbo-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]   one workload (driver contract)
//! gumbo-benchmark run [--seed N] [--quick] [--runs K] [--out DIR]            every workload, results file
//! gumbo-benchmark compare BASE.json CHANGE.json                              judge two results files
//! ```

mod harness;
mod metrics;
mod proc;
mod report;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use gumbo::obs::json::Json;

use harness::{Mode, RunConfig};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOCATOR: proc::CountingAlloc = proc::CountingAlloc;

/// Length of the measured window; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 18.0;
/// Window under `--quick` (smoke use; never comparable).
const QUICK_SECONDS: f64 = 3.0;
/// Samples a workload must yield for its p90 to have ten beyond it.
const MIN_SAMPLES: u64 = 120;

const USAGE: &str = "usage:
  gumbo-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
  gumbo-benchmark run [--seed N] [--quick] [--runs K] [--out DIR]
  gumbo-benchmark compare BASE.json CHANGE.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => run_one(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--switch`es, in any order.
struct Flags<'a>(&'a [String]);

impl Flags<'_> {
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a valid value\n{USAGE}")),
        }
    }

    fn switch(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload in this process. Standard output ends with two lines:
/// everything the run measured (what `run` stores), then the result
/// object of the driver contract.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let name: String = flags.value("--workload")?.ok_or(USAGE)?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let mode = match flags.value::<u8>("--trace")?.unwrap_or(0) {
        0 => Mode::EndToEnd,
        1 => Mode::Layers,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let quick = flags.switch("--quick");
    let seconds: f64 =
        flags
            .value("--seconds")?
            .unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let config = RunConfig {
        workload,
        seed: flags.value("--seed")?.unwrap_or(1),
        seconds,
        mode,
        quick,
        out_dir: flags.value("--out")?.unwrap_or_else(default_out_dir),
    };
    std::fs::create_dir_all(&config.out_dir).map_err(|e| format!("creating the out dir: {e}"))?;
    let outcome = harness::run_workload(&config);
    for note in &outcome.notes {
        eprintln!("{}: {note}", workload.name);
    }
    println!("{}", report::run_to_json(&outcome));
    let line = match mode {
        Mode::EndToEnd => report::driver_line(&outcome, metrics::driver_end_to_end()),
        Mode::Layers => report::driver_line(&outcome, metrics::driver_per_layer()),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One workload in a child process of this binary: everything it
/// measured, which is the line before the driver's result object.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    trace: u8,
    quick: bool,
    out_dir: &Path,
) -> Result<Json, String> {
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", &trace.to_string()])
        .arg("--out")
        .arg(out_dir)
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let child = command
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    stdout
        .lines()
        .rev()
        .nth(1)
        .filter(|_| child.status.success())
        .and_then(|line| Json::parse(line).ok())
        .ok_or_else(|| format!("workload {workload} (--trace {trace}) ended without a result"))
}

/// Every workload, `--runs` times over, each run as the driver makes it:
/// one child process with `--trace 0` for the end-to-end metrics and one
/// with `--trace 1` for the per-layer metrics. Prints every metric and
/// writes `results.json`.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags(args);
    let quick = flags.switch("--quick");
    let seed: u64 = flags.value("--seed")?.unwrap_or(1);
    let runs: usize = flags.value("--runs")?.unwrap_or(1).max(1);
    let seconds = if quick { QUICK_SECONDS } else { RUN_SECONDS };
    let out_dir: PathBuf = flags.value("--out")?.unwrap_or_else(default_out_dir);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("creating the out dir: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;

    let mut workloads = Vec::new();
    let mut sample_counts = Vec::new();
    let mut failed = false;
    for w in WORKLOADS {
        let mut results = Vec::new();
        for _ in 0..runs {
            let end_to_end = child_run(&exe, w.name, seed, 0, quick, &out_dir)?;
            let layers = child_run(&exe, w.name, seed, 1, quick, &out_dir)?;
            let run = report::merge_runs(&end_to_end, &layers);
            report::print_run(w, &run);
            failed |= run.get("correct") != Some(&Json::Bool(true));
            results.push(run);
        }
        let samples: Vec<Json> = results
            .iter()
            .map(|r| r.get("samples").cloned().unwrap_or(Json::Null))
            .collect();
        sample_counts.push((w.name.to_string(), Json::Arr(samples)));
        workloads.push((
            w.name.to_string(),
            Json::obj([("runs", Json::Arr(results))]),
        ));
    }

    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let header = Json::obj([
        (
            "git_commit",
            Json::Str(command_line(
                "git",
                &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "hardware_threads",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("seed", Json::Int(seed)),
        ("window_seconds", Json::Num(seconds)),
        ("runs", Json::Int(runs as u64)),
        (
            "traced_rotations",
            Json::Int(harness::traced_rotations(quick) as u64),
        ),
        (
            "load",
            Json::Str(format!(
                "closed loop, {} clients, no think time",
                workloads::CLIENTS
            )),
        ),
        (
            "serve",
            Json::Str(format!(
                "--executor {} --max-jobs {} --inflight {}",
                workloads::EXECUTOR,
                workloads::MAX_JOBS,
                workloads::DISPATCHERS
            )),
        ),
        (
            "engine",
            Json::Str(
                "greedy grouping, enable_one_round=false, DAG scheduler, FIFO placement, \
                 default data plane, shuffle filter off"
                    .into(),
            ),
        ),
        ("samples", Json::Obj(sample_counts)),
    ]);
    let doc = Json::obj([
        ("header", header),
        ("comparable", Json::Bool(!quick)),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.to_string() + "\n").map_err(|e| format!("writing results: {e}"))?;
    println!("results: {}", path.display());

    for warning in sanity(&doc, quick) {
        println!("sanity: {warning}");
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Does each workload exercise what its name says? Warnings only: a
/// later change may legitimately move these.
fn sanity(doc: &Json, quick: bool) -> Vec<String> {
    let first_run = |workload: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("runs")?
            .as_arr()?
            .first()
    };
    let layer =
        |workload: &str, metric: &str| first_run(workload)?.get("per_layer")?.get(metric)?.as_f64();
    let mut warnings = Vec::new();
    for w in WORKLOADS {
        let samples = first_run(w.name).and_then(|r| r.get("samples")?.as_u64());
        if !quick && samples.is_some_and(|n| n < MIN_SAMPLES) {
            warnings.push(format!(
                "{}: {samples:?} latency samples, fewer than {MIN_SAMPLES}",
                w.name
            ));
        }
        let busy = layer(w.name, "gen.client_busy_share");
        if busy.is_some_and(|b| b >= harness::MAX_CLIENT_BUSY_SHARE) {
            warnings.push(format!("{}: gen.client_busy_share is {busy:?}", w.name));
        }
    }
    let hit = |workload| layer(workload, "storage.cache_hit_rate");
    if hit("file_warm").is_some_and(|h| h < 0.8) {
        warnings.push(format!(
            "file_warm: cache hit rate {:?} is below 0.8",
            hit("file_warm")
        ));
    }
    if hit("file_cold").is_some_and(|h| h > 0.1) {
        warnings.push(format!(
            "file_cold: cache hit rate {:?} is above 0.1",
            hit("file_cold")
        ));
    }
    let jobs = |workload| layer(workload, "core.jobs_per_query");
    if let (Some(nested), Some(flat)) = (jobs("nested_small"), jobs("flat_shuffle")) {
        if nested < 3.0 * flat {
            warnings.push(format!(
                "nested_small runs {nested} jobs per query, under 3x flat_shuffle's {flat}"
            ));
        }
    }
    warnings
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
    };
    let (report, any_worse) = report::compare(&load(base)?, &load(change)?)?;
    print!("{report}");
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
