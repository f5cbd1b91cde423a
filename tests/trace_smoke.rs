//! Tracing smoke tests: the observability plane must tell the truth.
//!
//! Three properties are pinned down across the whole execution matrix
//! (every datagen preset × `sim` and a worker pool × one and three job
//! slots):
//!
//! * **balance** — on every worker lane, span Begin/End events bracket
//!   like parentheses with matching names, and nothing is left open;
//! * **reconciliation** — the byte fields on `spill:run` spans sum to
//!   exactly each job's `JobStats::spilled_bytes`, and every estimated
//!   job's `commit` span carries the same estimated/observed cost pair
//!   as the stats it committed (the calibration ledger);
//! * **crash-consistency** — a panic inside an instrumented phase fails
//!   the job, still closes every span (marked `aborted`) and the Chrome
//!   exporter still produces a well-formed JSON document.
//!
//! The tracer is process-global, so every test here serializes on one
//! mutex and uninstalls before asserting.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use gumbo::datagen::queries;
use gumbo::obs::json::Json;
use gumbo::obs::{Event, EventKind, FieldValue, RingSink};
use gumbo::prelude::*;

/// Tracer state is process-global; tests that install sinks take this
/// lock so their event streams cannot interleave.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn field_str<'a>(event: &'a Event, key: &str) -> Option<&'a str> {
    event.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::Str(s) = &f.value {
            Some(s.as_str())
        } else {
            None
        }
    })
}

fn field_u64(event: &Event, key: &str) -> Option<u64> {
    event.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::U64(n) = f.value {
            Some(n)
        } else {
            None
        }
    })
}

fn field_f64(event: &Event, key: &str) -> Option<f64> {
    event.fields.iter().find(|f| f.key == key).and_then(|f| {
        if let FieldValue::F64(x) = f.value {
            Some(x)
        } else {
            None
        }
    })
}

/// Per-lane bracket check: every End closes the most recent Begin of
/// the same name on its lane, and all lanes end empty.
fn assert_balanced(label: &str, events: &[Event]) {
    let mut stacks: HashMap<u64, Vec<&'static str>> = HashMap::new();
    for event in events {
        let stack = stacks.entry(event.lane).or_default();
        match event.kind {
            EventKind::Begin => stack.push(event.name),
            EventKind::End => {
                let open = stack.pop().unwrap_or_else(|| {
                    panic!(
                        "{label}: End {:?} with no open span on lane {}",
                        event.name, event.lane
                    )
                });
                assert_eq!(
                    open, event.name,
                    "{label}: End {:?} closes open span {open:?} on lane {}",
                    event.name, event.lane
                );
            }
            EventKind::Instant => {}
        }
    }
    for (lane, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "{label}: unclosed spans {stack:?} on lane {lane}"
        );
    }
}

fn traced_run(
    workload: &gumbo::datagen::Workload,
    executor: ExecutorKind,
    slots: usize,
    budget: gumbo::mr::MemBudget,
) -> (Vec<Event>, ProgramStats) {
    let db = workload.spec.clone().with_tuples(120).database(11);
    let engine = GumboEngine::with_executor(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        executor,
        EvalOptions {
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: slots,
                ..SchedulerConfig::ONE_SLOT
            }),
            mem_budget: budget,
            ..EvalOptions::default()
        },
    );
    let dfs = SimDfs::from_database(&db);
    let ring = Arc::new(RingSink::new(1 << 20));
    gumbo::obs::install(ring.clone());
    let result = engine.evaluate(&dfs, &workload.query);
    gumbo::obs::uninstall();
    let stats = result.unwrap_or_else(|e| panic!("{}: {e}", workload.name));
    assert_eq!(ring.dropped(), 0, "{}: ring sink overflowed", workload.name);
    (ring.events(), stats)
}

/// Every preset × executor × slot count leaves a balanced trace with one
/// `job` span and one full phase set per executed job, each job nested
/// under its claim — and `sim` at one slot is a single-threaded process:
/// one lane, every job inline under the `execute` span that ran it.
#[test]
fn spans_balance_across_the_execution_matrix() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    for workload in queries::presets() {
        for executor in [
            ExecutorKind::Simulated,
            ExecutorKind::Parallel { threads: 2 },
        ] {
            for slots in [1usize, 3] {
                let label = format!("{} ({}, {slots} slots)", workload.name, executor.label());
                let (events, stats) =
                    traced_run(&workload, executor, slots, gumbo::mr::MemBudget::UNLIMITED);
                assert_balanced(&label, &events);
                let begins = |name: &str| {
                    events
                        .iter()
                        .filter(|e| e.kind == EventKind::Begin && e.name == name)
                        .count()
                };
                let jobs = stats.num_jobs();
                for phase in ["job", "plan", "map", "shuffle:flush", "reduce", "commit"] {
                    assert_eq!(
                        begins(phase),
                        jobs,
                        "{label}: expected one {phase:?} span per job"
                    );
                }
                // Every reducer builds and sorts its partition under its
                // own span, which closes before its reduce function runs
                // and names the rows, bytes and runs it holds.
                let partitions = begins("reduce:partition");
                assert!(
                    partitions >= jobs,
                    "{label}: a reduce:partition span per reducer"
                );
                assert_eq!(
                    partitions,
                    begins("reduce:task"),
                    "{label}: one reduce:partition span per reduce:task span"
                );
                for end in events
                    .iter()
                    .filter(|e| e.kind == EventKind::End && e.name == "reduce:partition")
                {
                    for field in ["rows", "bytes", "runs"] {
                        assert!(
                            field_u64(end, field).is_some(),
                            "{label}: reduce:partition lacks {field:?}"
                        );
                    }
                }
                let claims = events
                    .iter()
                    .filter(|e| e.kind == EventKind::Instant && e.name == "sched:claim")
                    .count();
                assert_eq!(claims, jobs, "{label}: one claim per job");
                let inline = slots == 1 && executor == ExecutorKind::Simulated;
                for (idx, job_span) in events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.kind == EventKind::Begin && e.name == "job")
                {
                    // Nesting: each job span opens on the lane that just
                    // emitted its claim, so the most recent claim on that
                    // lane names the same job.
                    let claim = events[..idx]
                        .iter()
                        .rev()
                        .find(|e| e.lane == job_span.lane && e.name == "sched:claim")
                        .unwrap_or_else(|| {
                            panic!("{label}: job span without a prior claim on its lane")
                        });
                    assert_eq!(
                        field_str(claim, "job"),
                        field_str(job_span, "job"),
                        "{label}: job span nests under a different job's claim"
                    );
                    let execute = events[..idx]
                        .iter()
                        .rev()
                        .find(|e| e.kind == EventKind::Begin && e.name == "execute")
                        .unwrap_or_else(|| panic!("{label}: job span outside any execute span"));
                    assert_eq!(
                        field_u64(execute, "slots"),
                        Some(slots as u64),
                        "{label}: the execute span names its slot count"
                    );
                    if inline {
                        assert_eq!(
                            job_span.lane, execute.lane,
                            "{label}: one slot runs jobs on the caller's lane"
                        );
                    }
                }
                if inline {
                    let lanes: std::collections::BTreeSet<u64> =
                        events.iter().map(|e| e.lane).collect();
                    assert_eq!(lanes.len(), 1, "{label}: one slot on sim spawns no thread");
                }
            }
        }
    }
}

/// Under a spill-forcing budget, the `spill:run` spans' byte fields sum
/// to exactly each job's `spilled_bytes`, and the `commit` ledger
/// matches the stats' estimated/observed costs.
#[test]
fn spill_spans_and_commit_ledger_reconcile_with_job_stats() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let workload = queries::a3();
    let (events, stats) = traced_run(
        &workload,
        ExecutorKind::Simulated,
        4,
        gumbo::mr::MemBudget::bytes(4096),
    );
    assert!(
        stats.spilled_bytes() > 0,
        "the 4 KiB budget must force spilling"
    );

    // Per-job reconciliation: spill:run Begin events carry the exact
    // increment each flush applied to the job's spilled_bytes.
    let mut traced_bytes: HashMap<&str, u64> = HashMap::new();
    for event in events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "spill:run")
    {
        let job = field_str(event, "job").expect("spill:run spans carry the job label");
        let bytes = field_u64(event, "bytes").expect("spill:run spans carry a byte count");
        *traced_bytes.entry(job).or_default() += bytes;
    }
    for job in &stats.jobs {
        assert_eq!(
            traced_bytes.get(job.name.as_str()).copied().unwrap_or(0),
            job.spilled_bytes,
            "spill:run bytes disagree with stats for job {}",
            job.name
        );
    }

    // The calibration ledger: every estimated job's commit span ends
    // with the same estimated/observed pair as its JobStats.
    for job in &stats.jobs {
        let commit = events
            .iter()
            .find(|e| {
                e.kind == EventKind::End
                    && e.name == "commit"
                    && field_str(e, "job") == Some(job.name.as_str())
            })
            .unwrap_or_else(|| panic!("no commit span for job {}", job.name));
        assert_eq!(
            field_f64(commit, "observed_cost"),
            Some(job.total_cost),
            "observed cost mismatch for {}",
            job.name
        );
        assert_eq!(
            field_f64(commit, "estimated_cost"),
            job.estimated_cost,
            "estimated cost mismatch for {}",
            job.name
        );
        if let Some(expected) = job.estimate_error() {
            let traced = field_f64(commit, "estimate_error")
                .unwrap_or_else(|| panic!("{} has no ledger ratio", job.name));
            assert!(
                (traced - expected).abs() < 1e-12,
                "estimate_error {traced} vs {expected} for {}",
                job.name
            );
        }
    }
    assert!(
        stats.jobs.iter().any(|j| j.estimated_cost.is_some()),
        "planner-built jobs must carry estimates"
    );
}

/// A reducer that panics mid-phase: the job fails with an error, spans
/// still close (marked aborted) and the Chrome trace file remains one
/// well-formed JSON array.
#[test]
fn panicking_reducer_leaves_closed_spans_and_valid_chrome_json() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());

    struct KeyEcho;
    impl gumbo::mr::Mapper for KeyEcho {
        fn map(
            &self,
            _: usize,
            tuple: gumbo::common::TupleView<'_>,
            _index: u64,
            out: &mut gumbo::mr::Emitter<'_>,
        ) {
            out.tuple(tuple, gumbo::mr::MsgRef::Assert { cond: 0 });
        }
    }
    struct Bomb;
    impl gumbo::mr::Reducer for Bomb {
        fn reduce(&self, _group: &gumbo::mr::Group<'_>, _out: &mut gumbo::mr::OutputSink<'_>) {
            panic!("reducer bomb");
        }
    }

    let mut db = Database::new();
    for i in 0..16i64 {
        db.insert_fact(Fact::new("R", Tuple::from_ints(&[i])))
            .unwrap();
    }
    let mut program = MrProgram::new();
    program.push_round(vec![gumbo::mr::Job {
        name: "bomb".into(),
        inputs: vec!["R".into()],
        outputs: vec![("Out".into(), 1)],
        mapper: Box::new(KeyEcho),
        reducer: Box::new(Bomb),
        config: JobConfig::default(),
        estimate: None,
    }]);

    let path = std::env::temp_dir().join(format!(
        "gumbo-trace-smoke-{}-panic.json",
        std::process::id()
    ));
    let chrome = gumbo::obs::ChromeTraceSink::create(&path).unwrap();
    gumbo::obs::install(Arc::new(chrome));
    let executor = ExecutorKind::Simulated.build(EngineConfig::default());
    let outcome = DagScheduler::new(SchedulerConfig::ONE_SLOT).execute_program(
        &executor,
        &SimDfs::from_database(&db),
        program,
    );
    gumbo::obs::uninstall();
    let err = outcome.expect_err("the bomb must actually go off");
    assert!(err.to_string().contains("bomb"), "{err}");

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let root = Json::parse(&text).expect("a crashed run still writes valid JSON");
    let trace = root.as_arr().expect("a Chrome trace is one array");

    // Per-tid bracket check over the exported file, and every span the
    // unwind closed is flagged aborted.
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    let mut aborted = 0;
    for event in trace {
        let ph = event.get("ph").and_then(Json::as_str).unwrap();
        let name = event.get("name").and_then(Json::as_str).unwrap();
        let tid = event.get("tid").and_then(Json::as_u64).unwrap();
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(name.to_string()),
            "E" => {
                assert_eq!(stack.pop().as_deref(), Some(name), "misnested {name}");
                if event.get("args").and_then(|a| a.get("aborted")).is_some() {
                    aborted += 1;
                }
            }
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans {stack:?} on tid {tid}");
    }
    assert!(
        trace
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("reduce:task")),
        "the panicking phase must have opened its span"
    );
    assert!(
        aborted >= 2,
        "the unwind crossed at least the reduce:task and job spans, saw {aborted} aborted"
    );
}
