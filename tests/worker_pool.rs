//! The process-wide worker pool under the DAG scheduler: a job that
//! panics on a pool worker fails its run and leaves the pool working,
//! every job in flight across concurrent queries runs at once, and a byte
//! scale that models thousands of reducers runs only the ones that
//! received rows.

use std::sync::{mpsc, Arc, Condvar, Mutex, Once};
use std::time::{Duration, Instant};

use gumbo::common::TupleView;
use gumbo::datagen::queries;
use gumbo::mr::{Emitter, Group, Job, Mapper, MsgRef, OutputSink, Reducer, ReducerPolicy};
use gumbo::obs::{EventKind, FieldValue};
use gumbo::prelude::*;

/// The tracer is process-global: a test that installs a sink holds this
/// lock, and so does every test running jobs with the names it counts.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Copies every input tuple to the job's one output.
struct Copy;
impl Mapper for Copy {
    fn map(&self, _: usize, tuple: TupleView<'_>, _: u64, out: &mut Emitter<'_>) {
        out.tuple(tuple, MsgRef::Assert { cond: 0 });
    }
}
struct CopyTo;
impl Reducer for CopyTo {
    fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>) {
        out.view(0, group.key());
    }
}
struct Bomb;
impl Reducer for Bomb {
    fn reduce(&self, _: &Group<'_>, _: &mut OutputSink<'_>) {
        panic!("reducer bomb");
    }
}

/// A copy job with 8 map tasks (1 MB splits of a 400-tuple relation at
/// the default scale of 1 000) and 8 reducers: it fans out on a pool.
fn copy_job(name: &str, input: &str, output: &str) -> Job {
    Job {
        name: name.into(),
        inputs: vec![input.into()],
        outputs: vec![(output.into(), 2)],
        mapper: Box::new(Copy),
        reducer: Box::new(CopyTo),
        config: JobConfig {
            reducer_policy: ReducerPolicy::Fixed(8),
            split_mb: 1,
            ..JobConfig::default()
        },
        estimate: None,
    }
}

/// Relations `R0..R{n}` of 400 tuples each.
fn relations(n: usize) -> SimDfs {
    let dfs = SimDfs::new();
    for i in 0..n {
        let base = 1_000 * i as i64;
        let tuples = (0..400).map(|j| Tuple::from_ints(&[base + j, j % 13]));
        dfs.store(Relation::from_tuples(format!("R{i}"), 2, tuples).unwrap())
            .unwrap();
    }
    dfs
}

/// `width` independent copy jobs `R{i} → X{i}`, then one `X0 → Z`; job
/// `copy{bomb}`'s reducer panics.
fn wide_program(width: usize, bomb: Option<usize>) -> MrProgram {
    let mut p = MrProgram::new();
    let copy = |i: usize| {
        let job = copy_job(&format!("copy{i}"), &format!("R{i}"), &format!("X{i}"));
        match bomb {
            Some(b) if b == i => Job {
                reducer: Box::new(Bomb),
                ..job
            },
            _ => job,
        }
    };
    p.push_round((0..width).map(copy).collect());
    p.push_job(copy_job("tail", "X0", "Z"));
    p
}

fn slots(n: usize) -> DagScheduler {
    DagScheduler::new(SchedulerConfig {
        max_concurrent_jobs: n,
        ..SchedulerConfig::ONE_SLOT
    })
}

fn parallel(threads: usize) -> Executor {
    ExecutorKind::Parallel { threads }.build(EngineConfig::default())
}

/// Run `f` on its own thread and fail the test if it takes longer than a
/// minute: a deadlocked pool would otherwise hang the suite.
fn bounded<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    outcome
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} did not finish within a minute"))
}

/// A3 planned one MSJ job per semi-join (four jobs in round 1) on
/// `parallel:4` at 4 slots, checked against the naive evaluator.
fn a3_par_at_four_slots() {
    let workload = queries::a3().with_tuples(300);
    let db = workload.spec.database(5);
    let engine = GumboEngine::with_executor(
        EngineConfig::default(),
        ExecutorKind::Parallel { threads: 4 },
        EvalOptions {
            grouping: Grouping::Singletons,
            sort: SortStrategy::Levels,
            enable_one_round: false,
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 4,
                ..SchedulerConfig::ONE_SLOT
            }),
            ..EvalOptions::default()
        },
    );
    let dfs = SimDfs::from_database(&db);
    let stats = engine.evaluate(&dfs, &workload.query).unwrap();
    let first_round = stats.jobs.iter().filter(|job| job.round == 0).count();
    assert_eq!(
        first_round, 4,
        "PAR puts one MSJ job per semi-join in round 1"
    );
    let naive = NaiveEvaluator::new()
        .evaluate_sgf_all(&workload.query, &db)
        .unwrap();
    for q in workload.query.queries() {
        assert_eq!(
            *dfs.peek(q.output()).unwrap(),
            *naive.relation(q.output()).unwrap(),
            "{}",
            q.output()
        );
    }
}

/// A reducer that panics on a pool worker fails the run with the typed
/// `job … panicked` error, and the worker that caught it keeps serving:
/// the next program in the same process runs on the same pool and
/// answers correctly.
#[test]
fn a_panicking_job_fails_its_run_and_the_next_program_succeeds() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let err = bounded("the run with a panicking reducer", || {
        slots(4).execute_program(&parallel(4), &relations(4), wide_program(4, Some(1)))
    })
    .unwrap_err();
    assert!(
        err.to_string().contains("job copy1 panicked: reducer bomb"),
        "{err}"
    );
    bounded("the next program", a3_par_at_four_slots);
}

/// Meets every other job of a [`Rendezvous`] on its first row, then
/// copies like [`Copy`].
struct Meet {
    at: Arc<Rendezvous>,
    once: Once,
}
impl Mapper for Meet {
    fn map(&self, input: usize, tuple: TupleView<'_>, bytes: u64, out: &mut Emitter<'_>) {
        self.once.call_once(|| self.at.arrive());
        Copy.map(input, tuple, bytes, out);
    }
}

/// A meeting point for `parties` jobs: each waits until all have arrived,
/// which they can only do if they all run at once. A job that waits half
/// a minute panics, failing its run instead of hanging the suite.
struct Rendezvous {
    arrived: Mutex<usize>,
    all: Condvar,
    parties: usize,
}
impl Rendezvous {
    fn arrive(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.all.notify_all();
        while *arrived < self.parties {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(
                !left.is_zero(),
                "only {} of {} jobs ran at once",
                *arrived,
                self.parties
            );
            arrived = self.all.wait_timeout(arrived, left).unwrap().0;
        }
    }
}

/// Three queries at once, each at 4 slots with four jobs in its first
/// round: the twelve jobs can only finish if all twelve run at once,
/// since each waits for the others on its first row. The pool gives every
/// job in flight a worker of its own, whichever query it belongs to and
/// however many cores the machine has. The jobs run on `sim`, so no task
/// fan-out (which must never wait on other jobs) shares their workers.
#[test]
fn every_job_in_flight_across_queries_runs_at_once() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let meeting = Arc::new(Rendezvous {
        arrived: Mutex::new(0),
        all: Condvar::new(),
        parties: 12,
    });
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let meeting = meeting.clone();
            std::thread::spawn(move || {
                bounded("a query sharing the pool", move || {
                    // `wide_program(4, None)` with meeting copy jobs.
                    let mut program = MrProgram::new();
                    program.push_round(
                        (0..4)
                            .map(|i| Job {
                                mapper: Box::new(Meet {
                                    at: meeting.clone(),
                                    once: Once::new(),
                                }),
                                ..copy_job(&format!("copy{i}"), &format!("R{i}"), &format!("X{i}"))
                            })
                            .collect(),
                    );
                    program.push_job(copy_job("tail", "X0", "Z"));
                    let simulated = Executor::new(EngineConfig::default());
                    slots(4)
                        .execute_program(&simulated, &relations(4), program)
                        .unwrap();
                })
            })
        })
        .collect();
    for run in runs {
        run.join().unwrap();
    }
}

/// Three queries at once, each at 4 slots with jobs that fan out 4 ways
/// on a 2-core or larger machine: every task fan-out competes with up to
/// twelve jobs for idle workers and runs on its job's thread when it finds
/// none. All three complete, each with the serial reference's answers.
#[test]
fn concurrent_queries_with_four_way_fan_outs_complete() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let reference = relations(6);
    Executor::new(EngineConfig::default())
        .execute(&reference, &wide_program(6, None))
        .unwrap();
    let reference = Arc::new(reference);
    let runs: Vec<_> = (0..3)
        .map(|_| {
            let reference = reference.clone();
            std::thread::spawn(move || {
                bounded("a query sharing the pool", move || {
                    let dfs = relations(6);
                    slots(4)
                        .execute_program(&parallel(4), &dfs, wide_program(6, None))
                        .unwrap();
                    for name in (0..6).map(|i| format!("X{i}")).chain(["Z".into()]) {
                        let name = name.as_str().into();
                        assert_eq!(dfs.peek(&name), reference.peek(&name), "{name}");
                    }
                })
            })
        })
        .collect();
    for run in runs {
        run.join().unwrap();
    }
}

fn field<'e>(event: &'e gumbo::obs::Event, key: &str) -> Option<&'e FieldValue> {
    event.fields.iter().find(|f| f.key == key).map(|f| &f.value)
}

/// A1 at 1 000 tuples and a byte scale of 10⁷ models thousands of
/// reducers for its few thousand shuffled keys. Its statistics are those
/// of every other sizing (pinned below), and the reduce phase runs one
/// task per partition that received rows — not one per modeled reducer.
#[test]
fn a_byte_scale_beyond_the_keys_runs_only_filled_reducers() {
    let _serial = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let workload = queries::a1().with_tuples(1_000);
    let db = workload.spec.database(42);
    let config = EngineConfig {
        scale: 10_000_000,
        ..EngineConfig::default()
    };
    let run = |kind: ExecutorKind| {
        let engine = GumboEngine::with_executor(config, kind, EvalOptions::default());
        engine.evaluate(&SimDfs::from_database(&db), &workload.query)
    };
    let ring = Arc::new(RingSink::new(1 << 16));
    gumbo::obs::install(ring.clone());
    let stats = run(ExecutorKind::Parallel { threads: 2 });
    gumbo::obs::uninstall();
    assert_eq!(ring.dropped(), 0, "the ring holds every event");
    let stats = stats.unwrap();
    let reference = run(ExecutorKind::Simulated).unwrap();

    let summary: Vec<(&str, usize, u64, usize)> = (stats.jobs.iter())
        .map(|job| {
            let filled = job.reduce_task_durations.iter().filter(|&&d| d > 0.0);
            (
                job.name.as_str(),
                job.profile.reducers,
                job.output_tuples,
                filled.count(),
            )
        })
        .collect();
    assert_eq!(
        summary,
        [
            ("MSJ(Out#X0,Out#X1,Out#X2,Out#X3)", 5933, 2000, 1287),
            ("EVAL(Out)", 4375, 83, 1000),
        ]
    );
    for (job, sim) in stats.jobs.iter().zip(&reference.jobs) {
        assert_eq!(job.profile, sim.profile, "{}", job.name);
        assert_eq!(job.reduce_task_durations, sim.reduce_task_durations);
        assert_eq!(job.output_tuples, sim.output_tuples);
    }

    for (job, (_, _, _, filled)) in stats.jobs.iter().zip(&summary) {
        let tasks = (ring.events().iter())
            .filter(|e| e.kind == EventKind::Begin && e.name == "reduce:task")
            .filter(|e| matches!(field(e, "job"), Some(FieldValue::Str(s)) if *s == job.name))
            .count();
        assert_eq!(
            tasks, *filled,
            "{}: one reduce task per filled partition",
            job.name
        );
        assert!(tasks < job.profile.reducers);
    }
}
