//! The engine equivalence matrix: one table of engine configurations, run
//! over the datagen presets (`queries::presets()`: A1–A5, B1, B2 and the
//! nested C1–C4 programs of Figure 6) against one reference per preset.
//!
//! The reference runs the engine's own plans on the serial round-barrier
//! loop (`Executor::execute`: one worker, `SimDfs`, a barrier after every
//! round). Its outputs must equal `sgf::naive`'s, and it predicts no DAG
//! net time. Each row of the table sets the worker count, the job slots,
//! the shuffle budget and the storage backend (and, in two rows, the
//! grouping the plans use, which has a reference of its own); every row
//! must leave byte-identical relations and I/O meters in its DFS and
//! report identical statistics, so the paper's four metrics agree exactly.
//! A configuration may change when jobs run and where bytes live, never
//! what they compute or how they are metered.
//!
//! `tests/engine_matrix.rs` runs every row; the executor, scheduler and
//! backend suites each run the slice of rows along their own axis
//! ([`check`] with a row filter).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use gumbo::datagen::Workload;
use gumbo::mr::MemBudget;
use gumbo::prelude::*;

/// One data size and seed for the whole table.
pub const TUPLES: usize = 120;
pub const SEED: u64 = 11;

/// Far below every preset's shuffle footprint at [`TUPLES`]: every cell
/// under this budget must spill.
pub const TINY_BUDGET: u64 = 4 << 10;

/// One engine configuration: a row of the table.
#[derive(Clone, Copy)]
pub struct Row {
    pub executor: ExecutorKind,
    pub scheduler: Option<SchedulerConfig>,
    /// `None` runs on a `SimDfs`; `Some(bytes)` on a `FileDfs` with a
    /// block cache of that many bytes.
    pub file_cache: Option<u64>,
    /// Every preset's greedy plan is a chain of one job per round. One
    /// MSJ job per semi-join (PAR) puts several jobs in a round: only then
    /// do job slots run jobs side by side.
    pub grouping: Grouping,
}

impl Row {
    /// The reference's engine configuration, for plans of `grouping`.
    fn serial(grouping: Grouping) -> Row {
        Row {
            executor: ExecutorKind::Simulated,
            scheduler: None,
            file_cache: None,
            grouping,
        }
    }

    /// Job slots, when the row names a scheduler.
    pub fn slots(&self) -> Option<usize> {
        self.scheduler.map(|s| s.max_concurrent_jobs)
    }

    /// The shuffle budget in bytes; `None` when unlimited.
    pub fn budget(&self) -> Option<u64> {
        self.scheduler.and_then(|s| s.mem_budget.limit())
    }

    fn engine(&self) -> GumboEngine {
        GumboEngine::with_executor(
            EngineConfig {
                scale: 5_000,
                ..EngineConfig::default()
            },
            self.executor,
            EvalOptions {
                scheduler: self.scheduler,
                grouping: self.grouping,
                ..EvalOptions::default()
            },
        )
    }

    fn label(&self) -> String {
        let scheduler = match self.scheduler {
            None => "no scheduler".to_string(),
            Some(s) => format!(
                "{} slots, {} threads/job, budget {:?}",
                s.max_concurrent_jobs,
                s.threads_per_job,
                s.mem_budget.limit()
            ),
        };
        let storage = match self.file_cache {
            None => "sim dfs".to_string(),
            Some(bytes) => format!("file dfs, {bytes} B cache"),
        };
        let executor = self.executor.label();
        format!(
            "{:?} grouping, {executor}, {scheduler}, {storage}",
            self.grouping
        )
    }
}

/// The table: workers × job slots × budget × storage, then seven rows of
/// their own.
pub fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for executor in [
        ExecutorKind::Simulated,
        ExecutorKind::Parallel { threads: 4 },
    ] {
        for slots in [1, 4] {
            for budget in [MemBudget::UNLIMITED, MemBudget::bytes(TINY_BUDGET)] {
                for file_cache in [None, Some(256)] {
                    let scheduler = SchedulerConfig {
                        max_concurrent_jobs: slots,
                        mem_budget: budget,
                        ..SchedulerConfig::ONE_SLOT
                    };
                    rows.push(Row {
                        executor,
                        scheduler: Some(scheduler),
                        file_cache,
                        grouping: Grouping::Greedy,
                    });
                }
            }
        }
    }
    // Three slots on both backends, the file one with its default cache.
    for file_cache in [None, Some(DEFAULT_CACHE_BYTES)] {
        rows.push(Row {
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 3,
                ..SchedulerConfig::ONE_SLOT
            }),
            file_cache,
            ..Row::serial(Grouping::Greedy)
        });
    }
    rows.extend([
        // Options that name no scheduler, on an auto-sized pool.
        Row {
            executor: ExecutorKind::Parallel { threads: 0 },
            ..Row::serial(Grouping::Greedy)
        },
        // Per-job threads over an auto-sized pool.
        Row {
            executor: ExecutorKind::Parallel { threads: 0 },
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 4,
                threads_per_job: 2,
                ..SchedulerConfig::ONE_SLOT
            }),
            ..Row::serial(Grouping::Greedy)
        },
        // The benchmark's traffic shape.
        Row {
            executor: ExecutorKind::Parallel { threads: 2 },
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 2,
                threads_per_job: 0,
                mem_budget: MemBudget::bytes(512 << 10),
            }),
            file_cache: Some(64 << 10),
            grouping: Grouping::Greedy,
        },
        // Jobs of one round side by side, and sharing one tiny budget.
        Row {
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 4,
                ..SchedulerConfig::ONE_SLOT
            }),
            ..Row::serial(Grouping::Singletons)
        },
        Row {
            executor: ExecutorKind::Parallel { threads: 4 },
            scheduler: Some(SchedulerConfig {
                max_concurrent_jobs: 4,
                threads_per_job: 0,
                mem_budget: MemBudget::bytes(TINY_BUDGET),
            }),
            file_cache: Some(256),
            grouping: Grouping::Singletons,
        },
    ]);
    rows
}

/// Run every row that `keep` selects on every workload (one thread per
/// workload, data at [`TUPLES`] and [`SEED`]), each against its grouping's
/// reference. Panics, naming the preset and the row, on the first cell
/// that differs; and when `keep` selects no row.
pub fn check(workloads: Vec<Workload>, keep: impl Fn(&Row) -> bool) {
    let rows: Vec<Row> = rows().into_iter().filter(|row| keep(row)).collect();
    assert!(!rows.is_empty(), "the row filter selects no row");
    let needs = |grouping| rows.iter().any(|row| row.grouping == grouping);
    let (greedy, par) = (needs(Grouping::Greedy), needs(Grouping::Singletons));
    thread::scope(|scope| {
        for workload in workloads {
            let rows = &rows;
            scope.spawn(move || {
                let db = workload.spec.clone().with_tuples(TUPLES).database(SEED);
                let greedy = greedy.then(|| reference(&workload, &db, Grouping::Greedy));
                let par = par.then(|| reference(&workload, &db, Grouping::Singletons));
                for &row in rows {
                    let reference = match row.grouping {
                        Grouping::Greedy => &greedy,
                        Grouping::Singletons => &par,
                    };
                    check_cell(&workload, &db, reference.as_ref().unwrap(), row);
                }
            });
        }
    });
}

/// The reference: evaluate group by group exactly as the engine does —
/// same sort, same plans against live statistics — but run every planned
/// program on the serial round-barrier loop, then hold the outputs to
/// `sgf::naive`.
fn reference(workload: &Workload, db: &Database, grouping: Grouping) -> (SimDfs, ProgramStats) {
    let name = format!("{} {grouping:?} grouping", workload.name);
    let query = &workload.query;
    let engine = Row::serial(grouping).engine();
    let runtime = engine.runtime();
    let dfs = SimDfs::from_database(db);
    let mut stats = ProgramStats::default();
    for group in &engine.sort_for(&dfs, query).unwrap() {
        let queries = group.iter().map(|&i| query.queries()[i].clone()).collect();
        let ctx = QueryContext::new(queries).unwrap();
        let est = engine.estimator(&dfs);
        let program = engine
            .plan_group(&est, &ctx)
            .and_then(|plan| plan.build_annotated_program(&ctx, &est))
            .unwrap_or_else(|e| panic!("{name} reference: {e}"));
        let run = gumbo::sched::serial_reference(&runtime, &dfs, &program);
        stats.extend(run.unwrap_or_else(|e| panic!("{name} reference: {e}")));
    }

    let naive = NaiveEvaluator::new().evaluate_sgf_all(query, db).unwrap();
    for q in query.queries() {
        assert_eq!(
            dfs.peek(q.output()).unwrap().as_ref(),
            naive.relation(q.output()).unwrap(),
            "{name} reference: {} differs from sgf::naive",
            q.output()
        );
    }
    assert!(
        stats.predicted_net_time.is_none(),
        "{name} reference: the serial loop has no DAG to predict over"
    );
    (dfs, stats)
}

/// A file-backed cell leaves only `MANIFEST` and the segments it names in
/// its root.
fn assert_root_holds_only_live_segments(label: &str, root: &Path) {
    let manifest = std::fs::read_to_string(root.join("MANIFEST")).unwrap();
    let mut live: BTreeSet<String> = manifest
        .lines()
        .skip(1)
        .map(|line| line.split('\t').nth(1).unwrap().to_string())
        .collect();
    live.insert("MANIFEST".to_string());
    let present: BTreeSet<String> = std::fs::read_dir(root)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(present, live, "{label}: files in the FileDfs root");
}

fn check_cell(workload: &Workload, db: &Database, reference: &(SimDfs, ProgramStats), row: Row) {
    let label = format!("{} [{}]", workload.name, row.label());
    let root = temp_root(&label);
    let dfs: Box<dyn Dfs> = match row.file_cache {
        Some(cache) => Box::new(
            FileDfs::from_database(&root, cache, db).unwrap_or_else(|e| panic!("{label}: {e}")),
        ),
        None => Box::new(SimDfs::from_database(db)),
    };
    let engine = row.engine();
    let runtime = engine.runtime();
    let stats = engine
        .eval()
        .on(&runtime)
        .run(&*dfs, &workload.query)
        .unwrap_or_else(|e| panic!("{label}: {e}"));

    gumbo::sched::assert_identical_dfs(&label, &reference.0, &*dfs);
    gumbo::sched::assert_identical_stats(&label, &reference.1, &stats);
    let predicted = stats.predicted_net_time;
    assert!(
        predicted.is_some_and(|p| p > 0.0),
        "{label}: predicted DAG net time {predicted:?}"
    );
    if let Some(budget) = row.budget() {
        let peak = runtime.budget().peak();
        assert!(
            peak <= budget,
            "{label}: tracked peak {peak} exceeds the budget"
        );
        if budget == TINY_BUDGET {
            assert!(stats.spilled_bytes() > 0, "{label}: no spill");
        }
    }
    if row.file_cache.is_some() {
        assert_root_holds_only_live_segments(&label, &root);
        drop(dfs);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A fresh, empty temp root for one file-backed cell. The counter keeps
/// two tests of one binary that run the same cell apart.
fn temp_root(label: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let tag: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("gumbo-matrix-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}
