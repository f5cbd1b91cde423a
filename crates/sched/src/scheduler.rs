//! The DAG scheduler: one job DAG, one FIFO ready queue and a bounded
//! pool of job slots over a shared [`Dfs`] — the one way planned
//! programs run.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::thread;

use gumbo_common::{GumboError, Result};
use gumbo_mr::metrics::RoundStats;
use gumbo_mr::{Executor, ExecutorKind, JobDag, JobStats, MrProgram, ProgramStats};
use gumbo_storage::Dfs;

/// Scheduler sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// How many jobs may run concurrently (the number of job slots).
    /// `0` = auto: the machine's available parallelism. At `1` every job
    /// runs inline on the calling thread, one after another in round
    /// order — the paper's round-by-round execution.
    pub max_concurrent_jobs: usize,
    /// Worker threads *inside* each job when the executor is a
    /// `parallel` pool (`0` = keep the executor's own sizing): the job's
    /// own thread plus up to this many minus one idle workers of the
    /// process-wide pool, which holds at least one worker per core. On a
    /// machine whose cores are all busy with other jobs, a job finds no
    /// idle worker and computes on its own thread. The `sim`
    /// configuration computes each job on one thread regardless.
    ///
    /// The scheduler runs jobs on whatever executor it is handed; this
    /// knob takes effect where the executor is *built* — resolve it with
    /// [`SchedulerConfig::executor_kind`] (as `GumboEngine::runtime`
    /// does) before building.
    pub threads_per_job: usize,
    /// Shuffle memory budget for scheduled execution. Like
    /// `threads_per_job`, this takes effect where the executor is built —
    /// resolve it with [`SchedulerConfig::engine_config`]. Because the
    /// scheduler hands *one* executor to all its jobs, the budget is
    /// shared by (and collectively bounds) every concurrently running
    /// job. Unlimited by default, deferring to the engine configuration.
    pub mem_budget: gumbo_mr::MemBudget,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent_jobs: 4,
            threads_per_job: 1,
            mem_budget: gumbo_mr::MemBudget::UNLIMITED,
        }
    }
}

impl SchedulerConfig {
    /// One job slot, no per-job resizing, no budget of its own: jobs run
    /// inline on the calling thread one after another. This is what an
    /// engine whose options name no scheduler runs on, and what the
    /// baselines and experiments pass to run a program "round by round".
    pub const ONE_SLOT: SchedulerConfig = SchedulerConfig {
        max_concurrent_jobs: 1,
        threads_per_job: 0,
        mem_budget: gumbo_mr::MemBudget::UNLIMITED,
    };

    /// Apply this scheduler's memory budget (when limited) to a base
    /// engine configuration, for building the executor scheduled jobs
    /// run on.
    pub fn engine_config(&self, base: gumbo_mr::EngineConfig) -> gumbo_mr::EngineConfig {
        if self.mem_budget.is_limited() {
            gumbo_mr::EngineConfig {
                mem_budget: self.mem_budget,
                ..base
            }
        } else {
            base
        }
    }

    /// The job-slot count this configuration resolves to.
    pub fn effective_workers(&self) -> usize {
        if self.max_concurrent_jobs > 0 {
            return self.max_concurrent_jobs;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// The executor kind jobs should run on under this scheduler: a
    /// parallel pool is resized to [`SchedulerConfig::threads_per_job`]
    /// threads (when set), anything else passes through.
    pub fn executor_kind(&self, base: ExecutorKind) -> ExecutorKind {
        match (base, self.threads_per_job) {
            (ExecutorKind::Parallel { .. }, t) if t > 0 => ExecutorKind::Parallel { threads: t },
            (kind, _) => kind,
        }
    }
}

/// Shared scheduling state, guarded by one mutex + condvar.
struct SchedState {
    /// Unmet-dependency counts, by node.
    indegree: Vec<usize>,
    /// Nodes whose dependencies have all committed, in arrival order.
    ready: VecDeque<usize>,
    /// Collected statistics, by node.
    results: Vec<Option<JobStats>>,
    /// Jobs claimed and not yet completed.
    in_flight: usize,
    /// First failure; stops admission of further jobs.
    error: Option<GumboError>,
}

/// The dependency-driven scheduler.
///
/// Jobs run the moment their inputs are materialized, in the order they
/// became ready, on at most [`SchedulerConfig::max_concurrent_jobs`] job
/// slots. The calling thread makes every claim; one slot runs each job
/// inline right there, several start each claimed job on a worker of its
/// own from the process-wide pool ([`gumbo_mr::pool`]) and wait for it.
/// The pool keeps a worker per job in flight across every query of the
/// process, so slots of concurrent queries never wait on each other. The
/// DFS is shared directly between workers:
/// every [`Dfs`] method takes `&self` and synchronizes internally (byte
/// metering is atomic), so planning, the lock-free compute phases, and
/// commits all run against the same `&dyn Dfs` with no scheduler-level
/// lock. Per-job statistics are identical to the serial reference
/// ([`Executor::execute`]) because the metering pipeline is untouched —
/// the scheduler only decides *when* each job runs — and
/// backend-invariant: a durable [`gumbo_storage::FileDfs`] meters the
/// same logical bytes as the in-memory [`gumbo_storage::SimDfs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DagScheduler {
    /// Sizing knobs.
    pub config: SchedulerConfig,
}

impl DagScheduler {
    /// Create a scheduler.
    pub fn new(config: SchedulerConfig) -> DagScheduler {
        DagScheduler { config }
    }

    /// Lower a program and execute it as a DAG.
    pub fn execute_program(
        &self,
        executor: &Executor,
        dfs: &dyn Dfs,
        program: MrProgram,
    ) -> Result<ProgramStats> {
        self.execute(executor, dfs, &program.into_dag())
    }

    /// Execute one DAG to completion, returning statistics identical to
    /// what the serial reference produces for the source program.
    pub fn execute(
        &self,
        executor: &Executor,
        dfs: &dyn Dfs,
        dag: &JobDag,
    ) -> Result<ProgramStats> {
        let total = dag.len();
        gumbo_obs::event("sched:submit", |f| {
            f.u64("jobs", total as u64);
        });
        for node in dag.nodes() {
            gumbo_obs::event("sched:admit", |f| {
                f.str("job", &node.job.name);
                f.u64("deps", node.deps().len() as u64);
            });
        }
        let mut ready = VecDeque::new();
        for (idx, node) in dag.nodes().iter().enumerate() {
            if node.deps().is_empty() {
                ready.push_back(idx);
                gumbo_obs::event("sched:ready", |f| f.str("job", &node.job.name));
            }
        }

        let state = Mutex::new(SchedState {
            indegree: dag.nodes().iter().map(|n| n.deps().len()).collect(),
            ready,
            results: (0..total).map(|_| None).collect(),
            in_flight: 0,
            error: None,
        });
        let job_done = Condvar::new();
        let lock = || state.lock().expect("unpoisoned scheduler state");
        let slots = self.config.effective_workers();
        let cap = slots.max(1).min(total.max(1));

        // Claim the oldest ready job, if one may start: none after a
        // failure, none beyond the slot cap.
        let claim = |st: &mut SchedState| {
            if st.error.is_some() || st.in_flight == cap {
                return None;
            }
            let idx = st.ready.pop_front()?;
            st.in_flight += 1;
            Some(idx)
        };
        // Run one claimed job, on whichever thread it landed.
        let execute = |idx: usize| {
            let node = dag.node(idx);
            gumbo_obs::event("sched:claim", |f| f.str("job", &node.job.name));
            // plan → compute → commit against the shared `&dyn Dfs`, under
            // one "job" span on this lane (so it nests beneath the claim
            // that scheduled it). The job's stats carry its original
            // round, which is what keeps per-job accounting identical to
            // the serial reference. A panic in the job (a mapper or
            // reducer bug) comes back as an error: unwinding past the
            // bookkeeping below would leave `in_flight` stale and the
            // caller waiting forever.
            executor.execute_job(dfs, &node.job, node.round)
        };
        // Its completion bookkeeping, on the same thread.
        let complete = |idx: usize, outcome: Result<JobStats>| {
            let node = dag.node(idx);
            let mut st = lock();
            st.in_flight -= 1;
            match outcome {
                Ok(stats) => {
                    gumbo_obs::event("sched:complete", |f| {
                        f.str("job", &node.job.name);
                        f.f64("observed_cost", stats.total_cost);
                    });
                    st.results[idx] = Some(stats);
                    for &dep in node.dependents() {
                        st.indegree[dep] -= 1;
                        if st.indegree[dep] == 0 {
                            st.ready.push_back(dep);
                            gumbo_obs::event("sched:ready", |f| {
                                f.str("job", &dag.node(dep).job.name)
                            });
                        }
                    }
                }
                Err(e) => {
                    st.error.get_or_insert(e);
                }
            }
            drop(st);
            job_done.notify_one();
        };

        // Claims are made on the calling thread either way. One slot runs
        // each job inline right there: nothing is started, and every job
        // lands on the caller's lane. Several start each claimed job on
        // the process-wide worker pool (`gumbo_mr::pool`), at most `cap`
        // in flight, and wait for completions. A started job holds a seat,
        // so it gets a worker of its own however many other queries' jobs
        // are running: a server runs every in-flight query's claimed jobs
        // at once, as it did when each query spawned its own slot threads.
        // The seat is given back before the bookkeeping, so the job the
        // completion readies reuses it. Jobs then allocate on the pool's
        // persistent threads, never on threads spawned per query or on the
        // long-lived service dispatcher threads. Spawning fresh slot
        // threads per query cost CPU under load, and glibc kept the heap
        // arenas of those short-lived threads: peak RSS on the five
        // benchmark workloads was 1.1-1.5x the pool's.
        if cap == 1 {
            loop {
                let Some(idx) = claim(&mut lock()) else { break };
                complete(idx, execute(idx));
            }
        } else {
            gumbo_mr::pool::scope(cap, |scope| {
                let mut st = lock();
                loop {
                    while let Some(idx) = claim(&mut st) {
                        scope.start(move |seat| {
                            let outcome = execute(idx);
                            drop(seat);
                            complete(idx, outcome);
                        });
                    }
                    if st.in_flight == 0 {
                        break;
                    }
                    st = job_done.wait(st).expect("unpoisoned scheduler state");
                }
            });
        }

        let state = state.into_inner().expect("unpoisoned scheduler state");
        if let Some(e) = state.error {
            return Err(e);
        }
        let jobs: Vec<JobStats> = state
            .results
            .into_iter()
            .map(|r| r.expect("all jobs completed"))
            .collect();

        // Per-round wall-clock accounting pooled exactly like the serial
        // reference computes it, and the predicted DAG net time: a list
        // schedule of the DAG on this many slots, pricing each job as the
        // per-round model prices a single-job round (overhead + pooled
        // map/reduce makespans). On a chain with one slot the prediction
        // coincides with per-round net time; with slack in the DAG and
        // slots > 1 it is what barrier-free overlap should achieve.
        let cluster = executor.config().cluster;
        let overhead = executor.config().constants.job_overhead;
        let durations: Vec<f64> = jobs
            .iter()
            .map(|js| RoundStats::pooled(std::iter::once(js), cluster, overhead).net_time())
            .collect();
        let round_stats = (0..dag.num_rounds())
            .map(|round| {
                RoundStats::pooled(
                    jobs.iter().filter(|js| js.round == round),
                    cluster,
                    overhead,
                )
            })
            .collect();
        Ok(ProgramStats {
            predicted_net_time: Some(dag.predicted_net_time(&durations, slots)),
            jobs,
            round_stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Relation, Tuple, TupleBatch, TupleView};
    use gumbo_mr::{
        Emitter, EngineConfig, Group, Job, JobConfig, Mapper, MsgRef, OutputSink, Reducer,
    };
    use gumbo_storage::SimDfs;

    /// Copies every input tuple to the job's single output relation.
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

    fn copy_job(name: &str, input: &str, output: &str) -> Job {
        Job {
            name: name.into(),
            inputs: vec![input.into()],
            outputs: vec![(output.into(), 2)],
            mapper: Box::new(Copy),
            reducer: Box::new(CopyTo),
            config: JobConfig::default(),
            estimate: None,
        }
    }

    fn dfs_with(names: &[&str]) -> SimDfs {
        let dfs = SimDfs::new();
        for (i, name) in names.iter().enumerate() {
            let base = 10 * i as i64;
            dfs.store(
                Relation::from_tuples(*name, 2, (0..50).map(|j| Tuple::from_ints(&[base + j, j])))
                    .unwrap(),
            )
            .unwrap();
        }
        dfs
    }

    fn executor() -> Executor {
        Executor::new(EngineConfig::unscaled())
    }

    fn slots(max_concurrent_jobs: usize) -> DagScheduler {
        DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs,
            ..SchedulerConfig::default()
        })
    }

    /// R → X → Z and R → Y → Z: the diamond must end with Z built from
    /// both X and Y, for every pool size.
    fn diamond() -> MrProgram {
        let mut p = MrProgram::new();
        p.push_round(vec![copy_job("x", "R", "X"), copy_job("y", "R", "Y")]);
        p.push_round(vec![copy_job("zx", "X", "ZX"), copy_job("zy", "Y", "ZY")]);
        p
    }

    #[test]
    fn diamond_matches_round_barrier_exactly() {
        let exec = executor();
        let barrier_dfs = dfs_with(&["R"]);
        let barrier = exec.execute(&barrier_dfs, &diamond()).unwrap();

        for workers in [1usize, 2, 8] {
            let dfs = dfs_with(&["R"]);
            let stats = slots(workers)
                .execute_program(&exec, &dfs, diamond())
                .unwrap();

            let label = format!("diamond x{workers}");
            crate::equivalence::assert_identical_dfs(&label, &barrier_dfs, &dfs);
            crate::equivalence::assert_identical_stats(&label, &barrier, &stats);
        }
    }

    /// Slot counts the failure tests run at: one slot runs jobs inline on
    /// the caller, two starts each on a pool worker of its own.
    const FAILURE_SLOTS: [usize; 2] = [1, 2];

    #[test]
    fn errors_propagate_and_dfs_survives() {
        struct Bad;
        impl Reducer for Bad {
            fn reduce(&self, _: &Group<'_>, out: &mut OutputSink<'_>) {
                let mut row = TupleBatch::new(1);
                row.push_tuple(&Tuple::from_ints(&[1]));
                out.view(7, row.view(0));
            }
        }
        for n in FAILURE_SLOTS {
            let mut p = MrProgram::new();
            p.push_job(copy_job("ok", "R", "X"));
            p.push_job(Job {
                name: "bad".into(),
                inputs: vec!["X".into()],
                outputs: vec![],
                mapper: Box::new(Copy),
                reducer: Box::new(Bad),
                config: JobConfig::default(),
                estimate: None,
            });
            let dfs = dfs_with(&["R"]);
            let err = slots(n).execute_program(&executor(), &dfs, p).unwrap_err();
            assert!(err.to_string().contains("undeclared output"), "x{n}: {err}");
            // The DFS is shared in place, so even though the run failed the
            // completed job's output is visible.
            assert!(dfs.exists(&"X".into()));
        }
    }

    /// A reducer panic must fail the run — with the job's name, bounded in
    /// time, leaving no spill directory behind — whether the panicking job
    /// ran on the calling thread or on a pool worker. Before the
    /// scheduler caught the unwind, the panicking worker died without its
    /// completion bookkeeping and the rest of the pool waited forever.
    #[test]
    fn panicking_reducer_fails_the_run_instead_of_hanging_it() {
        struct Bomb;
        impl Reducer for Bomb {
            fn reduce(&self, _: &Group<'_>, _: &mut OutputSink<'_>) {
                panic!("reducer bomb");
            }
        }
        const BOMB: &str = "bomb-under-the-scheduler";
        let program = || {
            let mut p = MrProgram::new();
            p.push_round(vec![
                Job {
                    reducer: Box::new(Bomb),
                    ..copy_job(BOMB, "R", "X")
                },
                copy_job("bystander", "S", "Y"),
            ]);
            p.push_job(copy_job("dependent", "X", "Z"));
            p
        };
        // 256 B against a ~1.2 KB shuffle: the bomb's partition has spilled
        // runs on disk when its reducer goes off.
        let exec = Executor::new(EngineConfig {
            mem_budget: gumbo_mr::MemBudget::bytes(256),
            ..EngineConfig::unscaled()
        });

        for n in FAILURE_SLOTS {
            let (done, outcome) = std::sync::mpsc::channel();
            let scheduled = exec.clone();
            thread::spawn(move || {
                let result =
                    slots(n).execute_program(&scheduled, &dfs_with(&["R", "S"]), program());
                let _ = done.send(result.map(|_| ()));
            });
            let err = outcome
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("x{n}: the scheduler hung after a reducer panic"))
                .unwrap_err();
            assert!(err.to_string().contains(BOMB), "x{n}: {err}");
        }

        assert_eq!(exec.budget().used(), 0, "the unwinds released every charge");
        let spill_root = std::env::var_os("GUMBO_SPILL_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir);
        let ours = format!("gumbo-spill-{}-", std::process::id());
        let leaked: Vec<_> = std::fs::read_dir(spill_root)
            .unwrap()
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|name| name.starts_with(&ours) && name.ends_with(BOMB))
            .collect();
        assert!(leaked.is_empty(), "leaked spill directories: {leaked:?}");
    }

    /// Two programs merged with `MrProgram::extend` that both write `Out`
    /// serialize in program order, exactly as if they had run back to
    /// back — the write→write edge `into_dag` infers — and the prediction
    /// prices that edge: the two jobs cannot overlap on any slot count.
    #[test]
    fn merged_programs_serialize_conflicts_in_program_order() {
        for n in [1usize, 2] {
            let mut merged = MrProgram::new();
            merged.push_job(copy_job("first", "R", "Out"));
            let mut second = MrProgram::new();
            second.push_job(copy_job("second", "S", "Out"));
            merged.extend(second);

            let dfs = dfs_with(&["R", "S"]);
            let stats = slots(n).execute_program(&executor(), &dfs, merged).unwrap();
            // S's tuples (base 10) won: the later program overwrote.
            assert!(dfs
                .peek(&"Out".into())
                .unwrap()
                .contains(&Tuple::from_ints(&[10, 0])));
            let predicted = stats.predicted_net_time.unwrap();
            assert!(
                (predicted - stats.net_time()).abs() < 1e-9,
                "x{n}: predicted {predicted} vs serial {}",
                stats.net_time()
            );
        }
    }

    #[test]
    fn shared_budget_spills_under_concurrency_and_matches_barrier() {
        use gumbo_mr::MemBudget;

        // Wide fan-out: many independent jobs racing on a 512 B budget
        // that is far smaller than any single job's ~1.2 KB shuffle
        // footprint — every job spills no matter how the pool interleaves
        // them, and concurrent jobs stay collectively under the budget.
        let names: Vec<String> = (0..6).map(|i| format!("R{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let program = || {
            let mut p = MrProgram::new();
            p.push_round(
                (0..6)
                    .map(|i| copy_job(&format!("c{i}"), &format!("R{i}"), &format!("Out{i}")))
                    .collect(),
            );
            p
        };

        let unlimited = executor();
        let dfs_barrier = dfs_with(&name_refs);
        let barrier = unlimited.execute(&dfs_barrier, &program()).unwrap();
        assert_eq!(barrier.spilled_bytes(), 0, "unlimited run never spills");
        let budgeted = Executor::new(gumbo_mr::EngineConfig {
            mem_budget: MemBudget::bytes(512),
            ..gumbo_mr::EngineConfig::unscaled()
        });
        let dfs = dfs_with(&name_refs);
        let stats = slots(4)
            .execute_program(&budgeted, &dfs, program())
            .unwrap();

        // Same answers, same non-spill statistics — and the budget held.
        crate::equivalence::assert_identical_dfs("budgeted dag", &dfs_barrier, &dfs);
        crate::equivalence::assert_identical_stats("budgeted dag", &barrier, &stats);
        assert!(
            stats.spilled_bytes() > 0,
            "a 512 B budget must force spilling"
        );
        assert!(budgeted.budget().peak() <= 512);
    }

    #[test]
    fn empty_program_yields_empty_stats() {
        let dfs = dfs_with(&["R"]);
        let stats = DagScheduler::default()
            .execute_program(&executor(), &dfs, MrProgram::new())
            .unwrap();
        assert_eq!(stats.num_jobs(), 0);
        assert_eq!(stats.num_rounds(), 0);
    }

    /// The acceptance identity of the predicted DAG net-time model: on a
    /// chain DAG with a single job slot, the list-scheduled prediction
    /// *equals* the paper's per-round net time (each round holds exactly
    /// one job, and one slot forbids any overlap).
    #[test]
    fn predicted_net_time_equals_round_net_time_on_a_chain_with_one_slot() {
        let mut p = MrProgram::new();
        p.push_job(copy_job("a", "R", "X1"));
        p.push_job(copy_job("b", "X1", "X2"));
        p.push_job(copy_job("c", "X2", "X3"));
        let dfs = dfs_with(&["R"]);
        let stats = slots(1).execute_program(&executor(), &dfs, p).unwrap();
        let predicted = stats.predicted_net_time.expect("scheduled runs predict");
        assert!(
            (predicted - stats.net_time()).abs() < 1e-9,
            "predicted {predicted} vs per-round net {}",
            stats.net_time()
        );
        assert!(predicted > 0.0);
    }

    /// With slots to spare and an independent round, the prediction drops
    /// below the serial sum but never below the longest job.
    #[test]
    fn predicted_net_time_reflects_overlap() {
        let wide = || {
            let mut p = MrProgram::new();
            p.push_round(vec![copy_job("x", "R", "X"), copy_job("y", "R", "Y")]);
            p
        };
        let run = |n| {
            let dfs = dfs_with(&["R"]);
            slots(n).execute_program(&executor(), &dfs, wide()).unwrap()
        };
        let p1 = run(1).predicted_net_time.unwrap();
        let p2 = run(2).predicted_net_time.unwrap();
        assert!(p2 < p1, "2 slots {p2} should predict under 1 slot {p1}");
        // Identical jobs either way, so p1 is exactly the serial sum.
        let per_job: f64 = p1 / 2.0;
        assert!((p2 - per_job).abs() < 1e-9, "two equal jobs overlap fully");
    }

    #[test]
    fn config_resolves_workers_and_executor_kind() {
        let auto = SchedulerConfig {
            max_concurrent_jobs: 0,
            threads_per_job: 0,
            ..SchedulerConfig::default()
        };
        assert!(auto.effective_workers() >= 1);
        assert_eq!(
            SchedulerConfig::default().executor_kind(ExecutorKind::Simulated),
            ExecutorKind::Simulated
        );
        assert_eq!(
            SchedulerConfig {
                threads_per_job: 3,
                ..SchedulerConfig::default()
            }
            .executor_kind(ExecutorKind::Parallel { threads: 0 }),
            ExecutorKind::Parallel { threads: 3 }
        );
        assert_eq!(
            SchedulerConfig {
                threads_per_job: 0,
                ..SchedulerConfig::default()
            }
            .executor_kind(ExecutorKind::Parallel { threads: 7 }),
            ExecutorKind::Parallel { threads: 7 }
        );
    }
}
