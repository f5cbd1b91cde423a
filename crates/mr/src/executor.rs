//! The [`Executor`]: one job execution contract
//! ([`Executor::execute_job`]), one map→shuffle→reduce pipeline,
//! parameterised only by a worker count. *Programs* are run by the
//! scheduler in `gumbo-sched`, which calls `execute_job` for each job the
//! moment its inputs exist; the round-by-round loop kept here
//! ([`Executor::execute`]) is the serial reference that scheduler is
//! tested against, not a second way to run.
//!
//! The paper's algorithms are defined against an abstract MapReduce
//! substrate (§3.2); this module pins that substrate down so the query
//! layers (`gumbo-core`, `gumbo-baselines`, `gumbo-cli experiments`) never depend
//! on *how* a job runs. Map tasks, the partitioned shuffle and reduce
//! tasks fan out over the calling thread plus idle workers of the one
//! process-wide pool of persistent threads ([`crate::pool`]; no
//! work-stealing dependency) while every stage is metered by the paper's
//! cost model (§3.3) and scheduled onto the simulated cluster (§5.1):
//!
//! 1. **map** — the job's map tasks (splits fixed at plan time) are
//!    pulled off a shared counter by the workers, each filling one
//!    columnar [`PairBatch`] that hashes every emitted key exactly once
//!    ([`crate::hash::hash_view`]) into its hash column. The batch is
//!    sized before the first pair for the pairs each tuple of the input is
//!    certain to emit ([`Mapper::certain_pairs`](crate::Mapper::certain_pairs)),
//!    and an integer key of at most two cells is copied and hashed
//!    straight from the scanned row's cells
//!    ([`crate::hash::hash_ints`]); the §5.1 (1) packing count is one
//!    pass over a hash table of row ids keyed by those hashes, each hit
//!    confirmed on raw cells;
//! 2. **shuffle** — workers counting-sort contiguous groups of map tasks
//!    by reducer, on the same hashes, into per-reducer lists of (task,
//!    row) handles;
//! 3. **reduce** — fused with the per-reducer drain: each reducer appends
//!    handles to its rows, in task order, to a budget-charged spilling
//!    buffer ([`crate::batch_shuffle`]) that sorts its runs on the map
//!    tasks' hashes — the rows stay where the map tasks wrote them — then
//!    streams the merge of its spill runs plus the in-memory tail — keys
//!    in `(hash, Tuple)` order, values in global emission order — as
//!    borrowed groups straight into the reduce function, which writes
//!    what it emits into one columnar batch per output slot
//!    ([`OutputSink`]); the reduce task then sorts and de-duplicates each
//!    batch on its worker;
//! 4. **commit** — on the caller's thread, each output's sorted partition
//!    runs are k-way merged, dropping facts several partitions emitted,
//!    into the stored relation.
//!
//! Map tasks read their input as [`TupleView`](gumbo_common::TupleView)s
//! in place, and no stage builds a `Tuple` per scanned, emitted or
//! committed fact.
//!
//! Determinism: map results are re-assembled **in task order**, each
//! reducer's stream is grouped with keys in `(hash, Tuple)` order and
//! values in global emission order, and every output is a sorted set
//! whatever order its tuples were emitted in — so answer relations
//! and [`JobStats`] are byte-identical whatever the worker count, OS
//! scheduling or memory budget. At one worker every phase runs inline on
//! the calling thread: that configuration is the *reference* runtime
//! ([`ExecutorKind::Simulated`]) the §5 experiments use.
//! `tests/engine_matrix.rs` and the 1/4/16-thread smoke test at
//! the workspace root enforce the guarantee.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use gumbo_common::{ByteSize, GumboError, Relation, Result, TupleBatch};
use gumbo_storage::{Dfs, RelationScan};

use crate::batch_shuffle::{BatchGroupStream, BatchPartition, PairBatch};
use crate::cluster::Cluster;
use crate::cost::{job_cost, CostConstants, CostModelKind};
use crate::hash::partition_of;
use crate::job::{Emitter, Job, OutputSink};
use crate::metrics::{JobStats, ProgramStats, RoundStats};
use crate::profile::{InputPartition, JobProfile};
use crate::program::MrProgram;
use crate::shuffle::{MemBudget, MemoryBudget, ShuffleSpill, SpillStats};

/// The most reduce tasks one job may resolve: 21× the 382 that the §5
/// experiments resolve at most (Figure 7a's largest scale). Every map
/// task routes its rows with one counter per reduce task, so a byte
/// scale far beyond the paper's regime would otherwise allocate in
/// proportion to it — A1 at scale 10¹⁹ asked for 135 GB at once.
pub const MAX_REDUCE_TASKS: usize = 1 << 13;

/// Engine configuration, shared by every executor.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Byte scale factor: measured byte/record counts are multiplied by this
    /// before entering the cost model, mapping laptop-sized relations onto
    /// the paper's 100M-tuple regime (e.g. 100k real tuples × scale 1000).
    pub scale: u64,
    /// The simulated cluster.
    pub cluster: Cluster,
    /// Cost-model constants (Table 5).
    pub constants: CostConstants,
    /// Cost model used for *measured* accounting. Execution always behaves
    /// the same; this only affects how observed jobs are priced. The
    /// planner may use a different model (that mismatch is the §5.2
    /// cost-model experiment).
    pub model: CostModelKind,
    /// Shuffle memory budget. When limited, each executor's jobs charge a
    /// shared [`MemoryBudget`] as map output lands in the per-reducer
    /// buffers, spilling sorted runs to disk (see
    /// [`crate::batch_shuffle`]) instead of exceeding it. Answers are
    /// byte-identical either way.
    pub mem_budget: MemBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scale: 1000,
            cluster: Cluster::default(),
            constants: CostConstants::default(),
            model: CostModelKind::Gumbo,
            mem_budget: MemBudget::UNLIMITED,
        }
    }
}

impl EngineConfig {
    /// An unscaled configuration (bytes enter the cost model as measured).
    pub fn unscaled() -> Self {
        EngineConfig {
            scale: 1,
            ..EngineConfig::default()
        }
    }

    /// Builder-style: set the shuffle memory budget.
    pub fn with_mem_budget(mut self, budget: MemBudget) -> Self {
        self.mem_budget = budget;
        self
    }
}

/// Run `n` independent tasks on up to `threads` workers, returning results
/// **in task order**. Tasks are claimed from a shared atomic counter, so
/// long tasks don't stall short ones behind a static partition: the
/// calling thread claims tasks itself and offers the same claim loop to at
/// most `threads - 1` idle workers of the process-wide pool
/// ([`crate::pool`]), which join only if they are idle before the tasks
/// run out. With one worker (or one task) everything runs inline on the
/// calling thread and the pool is never touched. A task's panic reaches
/// the caller once every task a worker claimed has finished.
fn parallel_for<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let claim = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = f(i);
        *slots[i].lock().expect("unpoisoned result slot") = Some(result);
    };
    crate::pool::scope(workers, |scope| {
        for _ in 1..workers {
            scope.offer(claim);
        }
        claim();
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("unpoisoned result slot")
                .expect("task completed")
        })
        .collect()
}

/// Every map output row of a job grouped by target reducer. The map
/// tasks are cut into contiguous groups, one per worker, and each group is
/// counting-sorted by reducer on its own, in parallel, on the key hashes
/// the map tasks already computed ([`PairBatch::hashes`]): routing hashes
/// nothing, takes one modulo per row, and keeps one counter per (group,
/// reducer) — not per (task, reducer) — so a byte scale that models
/// thousands of reducers for a few thousand rows stays cheap. Reducer
/// `p`'s rows are its entries in each group, group after group: in task
/// order, and within a task in ascending row (= emission) order.
struct Routes {
    groups: Vec<GroupRoutes>,
}

/// One group's rows sorted by reducer: reducer `p` owns entries
/// `starts[p]..starts[p + 1]` of `tasks` (job-wide task indices) and
/// `rows`.
struct GroupRoutes {
    tasks: Vec<u32>,
    rows: Vec<u32>,
    starts: Vec<u32>,
}

impl GroupRoutes {
    /// Sort the rows of `batches`, the map outputs of tasks `first..`.
    fn of(batches: &[PairBatch], first: usize, reducers: usize) -> GroupRoutes {
        let total = batches.iter().map(PairBatch::len).sum();
        let mut targets = Vec::with_capacity(total);
        let mut starts = vec![0u32; reducers + 1];
        for batch in batches {
            for &hash in batch.hashes() {
                let p = partition_of(hash, reducers);
                targets.push(p as u32);
                starts[p + 1] += 1;
            }
        }
        for p in 0..reducers {
            starts[p + 1] += starts[p];
        }
        let mut next = starts.clone();
        let mut tasks = vec![0u32; total];
        let mut rows = vec![0u32; total];
        let mut targets = targets.into_iter();
        for (task, batch) in batches.iter().enumerate() {
            for row in 0..batch.len() as u32 {
                let p = targets.next().expect("one target per row");
                let slot = &mut next[p as usize];
                tasks[*slot as usize] = (first + task) as u32;
                rows[*slot as usize] = row;
                *slot += 1;
            }
        }
        GroupRoutes {
            tasks,
            rows,
            starts,
        }
    }

    fn range(&self, p: usize) -> std::ops::Range<usize> {
        self.starts[p] as usize..self.starts[p + 1] as usize
    }

    /// Reducer `p`'s rows in this group as one `(task, rows)` run per map
    /// task that sent it any, in task order.
    fn runs_for(&self, p: usize) -> impl Iterator<Item = (usize, &[u32])> {
        let (tasks, rows) = (&self.tasks[self.range(p)], &self.rows[self.range(p)]);
        let mut at = 0;
        std::iter::from_fn(move || {
            let &task = tasks.get(at)?;
            let end = at + tasks[at..].partition_point(|&t| t == task);
            let run = (task as usize, &rows[at..end]);
            at = end;
            Some(run)
        })
    }
}

impl Routes {
    fn of(batches: &[PairBatch], reducers: usize, workers: usize) -> Routes {
        let per_group = batches.len().div_ceil(workers.max(1)).max(1);
        let groups = batches.len().div_ceil(per_group);
        let groups = parallel_for(groups, workers, |g| {
            let first = g * per_group;
            let end = (first + per_group).min(batches.len());
            GroupRoutes::of(&batches[first..end], first, reducers)
        });
        Routes { groups }
    }

    /// Whether reducer `p` receives any row.
    fn is_empty(&self, p: usize) -> bool {
        self.groups.iter().all(|group| group.range(p).is_empty())
    }

    /// Reducer `p`'s rows as one `(task, rows)` run per map task that
    /// sent it any, in task order.
    fn runs_for(&self, p: usize) -> impl Iterator<Item = (usize, &[u32])> {
        self.groups.iter().flat_map(move |group| group.runs_for(p))
    }
}

/// Run one job's plan → compute → commit chain, turning a panic inside it
/// (a mapper or reducer bug) into a typed error naming the job. Unwinding
/// still drops everything the chain held — spans close flagged aborted,
/// budget charges are released, the spill directory is removed — so the
/// caller gets an `Err` and nothing leaks.
fn catch_job_panic<T>(job: &Job, chain: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(chain)).unwrap_or_else(|payload| {
        let reason = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(GumboError::Plan(format!(
            "job {} panicked: {reason}",
            job.name
        )))
    })
}

/// The MapReduce runtime: executes jobs and programs against a DFS while
/// collecting the paper's metrics.
///
/// Execution is *observationally identical* at every worker count: the
/// same program over the same DFS yields the same answer relations and
/// the same [`JobStats`], whatever the internal scheduling. The worker
/// count only decides **where** each map/shuffle/reduce task runs.
///
/// [`Executor::execute_job`] is the one way a job runs. It chains three
/// phases so that the scheduler in `gumbo-sched` can run jobs
/// concurrently on a shared DFS: planning reads the inputs (it owns its
/// fact snapshots), the map/shuffle/reduce compute never touches the DFS,
/// and the commit stores the outputs.
///
/// Executors are `Send + Sync`: the scheduler shares one executor across
/// the pool workers its jobs run on. Clones share the memory-budget
/// tracker, so a cloned executor draws from the same budget.
#[derive(Debug, Clone)]
pub struct Executor {
    /// The memory-budget tracker is bound to `config.mem_budget` at
    /// construction, which is why the configuration is read-only here.
    config: EngineConfig,
    /// Requested worker count; `0` = auto-size from the machine and the
    /// configured cluster.
    threads: usize,
    budget: Arc<MemoryBudget>,
}

impl Executor {
    /// The reference configuration: one worker, every phase inline on the
    /// calling thread (what [`ExecutorKind::Simulated`] builds).
    pub fn new(config: EngineConfig) -> Self {
        Executor::with_threads(config, 1)
    }

    /// `threads` workers per fan-out: the calling thread and up to
    /// `threads - 1` idle workers of the process-wide pool (`0` = auto:
    /// min(available parallelism, cluster map slots)).
    pub fn with_threads(config: EngineConfig, threads: usize) -> Self {
        Executor {
            config,
            threads,
            budget: Arc::new(MemoryBudget::new(config.mem_budget)),
        }
    }

    /// The configuration this executor runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shuffle memory tracker every job of this executor charges.
    /// One tracker per executor instance: jobs scheduled concurrently on
    /// the same executor (the DAG scheduler's mode of operation) share —
    /// and are collectively bounded by — a single budget.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// The worker count this executor will actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        let hw = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        hw.min(self.config.cluster.map_slots()).max(1)
    }

    /// Run the map, shuffle and reduce phases of a planned job on this
    /// executor's workers. This is the pure compute part — no DFS access.
    /// Observational identity holds for any worker count.
    fn run_phases(&self, job: &Job, mut plan: MapPlan) -> Result<ComputedJob> {
        let workers = self.effective_threads();
        // ---- map phase: tasks fan out over the pool ---------------------
        // Planning (and its DFS read metering) happened on the caller's
        // thread; tasks visit their splits in place on snapshot scans, so
        // workers never touch the DFS.
        let map_span = gumbo_obs::span_with("map", |f| {
            f.str("job", &job.name);
            f.u64("tasks", plan.tasks.len() as u64);
            f.u64("workers", workers as u64);
        });
        let mapped: Vec<MapTaskOutput> = parallel_for(plan.tasks.len(), workers, |i| {
            let task = &plan.tasks[i];
            run_map_task(
                job,
                task.input_idx,
                &plan.input_scans[task.input_idx],
                task.split.clone(),
            )
        })
        .into_iter()
        .collect::<Result<_>>()?;
        let counts: Vec<(u64, u64)> = mapped
            .iter()
            .map(|m| (m.output_bytes, m.records_out))
            .collect();
        plan.apply_counts(self.config.scale.max(1), &counts);
        drop(map_span);

        // ---- shuffle: route every row to its reducer ---------------------
        let reducers = plan.resolve_reducers(job)?;
        let shuffle_span = gumbo_obs::span_with("shuffle:flush", |f| {
            f.str("job", &job.name);
            f.u64("reducers", reducers as u64);
        });
        let batches: Vec<PairBatch> = mapped.into_iter().map(|task| task.batch).collect();
        let routes = Routes::of(&batches, reducers, workers);
        drop(shuffle_span);

        // ---- drain + reduce, fused per reducer ---------------------------
        // Each reducer appends handles to its rows in task order (so
        // values within a key group end up in global emission order) to a
        // budget-charged spilling buffer — the map outputs stay resident
        // until every reducer has finished, so no row is copied — then
        // streams the merged groups straight into the reduce function.
        // Reducer workers run concurrently and all charge the executor's
        // shared memory budget; per-reducer byte loads feed the simulated
        // reduce-task durations, so data skew shows up in net time. Only
        // partitions that received rows run: an empty one has no group to
        // reduce, so it adds a zero byte load and no output, and a byte
        // scale that models thousands of reducers for a few hundred keys
        // costs no more than the keys do.
        let filled: Vec<usize> = (0..reducers).filter(|&p| !routes.is_empty(p)).collect();
        let reduce_span = gumbo_obs::span_with("reduce", |f| {
            f.str("job", &job.name);
            f.u64("reducers", reducers as u64);
        });
        let spill = ShuffleSpill::new(&job.name);
        let budget = &*self.budget;
        type ReducedPartition = Result<(Vec<TupleBatch>, u64, SpillStats)>;
        let reduced: Vec<ReducedPartition> = parallel_for(filled.len(), workers, |i| {
            let p = filled[i];
            let mut span = gumbo_obs::span_with("reduce:partition", |f| {
                f.str("job", &job.name);
                f.u64("partition", p as u64);
            });
            let mut part = BatchPartition::new(p, budget, &spill, &batches, reducers);
            let mut rows = 0;
            for (task, task_rows) in routes.runs_for(p) {
                rows += task_rows.len() as u64;
                part.push_rows(task, task_rows)?;
            }
            let bytes = part.total_bytes();
            let (groups, stats) = part.into_groups()?;
            span.record(|f| {
                f.u64("rows", rows);
                f.u64("bytes", bytes);
                f.u64("runs", stats.spill_files);
            });
            drop(span);
            Ok((run_reduce_stream(job, groups)?, bytes, stats))
        });
        // First error in partition order, whatever the worker count.
        let mut partition_outputs = Vec::with_capacity(filled.len());
        let mut reducer_bytes = vec![0u64; reducers];
        let mut spill_stats = SpillStats::default();
        for (&p, outcome) in filled.iter().zip(reduced) {
            let (outputs, bytes, stats) = outcome?;
            partition_outputs.push(outputs);
            reducer_bytes[p] = bytes;
            spill_stats.absorb(stats);
        }
        drop(reduce_span);

        Ok(ComputedJob {
            partitions: plan.partitions,
            reducers,
            reducer_bytes,
            partition_outputs,
            spill: spill_stats,
        })
    }

    /// Execute a single job: plan → map → shuffle → reduce → commit, with
    /// full metering, on this executor's workers. `round` is the job's
    /// round in its program, recorded on its [`JobStats`]. A panicking
    /// mapper or reducer surfaces as an error, not an unwind into the
    /// caller.
    pub fn execute_job(&self, dfs: &dyn Dfs, job: &Job, round: usize) -> Result<JobStats> {
        catch_job_panic(job, || {
            // The whole execution runs under one "job" span on the calling
            // lane, so the plan/phase/commit spans nest beneath it.
            let _span = gumbo_obs::span_with("job", |f| {
                f.str("job", &job.name);
                f.u64("round", round as u64);
                if let Some(e) = &job.estimate {
                    f.f64("estimated_cost", e.total_cost);
                }
            });
            let plan = plan_job(&self.config, dfs, job)?;
            let computed = self.run_phases(job, plan)?;
            commit_job(&self.config, dfs, job, round, computed)
        })
    }

    /// The serial reference semantics the scheduler must reproduce: every
    /// job of round *r*, one after another in program order, before any
    /// job of round *r + 1*, with per-round statistics pooled as the paper
    /// prices them (§3.3).
    ///
    /// This is the oracle, not a way to run programs: production code
    /// executes through `gumbo_sched::DagScheduler` (one job slot gives
    /// this order), and only tests and `gumbo_sched::equivalence` call
    /// this loop to check the scheduler against it.
    pub fn execute(&self, dfs: &dyn Dfs, program: &MrProgram) -> Result<ProgramStats> {
        let mut stats = ProgramStats::default();
        for (round_idx, round) in program.rounds().iter().enumerate() {
            let mut round_jobs = Vec::with_capacity(round.len());
            for job in round {
                round_jobs.push(self.execute_job(dfs, job, round_idx)?);
            }
            stats.round_stats.push(RoundStats::pooled(
                round_jobs.iter(),
                self.config.cluster,
                self.config.constants.job_overhead,
            ));
            stats.jobs.extend(round_jobs);
        }
        Ok(stats)
    }
}

/// How to size the runtime — a small `Copy` token the upper layers
/// (engine options, CLI flags, bench configs) carry around and resolve
/// into an [`Executor`] on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// The reference configuration: the executor pinned to one worker,
    /// every phase inline on the calling thread. The §5 reproduction
    /// commands and `BENCH_*` headers name it `sim`.
    #[default]
    Simulated,
    /// A worker pool with this many threads
    /// (`0` = auto: min(available parallelism, cluster map slots)).
    Parallel {
        /// Worker thread count; `0` sizes the pool automatically.
        threads: usize,
    },
}

impl ExecutorKind {
    /// Build the runtime for a configuration.
    pub fn build(self, config: EngineConfig) -> Executor {
        match self {
            ExecutorKind::Simulated => Executor::new(config),
            ExecutorKind::Parallel { threads } => Executor::with_threads(config, threads),
        }
    }

    /// Parse a CLI spelling: `sim` / `simulated`, `parallel`, or
    /// `parallel:N` for an explicit thread count.
    pub fn parse(s: &str) -> Option<ExecutorKind> {
        match s {
            "sim" | "simulated" => Some(ExecutorKind::Simulated),
            "parallel" => Some(ExecutorKind::Parallel { threads: 0 }),
            _ => {
                let threads = s.strip_prefix("parallel:")?.parse().ok()?;
                Some(ExecutorKind::Parallel { threads })
            }
        }
    }

    /// The CLI spelling of this kind.
    pub fn label(&self) -> String {
        match self {
            ExecutorKind::Simulated => "sim".to_string(),
            ExecutorKind::Parallel { threads: 0 } => "parallel".to_string(),
            ExecutorKind::Parallel { threads } => format!("parallel:{threads}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared execution pipeline
// ---------------------------------------------------------------------------

/// One map task: a split of one input partition (tuple indices are
/// positions in the relation's canonical order — the tuple ids of the
/// guard-reference optimization, §5.1 (2)).
pub(crate) struct MapTaskSpec {
    /// Index into `MapPlan::partitions` / `MapPlan::input_scans`.
    pub input_idx: usize,
    /// This split's range within the input's canonical order.
    pub split: Range<usize>,
}

/// The planned map phase of one job: per-input partitions (with mapper
/// counts fixed by the split-size rule) plus the concrete task list.
///
/// Inputs are held as *scans*, not materialized relations: a task visits
/// its split of its input's [`RelationScan`] in place only when it runs
/// ([`run_map_task`]), so the whole relation is never resident at once —
/// on the file backend a task touches only the segment frames covering
/// its split — and no input tuple is cloned. The scans are snapshots with
/// no borrow of the DFS instance, which is what lets a concurrent
/// scheduler run [`Executor::run_phases`] without holding any storage
/// lock. All read metering already happened at [`plan_job`] time.
pub(crate) struct MapPlan {
    /// Per-input metering skeletons; `map_output`/`records_out` are filled
    /// in by `MapPlan::apply_counts`.
    pub(crate) partitions: Vec<InputPartition>,
    /// One open scan per input relation, in `job.inputs` order.
    pub(crate) input_scans: Vec<RelationScan>,
    /// All map tasks of the job, grouped by input and ordered by split.
    pub(crate) tasks: Vec<MapTaskSpec>,
}

impl MapPlan {
    /// Resolve the job's reduce-task count from the measured input and
    /// intermediate sizes (call after `MapPlan::apply_counts`). Every
    /// modeled reducer is a physical reduce task, and the sizes are
    /// *scaled*, so a count above [`MAX_REDUCE_TASKS`] is a plan error
    /// rather than an allocation the process cannot make.
    pub(crate) fn resolve_reducers(&self, job: &Job) -> Result<usize> {
        let total_input = self.partitions.iter().map(|p| p.input).sum();
        let total_map_output = self.partitions.iter().map(|p| p.map_output).sum();
        let reducers = job
            .config
            .reducer_policy
            .reducers(total_input, total_map_output);
        if reducers > MAX_REDUCE_TASKS {
            return Err(GumboError::Plan(format!(
                "job {} resolves {reducers} reduce tasks, above the limit of {MAX_REDUCE_TASKS}: \
                 lower the byte scale",
                job.name
            )));
        }
        Ok(reducers)
    }
}

/// Plan the map phase: open a metered scan over every input, derive
/// mapper counts from the *scaled* sizes (the paper's regime), and cut
/// each relation into per-task splits.
///
/// Shared DFS access suffices: scans are metered through atomic counters
/// and the returned plan holds snapshot scans, not materialized
/// relations — each task visits its split during the map phase.
fn plan_job(config: &EngineConfig, dfs: &dyn Dfs, job: &Job) -> Result<MapPlan> {
    let mut span = gumbo_obs::span_with("plan", |f| f.str("job", &job.name));
    let scale = config.scale.max(1);
    let mut partitions = Vec::with_capacity(job.inputs.len());
    let mut input_scans = Vec::with_capacity(job.inputs.len());
    let mut tasks = Vec::new();
    for (input_idx, input_name) in job.inputs.iter().enumerate() {
        let scan = dfs.scan(input_name)?;
        let real_input = scan.bytes();
        let scaled_input = real_input.scaled(scale);
        let n_facts = scan.len();
        // Mapper (split) count from the *scaled* size, clamped so every
        // task has at least one real fact.
        let mut mappers = job.config.mappers_for(scaled_input);
        if n_facts > 0 {
            mappers = mappers.min(n_facts);
        }
        let chunk = if n_facts == 0 {
            1
        } else {
            n_facts.div_ceil(mappers)
        };

        let chunk = chunk.max(1);
        for start in (0..n_facts).step_by(chunk) {
            tasks.push(MapTaskSpec {
                input_idx,
                split: start..(start + chunk).min(n_facts),
            });
        }
        input_scans.push(scan);

        partitions.push(InputPartition {
            label: input_name.to_string(),
            input: scaled_input,
            map_output: ByteSize::ZERO,
            records_out: 0,
            mappers,
        });
    }
    span.record(|f| {
        f.u64("inputs", partitions.len() as u64);
        f.u64("map_tasks", tasks.len() as u64);
    });
    Ok(MapPlan {
        partitions,
        input_scans,
        tasks,
    })
}

/// What one map task produced: the emitted pairs in emission order, held
/// as one columnar [`PairBatch`].
pub(crate) struct MapTaskOutput {
    /// Emitted pairs in emission order, columnar, each key hashed once
    /// ([`PairBatch::hashes`]) — read by the packing count, the routing
    /// and the shuffle's sort.
    pub batch: PairBatch,
    /// Charged map-output bytes (packing-aware), unscaled.
    pub output_bytes: u64,
    /// Charged map-output records (packing-aware).
    pub records_out: u64,
}

/// Run one map task: visit the tuples of `split` in place on `scan` and
/// apply the mapper to each — its tuple id is its position in the
/// relation's canonical order (the guard-reference ids of §5.1 (2)),
/// pinned by the split's offset whichever frames back the visit. The
/// mapper writes its pairs straight into one [`PairBatch`] (which hashes
/// every emitted key once), sized first for the pairs every tuple of the
/// input is certain to emit; then bytes/records are accounted, charging
/// key bytes once per distinct key within the task when packing is
/// enabled (§5.1 (1)) — one pass over a hash table of row ids
/// ([`packed_counts`]), no sort.
pub(crate) fn run_map_task(
    job: &Job,
    input: usize,
    scan: &RelationScan,
    split: Range<usize>,
) -> Result<MapTaskOutput> {
    let mut span = gumbo_obs::span_with("map:task", |f| {
        f.str("job", &job.name);
        f.u64("facts", split.len() as u64);
    });
    let mut batch = PairBatch::with_capacity(split.len(), job.mapper.certain_pairs(input));
    let mut out = Emitter::new(&mut batch);
    let mut index = split.start as u64;
    scan.for_each(split, &mut |tuple| {
        job.mapper.map(input, tuple, index, &mut out);
        index += 1;
    })?;
    let (output_bytes, records_out) = if job.config.packing {
        packed_counts(&batch, batch.hashes())
    } else {
        (batch.estimated_bytes(), batch.len() as u64)
    };
    span.record(|f| f.u64("records_out", records_out));
    Ok(MapTaskOutput {
        batch,
        output_bytes,
        records_out,
    })
}

/// The packed `(output_bytes, records_out)` of one map task's output
/// (§5.1 (1)): every message's bytes, plus each *distinct* key's bytes
/// once; one record per distinct key. `key_hashes[row]` is any hash of row
/// `row`'s key — it only steers the probe sequence of an open-addressing
/// table of row ids; a hit is confirmed by comparing the keys themselves
/// on raw cells (the batch's key store codes each string once), so
/// colliding hashes cost probes, never a miscount.
pub(crate) fn packed_counts(batch: &PairBatch, key_hashes: &[u64]) -> (u64, u64) {
    const EMPTY: u32 = u32::MAX;
    debug_assert_eq!(key_hashes.len(), batch.len());
    // At most half full, so every probe sequence ends at an empty slot.
    let mask = (batch.len() * 2).next_power_of_two() - 1;
    let mut table = vec![EMPTY; mask + 1];
    let mut repeated_key_bytes = 0u64;
    let mut distinct = 0u64;
    for (row, &hash) in key_hashes.iter().enumerate() {
        // FNV-1a multiplies upward: the high half is the better mixed one.
        let mut slot = (hash ^ (hash >> 32)) as usize & mask;
        loop {
            let seen = table[slot];
            if seen == EMPTY {
                table[slot] = row as u32;
                distinct += 1;
                break;
            }
            let seen = seen as usize;
            if key_hashes[seen] == hash && batch.same_key(seen, row) {
                repeated_key_bytes += batch.key_bytes(row);
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
    (batch.estimated_bytes() - repeated_key_bytes, distinct)
}

impl MapPlan {
    /// Fold per-task `(output_bytes, records_out)` counts (in task order)
    /// into the per-input partition metering, applying the byte scale
    /// once per partition.
    pub(crate) fn apply_counts(&mut self, scale: u64, counts: &[(u64, u64)]) {
        debug_assert_eq!(counts.len(), self.tasks.len());
        let mut raw_bytes = vec![0u64; self.partitions.len()];
        let mut raw_records = vec![0u64; self.partitions.len()];
        for (task, &(bytes, records)) in self.tasks.iter().zip(counts) {
            raw_bytes[task.input_idx] += bytes;
            raw_records[task.input_idx] += records;
        }
        for (i, p) in self.partitions.iter_mut().enumerate() {
            p.map_output = ByteSize::bytes(raw_bytes[i]).scaled(scale);
            p.records_out = raw_records[i].saturating_mul(scale);
        }
    }
}

/// Reduce one shuffle partition by streaming its key groups (keys in
/// `(hash, Tuple)` order, values in global emission order — the order the
/// bounded and unlimited shuffles both guarantee; no reducer depends on
/// the key order) into an [`OutputSink`], then sort and de-duplicate each
/// declared output's rows ([`TupleBatch::sort_dedup`]) here, on the
/// reduce worker: [`commit_job`] only merges the sorted runs. An emission
/// of the wrong arity or to an undeclared output is rejected here, where
/// it happens. Groups are read in place ([`Group`](crate::Group)) and
/// emitted rows are copied cell by cell; no tuple is built.
pub(crate) fn run_reduce_stream(
    job: &Job,
    mut groups: BatchGroupStream<'_>,
) -> Result<Vec<TupleBatch>> {
    let mut span = gumbo_obs::span_with("reduce:task", |f| f.str("job", &job.name));
    let mut out = OutputSink::new(job);
    while let Some(group) = groups.next_group()? {
        job.reducer.reduce(&group, &mut out);
        if let Some(e) = out.take_error() {
            return Err(e);
        }
    }
    let mut outputs = out.into_batches();
    // Emitted tuples, duplicates included; the `commit` span carries the
    // distinct count.
    span.record(|f| {
        f.u64(
            "output_tuples",
            outputs.iter().map(|b| b.len() as u64).sum(),
        );
    });
    for batch in &mut outputs {
        batch.sort_dedup();
    }
    Ok(outputs)
}

/// The outcome of a job's map/shuffle/reduce phases, not yet committed to
/// the DFS: per-input metering, reducer accounting (a byte load for every
/// modeled reducer), and each non-empty partition's sorted output batches
/// ([`run_reduce_stream`], in slot order) awaiting the merge in
/// [`commit_job`].
pub(crate) struct ComputedJob {
    pub(crate) partitions: Vec<InputPartition>,
    pub(crate) reducers: usize,
    pub(crate) reducer_bytes: Vec<u64>,
    pub(crate) partition_outputs: Vec<Vec<TupleBatch>>,
    pub(crate) spill: SpillStats,
}

/// Build every declared output once by k-way merging its partitions'
/// sorted runs ([`TupleBatch::merge_sorted`], which drops a tuple that
/// several partitions emitted), store it to the DFS in name order, and
/// assemble the job's metered statistics. This is the only phase that
/// mutates the DFS.
fn commit_job(
    config: &EngineConfig,
    dfs: &dyn Dfs,
    job: &Job,
    round: usize,
    computed: ComputedJob,
) -> Result<JobStats> {
    let mut span = gumbo_obs::span_with("commit", |f| f.str("job", &job.name));
    let ComputedJob {
        partitions,
        reducers,
        reducer_bytes,
        mut partition_outputs,
        spill,
    } = computed;
    let scale = config.scale.max(1);
    let consts = &config.constants;

    let mut output_tuples = 0u64;
    let mut output_bytes = ByteSize::ZERO;
    let mut slots: Vec<usize> = (0..job.outputs.len()).collect();
    slots.sort_by_key(|&slot| &job.outputs[slot].0);
    for slot in slots {
        let (name, arity) = &job.outputs[slot];
        let runs = (partition_outputs.iter_mut())
            .map(|partition| std::mem::take(&mut partition[slot]))
            .collect();
        let rel = Relation::from_batch(name, TupleBatch::merge_sorted(*arity, runs));
        output_tuples += rel.len() as u64;
        output_bytes += ByteSize::bytes(rel.estimated_bytes()).scaled(scale);
        dfs.store(rel)?;
    }

    let profile = JobProfile {
        partitions,
        reducers,
        output: output_bytes,
    };
    let map_cost: f64 = match config.model {
        CostModelKind::Gumbo => profile.partitions.iter().map(|p| consts.cost_map(p)).sum(),
        CostModelKind::Wang => {
            job_cost(CostModelKind::Wang, consts, &profile)
                - consts.job_overhead
                - consts.cost_red(profile.total_map_output(), reducers, output_bytes)
        }
    };
    let reduce_cost = consts.cost_red(profile.total_map_output(), reducers, output_bytes);
    let total_cost = consts.job_overhead + map_cost + reduce_cost;

    let mut map_task_durations = Vec::new();
    for p in &profile.partitions {
        let per_task = consts.cost_map(p) / p.mappers.max(1) as f64;
        map_task_durations.extend(std::iter::repeat_n(per_task, p.mappers));
    }
    // Distribute the (cost-model) reduce cost over tasks proportionally to
    // their actual byte loads — uniform when there is no data (or no
    // skew). Totals stay faithful to the paper's cost_red; only the
    // wall-clock distribution reflects skew.
    let shuffled: u64 = reducer_bytes.iter().sum();
    let reduce_task_durations: Vec<f64> = if shuffled == 0 {
        vec![reduce_cost / reducers.max(1) as f64; reducers]
    } else {
        reducer_bytes
            .iter()
            .map(|&b| reduce_cost * b as f64 / shuffled as f64)
            .collect()
    };

    static JOBS_COMMITTED: gumbo_obs::Counter = gumbo_obs::Counter::new("executor.jobs_committed");
    JOBS_COMMITTED.incr();

    let estimated_cost = job.estimate.as_ref().map(|e| e.total_cost);
    // The calibration ledger: every estimated job's span ends with the
    // estimated/observed cost pair and their ratio.
    span.record(|f| {
        // The job name again on the End event, so ledger consumers can
        // match commits without pairing Begin/End records first.
        f.str("job", &job.name);
        f.u64("output_tuples", output_tuples);
        f.f64("observed_cost", total_cost);
        if let Some(est) = estimated_cost {
            f.f64("estimated_cost", est);
            if est > 0.0 {
                f.f64("estimate_error", total_cost / est);
            }
        }
        if spill.spilled_bytes > 0 {
            f.u64("spilled_bytes", spill.spilled_bytes);
        }
    });

    Ok(JobStats {
        name: job.name.clone(),
        round,
        profile,
        map_cost,
        reduce_cost,
        total_cost,
        map_task_durations,
        reduce_task_durations,
        output_tuples,
        spilled_bytes: spill.spilled_bytes,
        spilled_disk_bytes: spill.spilled_disk_bytes,
        spill_files: spill.spill_files,
        spill_merge_passes: spill.merge_passes,
        estimated_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_shuffle::Group;
    use crate::job::{JobConfig, Mapper, Reducer, ReducerPolicy};
    use crate::message::{MsgRef, MsgView, PayloadView};
    use gumbo_common::{Tuple, TupleView};
    use gumbo_storage::SimDfs;

    /// Worker counts every pipeline test runs at: the inline reference
    /// configuration and a real pool.
    const WORKERS: [usize; 2] = [1, 4];

    /// A miniature single-semi-join job (§4.1's repartition join): the
    /// guard `guard(x, z)`, input 0, requests on key z; any other input
    /// asserts on its first attribute.
    struct SemiJoinMapper;
    impl Mapper for SemiJoinMapper {
        fn map(&self, input: usize, tuple: TupleView<'_>, _index: u64, out: &mut Emitter<'_>) {
            if input == 0 {
                let msg = MsgRef::Req {
                    cond: 0,
                    tuple,
                    positions: &[0],
                };
                out.project(tuple, &[1], msg);
            } else {
                out.project(tuple, &[0], MsgRef::Assert { cond: 0 });
            }
        }
    }

    struct SemiJoinReducer;
    impl Reducer for SemiJoinReducer {
        fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>) {
            let asserted = group
                .values()
                .any(|m| matches!(m, MsgView::Assert { cond: 0 }));
            if asserted {
                for m in group.values() {
                    if let MsgView::Req {
                        cond: 0,
                        payload: PayloadView::Tuple(t),
                    } = m
                    {
                        out.view(0, t);
                    }
                }
            }
        }
    }

    fn semi_join(guard: &'static str, cond: &'static str, output: &'static str) -> Job {
        Job {
            name: format!("MSJ({output})"),
            inputs: vec![guard.into(), cond.into()],
            outputs: vec![(output.into(), 1)],
            mapper: Box::new(SemiJoinMapper),
            reducer: Box::new(SemiJoinReducer),
            config: JobConfig::default(),
            estimate: None,
        }
    }

    fn semi_join_job() -> Job {
        semi_join("R", "S", "Z")
    }

    /// A reducer that emits to an output its job never declared.
    struct BadReducer;
    impl Reducer for BadReducer {
        fn reduce(&self, _: &Group<'_>, out: &mut OutputSink<'_>) {
            let mut row = TupleBatch::new(1);
            row.push_tuple(&Tuple::from_ints(&[1]));
            out.view(0, row.view(0));
        }
    }

    fn bad_job() -> Job {
        Job {
            name: "bad".into(),
            inputs: vec!["R".into()],
            outputs: vec![],
            mapper: Box::new(SemiJoinMapper),
            reducer: Box::new(BadReducer),
            config: JobConfig::default(),
            estimate: None,
        }
    }

    fn example3_dfs() -> SimDfs {
        // Example 3: I = {R(1,2), R(4,5), S(2,3)}.
        let dfs = SimDfs::new();
        dfs.store(
            Relation::from_tuples(
                "R",
                2,
                vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[4, 5])],
            )
            .unwrap(),
        )
        .unwrap();
        dfs.store(Relation::from_tuples("S", 2, vec![Tuple::from_ints(&[2, 3])]).unwrap())
            .unwrap();
        dfs
    }

    /// `n` guard tuples over 97 join keys, half as many conditional ones.
    fn wide_dfs(n: i64) -> SimDfs {
        let dfs = SimDfs::new();
        dfs.store(
            Relation::from_tuples("R", 2, (0..n).map(|i| Tuple::from_ints(&[i, i % 97]))).unwrap(),
        )
        .unwrap();
        dfs.store(
            Relation::from_tuples("S", 1, (0..n / 2).map(|i| Tuple::from_ints(&[i % 97]))).unwrap(),
        )
        .unwrap();
        dfs
    }

    fn unscaled(workers: usize) -> Executor {
        Executor::with_threads(EngineConfig::unscaled(), workers)
    }

    #[test]
    fn executor_kind_parses_cli_spellings() {
        assert_eq!(ExecutorKind::parse("sim"), Some(ExecutorKind::Simulated));
        assert_eq!(
            ExecutorKind::parse("simulated"),
            Some(ExecutorKind::Simulated)
        );
        assert_eq!(
            ExecutorKind::parse("parallel"),
            Some(ExecutorKind::Parallel { threads: 0 })
        );
        assert_eq!(
            ExecutorKind::parse("parallel:8"),
            Some(ExecutorKind::Parallel { threads: 8 })
        );
        assert_eq!(ExecutorKind::parse("hadoop"), None);
        assert_eq!(ExecutorKind::parse("parallel:x"), None);
    }

    #[test]
    fn executor_kind_labels_round_trip() {
        for kind in [
            ExecutorKind::Simulated,
            ExecutorKind::Parallel { threads: 0 },
            ExecutorKind::Parallel { threads: 4 },
        ] {
            assert_eq!(ExecutorKind::parse(&kind.label()), Some(kind));
        }
    }

    #[test]
    fn kinds_build_the_one_executor_at_their_worker_count() {
        let config = EngineConfig::unscaled();
        let sim = ExecutorKind::Simulated.build(config);
        assert_eq!(sim.effective_threads(), 1, "sim is pinned to one worker");
        assert_eq!(sim.config().scale, 1);
        let par = ExecutorKind::Parallel { threads: 5 }.build(config);
        assert_eq!(par.effective_threads(), 5);
        let auto = ExecutorKind::Parallel { threads: 0 }
            .build(config)
            .effective_threads();
        assert!((1..=config.cluster.map_slots()).contains(&auto));
    }

    #[test]
    fn parallel_for_preserves_task_order() {
        for threads in [1usize, 2, 7] {
            let out = parallel_for(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn example3_semijoin_executes_correctly() {
        for workers in WORKERS {
            let dfs = example3_dfs();
            let mut program = MrProgram::new();
            program.push_job(semi_join_job());
            let stats = unscaled(workers).execute(&dfs, &program).unwrap();
            let z = dfs.peek(&"Z".into()).unwrap();
            assert_eq!(z.len(), 1);
            assert!(z.contains(&Tuple::from_ints(&[1])));
            assert_eq!(stats.jobs[0].output_tuples, 1);
            assert!(stats.net_time() > 0.0);
        }
    }

    #[test]
    fn per_input_partitions_are_metered_separately() {
        for workers in WORKERS {
            let dfs = example3_dfs();
            let stats = unscaled(workers)
                .execute_job(&dfs, &semi_join_job(), 0)
                .unwrap();
            assert_eq!(stats.profile.partitions.len(), 2);
            assert_eq!(stats.profile.partitions[0].label, "R");
            // R has 2 tuples of 20 B; S has 1.
            assert_eq!(stats.profile.partitions[0].input, ByteSize::bytes(40));
            assert_eq!(stats.profile.partitions[1].input, ByteSize::bytes(20));
        }
    }

    #[test]
    fn scale_multiplies_metrics_but_not_results() {
        for workers in WORKERS {
            let run = |scale| {
                let dfs = example3_dfs();
                let config = EngineConfig {
                    scale,
                    ..EngineConfig::default()
                };
                let stats = Executor::with_threads(config, workers)
                    .execute_job(&dfs, &semi_join_job(), 0)
                    .unwrap();
                (dfs.peek(&"Z".into()).unwrap(), stats)
            };
            let (z1, s1) = run(1);
            let (z2, s2) = run(1_000_000);
            assert_eq!(z1, z2, "same logical result");
            assert_eq!(s2.input_bytes(), s1.input_bytes().scaled(1_000_000));
            assert!(s2.total_cost > s1.total_cost);
        }
    }

    #[test]
    fn undeclared_output_is_an_error() {
        for workers in WORKERS {
            let dfs = example3_dfs();
            assert!(unscaled(workers).execute_job(&dfs, &bad_job(), 0).is_err());
        }
    }

    #[test]
    fn reduce_errors_surface_deterministically() {
        // The first error in partition order wins, whatever the pool size.
        let errors: Vec<String> = WORKERS
            .iter()
            .map(|&workers| {
                unscaled(workers)
                    .execute_job(&wide_dfs(50), &bad_job(), 0)
                    .unwrap_err()
                    .to_string()
            })
            .collect();
        assert!(errors[0].contains("undeclared output"), "{}", errors[0]);
        assert_eq!(errors[0], errors[1]);
    }

    /// Emits the all-42 tuple of `width` fields into `Z`, twice for every
    /// key group.
    struct ConstantReducer {
        width: usize,
    }
    impl Reducer for ConstantReducer {
        fn reduce(&self, _: &Group<'_>, out: &mut OutputSink<'_>) {
            let mut row = TupleBatch::new(self.width);
            row.push_tuple(&Tuple::from_ints(&vec![42; self.width]));
            out.view(0, row.view(0));
            out.view(0, row.view(0));
        }
    }

    fn constant_job(width: usize) -> Job {
        let mut job = semi_join_job();
        job.config.reducer_policy = ReducerPolicy::Fixed(7);
        job.reducer = Box::new(ConstantReducer { width });
        job
    }

    #[test]
    fn commit_stores_a_tuple_once_however_often_it_was_emitted() {
        // wide_dfs(50) has the 50 join keys 0..50: the same tuple comes
        // twice from every group, and from groups of several partitions.
        let partitions: std::collections::BTreeSet<usize> = (0..50)
            .map(|k| crate::hash::partition(&Tuple::from_ints(&[k]), 7))
            .collect();
        assert!(partitions.len() > 1, "keys must spread over partitions");
        for workers in WORKERS {
            let dfs = wide_dfs(50);
            let stats = unscaled(workers)
                .execute_job(&dfs, &constant_job(1), 0)
                .unwrap();
            assert_eq!(stats.output_tuples, 1);
            let z = dfs.peek(&"Z".into()).unwrap();
            assert_eq!(z.len(), 1);
            assert!(z.contains(&Tuple::from_ints(&[42])));
        }
    }

    #[test]
    fn wrong_arity_emit_is_an_arity_mismatch_naming_the_relation() {
        let errors: Vec<GumboError> = WORKERS
            .iter()
            .map(|&workers| {
                unscaled(workers)
                    .execute_job(&wide_dfs(50), &constant_job(2), 0)
                    .unwrap_err()
            })
            .collect();
        assert!(
            matches!(&errors[0], GumboError::ArityMismatch { relation, expected: 1, got: 2 } if relation == "Z"),
            "{}",
            errors[0]
        );
        assert_eq!(errors[0].to_string(), errors[1].to_string());
    }

    #[test]
    fn declared_outputs_exist_even_when_empty() {
        // Empty inputs plan zero map tasks; the job still commits.
        for workers in WORKERS {
            let dfs = SimDfs::new();
            dfs.store(Relation::new("R", 2)).unwrap();
            dfs.store(Relation::new("S", 2)).unwrap();
            let stats = unscaled(workers)
                .execute_job(&dfs, &semi_join_job(), 0)
                .unwrap();
            assert_eq!(stats.output_tuples, 0);
            assert!(dfs.exists(&"Z".into()));
            assert_eq!(dfs.peek(&"Z".into()).unwrap().len(), 0);
        }
    }

    #[test]
    fn packing_reduces_shuffle_bytes() {
        // Many R tuples sharing one join key: packed key bytes counted once.
        for workers in WORKERS {
            let run = |packing| {
                let dfs = SimDfs::new();
                dfs.store(
                    Relation::from_tuples("R", 2, (0..100).map(|i| Tuple::from_ints(&[i, 7])))
                        .unwrap(),
                )
                .unwrap();
                dfs.store(Relation::from_tuples("S", 2, vec![Tuple::from_ints(&[7, 0])]).unwrap())
                    .unwrap();
                let mut job = semi_join_job();
                job.config.packing = packing;
                let stats = unscaled(workers).execute_job(&dfs, &job, 0).unwrap();
                (dfs.peek(&"Z".into()).unwrap(), stats)
            };
            let (z_packed, packed) = run(true);
            let (z_plain, plain) = run(false);
            assert!(packed.communication_bytes() < plain.communication_bytes());
            assert_eq!(z_packed, z_plain);
        }
    }

    #[test]
    fn fixed_reducer_policy_is_respected() {
        for workers in WORKERS {
            let dfs = example3_dfs();
            let mut job = semi_join_job();
            job.config.reducer_policy = ReducerPolicy::Fixed(7);
            let stats = unscaled(workers).execute_job(&dfs, &job, 0).unwrap();
            assert_eq!(stats.profile.reducers, 7);
            assert_eq!(stats.reduce_task_durations.len(), 7);
        }
    }

    #[test]
    fn missing_input_errors() {
        for workers in WORKERS {
            let dfs = SimDfs::new();
            assert!(unscaled(workers)
                .execute_job(&dfs, &semi_join_job(), 0)
                .is_err());
        }
    }

    #[test]
    fn worker_count_never_changes_answers_or_stats() {
        let config = EngineConfig {
            scale: 100_000,
            ..EngineConfig::default()
        };
        let job = || {
            let mut job = semi_join_job();
            job.config.reducer_policy = ReducerPolicy::Fixed(13);
            job
        };
        let reference_dfs = wide_dfs(500);
        let reference = Executor::new(config)
            .execute_job(&reference_dfs, &job(), 0)
            .unwrap();
        assert!(reference.output_tuples > 0);
        for threads in [1usize, 3, 8] {
            let dfs = wide_dfs(500);
            let stats = Executor::with_threads(config, threads)
                .execute_job(&dfs, &job(), 0)
                .unwrap();
            assert_eq!(
                reference_dfs.peek(&"Z".into()).unwrap(),
                dfs.peek(&"Z".into()).unwrap(),
                "answers differ at {threads} threads"
            );
            assert_eq!(reference.output_tuples, stats.output_tuples);
            assert_eq!(reference.profile, stats.profile);
            assert_eq!(reference.map_task_durations, stats.map_task_durations);
            assert_eq!(reference.reduce_task_durations, stats.reduce_task_durations);
            assert!((reference.total_cost - stats.total_cost).abs() < 1e-12);
        }
    }

    #[test]
    fn round_concurrency_lowers_net_time() {
        // Two identical independent jobs: one round of two jobs must have a
        // lower net time than two rounds of one (same total time).
        let make_dfs = || {
            let dfs = example3_dfs();
            dfs.store(
                Relation::from_tuples(
                    "R2",
                    2,
                    vec![Tuple::from_ints(&[1, 2]), Tuple::from_ints(&[4, 5])],
                )
                .unwrap(),
            )
            .unwrap();
            dfs.store(Relation::from_tuples("S2", 2, vec![Tuple::from_ints(&[2, 3])]).unwrap())
                .unwrap();
            dfs
        };
        let job2 = || semi_join("R2", "S2", "Z2");

        let engine = Executor::new(EngineConfig::default());
        let mut parallel = MrProgram::new();
        parallel.push_round(vec![semi_join_job(), job2()]);
        let mut sequential = MrProgram::new();
        sequential.push_job(semi_join_job());
        sequential.push_job(job2());

        let p_stats = engine.execute(&make_dfs(), &parallel).unwrap();
        let s_stats = engine.execute(&make_dfs(), &sequential).unwrap();

        assert!(p_stats.net_time() < s_stats.net_time());
        assert!((p_stats.total_time() - s_stats.total_time()).abs() < 1e-9);
    }

    #[test]
    fn a_panicking_reducer_is_an_error_naming_the_job() {
        struct Bomb;
        impl Reducer for Bomb {
            fn reduce(&self, _: &Group<'_>, _: &mut OutputSink<'_>) {
                panic!("reducer bomb");
            }
        }
        for workers in WORKERS {
            let mut job = semi_join_job();
            job.reducer = Box::new(Bomb);
            let exec = unscaled(workers);
            let err = exec.execute_job(&wide_dfs(50), &job, 0).unwrap_err();
            assert!(err.to_string().contains("MSJ(Z)"), "{err}");
            assert_eq!(exec.budget().used(), 0, "the unwind released every charge");
        }
    }
}
