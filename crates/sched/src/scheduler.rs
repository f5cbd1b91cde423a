//! The DAG scheduler: dependency-driven execution on a bounded pool of
//! job slots over a shared [`Dfs`] — the one way planned programs run.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::thread;
use std::time::Instant;

use gumbo_common::{GumboError, Result};
use gumbo_mr::dag::JobFootprint;
use gumbo_mr::metrics::RoundStats;
use gumbo_mr::{Executor, ExecutorKind, JobDag, JobEstimate, JobStats, MrProgram, ProgramStats};
use gumbo_storage::Dfs;

use crate::placement::PlacementPolicy;
use crate::submission::{Submission, SubmissionReport};

/// Scheduler sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// How many jobs may run concurrently (the number of job slots).
    /// `0` = auto: the machine's available parallelism. At `1` every job
    /// runs inline on the calling thread, one after another in round
    /// order — the paper's round-by-round execution.
    pub max_concurrent_jobs: usize,
    /// Worker threads *inside* each job when the executor is a
    /// `parallel` pool (`0` = keep the executor's own sizing). The `sim`
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
    /// scheduler hands *one* executor to all its workers, the budget is
    /// shared by (and collectively bounds) every concurrently running
    /// job. Unlimited by default, deferring to the engine configuration.
    pub mem_budget: gumbo_mr::MemBudget,
    /// How ready jobs are ordered for placement (`--placement` on the
    /// CLI): FIFO (the cost-blind baseline), shortest-job-first, or
    /// critical-path — the latter two driven by the estimation layer's
    /// per-job annotations. Answers and non-timing statistics are
    /// identical under every policy.
    pub placement: PlacementPolicy,
    /// Total cores the scheduler may spread over concurrently running
    /// jobs. `0` (the default) disables cost-driven sizing and keeps the
    /// executor's own per-job pool. When set, each job's worker pool is
    /// its estimate's suggested parallelism clamped to an equal share of
    /// this budget (`core_budget / worker-pool size`, at least 1) — so a
    /// full pool of jobs collectively stays within the core budget.
    /// Only `parallel` pools are sized; [`SchedulerConfig::for_kind`]
    /// switches the budget off for `sim`.
    pub core_budget: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_concurrent_jobs: 4,
            threads_per_job: 1,
            mem_budget: gumbo_mr::MemBudget::UNLIMITED,
            placement: PlacementPolicy::Fifo,
            core_budget: 0,
        }
    }
}

impl SchedulerConfig {
    /// One job slot, no per-job resizing, no budget of its own, arrival
    /// order: jobs run inline on the calling thread one after another.
    /// This is what an engine whose options name no scheduler runs on,
    /// and what the baselines and experiments pass to run a program
    /// "round by round".
    pub const ONE_SLOT: SchedulerConfig = SchedulerConfig {
        max_concurrent_jobs: 1,
        threads_per_job: 0,
        mem_budget: gumbo_mr::MemBudget::UNLIMITED,
        placement: PlacementPolicy::Fifo,
        core_budget: 0,
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

    /// The worker-pool size this configuration resolves to.
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

    /// This configuration as it applies to jobs of a `kind` executor:
    /// `sim` is the one-worker configuration by definition, so the
    /// per-job thread hint of [`SchedulerConfig::threads_for`] is switched
    /// off for it — the scheduler itself only ever sees a built executor,
    /// which cannot tell `sim` from a pool to be resized.
    pub fn for_kind(self, kind: ExecutorKind) -> SchedulerConfig {
        match kind {
            ExecutorKind::Simulated => SchedulerConfig {
                core_budget: 0,
                ..self
            },
            ExecutorKind::Parallel { .. } => self,
        }
    }

    /// Builder-style: set the shuffle memory budget for scheduled
    /// execution (shared by every concurrently running job).
    pub fn with_mem_budget(mut self, budget: gumbo_mr::MemBudget) -> Self {
        self.mem_budget = budget;
        self
    }

    /// Builder-style: set the placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Per-job worker-pool size under the total-core budget: the job's
    /// estimated widest phase ([`JobEstimate::suggested_parallelism`]),
    /// clamped to an equal share of [`SchedulerConfig::core_budget`]
    /// across the worker pool. Returns `0` ("keep the executor's own
    /// sizing") when cost-driven sizing is disabled.
    pub fn threads_for(&self, estimate: Option<&JobEstimate>) -> usize {
        if self.core_budget == 0 {
            return 0;
        }
        let share = (self.core_budget / self.effective_workers().max(1)).max(1);
        match estimate {
            Some(e) => e.suggested_parallelism.clamp(1, share),
            None => share,
        }
    }
}

/// A global job id: which submission, which node within it.
#[derive(Debug, Clone, Copy)]
struct JobRef {
    sub: usize,
    node: usize,
}

/// What [`DagScheduler::run`] reports per DAG.
struct DagRun {
    stats: ProgramStats,
    wall_seconds: f64,
    /// obs-epoch timestamp of the DAG's last commit.
    completed_ns: u64,
}

/// Shared scheduling state, guarded by one mutex + condvar.
struct SchedState {
    /// Unmet-dependency counts, indexed by global job id.
    indegree: Vec<usize>,
    /// Per-submission ready queues of global job ids (FIFO within a
    /// submission; fairness decides *between* submissions).
    ready: Vec<VecDeque<usize>>,
    /// Per-submission currently-running job counts.
    running: Vec<usize>,
    /// Per-submission completed job counts.
    completed: Vec<usize>,
    /// Collected statistics, indexed by global job id.
    results: Vec<Option<JobStats>>,
    /// Per-submission completion instants (set when the last job commits).
    finished_at: Vec<Option<Instant>>,
    /// Per-submission completion timestamps on the obs monotonic clock
    /// ([`gumbo_obs::now_ns`]), for [`SubmissionReport::completed_ns`].
    finished_ns: Vec<Option<u64>>,
    /// Jobs not yet completed.
    remaining: usize,
    /// First failure; stops admission of further jobs.
    error: Option<GumboError>,
}

impl SchedState {
    /// Fair admission, policy placement: among submissions with ready
    /// jobs, pick the one with the fewest running jobs (ties: fewest
    /// completed, then lowest id — round-robin-ish for symmetric
    /// tenants); *within* it, pick the ready job the placement policy
    /// prefers. Returns the claimed global job id.
    fn claim_next(&mut self, policy: PlacementPolicy, priority: &[f64]) -> Option<usize> {
        let sub = (0..self.ready.len())
            .filter(|&s| !self.ready[s].is_empty())
            .min_by_key(|&s| (self.running[s], self.completed[s], s))?;
        let queue = &mut self.ready[sub];
        // One selection rule, per-policy key: smallest key wins, ties
        // break on the lowest gid (= admission order), so unannotated
        // DAGs degrade to deterministic FIFO. `sjf` prefers the smallest
        // estimated cost, `cp` the longest estimated path to a sink;
        // `fifo` takes the front of the queue (arrival order) without
        // consulting priorities at all.
        let pos = match policy {
            PlacementPolicy::Fifo => 0,
            PlacementPolicy::Sjf | PlacementPolicy::CriticalPath => {
                let key = |gid: usize| match policy {
                    PlacementPolicy::Sjf => priority[gid],
                    _ => -priority[gid],
                };
                queue
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        (key(a), a)
                            .partial_cmp(&(key(b), b))
                            .expect("finite priorities")
                    })
                    .map(|(pos, _)| pos)
                    .expect("non-empty queue")
            }
        };
        let gid = queue.remove(pos).expect("position in bounds");
        self.running[sub] += 1;
        Some(gid)
    }
}

/// The dependency-driven scheduler.
///
/// Jobs run the moment their inputs are materialized, on at most
/// [`SchedulerConfig::max_concurrent_jobs`] job slots: one slot runs the
/// claim loop inline on the calling thread, several run the same loop on
/// that many scoped threads. The DFS is shared directly between
/// workers: every [`Dfs`] method takes `&self` and synchronizes
/// internally (byte metering is atomic), so planning, the lock-free
/// compute phases, and commits all run against the same `&dyn Dfs` with
/// no scheduler-level lock. Per-job statistics are identical to the
/// serial reference ([`Executor::execute`]) because the metering pipeline
/// is untouched — the scheduler only decides *when* each job runs — and
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

    /// Execute one DAG to completion, returning statistics identical to
    /// what the serial reference produces for the source program.
    pub fn execute(
        &self,
        executor: &Executor,
        dfs: &dyn Dfs,
        dag: &JobDag,
    ) -> Result<ProgramStats> {
        let dags = [dag];
        let mut stats = self.run(executor, dfs, &dags, &["default"])?;
        Ok(stats.pop().expect("one dag in, one stats out").stats)
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

    /// Execute many tenants' submissions concurrently on the shared pool
    /// with fair admission, returning per-submission statistics in
    /// admission order.
    pub fn execute_many(
        &self,
        executor: &Executor,
        dfs: &dyn Dfs,
        submissions: &[Submission],
    ) -> Result<Vec<SubmissionReport>> {
        let dags: Vec<&JobDag> = submissions.iter().map(|s| &s.dag).collect();
        let tenants: Vec<&str> = submissions.iter().map(|s| s.tenant.as_str()).collect();
        // Direct execute_many calls skip any admission queue, so the
        // whole batch queues and admits at the scheduler's start; a
        // front-end with a real queue (gumbo-serve) builds its reports
        // from the queue's own timestamps instead.
        let admitted_ns = gumbo_obs::now_ns();
        let stats = self.run(executor, dfs, &dags, &tenants)?;
        Ok(submissions
            .iter()
            .zip(stats)
            .map(|(sub, dag_run)| SubmissionReport {
                tenant: sub.tenant.clone(),
                stats: dag_run.stats,
                wall_seconds: dag_run.wall_seconds,
                queued_ns: admitted_ns,
                admitted_ns,
                completed_ns: dag_run.completed_ns,
            })
            .collect())
    }

    /// The scheduling core: run every job of every DAG, respecting
    /// intra-DAG dependency edges and serializing cross-DAG conflicts in
    /// admission order. Returns per-DAG statistics and completion times.
    fn run(
        &self,
        executor: &Executor,
        dfs: &dyn Dfs,
        dags: &[&JobDag],
        tenants: &[&str],
    ) -> Result<Vec<DagRun>> {
        debug_assert_eq!(dags.len(), tenants.len());
        // Global ids: DAGs flattened in admission order.
        let mut jobs: Vec<JobRef> = Vec::new();
        let mut offset = vec![0usize; dags.len()];
        for (s, dag) in dags.iter().enumerate() {
            offset[s] = jobs.len();
            jobs.extend((0..dag.len()).map(|node| JobRef { sub: s, node }));
            gumbo_obs::event("sched:submit", |f| {
                f.str("tenant", tenants[s]);
                f.u64("jobs", dag.len() as u64);
                f.str("policy", self.config.placement.label());
            });
        }
        let total = jobs.len();

        // Dependency wiring: intra-DAG edges come from the DAG itself;
        // cross-DAG conflicts (shared relation, at least one side writing)
        // serialize in admission order, so non-independent submissions
        // stay correct — they just lose concurrency. Footprints are
        // captured once per job: the cross check is O(pairs) set lookups.
        let footprints: Vec<JobFootprint> = if dags.len() > 1 {
            jobs.iter()
                .map(|j| JobFootprint::of(&dags[j.sub].node(j.node).job))
                .collect()
        } else {
            Vec::new()
        };
        let mut indegree = vec![0usize; total];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); total];
        // Global dependency lists (intra-DAG edges + cross-DAG conflict
        // edges), kept for the predicted-net-time simulation below so
        // the prediction sees exactly the constraints the scheduler
        // enforces.
        let mut global_deps: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (gid, j) in jobs.iter().enumerate() {
            let node = dags[j.sub].node(j.node);
            indegree[gid] = node.deps().len();
            for &d in node.deps() {
                dependents[offset[j.sub] + d].push(gid);
                global_deps[gid].push(offset[j.sub] + d);
            }
            if !footprints.is_empty() {
                for (earlier_gid, e) in jobs.iter().enumerate().take(gid) {
                    if e.sub != j.sub && footprints[earlier_gid].conflicts_with(&footprints[gid]) {
                        indegree[gid] += 1;
                        dependents[earlier_gid].push(gid);
                        global_deps[gid].push(earlier_gid);
                    }
                }
            }
            gumbo_obs::event("sched:admit", |f| {
                f.str("tenant", tenants[j.sub]);
                f.str("job", &node.job.name);
                f.u64("deps", indegree[gid] as u64);
            });
        }

        // Placement priorities from the estimation layer's annotations.
        // Estimates are attached to jobs at plan time, so priorities are
        // a pure function of the DAGs — invariant under any ready-queue
        // order, which is what keeps every policy observationally
        // identical.
        let policy = self.config.placement;
        let priority: Vec<f64> = match policy {
            PlacementPolicy::Fifo => vec![0.0; total],
            PlacementPolicy::Sjf => jobs
                .iter()
                .map(|j| {
                    dags[j.sub]
                        .node(j.node)
                        .estimate()
                        .map(|e| e.total_cost)
                        // Unannotated jobs sort last; ties fall back to
                        // admission order.
                        .unwrap_or(f64::INFINITY)
                })
                .collect(),
            PlacementPolicy::CriticalPath => {
                let mut cp = vec![0.0; total];
                for (s, dag) in dags.iter().enumerate() {
                    for (node, len) in dag.critical_paths().into_iter().enumerate() {
                        cp[offset[s] + node] = len;
                    }
                }
                cp
            }
        };

        let mut ready: Vec<VecDeque<usize>> = vec![VecDeque::new(); dags.len()];
        for (gid, j) in jobs.iter().enumerate() {
            if indegree[gid] == 0 {
                ready[j.sub].push_back(gid);
                gumbo_obs::event("sched:ready", |f| {
                    f.str("tenant", tenants[j.sub]);
                    f.str("job", &dags[j.sub].node(j.node).job.name);
                });
            }
        }

        let state = Mutex::new(SchedState {
            indegree,
            ready,
            running: vec![0; dags.len()],
            completed: vec![0; dags.len()],
            results: (0..total).map(|_| None).collect(),
            finished_at: vec![None; dags.len()],
            finished_ns: vec![None; dags.len()],
            remaining: total,
            error: None,
        });
        let work_available = Condvar::new();
        let started = Instant::now();
        let started_ns = gumbo_obs::now_ns();

        // One claim loop, whichever thread runs it: claim a ready job,
        // execute it, do the completion bookkeeping, repeat until nothing
        // remains or a job failed.
        let worker = || loop {
            let gid = {
                let mut st = state.lock().expect("unpoisoned scheduler state");
                loop {
                    if st.error.is_some() || st.remaining == 0 {
                        return;
                    }
                    if let Some(gid) = st.claim_next(policy, &priority) {
                        break gid;
                    }
                    st = work_available.wait(st).expect("unpoisoned scheduler state");
                }
            };

            let j = jobs[gid];
            let node = dags[j.sub].node(j.node);
            // The per-job worker count comes from the job's estimate under
            // the core budget (0 = the executor's own sizing); thread
            // counts can never change answers or metered statistics.
            let threads = self.config.threads_for(node.estimate());
            gumbo_obs::event("sched:claim", |f| {
                f.str("tenant", tenants[j.sub]);
                f.str("job", &node.job.name);
                f.str("policy", policy.label());
            });
            gumbo_obs::event("sched:threads_assigned", |f| {
                f.str("tenant", tenants[j.sub]);
                f.str("job", &node.job.name);
                f.u64("threads", threads as u64);
            });
            // plan → compute → commit against the shared `&dyn Dfs`, under
            // one "job" span on this lane (so it nests beneath the claim
            // that scheduled it). The job's stats carry its original
            // round, which is what keeps per-job accounting identical to
            // the serial reference. A panic in the job (a mapper or
            // reducer bug) comes back as an error: unwinding this worker
            // past the bookkeeping below would leave `running`/`remaining`
            // stale and the other workers waiting forever.
            let outcome =
                executor.execute_job(dfs, &node.job, node.round, threads, Some(tenants[j.sub]));

            let mut st = state.lock().expect("unpoisoned scheduler state");
            st.running[j.sub] -= 1;
            match outcome {
                Ok(stats) => {
                    gumbo_obs::event("sched:complete", |f| {
                        f.str("tenant", tenants[j.sub]);
                        f.str("job", &node.job.name);
                        f.f64("observed_cost", stats.total_cost);
                    });
                    st.results[gid] = Some(stats);
                    st.completed[j.sub] += 1;
                    st.remaining -= 1;
                    if st.completed[j.sub] == dags[j.sub].len() {
                        st.finished_at[j.sub] = Some(Instant::now());
                        st.finished_ns[j.sub] = Some(gumbo_obs::now_ns());
                    }
                    for &dep in &dependents[gid] {
                        st.indegree[dep] -= 1;
                        if st.indegree[dep] == 0 {
                            st.ready[jobs[dep].sub].push_back(dep);
                            gumbo_obs::event("sched:ready", |f| {
                                let d = jobs[dep];
                                f.str("tenant", tenants[d.sub]);
                                f.str("job", &dags[d.sub].node(d.node).job.name);
                            });
                        }
                    }
                }
                Err(e) => {
                    st.error.get_or_insert(e);
                }
            }
            drop(st);
            work_available.notify_all();
        };

        // One worker runs the loop inline on the calling thread (nothing
        // is spawned, every job lands on the caller's lane); a pool of
        // several spawns them all and the caller only waits, the shape
        // `parallel_for` has. Making the caller one of several workers
        // was measured and rejected: same speed, but jobs then allocate on
        // the long-lived service dispatcher threads and peak RSS rose
        // 13 % on the `file_cold` benchmark workload.
        let workers = self.config.effective_workers().max(1).min(total.max(1));
        if workers == 1 {
            worker();
        } else {
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        let state = state.into_inner().expect("unpoisoned scheduler state");
        if let Some(e) = state.error {
            return Err(e);
        }

        // Assemble per-DAG statistics: jobs in flat (round) order, and
        // per-round wall-clock accounting pooled exactly like the serial
        // reference computes it.
        let cluster = executor.config().cluster;
        let overhead = executor.config().constants.job_overhead;

        // Predicted DAG net time: list-schedule *all* admitted jobs —
        // intra-DAG edges, cross-submission conflict edges, and the
        // shared pool of job slots, exactly the constraints the real
        // scheduler enforced — pricing each job as the per-round model
        // prices a single-job round (overhead + pooled map/reduce
        // makespans). A submission's prediction is the finish time of
        // its last job from admission, so it is directly comparable to
        // its reported wall clock. On a chain with one slot the
        // prediction coincides with per-round net time; with slack in
        // the DAG and slots > 1 it is what barrier-free overlap should
        // achieve.
        let durations: Vec<f64> = (0..total)
            .map(|gid| {
                let js = state.results[gid].as_ref().expect("all jobs completed");
                RoundStats::pooled(std::iter::once(js), cluster, overhead).net_time()
            })
            .collect();
        let finish_times = gumbo_mr::estimate::list_schedule_finish_times_by(
            &durations,
            &global_deps,
            self.config.effective_workers(),
            |_| 0.0,
        );

        let mut out = Vec::with_capacity(dags.len());
        for (s, dag) in dags.iter().enumerate() {
            let job_stats: Vec<JobStats> = (0..dag.len())
                .map(|node| {
                    state.results[offset[s] + node]
                        .clone()
                        .expect("all jobs completed")
                })
                .collect();
            let mut stats = ProgramStats::default();
            for round in 0..dag.num_rounds() {
                stats.round_stats.push(RoundStats::pooled(
                    job_stats.iter().filter(|js| js.round == round),
                    cluster,
                    overhead,
                ));
            }
            stats.predicted_net_time = Some(
                (0..dag.len())
                    .map(|node| finish_times[offset[s] + node])
                    .fold(0.0, f64::max),
            );
            stats.jobs = job_stats;
            let wall = state.finished_at[s]
                .map(|t| t.duration_since(started).as_secs_f64())
                .unwrap_or(0.0);
            out.push(DagRun {
                stats,
                wall_seconds: wall,
                // Empty DAGs complete the moment the scheduler starts.
                completed_ns: state.finished_ns[s].unwrap_or(started_ns),
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Fact, Relation, RelationName, Tuple};
    use gumbo_mr::{EngineConfig, Job, JobConfig, Mapper, Message, Reducer};
    use gumbo_storage::SimDfs;

    /// Copies every input tuple to the job's single output relation.
    struct Copy;
    impl Mapper for Copy {
        fn map(&self, fact: &Fact, _: u64, emit: &mut dyn FnMut(Tuple, Message)) {
            emit(fact.tuple.clone(), Message::Assert { cond: 0 });
        }
    }
    struct CopyTo(RelationName);
    impl Reducer for CopyTo {
        fn reduce(&self, key: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
            emit(&self.0, key.clone());
        }
    }

    fn copy_job(name: &str, input: &str, output: &str) -> Job {
        Job {
            name: name.into(),
            inputs: vec![input.into()],
            outputs: vec![(output.into(), 2)],
            mapper: Box::new(Copy),
            reducer: Box::new(CopyTo(output.into())),
            config: JobConfig::default(),
            estimate: None,
            filter: None,
        }
    }

    fn dfs_with(names: &[&str]) -> SimDfs {
        let dfs = SimDfs::new();
        for (i, name) in names.iter().enumerate() {
            let base = 10 * i as i64;
            dfs.store(
                Relation::from_tuples(*name, 2, (0..50).map(|j| Tuple::from_ints(&[base + j, j])))
                    .unwrap(),
            );
        }
        dfs
    }

    fn executor() -> Executor {
        Executor::new(EngineConfig::unscaled())
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
            let sched = DagScheduler::new(SchedulerConfig {
                max_concurrent_jobs: workers,
                ..SchedulerConfig::default()
            });
            let dfs = dfs_with(&["R"]);
            let stats = sched.execute_program(&exec, &dfs, diamond()).unwrap();

            let label = format!("diamond x{workers}");
            crate::equivalence::assert_identical_dfs(&label, &barrier_dfs, &dfs);
            crate::equivalence::assert_identical_stats(&label, &barrier, &stats);
        }
    }

    /// Pool sizes the failure tests run at: one slot runs the claim loop
    /// inline on the caller, two runs it on spawned workers.
    const FAILURE_SLOTS: [usize; 2] = [1, 2];

    #[test]
    fn errors_propagate_and_dfs_survives() {
        struct Bad;
        impl Reducer for Bad {
            fn reduce(&self, _: &Tuple, _: &[Message], emit: &mut dyn FnMut(&RelationName, Tuple)) {
                emit(&"Undeclared".into(), Tuple::from_ints(&[1]));
            }
        }
        for slots in FAILURE_SLOTS {
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
                filter: None,
            });
            let dfs = dfs_with(&["R"]);
            let err = DagScheduler::new(SchedulerConfig {
                max_concurrent_jobs: slots,
                ..SchedulerConfig::default()
            })
            .execute_program(&executor(), &dfs, p)
            .unwrap_err();
            assert!(err.to_string().contains("Undeclared"), "x{slots}: {err}");
            // The DFS is shared in place, so even though the run failed the
            // completed job's output is visible.
            assert!(dfs.exists(&"X".into()));
        }
    }

    /// A reducer panic must fail the run — with the job's name, bounded in
    /// time, leaving no spill directory behind — whether the panicking job
    /// ran on the calling thread or on a spawned worker. Before the
    /// scheduler caught the unwind, the panicking worker died without its
    /// completion bookkeeping and the rest of the pool waited forever.
    #[test]
    fn panicking_reducer_fails_the_run_instead_of_hanging_it() {
        struct Bomb;
        impl Reducer for Bomb {
            fn reduce(&self, _: &Tuple, _: &[Message], _: &mut dyn FnMut(&RelationName, Tuple)) {
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

        for slots in FAILURE_SLOTS {
            let (done, outcome) = std::sync::mpsc::channel();
            let scheduled = exec.clone();
            thread::spawn(move || {
                let sched = DagScheduler::new(SchedulerConfig {
                    max_concurrent_jobs: slots,
                    ..SchedulerConfig::default()
                });
                let result = sched.execute_program(&scheduled, &dfs_with(&["R", "S"]), program());
                let _ = done.send(result.map(|_| ()));
            });
            let err = outcome
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("x{slots}: the scheduler hung after a reducer panic"))
                .unwrap_err();
            assert!(err.to_string().contains(BOMB), "x{slots}: {err}");
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

    #[test]
    fn multi_tenant_submissions_report_separately() {
        let dfs = dfs_with(&["R", "S"]);
        // Tenant a: R → A1 → A2 (a chain); tenant b: S → B1 (one job).
        let mut pa = MrProgram::new();
        pa.push_job(copy_job("a1", "R", "A1"));
        pa.push_job(copy_job("a2", "A1", "A2"));
        let mut pb = MrProgram::new();
        pb.push_job(copy_job("b1", "S", "B1"));

        let subs = vec![Submission::new("a", pa), Submission::new("b", pb)];
        let reports = DagScheduler::default()
            .execute_many(&executor(), &dfs, &subs)
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].tenant, "a");
        assert_eq!(reports[0].stats.num_jobs(), 2);
        assert_eq!(reports[0].stats.num_rounds(), 2);
        assert_eq!(reports[1].tenant, "b");
        assert_eq!(reports[1].stats.num_jobs(), 1);
        assert!(reports.iter().all(|r| r.wall_seconds >= 0.0));
        assert_eq!(dfs.peek(&"A2".into()).unwrap().len(), 50);
        assert_eq!(dfs.peek(&"B1".into()).unwrap().len(), 50);
    }

    #[test]
    fn cross_submission_conflicts_serialize_in_admission_order() {
        // Both tenants write Out; admission order must win, exactly as if
        // the two programs had run back to back.
        let dfs = dfs_with(&["R", "S"]);
        let mut p1 = MrProgram::new();
        p1.push_job(copy_job("first", "R", "Out"));
        let mut p2 = MrProgram::new();
        p2.push_job(copy_job("second", "S", "Out"));
        let subs = vec![Submission::new("t1", p1), Submission::new("t2", p2)];
        DagScheduler::default()
            .execute_many(&executor(), &dfs, &subs)
            .unwrap();
        // S's tuples (base 10) won: the later submission overwrote.
        assert!(dfs
            .peek(&"Out".into())
            .unwrap()
            .contains(&Tuple::from_ints(&[10, 0])));
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
        let sched = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: 4,
            ..SchedulerConfig::default()
        });
        let dfs = dfs_with(&name_refs);
        let stats = sched.execute_program(&budgeted, &dfs, program()).unwrap();

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
        let sched = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: 1,
            ..SchedulerConfig::default()
        });
        let dfs = dfs_with(&["R"]);
        let stats = sched.execute_program(&executor(), &dfs, p).unwrap();
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
        let run = |slots| {
            let dfs = dfs_with(&["R"]);
            DagScheduler::new(SchedulerConfig {
                max_concurrent_jobs: slots,
                ..SchedulerConfig::default()
            })
            .execute_program(&executor(), &dfs, wide())
            .unwrap()
        };
        let serial = run(1);
        let overlapped = run(2);
        let p1 = serial.predicted_net_time.unwrap();
        let p2 = overlapped.predicted_net_time.unwrap();
        assert!(p2 < p1, "2 slots {p2} should predict under 1 slot {p1}");
        // Identical jobs either way, so p1 is exactly the serial sum.
        let per_job: f64 = p1 / 2.0;
        assert!((p2 - per_job).abs() < 1e-9, "two equal jobs overlap fully");
    }

    /// Multi-tenant predictions come from one *global* simulation: a
    /// later submission that serializes behind an earlier one (conflict
    /// edge + single slot) is predicted to finish later, not priced as
    /// if it ran alone on a free pool.
    #[test]
    fn multi_tenant_prediction_accounts_for_contention() {
        let dfs = dfs_with(&["R", "S"]);
        // Both tenants write Out: cross-submission conflict serializes
        // them in admission order, and the pool has one slot anyway.
        let mut p1 = MrProgram::new();
        p1.push_job(copy_job("first", "R", "Out"));
        let mut p2 = MrProgram::new();
        p2.push_job(copy_job("second", "S", "Out"));
        let subs = vec![Submission::new("t1", p1), Submission::new("t2", p2)];
        let sched = DagScheduler::new(SchedulerConfig {
            max_concurrent_jobs: 1,
            ..SchedulerConfig::default()
        });
        let reports = sched.execute_many(&executor(), &dfs, &subs).unwrap();
        let p_first = reports[0].stats.predicted_net_time.unwrap();
        let p_second = reports[1].stats.predicted_net_time.unwrap();
        assert!(
            p_second > p_first,
            "serialized tenant must be predicted later: {p_second} vs {p_first}"
        );
        // The second tenant's completion is the sum of both jobs' costs.
        let total: f64 = reports
            .iter()
            .flat_map(|r| r.stats.jobs.iter())
            .map(|js| {
                RoundStats::pooled(
                    std::iter::once(js),
                    executor().config().cluster,
                    executor().config().constants.job_overhead,
                )
                .net_time()
            })
            .sum();
        assert!((p_second - total).abs() < 1e-9, "{p_second} vs {total}");
    }

    #[test]
    fn placement_policies_agree_on_answers_and_stats() {
        // A program with both width (round 1) and a dependent tail.
        let program = || {
            let mut p = MrProgram::new();
            p.push_round(vec![
                copy_job("x", "R", "X"),
                copy_job("y", "R", "Y"),
                copy_job("z", "R", "Z"),
            ]);
            p.push_job(copy_job("t", "X", "T"));
            p
        };
        let exec = executor();
        let dfs_fifo = dfs_with(&["R"]);
        let fifo = DagScheduler::new(SchedulerConfig {
            placement: PlacementPolicy::Fifo,
            ..SchedulerConfig::default()
        })
        .execute_program(&exec, &dfs_fifo, program())
        .unwrap();
        for policy in [PlacementPolicy::Sjf, PlacementPolicy::CriticalPath] {
            let dfs = dfs_with(&["R"]);
            let stats = DagScheduler::new(SchedulerConfig {
                placement: policy,
                ..SchedulerConfig::default()
            })
            .execute_program(&exec, &dfs, program())
            .unwrap();
            crate::equivalence::assert_identical_dfs(policy.label(), &dfs_fifo, &dfs);
            crate::equivalence::assert_identical_stats(policy.label(), &fifo, &stats);
        }
    }

    #[test]
    fn core_budget_sizes_per_job_threads_from_estimates() {
        use gumbo_mr::{CostConstants, CostModelKind, InputPartition, JobEstimate, JobProfile};
        let config = SchedulerConfig {
            max_concurrent_jobs: 4,
            core_budget: 16,
            ..SchedulerConfig::default()
        };
        // Share = 16 / 4 = 4 cores per concurrent job.
        let wide = JobEstimate::from_profile(
            CostModelKind::Gumbo,
            &CostConstants::default(),
            &JobProfile {
                partitions: vec![InputPartition {
                    label: "R".into(),
                    input: gumbo_common::ByteSize::mb(1000),
                    map_output: gumbo_common::ByteSize::mb(1000),
                    records_out: 0,
                    mappers: 32,
                }],
                reducers: 8,
                output: gumbo_common::ByteSize::mb(10),
            },
        );
        assert_eq!(wide.suggested_parallelism, 32);
        assert_eq!(config.threads_for(Some(&wide)), 4, "clamped to the share");
        let narrow = JobEstimate {
            suggested_parallelism: 2,
            ..wide.clone()
        };
        assert_eq!(
            config.threads_for(Some(&narrow)),
            2,
            "narrow jobs stay narrow"
        );
        assert_eq!(
            config.threads_for(None),
            4,
            "unannotated jobs get the share"
        );
        let disabled = SchedulerConfig::default();
        assert_eq!(disabled.threads_for(Some(&wide)), 0, "0 = executor sizing");
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
        // `sim` stays single-threaded under the per-job thread hint.
        let budgeted = SchedulerConfig {
            core_budget: 16,
            ..SchedulerConfig::default()
        };
        assert_eq!(
            budgeted.for_kind(ExecutorKind::Simulated).threads_for(None),
            0
        );
        assert_eq!(
            budgeted.for_kind(ExecutorKind::Parallel { threads: 0 }),
            budgeted
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
