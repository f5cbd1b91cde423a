//! Job DAGs: the dependency-graph form of an MR program (§3.2).
//!
//! The paper defines an MR program as a *DAG of jobs* whose rounds are
//! merely the levels of that DAG. [`MrProgram`] stores rounds directly
//! (that is how the paper's plans are written down); [`MrProgram::into_dag`]
//! recovers the DAG by inferring edges from each job's input/output
//! relation names. The lowering preserves round semantics exactly: the
//! round-order flattening of the program is always a valid topological
//! order of the resulting DAG, and any other topological order produces
//! byte-identical DFS contents — which is what lets the dependency-driven
//! scheduler in `gumbo-sched`, the one way programs execute, run jobs in
//! round order at one job slot and overlap jobs from different rounds at
//! several, without changing a single answer byte.
//!
//! Edges are *conflict* edges over the flattened job sequence: an earlier
//! job is a dependency of a later one iff they touch a common relation
//! with at least one side writing it —
//!
//! * **write → read** (true dependency): the consumer must see the
//!   producer's file;
//! * **read → write** (anti-dependency): the reader must see the file
//!   *before* it is overwritten;
//! * **write → write** (output dependency): the last writer's file must
//!   survive.
//!
//! Jobs of one round never conflict in practice (the paper's plans read
//! one DFS snapshot per round), but if they do, the in-round execution
//! order is preserved by the same rule — sequential consistency with the
//! serial reference loop ([`crate::Executor::execute`]) is never lost,
//! only relaxed where provably safe.

use std::collections::BTreeSet;

use gumbo_common::RelationName;

use crate::estimate::{list_schedule_makespan, JobEstimate};
use crate::job::Job;
use crate::program::MrProgram;

/// One node of a [`JobDag`]: a job plus its dependency wiring and the
/// round it occupied in the source program (kept so per-job statistics and
/// per-round wall-clock accounting stay identical to serial execution).
#[derive(Debug)]
pub struct DagNode {
    /// The job to execute.
    pub job: Job,
    /// Round index (0-based) of the job in the source program.
    pub round: usize,
    deps: Vec<usize>,
    dependents: Vec<usize>,
}

impl DagNode {
    /// Indices of the nodes this job waits for.
    pub fn deps(&self) -> &[usize] {
        &self.deps
    }

    /// Indices of the nodes waiting for this job.
    pub fn dependents(&self) -> &[usize] {
        &self.dependents
    }

    /// The job's plan-time cost estimate, if the planner attached one.
    pub fn estimate(&self) -> Option<&JobEstimate> {
        self.job.estimate.as_ref()
    }
}

/// A dependency DAG of MapReduce jobs, indexed in the source program's
/// round-order flattening (which is always a valid topological order).
#[derive(Debug, Default)]
pub struct JobDag {
    nodes: Vec<DagNode>,
}

/// A job's DFS footprint — its input and output relation names as sets —
/// precomputed once so pairwise conflict checks are set lookups instead
/// of repeated set construction (edge inference is O(n²) pairs).
#[derive(Debug, Clone)]
pub(crate) struct JobFootprint {
    reads: BTreeSet<RelationName>,
    writes: BTreeSet<RelationName>,
}

impl JobFootprint {
    /// Capture a job's read/write sets.
    pub(crate) fn of(job: &Job) -> JobFootprint {
        JobFootprint {
            reads: job.input_names().cloned().collect(),
            writes: job.output_names().cloned().collect(),
        }
    }

    /// Whether the job with this (earlier) footprint must complete before
    /// a job with the `later` footprint may start: they share a relation
    /// that at least one of them writes (write→read, read→write, or
    /// write→write).
    pub(crate) fn conflicts_with(&self, later: &JobFootprint) -> bool {
        later
            .writes
            .iter()
            .any(|r| self.writes.contains(r) || self.reads.contains(r))
            || later.reads.iter().any(|r| self.writes.contains(r))
    }
}

/// Whether an earlier job must complete before a later one may start —
/// [`JobFootprint::conflicts_with`] for a one-off pair (the property
/// tests' independent check of the inferred edges).
#[cfg(test)]
pub(crate) fn jobs_conflict(earlier: &Job, later: &Job) -> bool {
    JobFootprint::of(earlier).conflicts_with(&JobFootprint::of(later))
}

impl JobDag {
    /// Build the DAG from rounds of jobs, inferring conflict edges over
    /// the flattened sequence. Direct edges are kept minimal per pair:
    /// every conflicting earlier job becomes a dependency (no transitive
    /// reduction — the scheduler only needs indegrees). Empty rounds are
    /// dropped (as [`MrProgram`] itself guarantees), so node round
    /// indices are always contiguous from 0 — the per-round stats
    /// reconstruction in `gumbo-sched` relies on this.
    pub fn from_rounds(rounds: Vec<Vec<Job>>) -> JobDag {
        let mut nodes: Vec<DagNode> = Vec::new();
        let mut footprints: Vec<JobFootprint> = Vec::new();
        for (round, jobs) in rounds
            .into_iter()
            .filter(|jobs| !jobs.is_empty())
            .enumerate()
        {
            for job in jobs {
                let idx = nodes.len();
                let footprint = JobFootprint::of(&job);
                let deps: Vec<usize> = footprints
                    .iter()
                    .enumerate()
                    .filter(|(_, earlier)| earlier.conflicts_with(&footprint))
                    .map(|(i, _)| i)
                    .collect();
                for &d in &deps {
                    nodes[d].dependents.push(idx);
                }
                footprints.push(footprint);
                nodes.push(DagNode {
                    job,
                    round,
                    deps,
                    dependents: Vec::new(),
                });
            }
        }
        JobDag { nodes }
    }

    /// The nodes, in the source program's round-order flattening.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// One node by index.
    pub fn node(&self, idx: usize) -> &DagNode {
        &self.nodes[idx]
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG has no jobs.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of rounds the source program had (`max round + 1`).
    pub fn num_rounds(&self) -> usize {
        self.nodes.iter().map(|n| n.round + 1).max().unwrap_or(0)
    }

    /// All edges `(dep, dependent)`, each pointing from an earlier flat
    /// index to a later one.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for &d in &n.deps {
                edges.push((d, i));
            }
        }
        edges.sort_unstable();
        edges
    }

    /// Predicted net time of this DAG under `slots` concurrent job
    /// slots: a FIFO list schedule with the given per-job durations (the
    /// scheduler passes each job's observed cost priced as a single-job
    /// round). See [`list_schedule_makespan`].
    pub fn predicted_net_time(&self, durations: &[f64], slots: usize) -> f64 {
        let deps: Vec<&[usize]> = self.nodes.iter().map(|n| n.deps.as_slice()).collect();
        list_schedule_makespan(durations, &deps, slots)
    }

    /// A deterministic topological order (Kahn's algorithm, smallest ready
    /// index first). Because edges always point forward in the flat order,
    /// this returns `0..len` — the round-order flattening itself — which
    /// is exactly the "round semantics preserved as dependencies" claim.
    pub fn topo_order(&self) -> Vec<usize> {
        let mut indegree: Vec<usize> = self.nodes.iter().map(|n| n.deps.len()).collect();
        let mut ready: BTreeSet<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(&next) = ready.iter().next() {
            ready.remove(&next);
            order.push(next);
            for &dep in &self.nodes[next].dependents {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    ready.insert(dep);
                }
            }
        }
        debug_assert_eq!(order.len(), self.nodes.len(), "conflict edges form a DAG");
        order
    }
}

impl MrProgram {
    /// Lower the program to its dependency DAG (§3.2), inferring edges
    /// from input/output relation names. Round semantics are preserved:
    /// the program's round order is a topological order of the result,
    /// and every conflict between jobs of different rounds becomes an
    /// explicit dependency.
    pub fn into_dag(self) -> JobDag {
        JobDag::from_rounds(self.into_rounds())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::test_support::noop_job;

    fn job(name: &str, inputs: &[&str], outputs: &[&str]) -> Job {
        noop_job(name, inputs.iter().copied(), outputs.iter().copied())
    }

    #[test]
    fn data_dependencies_become_edges() {
        // round 1: A reads R writes X; B reads S writes Y (independent).
        // round 2: C reads X and Y.
        let mut p = MrProgram::new();
        p.push_round(vec![job("A", &["R"], &["X"]), job("B", &["S"], &["Y"])]);
        p.push_job(job("C", &["X", "Y"], &["Z"]));
        let dag = p.into_dag();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.edges(), vec![(0, 2), (1, 2)]);
        assert_eq!(dag.node(2).deps(), &[0, 1]);
        assert_eq!(dag.node(0).dependents(), &[2]);
    }

    #[test]
    fn independent_rounds_have_no_edges() {
        // Two rounds that share nothing: the barrier was pure overhead.
        let mut p = MrProgram::new();
        p.push_job(job("A", &["R"], &["X"]));
        p.push_job(job("B", &["S"], &["Y"]));
        let dag = p.into_dag();
        assert!(dag.edges().is_empty());
        assert_eq!(dag.num_rounds(), 2);
    }

    #[test]
    fn anti_and_output_dependencies_are_kept() {
        // A reads X; B (later) overwrites X → A before B (anti).
        // C (later still) also writes X → B before C (output), A before C.
        let mut p = MrProgram::new();
        p.push_job(job("A", &["X"], &["Y"]));
        p.push_job(job("B", &["R"], &["X"]));
        p.push_job(job("C", &["S"], &["X"]));
        let dag = p.into_dag();
        assert_eq!(dag.edges(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn topo_order_is_the_flat_order() {
        let mut p = MrProgram::new();
        p.push_round(vec![job("A", &["R"], &["X"]), job("B", &["X"], &["Y"])]);
        p.push_job(job("C", &["Y"], &["Z"]));
        let dag = p.into_dag();
        assert_eq!(dag.topo_order(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_rounds_are_dropped_by_from_rounds() {
        // Built directly (not via MrProgram, which already drops empty
        // rounds): round indices must come out contiguous, or the
        // scheduler would charge overhead for phantom rounds.
        let dag = JobDag::from_rounds(vec![
            vec![],
            vec![job("A", &["R"], &["X"])],
            vec![],
            vec![job("B", &["X"], &["Y"])],
        ]);
        assert_eq!(dag.num_rounds(), 2);
        assert_eq!(dag.node(0).round, 0);
        assert_eq!(dag.node(1).round, 1);
    }

    #[test]
    fn estimates_survive_the_lowering() {
        use crate::cost::{CostConstants, CostModelKind};
        use crate::estimate::JobEstimate;
        use crate::profile::{InputPartition, JobProfile};
        use gumbo_common::ByteSize;

        let est = |cost: f64| {
            JobEstimate::from_profile(
                CostModelKind::Gumbo,
                &CostConstants {
                    job_overhead: cost,
                    ..CostConstants::appendix_a()
                },
                &JobProfile {
                    partitions: vec![InputPartition {
                        label: "s".into(),
                        input: ByteSize::ZERO,
                        map_output: ByteSize::ZERO,
                        records_out: 0,
                        mappers: 1,
                    }],
                    reducers: 1,
                    output: ByteSize::ZERO,
                },
            )
        };
        // Chain A → B → C with costs 2, 3, 4.
        let mut p = MrProgram::new();
        p.push_job(job("A", &["R"], &["X"]).with_estimate(est(2.0)));
        p.push_job(job("B", &["X"], &["Y"]).with_estimate(est(3.0)));
        p.push_job(job("C", &["Y"], &["Z"]).with_estimate(est(4.0)));
        let dag = p.into_dag();
        for (node, want) in dag.nodes().iter().zip([2.0, 3.0, 4.0]) {
            assert_eq!(node.estimate().unwrap().total_cost, want);
        }
        // A chain cannot overlap: the prediction is the total on any slot
        // count.
        assert_eq!(dag.predicted_net_time(&[2.0, 3.0, 4.0], 1), 9.0);
        assert_eq!(dag.predicted_net_time(&[2.0, 3.0, 4.0], 4), 9.0);
        // Unannotated jobs stay unannotated.
        let mut q = MrProgram::new();
        q.push_job(job("A", &["R"], &["X"]));
        assert!(q.into_dag().node(0).estimate().is_none());
    }

    #[test]
    fn rounds_survive_the_lowering() {
        let mut p = MrProgram::new();
        p.push_round(vec![job("A", &["R"], &["X"]), job("B", &["S"], &["Y"])]);
        p.push_job(job("C", &["X"], &["Z"]));
        let dag = p.into_dag();
        assert_eq!(dag.node(0).round, 0);
        assert_eq!(dag.node(1).round, 0);
        assert_eq!(dag.node(2).round, 1);
    }
}
