//! The shared **estimation layer**: per-job cost estimates the planner
//! produces and the rest of the system reads back.
//!
//! Historically the §3.3 cost model served only the planner — grouping
//! semi-joins (`Greedy-BSGF`) and ordering groups (`Greedy-SGF`) by
//! estimated cost, after which the estimates were thrown away. This
//! module makes the estimate a first-class artifact: a [`JobEstimate`]
//! is produced at plan time (from the same [`JobProfile`]s the planner
//! prices — Eq. 2 for the per-partition `cost_gumbo` model, Eq. 3 for
//! the aggregated `cost_wang` model of Wang & Chan), attached to each
//! [`crate::Job`], and carried through [`crate::MrProgram::into_dag`] so
//! every DAG node is cost-annotated and every job's statistics record it
//! next to the observed cost.
//!
//! [`list_schedule_makespan`] is the DAG net-time model: a FIFO list
//! schedule of a job DAG on `max_concurrent_jobs` slots, which the
//! scheduler evaluates over observed per-job durations to report
//! [`crate::ProgramStats::predicted_net_time`].
//!
//! The estimate's cost decomposition (`map_cost` / `reduce_cost` /
//! `total_cost = cost_h + map + reduce`) mirrors exactly the measured
//! decomposition in [`crate::JobStats`], so estimated and observed jobs
//! are directly comparable — the planner-accuracy story of §5.2.

use gumbo_common::ByteSize;

use crate::cost::{job_cost, CostConstants, CostModelKind};
use crate::profile::JobProfile;

/// A plan-time estimate of one MapReduce job, priced by the §3.3 cost
/// model over an estimated [`JobProfile`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobEstimate {
    /// Estimated map-phase cost (per-partition Eq. 2 sum under the Gumbo
    /// model; aggregated Eq. 3 under the Wang model).
    pub map_cost: f64,
    /// Estimated reduce-phase cost (`cost_red(M, K)`).
    pub reduce_cost: f64,
    /// Estimated full job cost: `cost_h + map_cost + reduce_cost`.
    pub total_cost: f64,
    /// Estimated DFS input, `Σᵢ Nᵢ`.
    pub input_bytes: ByteSize,
    /// Estimated shuffle volume, `M = Σᵢ Mᵢ`.
    pub shuffle_bytes: ByteSize,
    /// Estimated output cardinality `K` (upper bound, §4.1's `K ≤ N₁`).
    pub output_bytes: ByteSize,
    /// Estimated reduce-task count.
    pub reducers: usize,
}

impl JobEstimate {
    /// Price an estimated profile under the chosen cost model. The
    /// decomposition matches the engine's measured accounting in
    /// `commit_job`, so estimates and observations compare like for like.
    pub fn from_profile(
        model: CostModelKind,
        constants: &CostConstants,
        profile: &JobProfile,
    ) -> JobEstimate {
        let reduce_cost =
            constants.cost_red(profile.total_map_output(), profile.reducers, profile.output);
        let map_cost = match model {
            CostModelKind::Gumbo => profile
                .partitions
                .iter()
                .map(|p| constants.cost_map(p))
                .sum(),
            CostModelKind::Wang => {
                job_cost(CostModelKind::Wang, constants, profile)
                    - constants.job_overhead
                    - reduce_cost
            }
        };
        JobEstimate {
            map_cost,
            reduce_cost,
            total_cost: constants.job_overhead + map_cost + reduce_cost,
            input_bytes: profile.total_input(),
            shuffle_bytes: profile.total_map_output(),
            output_bytes: profile.output,
            reducers: profile.reducers,
        }
    }
}

/// Makespan of list-scheduling a DAG of jobs onto `slots` identical job
/// slots: each job starts the moment all its prerequisites have finished
/// and a slot is free, ready jobs taken in index order (FIFO over the
/// DAG's round-order flattening, as the scheduler claims them). This is
/// the scheduler-aware **net-time model**: with per-job durations it
/// predicts the wall clock of DAG-scheduled execution, complementing the
/// paper's per-round model (sum of round makespans) which assumes a
/// barrier between rounds.
///
/// `deps[i]` lists the prerequisite indices of node `i`.
pub fn list_schedule_makespan<D: AsRef<[usize]>>(
    durations: &[f64],
    deps: &[D],
    slots: usize,
) -> f64 {
    assert_eq!(durations.len(), deps.len(), "one dep list per node");
    let n = durations.len();
    let slots = slots.max(1);
    let mut indegree: Vec<usize> = deps.iter().map(|d| d.as_ref().len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, d) in deps.iter().enumerate() {
        for &p in d.as_ref() {
            dependents[p].push(i);
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut running: Vec<(f64, usize)> = Vec::new(); // (finish time, node)
    let mut time = 0.0f64;
    let mut makespan = 0.0f64;
    loop {
        while running.len() < slots && !ready.is_empty() {
            // Claim the lowest-index ready job.
            let first = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &node)| node)
                .map(|(pos, _)| pos)
                .expect("non-empty ready list");
            let node = ready.swap_remove(first);
            let finish = time + durations[node];
            makespan = makespan.max(finish);
            running.push((finish, node));
        }
        if running.is_empty() {
            break;
        }
        // Advance to the earliest completion.
        let next = running
            .iter()
            .enumerate()
            .min_by(|(_, (a, _)), (_, (b, _))| a.partial_cmp(b).expect("finite finish times"))
            .map(|(pos, _)| pos)
            .expect("non-empty running set");
        let (finish, node) = running.swap_remove(next);
        time = finish;
        for &d in &dependents[node] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                ready.push(d);
            }
        }
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::InputPartition;

    fn profile() -> JobProfile {
        JobProfile {
            partitions: vec![
                InputPartition {
                    label: "R".into(),
                    input: ByteSize::mb(1000),
                    map_output: ByteSize::mb(2000),
                    records_out: 1_000_000,
                    mappers: 8,
                },
                InputPartition {
                    label: "S".into(),
                    input: ByteSize::mb(500),
                    map_output: ByteSize::mb(100),
                    records_out: 100_000,
                    mappers: 4,
                },
            ],
            reducers: 6,
            output: ByteSize::mb(300),
        }
    }

    #[test]
    fn estimate_decomposition_is_consistent() {
        let c = CostConstants::default();
        let p = profile();
        for model in [CostModelKind::Gumbo, CostModelKind::Wang] {
            let e = JobEstimate::from_profile(model, &c, &p);
            assert!(
                (e.total_cost - (c.job_overhead + e.map_cost + e.reduce_cost)).abs() < 1e-9,
                "{model:?}"
            );
            assert!(
                (e.total_cost - job_cost(model, &c, &p)).abs() < 1e-6,
                "{model:?}"
            );
            assert_eq!(e.input_bytes, ByteSize::mb(1500));
            assert_eq!(e.shuffle_bytes, ByteSize::mb(2100));
            assert_eq!(e.output_bytes, ByteSize::mb(300));
            assert_eq!(e.reducers, 6);
        }
    }

    #[test]
    fn chain_on_one_slot_is_the_sum() {
        let deps: [&[usize]; 3] = [&[], &[0], &[1]];
        let d = [2.0, 3.0, 4.0];
        assert!((list_schedule_makespan(&d, &deps, 1) - 9.0).abs() < 1e-12);
        // A chain cannot go faster with more slots.
        assert!((list_schedule_makespan(&d, &deps, 8) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn diamond_overlaps_with_enough_slots() {
        let deps: [&[usize]; 4] = [&[], &[0], &[0], &[1, 2]];
        let d = [1.0, 2.0, 5.0, 1.0];
        // 1 slot: everything serial.
        assert!((list_schedule_makespan(&d, &deps, 1) - 9.0).abs() < 1e-12);
        // 2+ slots: the two middle jobs overlap -> critical path 1+5+1.
        assert!((list_schedule_makespan(&d, &deps, 2) - 7.0).abs() < 1e-12);
        assert!((list_schedule_makespan(&d, &deps, 4) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dag_has_zero_makespan() {
        let deps: [&[usize]; 0] = [];
        assert_eq!(list_schedule_makespan(&[], &deps, 4), 0.0);
    }
}
