//! Property tests for the scheduler and its admission queue.
//!
//! 1. **Slot counts are invisible.** Random programs whose jobs overwrite
//!    earlier outputs, run at 1, 2 and 4 job slots, leave exactly the DFS
//!    contents and statistics of the serial reference loop — this is what
//!    checks the read→write and write→write edges of `into_dag()`.
//! 2. **The prediction is a list schedule.** `list_schedule_makespan` on
//!    the annotated DAG is bounded below by total work / slots and by the
//!    longest path, equals the total work on one slot and the longest
//!    path on as many slots as jobs.
//! 3. **Fair-share admission**, charged the measured service time of each
//!    finished submission, converges to the tenant weights and never
//!    starves a tenant.

#![cfg(test)]

use proptest::prelude::*;

use gumbo_common::{ByteSize, Relation, Tuple, TupleView};
use gumbo_mr::{
    list_schedule_makespan, CostConstants, CostModelKind, Emitter, EngineConfig, Executor, Group,
    InputPartition, Job, JobConfig, JobEstimate, JobProfile, Mapper, MrProgram, MsgRef, OutputSink,
    Reducer,
};
use gumbo_storage::{Dfs, SimDfs};

use crate::scheduler::{DagScheduler, SchedulerConfig};

/// Copies every input tuple to the job's single output relation — cheap,
/// deterministic, and write-conflicting when outputs collide.
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

/// A synthetic estimate whose total cost is `cost` (decomposed like the
/// engine's accounting so the invariants stay honest).
fn estimate(cost: f64) -> JobEstimate {
    JobEstimate::from_profile(
        CostModelKind::Gumbo,
        &CostConstants {
            job_overhead: cost,
            ..CostConstants::appendix_a()
        },
        &JobProfile {
            partitions: vec![InputPartition {
                label: "synthetic".into(),
                input: ByteSize::ZERO,
                map_output: ByteSize::ZERO,
                records_out: 0,
                mappers: 1,
            }],
            reducers: 1,
            output: ByteSize::ZERO,
        },
    )
}

fn copy_job(name: &str, input: &str, output: &str, cost: f64) -> Job {
    Job {
        name: name.into(),
        inputs: vec![input.into()],
        outputs: vec![(output.into(), 2)],
        mapper: Box::new(Copy),
        reducer: Box::new(CopyTo),
        config: JobConfig::default(),
        estimate: None,
    }
    .with_estimate(estimate(cost))
}

fn base_dfs() -> SimDfs {
    let dfs = SimDfs::new();
    for i in 0..4i64 {
        dfs.store(
            Relation::from_tuples(
                format!("R{i}"),
                2,
                (0..8).map(|j| Tuple::from_ints(&[10 * i + j, j])),
            )
            .unwrap(),
        )
        .unwrap();
    }
    dfs
}

/// Build a random-but-valid program: each job reads either a base
/// relation or an earlier job's output, and writes its own output (with
/// occasional overwrites to exercise conflict edges).
fn random_program(spec: &[(u8, u8, u8)]) -> MrProgram {
    let mut program = MrProgram::new();
    // Track materialized outputs so every input is guaranteed to exist:
    // either a base relation or a relation some earlier job wrote.
    let mut written: Vec<String> = Vec::new();
    for (idx, &(src, overwrite, cost)) in spec.iter().enumerate() {
        let input = if written.is_empty() || src % 4 < 2 {
            format!("R{}", src % 4)
        } else {
            written[src as usize % written.len()].clone()
        };
        let output = if overwrite % 5 == 0 && !written.is_empty() {
            // Occasionally overwrite an earlier output: exercises the
            // write→write / read→write conflict edges.
            written[overwrite as usize % written.len()].clone()
        } else {
            format!("Out{idx}")
        };
        if !written.contains(&output) {
            written.push(output.clone());
        }
        program.push_job(copy_job(
            &format!("j{idx}"),
            &input,
            &output,
            1.0 + cost as f64,
        ));
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `into_dag()` keeps each job's plan-time estimate on its node.
    #[test]
    fn dag_annotations_survive_the_lowering(
        spec in proptest::collection::vec((0u8..8, 0u8..8, 0u8..20), 1..8),
    ) {
        let dag = random_program(&spec).into_dag();
        for (node, &(_, _, c)) in dag.nodes().iter().zip(&spec) {
            let got = node.estimate().expect("planner attached an estimate");
            prop_assert!((got.total_cost - estimate(1.0 + c as f64).total_cost).abs() < 1e-12);
        }
    }

    /// Executing the same random program at 1, 2 and 4 job slots leaves
    /// the DFS contents and statistics of the serial reference loop — the
    /// programs overwrite earlier outputs, so this is what checks the
    /// read→write and write→write edges of `into_dag()` against serial
    /// execution. The slot count moves wall clock only.
    #[test]
    fn slot_counts_are_observationally_identical(
        spec in proptest::collection::vec((0u8..8, 0u8..8, 0u8..20), 1..6),
    ) {
        let dfs_serial = base_dfs();
        let serial = Executor::new(EngineConfig::unscaled())
            .execute(&dfs_serial, &random_program(&spec))
            .unwrap();
        for slots in [1usize, 2, 4] {
            let dfs = base_dfs();
            let stats = DagScheduler::new(SchedulerConfig {
                max_concurrent_jobs: slots,
                ..SchedulerConfig::default()
            })
            .execute_program(&Executor::new(EngineConfig::unscaled()), &dfs, random_program(&spec))
            .unwrap();
            let label = format!("x{slots}");
            crate::equivalence::assert_identical_dfs(&label, &dfs_serial, &dfs);
            crate::equivalence::assert_identical_stats(&label, &serial, &stats);
            prop_assert!(stats.predicted_net_time.is_some(), "x{}: no prediction", slots);
        }
    }

    /// The list-scheduled makespan lies between the two lower bounds any
    /// schedule obeys — total work spread over the slots, and the longest
    /// dependency path — and the total work; one slot is exactly the total
    /// work, and as many slots as jobs is exactly the longest path.
    #[test]
    fn list_schedule_makespan_is_bounded_by_work_and_longest_path(
        spec in proptest::collection::vec((0u8..8, 0u8..8, 0u8..20), 1..8),
        slots in 1usize..5,
    ) {
        let dag = random_program(&spec).into_dag();
        let durations: Vec<f64> = dag
            .nodes()
            .iter()
            .map(|n| n.estimate().expect("annotated").total_cost)
            .collect();
        let deps: Vec<&[usize]> = dag.nodes().iter().map(|n| n.deps()).collect();
        let total: f64 = durations.iter().sum();
        // Longest path: earliest finish with unbounded slots; edges point
        // forward, so one pass in index order settles every node.
        let mut finish = vec![0.0f64; durations.len()];
        for i in 0..durations.len() {
            let start = deps[i].iter().map(|&d| finish[d]).fold(0.0, f64::max);
            finish[i] = start + durations[i];
        }
        let longest = finish.iter().copied().fold(0.0, f64::max);

        let makespan = list_schedule_makespan(&durations, &deps, slots);
        prop_assert!(longest <= makespan + 1e-9, "longest path {longest} > makespan {makespan}");
        prop_assert!(total / slots as f64 <= makespan + 1e-9);
        prop_assert!(makespan <= total + 1e-9);

        let serial = list_schedule_makespan(&durations, &deps, 1);
        prop_assert!((serial - total).abs() < 1e-9);
        let unlimited = list_schedule_makespan(&durations, &deps, durations.len());
        prop_assert!((unlimited - longest).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Fair-share admission charged measured service time
// ---------------------------------------------------------------------------

/// The fairness fixture: three tenants with 1:2:4 weights.
const TENANTS: [&str; 3] = ["bronze", "silver", "gold"];
const WEIGHTS: [f64; 3] = [1.0, 2.0, 4.0];

/// One step of a drained backlog, by tenant index.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The queue admitted submission `seq`.
    Admit { tenant: usize, seq: u64 },
    /// A finished submission charged its tenant `seconds`.
    Charge { tenant: usize, seconds: f64 },
}

/// Each submission's service time: its tenant's scale × its own factor,
/// so costs differ between tenants and within one.
fn costed(mix: &[(usize, u8)], scale: (u8, u8, u8)) -> Vec<(usize, f64)> {
    let scale = [scale.0, scale.1, scale.2];
    mix.iter()
        .map(|&(t, c)| (t, f64::from(scale[t]) * f64::from(c)))
        .collect()
}

/// Queue a saturated backlog (every submission enqueued before any
/// admission), then drain it through `outstanding` simulated dispatchers:
/// each admits, runs the submission for its cost in seconds on a
/// simulated clock, and charges the tenant that cost when it finishes —
/// earliest finish first, ties by seq. Returns the admit/charge sequence.
fn drain_backlog(mix: &[(usize, f64)], outstanding: usize) -> Vec<Event> {
    let queue: crate::AdmissionQueue<f64> = crate::AdmissionQueue::new(mix.len());
    for &(t, cost) in mix {
        queue
            .submit(TENANTS[t], Some(WEIGHTS[t]), cost)
            .expect("open queue accepts");
    }
    queue.close();
    let mut events = Vec::new();
    let mut clock = 0.0;
    // (finish time, seq, tenant, cost) of every admitted, unfinished entry.
    let mut running: Vec<(f64, u64, usize, f64)> = Vec::new();
    loop {
        while running.len() < outstanding {
            let Some(entry) = queue.admit() else { break };
            let t = TENANTS.iter().position(|n| *n == entry.tenant).unwrap();
            events.push(Event::Admit {
                tenant: t,
                seq: entry.seq,
            });
            running.push((clock + entry.payload, entry.seq, t, entry.payload));
        }
        let Some(next) = (0..running.len()).min_by(|&a, &b| {
            let key = |i: usize| (running[i].0, running[i].1);
            key(a).partial_cmp(&key(b)).unwrap()
        }) else {
            break;
        };
        let (finish, _, t, cost) = running.swap_remove(next);
        clock = finish;
        queue.charge(TENANTS[t], cost);
        events.push(Event::Charge {
            tenant: t,
            seconds: cost,
        });
    }
    // The ledger holds exactly what was admitted and charged.
    for (name, _, charged, admitted) in queue.accounts() {
        let t = TENANTS.iter().position(|n| *n == name).unwrap();
        let charges = events.iter().filter_map(|e| match *e {
            Event::Charge { tenant, seconds } if tenant == t => Some(seconds),
            _ => None,
        });
        assert_eq!(charged, charges.sum::<f64>(), "{name}: charged");
        let admits = events
            .iter()
            .filter(|e| matches!(e, Event::Admit { tenant, .. } if *tenant == t));
        assert_eq!(admitted, admits.count() as u64, "{name}: admitted");
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A saturated backlog whose tenants' queries cost different service
    /// times, drained admit → charge at k = 1 and k = 2 outstanding
    /// admissions (N = 3 tenants):
    ///
    /// (a) No starvation: every tenant's first admission lands within the
    ///     first N + (N−1)(k−1) decisions. While a tenant is unadmitted
    ///     its account is 0, so only tenants with nothing charged yet can
    ///     be picked, and such a tenant holds at most k admissions.
    /// (b) The greedy invariant holds exactly: the admitted tenant's
    ///     charged time per weight is minimal among tenants that still
    ///     have pending work.
    /// (c) While all tenants contend, charged-time *shares* stay within
    ///     k·wₜ·max_cost/total of the weight shares. Since a tenant's last
    ///     admission it has been charged for at most k submissions (that
    ///     one and k−1 in flight), so normalized accounts differ by at most
    ///     k·max_cost, and summing over tenants gives the bound — one
    ///     max_cost wider per outstanding admission.
    #[test]
    fn measured_charging_is_starvation_free_and_converges(
        scale in (1u8..=4, 1u8..=4, 1u8..=4),
        mix in proptest::collection::vec((0usize..3, 1u8..=3), 60..140),
    ) {
        // Guarantee every tenant real representation in the backlog
        // (random mixes could otherwise leave a tenant nearly absent,
        // which tests nothing about contention).
        let mut mix = mix;
        for t in 0..3 {
            for k in 0..12u8 {
                mix.push((t, 1 + k % 3));
            }
        }
        let mix = costed(&mix, scale);
        let max_cost = mix.iter().map(|&(_, c)| c).fold(0.0, f64::max);
        for k in [1usize, 2] {
            let events = drain_backlog(&mix, k);
            let admitted: Vec<usize> = events
                .iter()
                .filter_map(|e| match *e {
                    Event::Admit { tenant, .. } => Some(tenant),
                    Event::Charge { .. } => None,
                })
                .collect();
            prop_assert_eq!(admitted.len(), mix.len());

            // (a)
            let window = 3 + 2 * (k - 1);
            for (t, tenant) in TENANTS.iter().enumerate() {
                prop_assert!(
                    admitted[..window].contains(&t),
                    "k={}: {} starved past the first {} decisions: {:?}",
                    k, tenant, window, &admitted[..window]
                );
            }

            let mut pending = [0usize; 3];
            for &(t, _) in &mix {
                pending[t] += 1;
            }
            let mut charged = [0.0f64; 3];
            let mut contended: Option<[f64; 3]> = None;
            for event in &events {
                match *event {
                    Event::Admit { tenant: t, .. } => {
                        // (b)
                        let norm = charged[t] / WEIGHTS[t];
                        for u in 0..3 {
                            if pending[u] > 0 {
                                prop_assert!(
                                    norm <= charged[u] / WEIGHTS[u] + 1e-9,
                                    "k={}: {} admitted at {} over {}'s {}",
                                    k, TENANTS[t], norm, TENANTS[u], charged[u] / WEIGHTS[u]
                                );
                            }
                        }
                        pending[t] -= 1;
                    }
                    Event::Charge { tenant, seconds } => {
                        charged[tenant] += seconds;
                        if pending.iter().all(|&p| p > 0) {
                            contended = Some(charged);
                        }
                    }
                }
            }

            // (c) e.g. gold (weight 4) holds 4/7 of the charged time,
            // ±4·k·max_cost/total.
            let shares = contended.expect("a charge lands while all tenants contend");
            let total: f64 = shares.iter().sum();
            let weight_sum: f64 = WEIGHTS.iter().sum();
            for t in 0..3 {
                let share = shares[t] / total;
                let expected = WEIGHTS[t] / weight_sum;
                let tolerance = k as f64 * WEIGHTS[t] * max_cost / total;
                prop_assert!(
                    (share - expected).abs() <= tolerance + 1e-9,
                    "k={}: {}: share {:.4} vs weight share {:.4} (tolerance {:.4})",
                    k, TENANTS[t], share, expected, tolerance
                );
            }
        }
    }

    /// Admission order is a pure function of the submit/charge sequence:
    /// replaying the same backlog and charges through a fresh queue admits
    /// the same seq numbers in the same order.
    #[test]
    fn admission_order_is_deterministic(
        scale in (1u8..=4, 1u8..=4, 1u8..=4),
        mix in proptest::collection::vec((0usize..3, 1u8..=3), 1..80),
    ) {
        let mix = costed(&mix, scale);
        for k in [1usize, 2] {
            prop_assert_eq!(drain_backlog(&mix, k), drain_backlog(&mix, k));
        }
    }
}
