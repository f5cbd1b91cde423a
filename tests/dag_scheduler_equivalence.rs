//! Scheduler equivalence: the dependency-driven DAG scheduler — the one
//! path every planned program runs on — must be observationally identical
//! to the serial round-barrier loop it replaced.
//!
//! This extends the PR-1 executor-equivalence harness one layer up: for
//! every `datagen` query preset (A1–A5, B1/B2, and the nested C1–C4
//! programs of Figure 6), the same database is evaluated by the engine
//! (at 1 and several job slots, on both executors, with and without a
//! shuffle budget) and by the oracle below — the engine's own plans executed
//! on `Executor::execute`, the serial reference loop — and both must
//! produce
//!
//! * byte-identical answer relations (every file left in the DFS,
//!   intermediates included) and identical DFS byte counters;
//! * identical per-job statistics and identical reconstructed per-round
//!   wall-clock accounting, so the paper's four metrics agree exactly.
//!
//! The scheduler may only change *when* jobs run, never what they
//! compute or how they are metered.

use gumbo::datagen::queries;
use gumbo::prelude::*;

fn engine(scheduler: Option<SchedulerConfig>, executor: ExecutorKind) -> GumboEngine {
    GumboEngine::with_executor(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        executor,
        EvalOptions {
            scheduler,
            ..EvalOptions::default()
        },
    )
}

fn presets() -> Vec<gumbo::datagen::Workload> {
    let mut all = vec![
        queries::a1(),
        queries::a2(),
        queries::a3(),
        queries::a4(),
        queries::a5(),
        queries::b1(),
        queries::b2(),
    ];
    all.extend(queries::figure6());
    all
}

/// The oracle: evaluate `query` group by group exactly as the engine does
/// — same sort, same plans against live statistics, same estimates — but
/// execute every planned program on the serial reference loop
/// (`Executor::execute`: one `sim` worker, jobs one after another, a
/// barrier after every round) instead of the scheduler.
fn round_barrier_oracle(dfs: &SimDfs, query: &SgfQuery) -> ProgramStats {
    let engine = engine(None, ExecutorKind::Simulated);
    let runtime = engine.runtime();
    let mut stats = ProgramStats::default();
    for group in &engine.sort_for(dfs, query).unwrap() {
        let queries = group.iter().map(|&i| query.queries()[i].clone()).collect();
        let ctx = QueryContext::new(queries).unwrap();
        let est = engine.estimator(dfs);
        let program = engine
            .plan_group(&est, &ctx)
            .and_then(|plan| plan.build_annotated_program(&ctx, &est))
            .unwrap();
        stats.extend(runtime.execute(dfs, &program).unwrap());
    }
    stats
}

/// One definition of "observationally identical", shared with the
/// `scaling` experiment and the scheduler's own unit tests —
/// byte-identical DFS contents (metered I/O included), identical per-job
/// statistics, and exact agreement on the paper's four metrics.
fn assert_equivalent(
    name: &str,
    dfs_rounds: &SimDfs,
    stats_rounds: &ProgramStats,
    dfs_dag: &SimDfs,
    stats_dag: &ProgramStats,
) {
    gumbo::sched::assert_identical_dfs(name, dfs_rounds, dfs_dag);
    gumbo::sched::assert_identical_stats(name, stats_rounds, stats_dag);
}

#[test]
fn dag_scheduler_matches_round_barrier_on_every_datagen_preset() {
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(300).database(7);

        let dfs_rounds = SimDfs::from_database(&db);
        let stats_rounds = round_barrier_oracle(&dfs_rounds, &workload.query);

        // Options that name no scheduler run on one slot too.
        let dfs_default = SimDfs::from_database(&db);
        let stats_default = engine(None, ExecutorKind::Simulated)
            .evaluate(&dfs_default, &workload.query)
            .unwrap_or_else(|e| panic!("{} (default options): {e}", workload.name));
        assert_equivalent(
            &format!("{} (default options)", workload.name),
            &dfs_rounds,
            &stats_rounds,
            &dfs_default,
            &stats_default,
        );

        for max_jobs in [1usize, 4] {
            let scheduler = Some(SchedulerConfig {
                max_concurrent_jobs: max_jobs,
                ..SchedulerConfig::default()
            });
            let dfs_dag = SimDfs::from_database(&db);
            let stats_dag = engine(scheduler, ExecutorKind::Simulated)
                .evaluate(&dfs_dag, &workload.query)
                .unwrap_or_else(|e| panic!("{} (dag x{max_jobs}): {e}", workload.name));
            assert_equivalent(
                &format!("{} (max_jobs={max_jobs})", workload.name),
                &dfs_rounds,
                &stats_rounds,
                &dfs_dag,
                &stats_dag,
            );
        }
    }
}

#[test]
fn dag_scheduler_with_tiny_budget_matches_unbudgeted_round_barrier() {
    // Under a 4 KiB shuffle budget concurrent jobs share one tracker,
    // spill to disk, and must still leave the same bytes in the DFS with
    // the same non-spill statistics as unlimited round-barrier execution
    // — for every preset.
    const BUDGET: u64 = 4096;
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(300).database(7);

        let dfs_rounds = SimDfs::from_database(&db);
        let stats_rounds = round_barrier_oracle(&dfs_rounds, &workload.query);

        let scheduler = Some(SchedulerConfig {
            max_concurrent_jobs: 4,
            mem_budget: gumbo::mr::MemBudget::bytes(BUDGET),
            ..SchedulerConfig::default()
        });
        let budgeted = engine(scheduler, ExecutorKind::Simulated);
        let runtime = budgeted.runtime();
        let dfs_dag = SimDfs::from_database(&db);
        let stats_dag = budgeted
            .eval()
            .on(&runtime)
            .run(&dfs_dag, &workload.query)
            .unwrap_or_else(|e| panic!("{} (dag, budgeted): {e}", workload.name));

        let label = format!("{} (dag, budget {BUDGET})", workload.name);
        assert_equivalent(&label, &dfs_rounds, &stats_rounds, &dfs_dag, &stats_dag);
        assert!(
            stats_dag.spilled_bytes() > 0,
            "{label}: a {BUDGET}-byte budget must force spilling"
        );
        assert!(
            runtime.budget().peak() <= BUDGET,
            "{label}: tracked peak {} exceeded the budget",
            runtime.budget().peak()
        );
    }
}

#[test]
fn job_slots_match_round_barrier_on_every_preset() {
    // The acceptance matrix: job slots {1, 4} × both executors ×
    // {unlimited, tiny budget}, on every datagen preset — byte-identical
    // relations and identical non-timing statistics versus the round
    // barrier, and a positive predicted DAG net time on every run.
    const BUDGET: u64 = 4096;
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(120).database(11);

        let dfs_rounds = SimDfs::from_database(&db);
        let stats_rounds = round_barrier_oracle(&dfs_rounds, &workload.query);
        assert!(
            stats_rounds.predicted_net_time.is_none(),
            "the serial loop has no DAG to predict over"
        );

        for slots in [1usize, 4] {
            for executor in [
                ExecutorKind::Simulated,
                ExecutorKind::Parallel { threads: 2 },
            ] {
                for budget in [None, Some(BUDGET)] {
                    let scheduler = Some(SchedulerConfig {
                        max_concurrent_jobs: slots,
                        mem_budget: budget
                            .map(gumbo::mr::MemBudget::bytes)
                            .unwrap_or(gumbo::mr::MemBudget::UNLIMITED),
                        ..SchedulerConfig::ONE_SLOT
                    });
                    let label = format!(
                        "{} ({slots} slots, executor {}, budget {budget:?})",
                        workload.name,
                        executor.label(),
                    );
                    let dfs_dag = SimDfs::from_database(&db);
                    let stats_dag = engine(scheduler, executor)
                        .evaluate(&dfs_dag, &workload.query)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert_equivalent(&label, &dfs_rounds, &stats_rounds, &dfs_dag, &stats_dag);
                    let predicted = stats_dag
                        .predicted_net_time
                        .unwrap_or_else(|| panic!("{label}: no predicted DAG net time"));
                    assert!(predicted > 0.0, "{label}: predicted {predicted}");
                }
            }
        }
    }
}

#[test]
fn dag_scheduler_composes_with_parallel_runtime() {
    // The scheduler supplies inter-job concurrency while each job's own
    // map/shuffle/reduce fans out on the parallel runtime — stats must
    // still be identical to the serial one-worker reference loop.
    let workload = queries::a3().with_tuples(300);
    let db = workload.spec.database(7);

    let dfs_rounds = SimDfs::from_database(&db);
    let stats_rounds = round_barrier_oracle(&dfs_rounds, &workload.query);

    let dfs_dag = SimDfs::from_database(&db);
    let stats_dag = engine(
        Some(SchedulerConfig {
            max_concurrent_jobs: 4,
            threads_per_job: 2,
            ..SchedulerConfig::default()
        }),
        ExecutorKind::Parallel { threads: 0 },
    )
    .evaluate(&dfs_dag, &workload.query)
    .unwrap();

    assert_equivalent(
        "A3 (parallel runtime)",
        &dfs_rounds,
        &stats_rounds,
        &dfs_dag,
        &stats_dag,
    );
}

#[test]
fn dag_scheduler_matches_naive_reference_on_c2() {
    // Independent ground truth for a nested program: the scheduled path
    // agrees with direct SGF semantics, not just with the simulator.
    let workload = queries::c2().with_tuples(250);
    let db = workload.spec.database(3);
    let expected = NaiveEvaluator::new()
        .evaluate_sgf_all(&workload.query, &db)
        .unwrap();

    let dfs = SimDfs::from_database(&db);
    engine(Some(SchedulerConfig::default()), ExecutorKind::Simulated)
        .evaluate(&dfs, &workload.query)
        .unwrap();
    for q in workload.query.queries() {
        assert_eq!(
            dfs.peek(q.output()).unwrap().as_ref(),
            expected
                .relation(q.output())
                .expect("naive computed all outputs"),
        );
    }
}
