//! Worker-count equivalence: a `parallel` worker pool and the one-worker
//! `sim` reference configuration must be observationally identical.
//!
//! For every `datagen` query preset (the paper's full suite: A1–A5, the
//! large B1/B2 queries and the nested C1–C4 programs of Figure 6), both
//! configurations evaluate the same database and must produce
//!
//! * byte-identical answer relations — every file left in the DFS, final
//!   outputs and intermediates alike;
//! * identical per-job record counts and metered profiles, so the paper's
//!   four metrics (net time, total time, input cost, communication cost)
//!   agree exactly.

use gumbo::datagen::queries;
use gumbo::prelude::*;

fn engine(kind: ExecutorKind) -> GumboEngine {
    GumboEngine::with_executor(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        kind,
        EvalOptions::default(),
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

#[test]
fn parallel_and_simulated_agree_on_every_datagen_preset() {
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(300).database(7);

        let dfs_sim = SimDfs::from_database(&db);
        let stats_sim = engine(ExecutorKind::Simulated)
            .evaluate(&dfs_sim, &workload.query)
            .unwrap_or_else(|e| panic!("{} (simulated): {e}", workload.name));

        let dfs_par = SimDfs::from_database(&db);
        let stats_par = engine(ExecutorKind::Parallel { threads: 4 })
            .evaluate(&dfs_par, &workload.query)
            .unwrap_or_else(|e| panic!("{} (parallel): {e}", workload.name));

        // Byte-identical answer relations: same files, same contents,
        // same estimated sizes.
        let names_sim = dfs_sim.file_names();
        let names_par = dfs_par.file_names();
        assert_eq!(names_sim, names_par, "{}: file sets differ", workload.name);
        for name in &names_sim {
            let (a, b) = (dfs_sim.peek(name).unwrap(), dfs_par.peek(name).unwrap());
            assert_eq!(a, b, "{}: relation {name} differs", workload.name);
            assert_eq!(
                a.estimated_bytes(),
                b.estimated_bytes(),
                "{}: relation {name} byte size differs",
                workload.name
            );
        }

        // Identical per-job record counts and metered profiles.
        assert_eq!(
            stats_sim.num_jobs(),
            stats_par.num_jobs(),
            "{}",
            workload.name
        );
        assert_eq!(
            stats_sim.num_rounds(),
            stats_par.num_rounds(),
            "{}",
            workload.name
        );
        for (a, b) in stats_sim.jobs.iter().zip(&stats_par.jobs) {
            assert_eq!(a.name, b.name, "{}", workload.name);
            assert_eq!(a.round, b.round, "{}: job {}", workload.name, a.name);
            assert_eq!(
                a.output_tuples, b.output_tuples,
                "{}: job {} record counts",
                workload.name, a.name
            );
            assert_eq!(
                a.profile, b.profile,
                "{}: job {} profiles",
                workload.name, a.name
            );
        }

        // The paper's four metrics agree exactly.
        assert!(
            (stats_sim.net_time() - stats_par.net_time()).abs() < 1e-9,
            "{}: net time",
            workload.name
        );
        assert!(
            (stats_sim.total_time() - stats_par.total_time()).abs() < 1e-9,
            "{}: total time",
            workload.name
        );
        assert_eq!(
            stats_sim.input_bytes(),
            stats_par.input_bytes(),
            "{}: input cost",
            workload.name
        );
        assert_eq!(
            stats_sim.communication_bytes(),
            stats_par.communication_bytes(),
            "{}: communication cost",
            workload.name
        );
    }
}

#[test]
fn tiny_budget_spilling_is_observationally_identical_on_every_preset() {
    // A 4 KiB budget is far below every preset's shuffle footprint at 300
    // tuples: every job spills, many with multiple runs. Answer relations
    // must stay byte-identical to the unlimited simulated run and every
    // non-spill statistic must match, at either worker count — and the tracked
    // shuffle memory must never exceed the budget.
    const BUDGET: u64 = 4096;
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(300).database(7);

        let dfs_ref = SimDfs::from_database(&db);
        let stats_ref = engine(ExecutorKind::Simulated)
            .evaluate(&dfs_ref, &workload.query)
            .unwrap_or_else(|e| panic!("{} (unlimited): {e}", workload.name));
        assert_eq!(stats_ref.spilled_bytes(), 0, "{}", workload.name);

        for kind in [
            ExecutorKind::Simulated,
            ExecutorKind::Parallel { threads: 4 },
        ] {
            let mut budgeted = engine(kind);
            budgeted.options.mem_budget = gumbo::mr::MemBudget::bytes(BUDGET);
            let runtime = budgeted.runtime();
            let dfs = SimDfs::from_database(&db);
            let stats = budgeted
                .eval()
                .on(&runtime)
                .run(&dfs, &workload.query)
                .unwrap_or_else(|e| panic!("{} ({}, budgeted): {e}", workload.name, kind.label()));

            let label = format!("{} ({}, budget {BUDGET})", workload.name, kind.label());
            gumbo::sched::assert_identical_dfs(&label, &dfs_ref, &dfs);
            gumbo::sched::assert_identical_stats(&label, &stats_ref, &stats);
            assert!(
                stats.spilled_bytes() > 0,
                "{label}: a {BUDGET}-byte budget must force spilling"
            );
            assert!(
                runtime.budget().peak() <= BUDGET,
                "{label}: tracked peak {} exceeded the budget",
                runtime.budget().peak()
            );
        }
    }
}

#[test]
fn parallel_runtime_matches_naive_reference_on_a3() {
    // Independent ground truth: the worker pool agrees not just with
    // `sim` but with the direct semantics.
    let workload = queries::a3().with_tuples(400);
    let db = workload.spec.database(3);
    let expected = NaiveEvaluator::new()
        .evaluate_sgf_all(&workload.query, &db)
        .unwrap();

    let dfs = SimDfs::from_database(&db);
    engine(ExecutorKind::Parallel { threads: 0 })
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
