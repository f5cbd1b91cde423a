//! Planner accuracy: the sampling estimator's job profiles must track the
//! engine's measured profiles closely enough to drive grouping decisions —
//! the property behind §5.2's "correctly identify the highest cost job"
//! statistic.

use gumbo::core::msj::build_msj_job;
use gumbo::core::{Estimator, PayloadMode, QueryContext};
use gumbo::datagen::queries;
use gumbo::prelude::*;

fn setup(w: &gumbo::datagen::Workload, tuples: usize) -> (QueryContext, SimDfs) {
    let db = w.spec.clone().with_tuples(tuples).database(3);
    let ctx = QueryContext::new(w.query.queries().to_vec()).unwrap();
    (ctx, SimDfs::from_database(&db))
}

/// Estimated MSJ cost within a reasonable band of measured cost for every
/// group size of A1 (estimates use upper bounds, so they may exceed the
/// measured cost, but not wildly).
#[test]
fn estimates_track_measured_costs() {
    let (ctx, dfs) = setup(&queries::a1(), 4000);
    let scale = 25_000; // 100M-equivalent
    let est = Estimator::new(
        &dfs,
        scale,
        CostConstants::default(),
        CostModelKind::Gumbo,
        64,
        3,
    );
    let engine = Executor::new(EngineConfig {
        scale,
        ..EngineConfig::default()
    });

    for group in [vec![0], vec![0, 1], vec![0, 1, 2, 3]] {
        let estimated = est
            .msj_cost(&ctx, &group, PayloadMode::Reference, &JobConfig::default())
            .unwrap();
        let run_dfs = SimDfs::from_database(&dfs.to_database());
        let job = build_msj_job(&ctx, &group, PayloadMode::Reference, JobConfig::default());
        let measured = engine
            .execute_job(&run_dfs, &job, 0, 0, None)
            .unwrap()
            .total_cost;
        let ratio = estimated / measured;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "group {group:?}: estimated {estimated:.0} vs measured {measured:.0} (ratio {ratio:.2})"
        );
    }
}

/// The estimator must rank job costs consistently with measurement:
/// bigger groups cost more (same guard), and the grouped job costs less
/// than the sum of its parts.
#[test]
fn estimator_preserves_cost_orderings() {
    let (ctx, dfs) = setup(&queries::b1(), 2000);
    let scale = 50_000;
    let est = Estimator::new(
        &dfs,
        scale,
        CostConstants::default(),
        CostModelKind::Gumbo,
        64,
        3,
    );
    let cfg = JobConfig::default();

    let small = est
        .msj_cost(&ctx, &[0, 1], PayloadMode::Reference, &cfg)
        .unwrap();
    let large = est
        .msj_cost(
            &ctx,
            &(0..8).collect::<Vec<_>>(),
            PayloadMode::Reference,
            &cfg,
        )
        .unwrap();
    assert!(large > small);

    let grouped = est
        .msj_cost(
            &ctx,
            &(0..16).collect::<Vec<_>>(),
            PayloadMode::Reference,
            &cfg,
        )
        .unwrap();
    let singles: f64 = (0..16)
        .map(|i| {
            est.msj_cost(&ctx, &[i], PayloadMode::Reference, &cfg)
                .unwrap()
        })
        .sum();
    assert!(
        grouped < singles,
        "grouping all of B1 should beat singletons: {grouped:.0} vs {singles:.0}"
    );
}

/// Measured pairwise ranking accuracy of the estimator stays high across
/// heterogeneous jobs (the §5.2 comparison, here against our deterministic
/// measured costs).
#[test]
fn pairwise_ranking_accuracy_is_high() {
    let scale = 25_000;
    let engine = Executor::new(EngineConfig {
        scale,
        ..EngineConfig::default()
    });
    let mut observations: Vec<(f64, f64)> = Vec::new(); // (estimated, measured)

    for w in [queries::a1(), queries::a2(), queries::a3()] {
        let (ctx, dfs) = setup(&w, 4000);
        let est = Estimator::new(
            &dfs,
            scale,
            CostConstants::default(),
            CostModelKind::Gumbo,
            64,
            3,
        );
        let n = ctx.semijoins().len();
        for k in 1..=n {
            let group: Vec<usize> = (0..k).collect();
            let estimated = est
                .msj_cost(&ctx, &group, PayloadMode::Reference, &JobConfig::default())
                .unwrap();
            let run_dfs = SimDfs::from_database(&dfs.to_database());
            let job = build_msj_job(&ctx, &group, PayloadMode::Reference, JobConfig::default());
            let measured = engine
                .execute_job(&run_dfs, &job, 0, 0, None)
                .unwrap()
                .total_cost;
            observations.push((estimated, measured));
        }
    }

    let mut correct = 0;
    let mut pairs = 0;
    for i in 0..observations.len() {
        for j in (i + 1)..observations.len() {
            let (ei, mi) = observations[i];
            let (ej, mj) = observations[j];
            if (mi - mj).abs() < 1e-9 {
                continue;
            }
            pairs += 1;
            if (ei > ej) == (mi > mj) {
                correct += 1;
            }
        }
    }
    let accuracy = correct as f64 / pairs as f64;
    assert!(
        accuracy >= 0.72,
        "ranking accuracy {accuracy:.2} below the paper's 72% bar ({correct}/{pairs})"
    );
}
