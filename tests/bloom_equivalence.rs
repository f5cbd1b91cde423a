//! Filtered-shuffle equivalence: the Bloom-filtered semijoin shuffle
//! must never change an answer, and its statistics must be fully
//! deterministic.
//!
//! For every `datagen` query preset (A1–A5, B1/B2 and the nested C1–C4
//! programs of Figure 6):
//!
//! - a filtered reference run is compared against the **unfiltered**
//!   reference: byte-identical answer relations (every file left in the
//!   DFS) and identical answer-shape statistics (output tuples, job and
//!   round counts). Byte meters legitimately differ — that is the whole
//!   point of the filter — so full stats equality is *not* asserted
//!   across modes;
//! - within the filtered mode, the full execution matrix `{sim,
//!   parallel:4} × {1, 3 job slots} × {unlimited, 4 KiB budget}` must
//!   agree **exactly** with the filtered reference: byte-identical DFS
//!   and identical statistics including filter bytes,
//!   suppressed-message, probe, and false-positive counts — the filter
//!   is deterministic across worker counts, slot counts and memory
//!   budgets.
//!
//! Separate tests pin down `auto` mode: it must match `bloom` exactly
//! where the planner predicts a net win, skip filtering entirely where
//! nothing can be saved, and fall back to unfiltered execution when no
//! prediction is possible (analytic estimator without a DFS).

use gumbo::core::estimate::{Catalog, RelStats};
use gumbo::core::Estimator;
use gumbo::datagen::queries;
use gumbo::mr::ShuffleFilterMode;
use gumbo::prelude::*;

const BUDGET: u64 = 4096;
const BLOOM: ShuffleFilterMode = ShuffleFilterMode::Bloom { bits_per_key: 10 };
const AUTO: ShuffleFilterMode = ShuffleFilterMode::Auto { bits_per_key: 10 };

fn presets() -> Vec<Workload> {
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

fn engine(
    mode: ShuffleFilterMode,
    kind: ExecutorKind,
    slots: usize,
    budget: Option<u64>,
) -> GumboEngine {
    let mem_budget = match budget {
        Some(bytes) => gumbo::mr::MemBudget::bytes(bytes),
        None => gumbo::mr::MemBudget::UNLIMITED,
    };
    let options = EvalOptions {
        mem_budget,
        shuffle_filter: mode,
        scheduler: Some(SchedulerConfig {
            max_concurrent_jobs: slots,
            mem_budget,
            ..SchedulerConfig::ONE_SLOT
        }),
        ..EvalOptions::default()
    };
    GumboEngine::with_executor(
        EngineConfig {
            scale: 5_000,
            ..EngineConfig::default()
        },
        kind,
        options,
    )
}

fn output_tuples(stats: &ProgramStats) -> u64 {
    stats.jobs.iter().map(|j| j.output_tuples).sum()
}

/// Filtered runs at one slot count: answers identical to the unfiltered
/// reference, statistics identical to the filtered reference.
fn check_matrix(slots: usize) {
    let mut total_suppressed = 0u64;
    for workload in presets() {
        let db = workload.spec.clone().with_tuples(300).database(7);

        let dfs_plain = SimDfs::from_database(&db);
        let stats_plain = engine(ShuffleFilterMode::Off, ExecutorKind::Simulated, 1, None)
            .evaluate(&dfs_plain, &workload.query)
            .unwrap_or_else(|e| panic!("{} (unfiltered): {e}", workload.name));

        let dfs_ref = SimDfs::from_database(&db);
        let stats_ref = engine(BLOOM, ExecutorKind::Simulated, 1, None)
            .evaluate(&dfs_ref, &workload.query)
            .unwrap_or_else(|e| panic!("{} (filtered reference): {e}", workload.name));

        // Filtering may only remove messages that cannot contribute: the
        // answers (and the answer-shape statistics) never change.
        gumbo::sched::assert_identical_dfs(
            &format!("{} filtered vs unfiltered", workload.name),
            &dfs_plain,
            &dfs_ref,
        );
        assert_eq!(
            output_tuples(&stats_plain),
            output_tuples(&stats_ref),
            "{}: output tuples",
            workload.name
        );
        assert_eq!(
            stats_plain.num_jobs(),
            stats_ref.num_jobs(),
            "{}: job count",
            workload.name
        );
        assert_eq!(
            stats_plain.num_rounds(),
            stats_ref.num_rounds(),
            "{}: round count",
            workload.name
        );
        total_suppressed += stats_ref.suppressed_messages();

        for kind in [
            ExecutorKind::Simulated,
            ExecutorKind::Parallel { threads: 4 },
        ] {
            for budget in [None, Some(BUDGET)] {
                let subject = engine(BLOOM, kind, slots, budget);
                let runtime = subject.runtime();
                let dfs = SimDfs::from_database(&db);
                let label = format!(
                    "{} (bloom, {}, {slots} slots, budget {:?})",
                    workload.name,
                    kind.label(),
                    budget
                );
                let stats = subject
                    .eval()
                    .on(&runtime)
                    .run(&dfs, &workload.query)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));

                gumbo::sched::assert_identical_dfs(&label, &dfs_ref, &dfs);
                gumbo::sched::assert_identical_stats(&label, &stats_ref, &stats);
                if let Some(limit) = budget {
                    assert!(
                        stats.spilled_bytes() > 0,
                        "{label}: a {limit}-byte budget must force spilling"
                    );
                    assert!(
                        runtime.budget().peak() <= limit,
                        "{label}: tracked peak {} exceeded the budget",
                        runtime.budget().peak()
                    );
                }
            }
        }
    }
    assert!(
        total_suppressed > 0,
        "the filter must suppress messages on at least one preset"
    );
}

#[test]
fn filtered_shuffle_is_equivalent_at_one_job_slot() {
    check_matrix(1);
}

#[test]
fn filtered_shuffle_is_equivalent_at_three_job_slots() {
    check_matrix(3);
}

/// Where the planner predicts a net byte win, `auto` engages the filter
/// and is indistinguishable from `bloom` — same suppression decisions,
/// same meters.
#[test]
fn auto_matches_bloom_when_profitable() {
    let workload = queries::a1();
    let db = workload.spec.clone().with_tuples(300).database(7);

    let dfs_bloom = SimDfs::from_database(&db);
    let stats_bloom = engine(BLOOM, ExecutorKind::Simulated, 1, None)
        .evaluate(&dfs_bloom, &workload.query)
        .expect("bloom run");
    assert!(
        stats_bloom.suppressed_messages() > 0,
        "A1 at default selectivity must suppress messages"
    );

    let dfs_auto = SimDfs::from_database(&db);
    let stats_auto = engine(AUTO, ExecutorKind::Simulated, 1, None)
        .evaluate(&dfs_auto, &workload.query)
        .expect("auto run");

    gumbo::sched::assert_identical_dfs("auto vs bloom", &dfs_bloom, &dfs_auto);
    gumbo::sched::assert_identical_stats("auto vs bloom", &stats_bloom, &stats_auto);
}

/// When every key matches on both sides there is nothing to suppress:
/// `bloom` still pays for its broadcast filters, `auto` predicts zero
/// savings and skips them. Answers are identical in all three modes.
#[test]
fn auto_skips_filtering_when_nothing_can_be_saved() {
    // R(x, y) fully covered by S: every request hits, every assert is
    // requested — zero misses in either direction.
    let mut guard = Relation::new("R", 2);
    let mut cond = Relation::new("S", 1);
    for i in 0..50i64 {
        guard.insert(Tuple::from_ints(&[i, i + 1000])).unwrap();
        cond.insert(Tuple::from_ints(&[i])).unwrap();
    }
    let mut db = Database::new();
    db.add_relation(guard);
    db.add_relation(cond);
    let query = parse_program("Out := SELECT (x, y) FROM R(x, y) WHERE S(x);").unwrap();

    let mut reference: Option<SimDfs> = None;
    for mode in [ShuffleFilterMode::Off, BLOOM, AUTO] {
        let dfs = SimDfs::from_database(&db);
        // Keep the MSJ -> EVAL structure: the fused 1-ROUND plan has no
        // semijoin shuffle to filter.
        let subject = GumboEngine::with_executor(
            EngineConfig {
                scale: 5_000,
                ..EngineConfig::default()
            },
            ExecutorKind::Simulated,
            EvalOptions {
                enable_one_round: false,
                shuffle_filter: mode,
                ..EvalOptions::default()
            },
        );
        let stats = subject
            .evaluate(&dfs, &query)
            .unwrap_or_else(|e| panic!("{}: {e}", mode.label()));
        match mode {
            ShuffleFilterMode::Off => assert_eq!(stats.filter_bytes(), 0),
            ShuffleFilterMode::Bloom { .. } => {
                // Forced filtering: the broadcast is paid, nothing saved.
                assert!(stats.filter_bytes() > 0, "bloom pays for its filters");
                assert_eq!(stats.suppressed_messages(), 0, "every key matches");
            }
            ShuffleFilterMode::Auto { .. } => {
                assert_eq!(
                    stats.filter_bytes(),
                    0,
                    "auto must skip an unprofitable filter"
                );
                assert_eq!(stats.suppressed_messages(), 0);
            }
        }
        match &reference {
            None => reference = Some(dfs),
            Some(expected) => gumbo::sched::assert_identical_dfs(
                &format!("mode {}", mode.label()),
                expected,
                &dfs,
            ),
        }
    }
}

/// The analytic estimator has no DFS to peek at, so it can never predict
/// filter savings — and without a prediction, `auto` runs unfiltered. A
/// DFS-backed estimator over the same catalog does produce one.
#[test]
fn analytic_estimator_yields_no_prediction() {
    let workload = queries::a1().with_tuples(50);
    let db = workload.spec.database(7);
    let dfs = SimDfs::from_database(&db);
    let ctx = QueryContext::new(workload.query.queries().to_vec()).expect("context");

    let mut catalog = Catalog::default();
    for name in dfs.file_names() {
        let rel = dfs.peek(&name).unwrap();
        catalog.insert(
            name,
            RelStats {
                bytes: ByteSize::bytes(rel.estimated_bytes()),
                tuples: rel.len() as u64,
                arity: rel.arity(),
            },
        );
    }
    let analytic = Estimator::analytic(catalog, CostConstants::default(), CostModelKind::Gumbo);
    assert!(
        analytic
            .msj_filter_prediction(&ctx, &[0], PayloadMode::Reference, 10)
            .is_none(),
        "no DFS, no prediction"
    );

    let exact = Estimator::new(
        &dfs,
        1,
        CostConstants::default(),
        CostModelKind::Gumbo,
        64,
        7,
    );
    let pred = exact
        .msj_filter_prediction(&ctx, &[0], PayloadMode::Reference, 10)
        .expect("DFS-backed estimators predict");
    assert!(pred.filter_bytes.as_bytes() > 0);
    assert!((0.0..1.0).contains(&pred.predicted_fp_rate));
}
