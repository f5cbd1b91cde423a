//! Planner accuracy: the sampling estimator's job profiles must track the
//! engine's measured profiles closely enough to drive grouping decisions —
//! the property behind §5.2's "correctly identify the highest cost job"
//! statistic. And planning must be *lazy*: it prices plans from
//! `Dfs::stat` metadata of the relations a query names, never from their
//! tuples — pinned here by a counting fake.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gumbo::common::RelationName;
use gumbo::core::estimate::RelStats;
use gumbo::core::msj::build_msj_job;
use gumbo::core::{Estimator, PayloadMode, PlanJob, QueryContext};
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
        let run_dfs = SimDfs::from_database(&dfs.to_database().unwrap());
        let job = build_msj_job(&ctx, &group, PayloadMode::Reference, JobConfig::default());
        let measured = engine.execute_job(&run_dfs, &job, 0).unwrap().total_cost;
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
            let run_dfs = SimDfs::from_database(&dfs.to_database().unwrap());
            let job = build_msj_job(&ctx, &group, PayloadMode::Reference, JobConfig::default());
            let measured = engine.execute_job(&run_dfs, &job, 0).unwrap().total_cost;
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

/// A [`Dfs`] that forwards everything and counts the three ways of
/// reaching a relation: `stat` (per name), `peek`, `scan`.
#[derive(Debug)]
struct CountingDfs<'a> {
    inner: &'a dyn Dfs,
    stats: Mutex<BTreeMap<RelationName, u64>>,
    peeks: AtomicU64,
    scans: AtomicU64,
}

impl<'a> CountingDfs<'a> {
    fn new(inner: &'a dyn Dfs) -> Self {
        CountingDfs {
            inner,
            stats: Mutex::default(),
            peeks: AtomicU64::new(0),
            scans: AtomicU64::new(0),
        }
    }

    /// Assert that everything since the last call was planning over at
    /// most `estimators` estimators: no tuple reached, and each estimator
    /// asked for the metadata of a relation the query `mentions` at most
    /// once. Resets the counts.
    fn assert_planned_lazily(
        &self,
        label: &str,
        mentions: &BTreeSet<RelationName>,
        estimators: u64,
    ) {
        assert_eq!(self.peeks.swap(0, Ordering::Relaxed), 0, "{label}: peeks");
        assert_eq!(self.scans.swap(0, Ordering::Relaxed), 0, "{label}: scans");
        for (name, n) in std::mem::take(&mut *self.stats.lock().unwrap()) {
            assert!(
                mentions.contains(&name),
                "{label}: stat of unmentioned {name}"
            );
            assert!(
                n <= estimators,
                "{label}: {n} stats of {name} by {estimators} estimator(s)"
            );
        }
    }
}

impl Dfs for CountingDfs<'_> {
    fn backend(&self) -> &'static str {
        self.inner.backend()
    }
    fn store(&self, relation: Relation) -> Result<ByteSize> {
        self.inner.store(relation)
    }
    fn stat(&self, name: &RelationName) -> Result<gumbo::storage::RelStats> {
        *self.stats.lock().unwrap().entry(name.clone()).or_default() += 1;
        self.inner.stat(name)
    }
    fn peek(&self, name: &RelationName) -> Result<Arc<Relation>> {
        self.peeks.fetch_add(1, Ordering::Relaxed);
        self.inner.peek(name)
    }
    fn scan(&self, name: &RelationName) -> Result<RelationScan> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.inner.scan(name)
    }
    fn exists(&self, name: &RelationName) -> bool {
        self.inner.exists(name)
    }
    fn delete(&self, name: &RelationName) -> Result<bool> {
        self.inner.delete(name)
    }
    fn file_names(&self) -> Vec<RelationName> {
        self.inner.file_names()
    }
    fn bytes_read(&self) -> ByteSize {
        self.inner.bytes_read()
    }
    fn bytes_written(&self) -> ByteSize {
        self.inner.bytes_written()
    }
    fn reset_counters(&self) {
        self.inner.reset_counters()
    }
}

/// The estimator the engine would build, but with every statistic filled
/// in eagerly from the relations themselves — whole store, whole
/// relations, `len`/`estimated_bytes`/`arity`. Lazy planning must price
/// every plan exactly as this does.
fn eager_estimator<'a>(engine: &GumboEngine, dfs: &'a dyn Dfs) -> Estimator<'a> {
    let scale = engine.config.scale;
    let mut est = engine.estimator(dfs);
    for name in dfs.file_names() {
        let rel = dfs.peek(&name).unwrap();
        est.catalog_mut().insert(
            name,
            RelStats {
                bytes: ByteSize::bytes(rel.estimated_bytes()).scaled(scale),
                tuples: rel.len() as u64 * scale,
                arity: rel.arity(),
            },
        );
    }
    est
}

/// `GumboEngine::sort_cost`, over the eager estimator.
fn eager_sort_cost(
    engine: &GumboEngine,
    dfs: &dyn Dfs,
    query: &SgfQuery,
    sort: &[Vec<usize>],
) -> f64 {
    let mut est = eager_estimator(engine, dfs);
    let mut total = 0.0;
    for group in sort {
        let ctx = group_context(query, group);
        let plan = engine.plan_group(&est, &ctx).unwrap();
        total += est.plan_cost(&ctx, &plan).unwrap();
        for &i in group {
            let q = &query.queries()[i];
            let bound = est.output_upper_bound(q).unwrap();
            est.catalog_mut().insert(q.output().clone(), bound);
        }
    }
    total
}

fn group_context(query: &SgfQuery, group: &[usize]) -> QueryContext {
    QueryContext::new(group.iter().map(|&i| query.queries()[i].clone()).collect()).unwrap()
}

fn annotated(engine: &GumboEngine, est: &Estimator<'_>, ctx: &QueryContext) -> MrProgram {
    engine
        .plan_group(est, ctx)
        .and_then(|plan| plan.build_annotated_program(ctx, est))
        .unwrap()
}

/// Pricing a query's multiway sort (`sort_for` + `sort_cost`, which
/// `--explain` prints and the `optimality` experiment searches with) and planning
/// each group of an evaluation reach no tuple on either backend, ask for
/// one `stat` per relation the query names, leave the block cache alone,
/// and produce — bit for bit — the numbers an eagerly filled catalog
/// gives.
#[test]
fn planning_reads_statistics_not_relations() {
    for w in &queries::presets() {
        let db = w.spec.clone().with_tuples(300).database(3);
        let mentions: BTreeSet<RelationName> = w
            .query
            .queries()
            .iter()
            .flat_map(|q| {
                let atoms = q.conditional_atoms().into_iter().chain([q.guard()]);
                atoms
                    .map(|a| a.relation().clone())
                    .chain([q.output().clone()])
            })
            .collect();
        for (backend, one_round) in [
            ("sim", true),
            ("sim", false),
            ("file", true),
            ("file", false),
        ] {
            let label = format!("{} on {backend}, one_round={one_round}", w.name);
            let root = std::env::temp_dir().join(format!(
                "gumbo-lazy-plan-{}-{}-{one_round}",
                std::process::id(),
                w.name
            ));
            let _ = std::fs::remove_dir_all(&root);
            let store: Box<dyn Dfs> = match backend {
                "sim" => Box::new(SimDfs::from_database(&db)),
                _ => Box::new(FileDfs::from_database(&root, 64 * 1024, &db).unwrap()),
            };
            let dfs = CountingDfs::new(&*store);
            let engine = GumboEngine::new(
                EngineConfig::default(),
                EvalOptions {
                    enable_one_round: one_round,
                    ..EvalOptions::default()
                },
            );

            // Pricing the sort: one estimator.
            let cache = store.cache_stats();
            let sort = engine.sort_for(&dfs, &w.query).unwrap();
            let cost = engine.sort_cost(&dfs, &w.query, &sort).unwrap();
            assert_eq!(
                store.cache_stats(),
                cache,
                "{label}: pricing touched the block cache"
            );
            dfs.assert_planned_lazily(&label, &mentions, 1);
            assert_eq!(
                cost.to_bits(),
                eager_sort_cost(&engine, &*store, &w.query, &sort).to_bits(),
                "{label}: sort cost"
            );

            // The planning half of every group, then the group itself so
            // the next one plans against materialized inputs.
            let runtime = engine.runtime();
            for group in &sort {
                let ctx = group_context(&w.query, group);
                let program = annotated(&engine, &engine.estimator(&dfs), &ctx);
                dfs.assert_planned_lazily(&label, &mentions, 1);
                let expected = annotated(&engine, &eager_estimator(&engine, &*store), &ctx);
                let estimates = |p: &MrProgram| -> Vec<JobEstimate> {
                    let jobs = p.rounds().iter().flatten();
                    jobs.map(|j| j.estimate.clone().expect("annotated"))
                        .collect()
                };
                let bits =
                    |e: &JobEstimate| [e.map_cost, e.reduce_cost, e.total_cost].map(f64::to_bits);
                for (got, want) in estimates(&program).iter().zip(&estimates(&expected)) {
                    assert_eq!(got, want, "{label}: job estimate");
                    assert_eq!(bits(got), bits(want), "{label}: job estimate bits");
                }
                assert_eq!(program.num_jobs(), expected.num_jobs(), "{label}");
                runtime.execute(&*store, &program).unwrap();
            }

            // And `eval().run` itself: jobs scan, nothing peeks, one
            // estimator per group.
            engine.eval().on(&runtime).run(&dfs, &w.query).unwrap();
            dfs.scans.store(0, Ordering::Relaxed);
            dfs.assert_planned_lazily(&label, &mentions, sort.len() as u64);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// Every job of every preset's plan — greedy MSJ groups and EVAL, and the
/// 1-ROUND job wherever a group fuses — is priced over the inputs it
/// reads: its estimate's partitions are labelled with `job.inputs`, in
/// order, and each partition's mapper count is `JobConfig::mappers_for`
/// of that input's bytes (the store's scaled size when the relation is
/// materialized at plan time).
#[test]
fn estimates_describe_the_jobs_they_annotate() {
    let scale = 5_000;
    let mut fused_jobs = 0;
    for w in &queries::presets() {
        for enable_one_round in [false, true] {
            let engine = GumboEngine::new(
                EngineConfig {
                    scale,
                    ..EngineConfig::default()
                },
                EvalOptions {
                    enable_one_round,
                    ..EvalOptions::default()
                },
            );
            let dfs = SimDfs::from_database(&w.spec.clone().with_tuples(300).database(3));
            for group in &engine.sort_for(&dfs, &w.query).unwrap() {
                let ctx = group_context(&w.query, group);
                let est = engine.estimator(&dfs);
                let plan = engine.plan_group(&est, &ctx).unwrap();
                let program = plan.build_program(&ctx).unwrap();
                let planned = plan.rounds().concat();
                let jobs: Vec<_> = program.rounds().iter().flatten().collect();
                assert_eq!(planned.len(), jobs.len(), "{}", w.name);
                for (&job, built) in planned.iter().zip(jobs) {
                    fused_jobs += usize::from(matches!(job, PlanJob::OneRound(_)));
                    let profile = est.profile(&ctx, job, &plan.job_config).unwrap();
                    let labels: Vec<&str> = profile
                        .partitions
                        .iter()
                        .map(|p| p.label.as_str())
                        .collect();
                    let inputs: Vec<&str> = built.inputs.iter().map(|r| r.as_str()).collect();
                    assert_eq!(labels, inputs, "{}: {}", w.name, built.name);
                    for (part, input) in profile.partitions.iter().zip(&built.inputs) {
                        if let Ok(stats) = dfs.stat(input) {
                            assert_eq!(part.input, stats.bytes.scaled(scale), "{input}");
                        }
                        let mappers = plan.job_config.mappers_for(part.input);
                        assert_eq!(part.mappers, mappers, "{}: {input}", built.name);
                    }
                }
                // Materialize the group: the next one plans over its output.
                engine.runtime().execute(&dfs, &program).unwrap();
            }
        }
    }
    // A3, B2, C1 and C4 fuse.
    assert!(fused_jobs >= 4, "{fused_jobs} 1-ROUND jobs");
}
