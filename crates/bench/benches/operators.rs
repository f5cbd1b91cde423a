//! Criterion micro-benchmarks for the execution operators: MSJ, EVAL,
//! 1-ROUND fusion and the end-to-end A3 pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gumbo_core::eval::build_eval_job;
use gumbo_core::msj::build_msj_job;
use gumbo_core::oneround::build_same_key_job;
use gumbo_core::{PayloadMode, QueryContext};
use gumbo_datagen::queries;
use gumbo_mr::{EngineConfig, Executor, JobConfig, MrProgram};
use gumbo_sched::{DagScheduler, SchedulerConfig};
use gumbo_storage::SimDfs;

const TUPLES: usize = 5_000;

fn msj_group_sizes(c: &mut Criterion) {
    let w = queries::a1().with_tuples(TUPLES);
    let db = w.spec.database(1);
    let ctx = QueryContext::new(w.query.queries().to_vec()).unwrap();
    let engine = Executor::new(EngineConfig::unscaled());

    let mut group = c.benchmark_group("msj_group_size");
    for k in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let ids: Vec<usize> = (0..k).collect();
            b.iter(|| {
                let dfs = SimDfs::from_database(&db);
                let job = build_msj_job(&ctx, &ids, PayloadMode::Reference, JobConfig::default());
                engine.execute_job(&dfs, &job, 0).unwrap()
            });
        });
    }
    group.finish();
}

fn payload_modes(c: &mut Criterion) {
    let w = queries::a1().with_tuples(TUPLES);
    let db = w.spec.database(1);
    let ctx = QueryContext::new(w.query.queries().to_vec()).unwrap();
    let engine = Executor::new(EngineConfig::unscaled());

    let mut group = c.benchmark_group("msj_payload_mode");
    for (label, mode) in [
        ("full", PayloadMode::Full),
        ("reference", PayloadMode::Reference),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let dfs = SimDfs::from_database(&db);
                let job = build_msj_job(&ctx, &[0, 1, 2, 3], mode, JobConfig::default());
                engine.execute_job(&dfs, &job, 0).unwrap()
            });
        });
    }
    group.finish();
}

fn eval_job(c: &mut Criterion) {
    let w = queries::a1().with_tuples(TUPLES);
    let db = w.spec.database(1);
    let ctx = QueryContext::new(w.query.queries().to_vec()).unwrap();
    let engine = Executor::new(EngineConfig::unscaled());
    // Materialize the X relations once.
    let base = SimDfs::from_database(&db);
    let msj = build_msj_job(
        &ctx,
        &[0, 1, 2, 3],
        PayloadMode::Reference,
        JobConfig::default(),
    );
    engine.execute_job(&base, &msj, 0).unwrap();
    let prepared = base.to_database();

    c.bench_function("eval_job", |b| {
        b.iter(|| {
            let dfs = SimDfs::from_database(&prepared);
            let job = build_eval_job(&ctx, PayloadMode::Reference, JobConfig::default());
            engine.execute_job(&dfs, &job, 0).unwrap()
        });
    });
}

fn one_round_vs_two_round(c: &mut Criterion) {
    let w = queries::a3().with_tuples(TUPLES);
    let db = w.spec.database(1);
    let ctx = QueryContext::new(w.query.queries().to_vec()).unwrap();
    let engine = Executor::new(EngineConfig::unscaled());
    let scheduler = DagScheduler::new(SchedulerConfig::ONE_SLOT);

    let mut group = c.benchmark_group("a3_pipeline");
    group.bench_function("one_round", |b| {
        b.iter(|| {
            let dfs = SimDfs::from_database(&db);
            let mut program = MrProgram::new();
            program.push_job(build_same_key_job(&ctx, JobConfig::default()).unwrap());
            scheduler.execute_program(&engine, &dfs, program).unwrap()
        });
    });
    group.bench_function("two_round", |b| {
        b.iter(|| {
            let dfs = SimDfs::from_database(&db);
            let mut program = MrProgram::new();
            program.push_job(build_msj_job(
                &ctx,
                &[0, 1, 2, 3],
                PayloadMode::Reference,
                JobConfig::default(),
            ));
            program.push_job(build_eval_job(
                &ctx,
                PayloadMode::Reference,
                JobConfig::default(),
            ));
            scheduler.execute_program(&engine, &dfs, program).unwrap()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = msj_group_sizes, payload_modes, eval_job, one_round_vs_two_round
}
criterion_main!(benches);
