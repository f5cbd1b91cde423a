//! Skew handling (§6 of the paper): with heavy-hitter information, the MSJ
//! operator can salt request keys to spread a hot join key across reduce
//! groups. These tests exercise the salted MSJ variant plus the engine's
//! skew-aware wall-clock model.

use gumbo::core::msj::{build_msj_job, build_msj_job_salted};
use gumbo::core::{PayloadMode, QueryContext};
use gumbo::prelude::*;

/// A heavily skewed database: every guard tuple shares join key 7.
fn skewed_db(n: i64) -> Database {
    let mut db = Database::new();
    let mut r = Relation::new("R", 2);
    for i in 0..n {
        r.insert(Tuple::from_ints(&[i, 7])).unwrap();
    }
    db.add_relation(r);
    let mut s = Relation::new("S", 1);
    s.insert(Tuple::from_ints(&[7])).unwrap();
    s.insert(Tuple::from_ints(&[8])).unwrap();
    db.add_relation(s);
    db
}

fn ctx() -> QueryContext {
    let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(y);").unwrap();
    QueryContext::new(vec![q]).unwrap()
}

fn run(salts: u32, reducers: usize) -> (SimDfs, gumbo::mr::JobStats) {
    let db = skewed_db(400);
    let dfs = SimDfs::from_database(&db);
    let config = JobConfig {
        reducer_policy: gumbo::mr::ReducerPolicy::Fixed(reducers),
        ..JobConfig::default()
    };
    let job = build_msj_job_salted(&ctx(), &[0], PayloadMode::Full, config, salts);
    let engine = Executor::new(EngineConfig::unscaled());
    let stats = engine.execute_job(&dfs, &job, 0).unwrap();
    (dfs, stats)
}

#[test]
fn salting_preserves_results() {
    let (plain_dfs, _) = run(1, 8);
    for salts in [2u32, 4, 8] {
        let (salted_dfs, _) = run(salts, 8);
        assert_eq!(
            plain_dfs.peek(&"Z#X0".into()).unwrap(),
            salted_dfs.peek(&"Z#X0".into()).unwrap(),
            "salts = {salts}"
        );
    }
}

#[test]
fn unsalted_skew_concentrates_reduce_load() {
    // All 400 requests share key 7 -> one reducer carries ~everything,
    // which the skew-aware wall-clock model exposes as a long task.
    let (_, stats) = run(1, 8);
    let max = stats
        .reduce_task_durations
        .iter()
        .cloned()
        .fold(0.0, f64::max);
    let sum: f64 = stats.reduce_task_durations.iter().sum();
    assert!(
        max > 0.9 * sum,
        "expected one dominant reduce task, got max {max} of total {sum}"
    );
}

#[test]
fn salting_spreads_reduce_load() {
    let (_, plain) = run(1, 8);
    let (_, salted) = run(8, 8);
    let max_plain = plain
        .reduce_task_durations
        .iter()
        .cloned()
        .fold(0.0, f64::max);
    let max_salted = salted
        .reduce_task_durations
        .iter()
        .cloned()
        .fold(0.0, f64::max);
    // The makespan-relevant quantity (the longest reduce task) must drop
    // substantially; the totals stay comparable (asserts are tiny).
    assert!(
        max_salted < 0.6 * max_plain,
        "salting should spread the hot key: {max_salted} vs {max_plain}"
    );
}

#[test]
fn salting_costs_assert_replication() {
    // The trade-off the paper alludes to: the adaptation is not free —
    // assert volume grows with the salt count.
    let (_, plain) = run(1, 8);
    let (_, salted) = run(8, 8);
    assert!(salted.communication_bytes() >= plain.communication_bytes());
}

#[test]
fn default_builder_is_unsalted() {
    let db = skewed_db(50);
    let d1 = SimDfs::from_database(&db);
    let d2 = SimDfs::from_database(&db);
    let engine = Executor::new(EngineConfig::unscaled());
    let j1 = build_msj_job(&ctx(), &[0], PayloadMode::Full, JobConfig::default());
    let j2 = build_msj_job_salted(&ctx(), &[0], PayloadMode::Full, JobConfig::default(), 1);
    let s1 = engine.execute_job(&d1, &j1, 0).unwrap();
    let s2 = engine.execute_job(&d2, &j2, 0).unwrap();
    assert_eq!(s1.communication_bytes(), s2.communication_bytes());
    assert_eq!(
        d1.peek(&"Z#X0".into()).unwrap(),
        d2.peek(&"Z#X0".into()).unwrap()
    );
}
