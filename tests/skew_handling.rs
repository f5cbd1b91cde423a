//! Skew (§6 of the paper): a hot join key concentrates an MSJ job's
//! reduce load on one task, which the engine's skew-aware wall-clock model
//! exposes as one long reduce task.

use gumbo::core::msj::build_msj_job;
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

#[test]
fn unsalted_skew_concentrates_reduce_load() {
    // All 400 requests share key 7 -> one reducer carries ~everything,
    // which the skew-aware wall-clock model exposes as a long task.
    let dfs = SimDfs::from_database(&skewed_db(400));
    let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(y);").unwrap();
    let ctx = QueryContext::new(vec![q]).unwrap();
    let config = JobConfig {
        reducer_policy: gumbo::mr::ReducerPolicy::Fixed(8),
        ..JobConfig::default()
    };
    let job = build_msj_job(&ctx, &[0], PayloadMode::Full, config);
    let stats = Executor::new(EngineConfig::unscaled())
        .execute_job(&dfs, &job, 0)
        .unwrap();
    assert_eq!(dfs.peek(&"Z#X0".into()).unwrap().len(), 400);
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
