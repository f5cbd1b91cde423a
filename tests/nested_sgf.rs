//! Cross-crate integration tests for nested SGF evaluation: the paper's
//! C-workloads and randomized nested programs, under every sort strategy.

use gumbo::datagen::queries;
use gumbo::prelude::*;

fn engines() -> Vec<(&'static str, GumboEngine)> {
    let cfg = EngineConfig::unscaled();
    vec![
        ("sequnit", Strategy::SeqUnit.engine(cfg).unwrap()),
        ("parunit", Strategy::ParUnit.engine(cfg).unwrap()),
        ("greedy-sgf", Strategy::GreedySgf.engine(cfg).unwrap()),
        (
            "defaults+1round",
            GumboEngine::new(cfg, EvalOptions::default()),
        ),
    ]
}

fn check_workload(w: &gumbo::datagen::Workload, tuples: usize, seed: u64) {
    let db = w.spec.clone().with_tuples(tuples).database(seed);
    let naive = NaiveEvaluator::new()
        .evaluate_sgf_all(&w.query, &db)
        .unwrap();
    for (name, engine) in engines() {
        let dfs = SimDfs::from_database(&db);
        engine.evaluate(&dfs, &w.query).unwrap();
        for q in w.query.queries() {
            let expected = naive.relation(q.output()).unwrap();
            let got = dfs.peek(q.output()).unwrap();
            assert_eq!(
                got.as_ref(),
                expected,
                "workload {} strategy {name} output {}",
                w.name,
                q.output()
            );
        }
    }
}

#[test]
fn c1_all_strategies() {
    check_workload(&queries::c1(), 600, 11);
}

#[test]
fn c2_all_strategies() {
    check_workload(&queries::c2(), 600, 12);
}

#[test]
fn c3_all_strategies() {
    check_workload(&queries::c3(), 600, 13);
}

#[test]
fn c4_all_strategies() {
    check_workload(&queries::c4(), 600, 14);
}

#[test]
fn table2_workloads_with_default_engine() {
    for w in queries::table2() {
        let db = w.spec.clone().with_tuples(300).database(21);
        let naive = NaiveEvaluator::new()
            .evaluate_sgf_all(&w.query, &db)
            .unwrap();
        let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
        let dfs = SimDfs::from_database(&db);
        engine.evaluate(&dfs, &w.query).unwrap();
        for q in w.query.queries() {
            assert_eq!(
                dfs.peek(q.output()).unwrap().as_ref(),
                naive.relation(q.output()).unwrap(),
                "workload {}",
                w.name
            );
        }
    }
}

#[test]
fn cost_model_stress_query_is_correct() {
    // 48 atoms, all filtered to (near) nothing by the constant.
    let w = queries::cost_model_query().with_tuples(300);
    let db = w.spec.database(3);
    let naive = NaiveEvaluator::new().evaluate_sgf(&w.query, &db).unwrap();
    let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
    let dfs = SimDfs::from_database(&db);
    let (_, got) = engine.eval().run_with_output(&dfs, &w.query).unwrap();
    assert_eq!(got, naive);
    // With selectivity-style filtering, the answer is (almost surely) empty.
    assert!(got.len() <= 1);
}

#[test]
fn query_size_family_is_correct_at_each_size() {
    for k in [1usize, 2, 5, 9, 16] {
        let w = queries::a3_family(k).with_tuples(300);
        let db = w.spec.database(k as u64);
        let naive = NaiveEvaluator::new().evaluate_sgf(&w.query, &db).unwrap();
        let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
        let dfs = SimDfs::from_database(&db);
        let (stats, got) = engine.eval().run_with_output(&dfs, &w.query).unwrap();
        assert_eq!(got, naive, "k = {k}");
        // Same-key family always fuses to a single job.
        assert_eq!(stats.num_jobs(), 1, "k = {k}");
    }
}

#[test]
fn deep_chain_program() {
    // A 6-level chain exercising intermediate materialization.
    let mut text = String::from("Z0 := SELECT (x, y) FROM R(x, y) WHERE S(x);\n");
    for i in 1..6 {
        text.push_str(&format!(
            "Z{i} := SELECT (x, y) FROM Z{}(x, y) WHERE S(y) OR T(x);\n",
            i - 1
        ));
    }
    let query = parse_program(&text).unwrap();
    let mut db = Database::new();
    for i in 0..30i64 {
        db.insert_fact(Fact::new("R", Tuple::from_ints(&[i % 6, (i + 1) % 6])))
            .unwrap();
    }
    for v in 0..4i64 {
        db.insert_fact(Fact::new("S", Tuple::from_ints(&[v])))
            .unwrap();
        db.insert_fact(Fact::new("T", Tuple::from_ints(&[v + 2])))
            .unwrap();
    }
    let expected = NaiveEvaluator::new().evaluate_sgf(&query, &db).unwrap();
    for (name, engine) in engines() {
        let dfs = SimDfs::from_database(&db);
        let (_, got) = engine.eval().run_with_output(&dfs, &query).unwrap();
        assert_eq!(got, expected, "strategy {name}");
    }
}

#[test]
fn stats_invariants_hold() {
    let w = queries::c3();
    let db = w.spec.clone().with_tuples(400).database(5);
    let engine = GumboEngine::new(EngineConfig::default(), EvalOptions::default());
    let dfs = SimDfs::from_database(&db);
    let stats = engine.evaluate(&dfs, &w.query).unwrap();
    // Net time never exceeds total time (total sums all tasks + overheads;
    // net schedules them onto >= 1 slots with shared per-round overhead).
    assert!(stats.net_time() <= stats.total_time() + 1e-6);
    assert!(stats.input_bytes() > ByteSize::ZERO);
    assert!(stats.communication_bytes() > ByteSize::ZERO);
    assert_eq!(stats.jobs.len(), stats.num_jobs());
    // Every job cost decomposes as overhead + map + reduce.
    for j in &stats.jobs {
        assert!(
            (j.total_cost - (10.0 + j.map_cost + j.reduce_cost)).abs() < 1e-6,
            "job {} cost decomposition",
            j.name
        );
    }
}
