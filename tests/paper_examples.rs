//! Every worked example of the paper, end to end.

use gumbo::prelude::*;

mod common;

use common::{assert_strategies_agree, db};

#[test]
fn intro_query_section1() {
    let q =
        parse_program("Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);")
            .unwrap();
    let d = db(&[
        ("R", &[1, 2]),
        ("R", &[3, 4]),
        ("S", &[2, 1]),
        ("T", &[1, 5]),
        ("T", &[3, 5]),
    ]);
    let out = assert_strategies_agree(&q, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1, 2])));
}

#[test]
fn example1_intersection_difference_semijoin_antijoin() {
    let d = db(&[("R", &[1, 5]), ("R", &[2, 6]), ("S", &[5, 9])]);
    // Semi-join Z3 and anti-join Z4 from Example 1.
    let z3 = parse_program("Z3 := SELECT (x, y) FROM R(x, y) WHERE S(y, z);").unwrap();
    let out = assert_strategies_agree(&z3, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1, 5])));

    let z4 = parse_program("Z4 := SELECT (x, y) FROM R(x, y) WHERE NOT S(y, z);").unwrap();
    let out = assert_strategies_agree(&z4, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[2, 6])));
}

#[test]
fn example1_xor_query_z5() {
    let q = parse_program(
        "Z5 := SELECT (x, y) FROM R(x, y, 4) \
         WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));",
    )
    .unwrap();
    let d = db(&[
        ("R", &[7, 8, 4]), // S(1,7) holds, S(8,10) doesn't -> in
        ("R", &[5, 6, 4]), // S(1,5) holds AND S(6,10) holds -> out (xor)
        ("R", &[9, 2, 4]), // neither -> out
        ("R", &[7, 8, 3]), // wrong guard constant -> out
        ("S", &[1, 7]),
        ("S", &[1, 5]),
        ("S", &[6, 10]),
    ]);
    let out = assert_strategies_agree(&q, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[7, 8])));
}

#[test]
fn example1_star_semijoin_z6() {
    let q = parse_program("Z6 := SELECT (x1, x2) FROM R(x1, x2) WHERE S(x1, y1) AND S(x2, y2);")
        .unwrap();
    let d = db(&[
        ("R", &[1, 2]),
        ("R", &[1, 3]),
        ("S", &[1, 0]),
        ("S", &[2, 0]),
    ]);
    let out = assert_strategies_agree(&q, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1, 2])));
}

#[test]
fn example2_bookstore() {
    // String constants, exactly as printed in the paper.
    let q = parse_program(
        r#"Z1 := SELECT aut FROM Amaz(ttl, aut, "bad")
               WHERE BN(ttl, aut, "bad") AND BD(ttl, aut, "bad");
           Z2 := SELECT (new, aut) FROM Upcoming(new, aut) WHERE NOT Z1(aut);"#,
    )
    .unwrap();
    let mut d = Database::new();
    let bad = || Value::str("bad");
    let good = || Value::str("good");
    for (rel, ttl, aut, rating) in [
        ("Amaz", 10, 1, bad()),
        ("BN", 10, 1, bad()),
        ("BD", 10, 1, bad()),
        ("Amaz", 11, 2, bad()),
        ("BN", 11, 2, good()),
    ] {
        d.insert_fact(Fact::new(
            rel,
            Tuple::new(vec![Value::Int(ttl), Value::Int(aut), rating]),
        ))
        .unwrap();
    }
    d.insert_fact(Fact::new("Upcoming", Tuple::from_ints(&[100, 1])))
        .unwrap();
    d.insert_fact(Fact::new("Upcoming", Tuple::from_ints(&[101, 2])))
        .unwrap();
    // BD missing entirely for author 2: Z1 = {1}.
    d.insert_fact(Fact::new(
        "BD",
        Tuple::new(vec![Value::Int(99), Value::Int(9), good()]),
    ))
    .unwrap();
    let out = assert_strategies_agree(&q, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[101, 2])));
}

#[test]
fn example3_single_semijoin_messages() {
    // Z := π_x(R(x,z) ⋉ S(z,y)) on {R(1,2), R(4,5), S(2,3)} = {Z(1)}.
    let q = parse_program("Z := SELECT x FROM R(x, z) WHERE S(z, y);").unwrap();
    let d = db(&[("R", &[1, 2]), ("R", &[4, 5]), ("S", &[2, 3])]);
    let out = assert_strategies_agree(&q, &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1])));
}

#[test]
fn example4_all_figure2_plans() {
    let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x, z) AND (T(y) OR NOT U(x));")
        .unwrap();
    let d = db(&[
        ("R", &[1, 10]),
        ("R", &[2, 20]),
        ("R", &[3, 30]),
        ("S", &[1, 0]),
        ("S", &[3, 0]),
        ("T", &[10]),
        ("U", &[3]),
    ]);
    let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
    let ctx = QueryContext::new(vec![q]).unwrap();
    let engine = Executor::new(EngineConfig::unscaled());
    for groups in [
        vec![vec![0], vec![1], vec![2]],
        vec![vec![0, 2], vec![1]],
        vec![vec![0, 1, 2]],
    ] {
        for mode in [PayloadMode::Full, PayloadMode::Reference] {
            let plan = BsgfSetPlan::two_round(groups.clone(), mode, JobConfig::default());
            let program = plan.build_program(&ctx).unwrap();
            let dfs = SimDfs::from_database(&d);
            engine.execute(&dfs, &program).unwrap();
            assert_eq!(dfs.peek(&"Z".into()).unwrap().as_ref(), &expected);
        }
    }
}

#[test]
fn example5_greedy_sort_matches_paper() {
    let q = parse_program(
        "Z1 := SELECT (x, y) FROM R1(x, y) WHERE S(x);\n\
         Z2 := SELECT (x, y) FROM Z1(x, y) WHERE T(x);\n\
         Z3 := SELECT (x, y) FROM Z2(x, y) WHERE U(x);\n\
         Z4 := SELECT (x, y) FROM R2(x, y) WHERE T(x);\n\
         Z5 := SELECT (x, y) FROM Z3(x, y) WHERE Z4(x, x);",
    )
    .unwrap();
    // Greedy-SGF groups Q4 with Q2 (shared relation T) — the paper's
    // second listed sort.
    let sort = gumbo::core::planner::greedy_sgf_sort(&q);
    assert_eq!(sort, vec![vec![0], vec![1, 3], vec![2], vec![4]]);

    // And evaluation under that sort is correct.
    let d = db(&[
        ("R1", &[1, 2]),
        ("R1", &[3, 4]),
        ("R2", &[1, 1]),
        ("S", &[1]),
        ("S", &[3]),
        ("T", &[1]),
        ("T", &[3]),
        ("U", &[1]),
        ("U", &[3]),
    ]);
    let expected = NaiveEvaluator::new().evaluate_sgf(&q, &d).unwrap();
    let engine = GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default());
    let dfs = SimDfs::from_database(&d);
    let stats = engine.eval().with_sort(&sort).run(&dfs, &q).unwrap();
    assert_eq!(dfs.peek(&"Z5".into()).unwrap().as_ref(), &expected);
    // 4 groups of fused single-semijoin queries.
    assert_eq!(stats.num_rounds(), 4);
}

#[test]
fn appendix_a_cost_constants() {
    // With the Appendix A constants (all zero but hr = 1, no overhead),
    // a job's cost is exactly its input MB — the reduction's premise.
    let constants = CostConstants::appendix_a();
    let profile = gumbo::mr::JobProfile {
        partitions: vec![gumbo::mr::InputPartition {
            label: "Si".into(),
            input: ByteSize::mb(37),
            map_output: ByteSize::mb(37),
            records_out: 0,
            mappers: 1,
        }],
        reducers: 1,
        output: ByteSize::mb(37),
    };
    let c = gumbo::mr::job_cost(CostModelKind::Gumbo, &constants, &profile);
    assert!((c - 37.0).abs() < 1e-9);
}
