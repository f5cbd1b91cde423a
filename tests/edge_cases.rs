//! Edge cases that stress unusual-but-legal corners of the SGF fragment.

use gumbo::prelude::*;

fn db(facts: &[(&str, &[i64])]) -> Database {
    let mut db = Database::new();
    for (rel, t) in facts {
        db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
            .unwrap();
    }
    db
}

fn check(query_text: &str, d: &Database) -> Relation {
    let query = parse_program(query_text).unwrap();
    let expected = NaiveEvaluator::new().evaluate_sgf(&query, d).unwrap();
    for (name, engine) in [
        (
            "greedy",
            Strategy::Greedy.engine(EngineConfig::unscaled()).unwrap(),
        ),
        (
            "par",
            Strategy::Par.engine(EngineConfig::unscaled()).unwrap(),
        ),
        (
            "default",
            GumboEngine::new(EngineConfig::unscaled(), EvalOptions::default()),
        ),
    ] {
        let dfs = SimDfs::from_database(d);
        let (_, got) = engine.eval().run_with_output(&dfs, &query).unwrap();
        assert_eq!(got, expected, "{name} on {query_text}");
    }
    expected
}

#[test]
fn self_semijoin_guard_is_also_conditional() {
    // R appears as guard and as conditional: x s.t. some R(y, z) continues
    // from R(x, y).
    let d = db(&[("R", &[1, 2]), ("R", &[2, 3]), ("R", &[5, 6])]);
    let out = check("Z := SELECT x FROM R(x, y) WHERE R(y, z);", &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1])));
}

#[test]
fn self_antijoin() {
    // Sinks: R(x, y) with no outgoing edge from y.
    let d = db(&[("R", &[1, 2]), ("R", &[2, 3]), ("R", &[5, 6])]);
    let out = check("Z := SELECT (x, y) FROM R(x, y) WHERE NOT R(y, q);", &d);
    assert_eq!(out.len(), 2); // (2,3) and (5,6)
}

#[test]
fn empty_join_key_is_nonemptiness_test() {
    // S(q) shares no variable with the guard: the condition holds for all
    // guard tuples iff S is non-empty.
    let with_s = db(&[("R", &[1]), ("R", &[2]), ("S", &[9])]);
    let out = check("Z := SELECT x FROM R(x) WHERE S(q);", &with_s);
    assert_eq!(out.len(), 2);

    let mut without_s = db(&[("R", &[1]), ("R", &[2])]);
    without_s.add_relation(Relation::new("S", 1));
    let out = check("Z := SELECT x FROM R(x) WHERE S(q);", &without_s);
    assert_eq!(out.len(), 0);

    // Negated: NOT S(q) selects everything iff S is empty.
    let out = check("Z := SELECT x FROM R(x) WHERE NOT S(q);", &without_s);
    assert_eq!(out.len(), 2);
}

#[test]
fn repeated_output_variables() {
    let d = db(&[("R", &[1, 2])]);
    let out = check("Z := SELECT (x, x, y) FROM R(x, y);", &d);
    assert!(out.contains(&Tuple::from_ints(&[1, 1, 2])));
}

#[test]
fn constant_only_conditional() {
    // S(7) is a membership test of a ground fact.
    let d = db(&[("R", &[1]), ("R", &[2]), ("S", &[7])]);
    let out = check("Z := SELECT x FROM R(x) WHERE S(7);", &d);
    assert_eq!(out.len(), 2);
    let d2 = db(&[("R", &[1]), ("S", &[8])]);
    let out = check("Z := SELECT x FROM R(x) WHERE S(7);", &d2);
    assert_eq!(out.len(), 0);
}

#[test]
fn guard_with_repeated_variable_and_constant() {
    // Guard R(x, x, 3): diagonal tuples ending in 3 only.
    let d = db(&[("R", &[1, 1, 3]), ("R", &[1, 2, 3]), ("R", &[4, 4, 5])]);
    let out = check("Z := SELECT x FROM R(x, x, 3);", &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1])));
}

#[test]
fn empty_guard_relation() {
    let mut d = db(&[("S", &[1])]);
    d.add_relation(Relation::new("R", 2));
    let out = check("Z := SELECT x FROM R(x, y) WHERE S(x);", &d);
    assert!(out.is_empty());
}

#[test]
fn tautology_and_contradiction() {
    let d = db(&[("R", &[1]), ("S", &[1])]);
    // S(x) OR NOT S(x): always true.
    let out = check("Z := SELECT x FROM R(x) WHERE S(x) OR NOT S(x);", &d);
    assert_eq!(out.len(), 1);
    // S(x) AND NOT S(x): always false.
    let out = check("Z := SELECT x FROM R(x) WHERE S(x) AND NOT S(x);", &d);
    assert_eq!(out.len(), 0);
}

#[test]
fn deeply_nested_negations() {
    let d = db(&[("R", &[1]), ("R", &[2]), ("S", &[1])]);
    // NOT NOT S(x) ≡ S(x).
    let out = check("Z := SELECT x FROM R(x) WHERE NOT (NOT S(x));", &d);
    assert_eq!(out.len(), 1);
    assert!(out.contains(&Tuple::from_ints(&[1])));
    // NOT (S(x) OR NOT S(x)) ≡ false.
    let out = check("Z := SELECT x FROM R(x) WHERE NOT (S(x) OR NOT S(x));", &d);
    assert_eq!(out.len(), 0);
}

#[test]
fn intermediate_used_twice_downstream() {
    // Z1 feeds both Z2 and Z3; Z4 combines them.
    let d = db(&[
        ("R", &[1]),
        ("R", &[2]),
        ("R", &[3]),
        ("S", &[1]),
        ("S", &[2]),
        ("T", &[2]),
        ("U", &[1]),
    ]);
    let out = check(
        "Z1 := SELECT x FROM R(x) WHERE S(x);\n\
         Z2 := SELECT x FROM Z1(x) WHERE T(x);\n\
         Z3 := SELECT x FROM Z1(x) WHERE U(x);\n\
         Z4 := SELECT x FROM R(x) WHERE Z2(x) OR Z3(x);",
        &d,
    );
    assert_eq!(out.len(), 2);
}

#[test]
fn mixed_string_and_int_keys() {
    let mut d = Database::new();
    d.insert_fact(Fact::new(
        "R",
        Tuple::new(vec![Value::str("alice"), Value::Int(30)]),
    ))
    .unwrap();
    d.insert_fact(Fact::new(
        "R",
        Tuple::new(vec![Value::str("bob"), Value::Int(40)]),
    ))
    .unwrap();
    d.insert_fact(Fact::new("S", Tuple::new(vec![Value::str("alice")])))
        .unwrap();
    let out = check("Z := SELECT (n, a) FROM R(n, a) WHERE S(n);", &d);
    assert_eq!(out.len(), 1);
}

/// A byte scale far beyond the paper's regime models more reduce tasks
/// than one process can hold: the run is a plan error, not an abort.
#[test]
fn a_byte_scale_beyond_the_reduce_task_limit_is_a_plan_error() {
    let workload = gumbo::datagen::queries::a1().with_tuples(200);
    let db = workload.spec.database(1);
    for scale in [1_000_000_000_000, 10_000_000_000_000_000_000] {
        let config = EngineConfig {
            scale,
            ..EngineConfig::default()
        };
        let dfs = SimDfs::from_database(&db);
        let err = GumboEngine::new(config, EvalOptions::default())
            .evaluate(&dfs, &workload.query)
            .unwrap_err();
        assert!(
            matches!(&err, GumboError::Plan(m) if m.contains("reduce tasks")),
            "scale {scale}: {err}"
        );
    }
}
