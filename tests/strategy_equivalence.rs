//! Property-based equivalence: every evaluation strategy must agree with
//! the naive reference evaluator on randomized queries and databases.

use proptest::prelude::*;
// Both preludes export a `Strategy`: the proptest trait keeps the name.
use proptest::prelude::Strategy;

use gumbo::baselines::Strategy as EvalStrategy;
use gumbo::prelude::*;

mod common;

const GUARD_VARS: [&str; 4] = ["x", "y", "z", "w"];
const COND_RELS: [&str; 4] = ["S", "T", "U", "V"];

/// A generated conditional atom: relation index, variable indices, and an
/// optional trailing fresh (local existential) variable.
#[derive(Debug, Clone)]
struct GenAtom {
    rel: usize,
    vars: Vec<usize>,
    local: bool,
}

#[derive(Debug, Clone)]
enum GenCond {
    Atom(GenAtom),
    Not(Box<GenCond>),
    And(Box<GenCond>, Box<GenCond>),
    Or(Box<GenCond>, Box<GenCond>),
}

fn atom_strategy() -> impl Strategy<Value = GenAtom> {
    (
        0..COND_RELS.len(),
        proptest::collection::vec(0..GUARD_VARS.len(), 1..3),
        any::<bool>(),
    )
        .prop_map(|(rel, vars, local)| GenAtom { rel, vars, local })
}

fn cond_strategy() -> impl Strategy<Value = GenCond> {
    let leaf = atom_strategy().prop_map(GenCond::Atom);
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|c| GenCond::Not(Box::new(c))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| GenCond::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| GenCond::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn render_atom(a: &GenAtom, counter: &mut usize) -> String {
    let mut args: Vec<String> = a.vars.iter().map(|&v| GUARD_VARS[v].to_string()).collect();
    if a.local {
        *counter += 1;
        args.push(format!("q{counter}"));
    }
    format!("{}({})", COND_RELS[a.rel], args.join(", "))
}

fn render_cond(c: &GenCond, counter: &mut usize) -> String {
    match c {
        GenCond::Atom(a) => render_atom(a, counter),
        GenCond::Not(inner) => format!("(NOT {})", render_cond(inner, counter)),
        GenCond::And(l, r) => {
            format!(
                "({} AND {})",
                render_cond(l, counter),
                render_cond(r, counter)
            )
        }
        GenCond::Or(l, r) => {
            format!(
                "({} OR {})",
                render_cond(l, counter),
                render_cond(r, counter)
            )
        }
    }
}

/// Arities used for each conditional relation in a generated scenario:
/// derived from the first occurrence of each relation in the condition.
fn collect_arities(c: &GenCond, arities: &mut [Option<usize>; 4]) {
    match c {
        GenCond::Atom(a) => {
            let arity = a.vars.len() + usize::from(a.local);
            if arities[a.rel].is_none() {
                arities[a.rel] = Some(arity);
            }
        }
        GenCond::Not(x) => collect_arities(x, arities),
        GenCond::And(l, r) | GenCond::Or(l, r) => {
            collect_arities(l, arities);
            collect_arities(r, arities);
        }
    }
}

/// Normalize a condition so that every occurrence of a relation uses the
/// first-seen arity (re-truncating or padding variable lists).
fn normalize(c: &GenCond, arities: &[Option<usize>; 4]) -> GenCond {
    match c {
        GenCond::Atom(a) => {
            let want = arities[a.rel].expect("collected");
            let mut vars = a.vars.clone();
            let mut local = a.local;
            // Shrink or grow the argument list to the canonical arity.
            loop {
                let have = vars.len() + usize::from(local);
                if have == want {
                    break;
                }
                if have > want {
                    if local {
                        local = false;
                    } else {
                        vars.pop();
                    }
                } else {
                    vars.push(vars.len() % GUARD_VARS.len());
                }
            }
            GenCond::Atom(GenAtom {
                rel: a.rel,
                vars,
                local,
            })
        }
        GenCond::Not(x) => GenCond::Not(Box::new(normalize(x, arities))),
        GenCond::And(l, r) => GenCond::And(
            Box::new(normalize(l, arities)),
            Box::new(normalize(r, arities)),
        ),
        GenCond::Or(l, r) => GenCond::Or(
            Box::new(normalize(l, arities)),
            Box::new(normalize(r, arities)),
        ),
    }
}

fn random_db(seed: u64, arities: &[Option<usize>; 4]) -> Database {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut guard = Relation::new("R", 4);
    for _ in 0..40 {
        let t: Vec<i64> = (0..4).map(|_| rng.gen_range(0..8)).collect();
        guard.insert(Tuple::from_ints(&t)).unwrap();
    }
    db.add_relation(guard);
    for (i, name) in COND_RELS.iter().enumerate() {
        let arity = arities[i].unwrap_or(1);
        let mut rel = Relation::new(*name, arity);
        for _ in 0..25 {
            let t: Vec<i64> = (0..arity).map(|_| rng.gen_range(0..8)).collect();
            rel.insert(Tuple::from_ints(&t)).unwrap();
        }
        db.add_relation(rel);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized BSGF queries: every strategy agrees with the naive
    /// evaluator. Guardedness holds by construction: conditional atoms use
    /// guard variables plus at-most-one fresh local variable each.
    #[test]
    fn strategies_agree_with_naive(cond in cond_strategy(), seed in 0u64..500) {
        let mut arities: [Option<usize>; 4] = [None, None, None, None];
        collect_arities(&cond, &mut arities);
        let cond = normalize(&cond, &arities);
        let mut counter = 0usize;
        let text = format!(
            "Zout := SELECT (x, y, z, w) FROM R(x, y, z, w) WHERE {};",
            render_cond(&cond, &mut counter)
        );
        let query = parse_program(&text).unwrap();
        let db = random_db(seed, &arities);
        let expected = common::assert_strategies_agree(&query, &db);

        // The job-level baselines (SEQ and the Pig/Hive simulations) agree
        // too; SEQ only where its chain builder takes the condition (DNF).
        let executor = Executor::new(EngineConfig::unscaled());
        for strategy in EvalStrategy::ALL {
            if strategy.engine(*executor.config()).is_some() {
                continue;
            }
            let dfs = SimDfs::from_database(&db);
            match strategy.evaluate(&executor, &dfs, &query) {
                Err(_) if strategy == EvalStrategy::Seq => continue,
                result => result.unwrap(),
            };
            let got = dfs.peek(&"Zout".into()).unwrap();
            prop_assert_eq!(got.as_ref(), &expected, "{} on {}", strategy.label(), &text);
        }
    }
}
