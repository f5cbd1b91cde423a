//! Property-based tests for the query language: print/parse round-trips,
//! condition-evaluation consistency and topological-sort validity.

#![cfg(test)]

use proptest::prelude::*;

use crate::atom::Atom;
use crate::condition::Condition;
use crate::depgraph::DependencyGraph;
use crate::parser::{parse_program, parse_query};
use crate::query::{BsgfQuery, SgfQuery};
use crate::term::{Term, Var};

const VARS: [&str; 4] = ["x", "y", "z", "w"];
const RELS: [&str; 4] = ["S", "T", "U", "V"];

fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        0..RELS.len(),
        proptest::collection::vec(0..VARS.len(), 1..3),
        proptest::option::of(0i64..5),
    )
        .prop_map(|(r, vars, konst)| {
            let mut terms: Vec<Term> = vars.into_iter().map(|v| Term::var(VARS[v])).collect();
            if let Some(c) = konst {
                terms.push(Term::int(c));
            }
            Atom::new(RELS[r], terms)
        })
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    let leaf = arb_atom().prop_map(Condition::Atom);
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|c| Condition::Not(Box::new(c))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Condition::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Condition::Or(Box::new(a), Box::new(b))),
        ]
    })
}

/// A guarded query over guard R(x, y, z, w). Atoms only use guard vars
/// (plus constants), so guardedness holds by construction.
fn arb_query() -> impl Strategy<Value = BsgfQuery> {
    (proptest::option::of(arb_condition()), 1usize..=4).prop_map(|(cond, out_n)| {
        let out: Vec<Var> = VARS.iter().take(out_n).map(Var::new).collect();
        BsgfQuery::new("Zq", out, Atom::vars("R", &VARS), cond).expect("guarded by construction")
    })
}

/// Program text from four angles: printable noise, arbitrary bytes,
/// well-formed tokens in random order (so the parser gets past the lexer),
/// and a valid statement whose condition nests or chains arbitrarily deep.
fn arb_source() -> impl Strategy<Value = String> {
    const TOKENS: [&str; 16] = [
        "Z", "R", "x", "y", "7", "\"s\"", ":=", "(", ")", ",", ";", "SELECT", "FROM", "WHERE",
        "AND", "NOT",
    ];
    const NESTERS: [&str; 4] = ["(", "NOT ", "S(x) AND ", "S(x) OR "];
    prop_oneof![
        "[ -~]{0,80}".prop_map(|s| s),
        proptest::collection::vec(any::<u8>(), 0..80)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        proptest::collection::vec(0..TOKENS.len(), 0..40).prop_map(|ix| ix
            .into_iter()
            .map(|i| TOKENS[i])
            .collect::<Vec<_>>()
            .join(" ")),
        (0..NESTERS.len(), 0usize..200_000).prop_map(|(n, depth)| format!(
            "Z := SELECT x FROM R(x) WHERE {}S(x);",
            NESTERS[n].repeat(depth)
        )),
    ]
}

/// Conformance as §4 defines it, term pair by term pair: constant terms
/// carry exactly their constants and equal terms carry equal values.
fn conforms_by_definition(terms: &[Term], tuple: &gumbo_common::Tuple) -> bool {
    if tuple.arity() != terms.len() {
        return false;
    }
    for i in 0..terms.len() {
        if let Term::Const(c) = &terms[i] {
            if tuple.get(i) != Some(c) {
                return false;
            }
        }
        for j in (i + 1)..terms.len() {
            if terms[i].is_var() && terms[i] == terms[j] && tuple.get(i) != tuple.get(j) {
                return false;
            }
        }
    }
    true
}

proptest! {
    /// The checks an atom compiles at construction agree with the
    /// definition on any term vector — constants, repeated variables —
    /// and any tuple, wrong arities included. Values come from a domain
    /// of three so that conforming tuples are common.
    #[test]
    fn compiled_conformance_matches_the_definition(
        terms in proptest::collection::vec((any::<bool>(), 0usize..3), 0usize..6),
        values in proptest::collection::vec(0i64..3, 0usize..6),
        same_arity in any::<bool>(),
    ) {
        let terms: Vec<Term> = terms
            .into_iter()
            .map(|(constant, k)| if constant { Term::int(k as i64) } else { Term::var(VARS[k]) })
            .collect();
        let mut values = values;
        if same_arity {
            values.resize(terms.len(), 1);
        }
        let tuple = gumbo_common::Tuple::from_ints(&values);
        let atom = Atom::new("R", terms.clone());
        prop_assert_eq!(atom.conforms_tuple(&tuple), conforms_by_definition(&terms, &tuple));
        prop_assert_eq!(
            atom.is_unconstrained(),
            atom.var_set().len() == terms.len(),
            "unconstrained = pairwise distinct variables"
        );
    }

    /// Whatever arrives — the service hands client text straight to the
    /// parser — the answer is `Ok` or `Err`, never a panic or an overflow.
    #[test]
    fn parse_program_never_panics(source in arb_source()) {
        let _ = parse_program(&source);
    }

    /// Pretty-print → parse is the identity on queries.
    #[test]
    fn query_print_parse_roundtrip(q in arb_query()) {
        let text = q.to_string();
        let reparsed = parse_query(&text).unwrap();
        prop_assert_eq!(q, reparsed);
    }

    /// Condition::evaluate agrees with the BoolExpr rendering under every
    /// (synthesized) truth assignment.
    #[test]
    fn condition_and_boolexpr_agree(c in arb_condition(), mask in any::<u32>()) {
        let atoms = c.conditional_atoms();
        let phi = c.to_bool_expr(&atoms);
        let truth = |i: usize| mask & (1 << (i % 32)) != 0;
        let direct = c.evaluate(&|a: &Atom| {
            let i = atoms.iter().position(|x| *x == a).unwrap();
            truth(i)
        });
        prop_assert_eq!(direct, phi.evaluate(&truth));
    }

    /// De Morgan: ¬(A ∧ B) ≡ ¬A ∨ ¬B under every assignment.
    #[test]
    fn de_morgan(a in arb_condition(), b in arb_condition(), mask in any::<u32>()) {
        let lhs = Condition::And(Box::new(a.clone()), Box::new(b.clone())).negated();
        let rhs = Condition::Or(
            Box::new(a.negated()),
            Box::new(b.negated()),
        );
        let atoms_l = lhs.conditional_atoms();
        let truth = |atom: &Atom| {
            let i = atoms_l.iter().position(|x| *x == atom).unwrap_or(31);
            mask & (1 << (i % 32)) != 0
        };
        prop_assert_eq!(lhs.evaluate(&truth), rhs.evaluate(&truth));
    }

    /// Every enumerated multiway topological sort of a random DAG-shaped
    /// program validates, and the greedy/level/sequential sorts are among
    /// the valid ones.
    #[test]
    fn sorts_are_valid(edges in proptest::collection::vec((0usize..5, 0usize..5), 0..8)) {
        // Build a 5-query program whose dependencies follow (i < j) edges.
        let mut uses: Vec<Vec<usize>> = vec![Vec::new(); 5];
        for (a, b) in edges {
            let (lo, hi) = (a.min(b), a.max(b));
            if lo != hi {
                uses[hi].push(lo);
            }
        }
        let mut text = String::new();
        for (j, deps) in uses.iter().enumerate() {
            let mut conds: Vec<String> = deps.iter().map(|d| format!("Z{d}(x)")).collect();
            conds.push(format!("S{j}(x)"));
            text.push_str(&format!(
                "Z{j} := SELECT x FROM R{j}(x, y) WHERE {};\n",
                conds.join(" AND ")
            ));
        }
        let program: SgfQuery = parse_program(&text).unwrap();
        let graph = DependencyGraph::new(&program);
        graph.validate_sort(&graph.sequential_sort()).unwrap();
        graph.validate_sort(&graph.level_sort()).unwrap();
        for sort in graph.all_multiway_sorts() {
            graph.validate_sort(&sort).unwrap();
        }
    }

    /// Atom conformance implies the substitution is well-defined and
    /// projection onto the join key never panics.
    #[test]
    fn conforming_tuples_project(vals in proptest::collection::vec(0i64..4, 4)) {
        let guard = Atom::vars("R", &VARS);
        let t = crate::parse_query("Q := SELECT x FROM R(x, y, z, w);").unwrap();
        let tuple = gumbo_common::Tuple::from_ints(&vals);
        prop_assert!(guard.conforms_tuple(&tuple));
        let proj = guard.project(&tuple, t.output_vars());
        prop_assert_eq!(proj.arity(), 1);
        // Substitution covers exactly the distinct variables.
        prop_assert_eq!(guard.substitution(&tuple).count(), 4);
    }
}
