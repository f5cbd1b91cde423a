//! Naive reference evaluator for BSGF and SGF queries.
//!
//! This is a direct transcription of the semantics of §3.1: for every guard
//! fact and induced substitution `σ`, evaluate the Boolean condition, where
//! an atom `T(v̄)` holds iff `σ(t̄) ∈ R(t̄) ⋉ T(v̄)`. It is deliberately
//! simple — it exists as ground truth for testing every MapReduce strategy
//! (the integration suite asserts all strategies coincide with it).
//!
//! For speed on the test workloads it indexes each conditional atom's
//! conforming facts by join key, making evaluation `O(|guard| · |C|)` after
//! one pass over the conditional relations.

use std::collections::HashSet;

use gumbo_common::{Database, Relation, Result, Tuple};

use crate::atom::Atom;
use crate::query::{BsgfQuery, SgfQuery};
use crate::term::Var;

/// Reference evaluator.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveEvaluator;

impl NaiveEvaluator {
    /// Create a reference evaluator.
    pub fn new() -> Self {
        NaiveEvaluator
    }

    /// Evaluate one BSGF query against a database, producing its output
    /// relation `Z`.
    pub fn evaluate_bsgf(&self, query: &BsgfQuery, db: &Database) -> Result<Relation> {
        let guard = query.guard();
        let guard_rel = db.relation_or_err(guard.relation())?;

        // Pre-index each conditional atom: the set of join-key projections
        // of facts conforming to it. An atom with an empty join key (no
        // variables shared with the guard) degenerates to a non-emptiness
        // test, which the same index handles via the 0-ary key.
        let cond_atoms = query.conditional_atoms();
        let indexes: Vec<(Vec<Var>, HashSet<Tuple>)> = cond_atoms
            .iter()
            .map(|atom| {
                let key = guard.join_key(atom);
                let mut set = HashSet::new();
                if let Some(rel) = db.relation(atom.relation()) {
                    if rel.arity() == atom.arity() {
                        let positions = atom.projection(&key);
                        for t in rel.iter() {
                            if atom.conforms_view(t) {
                                set.insert(t.project(&positions));
                            }
                        }
                    }
                }
                (key, set)
            })
            .collect();

        let mut out = Vec::new();
        for tuple in guard_rel.iter() {
            if !guard.conforms_view(tuple) {
                continue;
            }
            let tuple = &tuple.to_tuple();
            let holds = match query.condition() {
                None => true,
                Some(cond) => cond.evaluate(&|atom: &Atom| {
                    let i = cond_atoms
                        .iter()
                        .position(|a| *a == atom)
                        .expect("atom from this condition");
                    let (key, set) = &indexes[i];
                    set.contains(&guard.project(tuple, key))
                }),
            };
            if holds {
                out.push(guard.project(tuple, query.output_vars()));
            }
        }
        Relation::from_tuples(query.output().clone(), query.output_arity(), out)
    }

    /// Evaluate a full SGF query bottom-up, returning the database extended
    /// with *all* intermediate outputs `Z₁, …, Zₙ`.
    pub fn evaluate_sgf_all(&self, query: &SgfQuery, db: &Database) -> Result<Database> {
        let mut env = db.clone();
        for q in query.queries() {
            let rel = self.evaluate_bsgf(q, &env)?;
            env.add_relation(rel);
        }
        Ok(env)
    }

    /// Evaluate a full SGF query and return only its final output `Zₙ`.
    pub fn evaluate_sgf(&self, query: &SgfQuery, db: &Database) -> Result<Relation> {
        let env = self.evaluate_sgf_all(query, db)?;
        Ok(env
            .relation(query.output())
            .expect("final output was just computed")
            .clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query};
    use gumbo_common::Fact;

    fn db(facts: &[(&str, &[i64])]) -> Database {
        let mut db = Database::new();
        for (rel, t) in facts {
            db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
                .unwrap();
        }
        db
    }

    #[test]
    fn example3_semijoin() {
        // Z := π_x(R(x,z) ⋉ S(z,y)) on {R(1,2), R(4,5), S(2,3)} = {Z(1)}.
        let q = parse_query("Z := SELECT x FROM R(x, z) WHERE S(z, y);").unwrap();
        let d = db(&[("R", &[1, 2]), ("R", &[4, 5]), ("S", &[2, 3])]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[1])));
    }

    #[test]
    fn intersection_and_difference() {
        let d = db(&[("R", &[1]), ("R", &[2]), ("S", &[2]), ("S", &[3])]);
        let inter = parse_query("Z := SELECT x FROM R(x) WHERE S(x);").unwrap();
        let diff = parse_query("Z := SELECT x FROM R(x) WHERE NOT S(x);").unwrap();
        let e = NaiveEvaluator::new();
        let zi = e.evaluate_bsgf(&inter, &d).unwrap();
        assert_eq!(zi.len(), 1);
        assert!(zi.contains(&Tuple::from_ints(&[2])));
        let zd = e.evaluate_bsgf(&diff, &d).unwrap();
        assert_eq!(zd.len(), 1);
        assert!(zd.contains(&Tuple::from_ints(&[1])));
    }

    #[test]
    fn intro_query_with_disjunction() {
        // Q from §1: R(x,y) WHERE (S(x,y) OR S(y,x)) AND T(x,z).
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);")
                .unwrap();
        let d = db(&[
            ("R", &[1, 2]), // S(2,1) matches via S(y,x); T(1,9) exists -> in
            ("R", &[3, 4]), // no S -> out
            ("R", &[5, 6]), // S(5,6) matches but no T(5,_) -> out
            ("S", &[2, 1]),
            ("S", &[5, 6]),
            ("T", &[1, 9]),
        ]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[1, 2])));
    }

    #[test]
    fn constants_filter_guard_and_conditionals() {
        let q = parse_query("Z := SELECT x FROM R(x, 4) WHERE S(1, x);").unwrap();
        let d = db(&[
            ("R", &[7, 4]),
            ("R", &[8, 5]),
            ("S", &[1, 7]),
            ("S", &[2, 8]),
        ]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[7])));
    }

    #[test]
    fn repeated_vars_in_guard() {
        // Guard R(x, x) only admits diagonal tuples.
        let q = parse_query("Z := SELECT x FROM R(x, x);").unwrap();
        let d = db(&[("R", &[1, 1]), ("R", &[1, 2])]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[1])));
    }

    #[test]
    fn repeated_vars_in_conditional() {
        // Z4(x) := ... WHERE Z4-style diagonal conditional S(x, x).
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x, x);").unwrap();
        let d = db(&[("R", &[1]), ("R", &[2]), ("S", &[1, 1]), ("S", &[2, 3])]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[1])));
    }

    #[test]
    fn missing_conditional_relation_is_empty() {
        // Positive atom over a missing relation is false; negated is true.
        let d = db(&[("R", &[1])]);
        let e = NaiveEvaluator::new();
        let q = parse_query("Z := SELECT x FROM R(x) WHERE Smissing(x);").unwrap();
        assert_eq!(e.evaluate_bsgf(&q, &d).unwrap().len(), 0);
        let q = parse_query("Z := SELECT x FROM R(x) WHERE NOT Smissing(x);").unwrap();
        assert_eq!(e.evaluate_bsgf(&q, &d).unwrap().len(), 1);
    }

    #[test]
    fn missing_guard_relation_errors() {
        let q = parse_query("Z := SELECT x FROM Rmissing(x);").unwrap();
        assert!(NaiveEvaluator::new()
            .evaluate_bsgf(&q, &Database::new())
            .is_err());
    }

    #[test]
    fn example2_nested_negation() {
        // Book retailers (Example 2).
        let program = parse_program(
            r#"Z1 := SELECT aut FROM Amaz(ttl, aut, r) WHERE BN(ttl, aut, r) AND BD(ttl, aut, r);
               Z2 := SELECT (new, aut) FROM Upcoming(new, aut) WHERE NOT Z1(aut);"#,
        )
        .unwrap();
        let d = db(&[
            ("Amaz", &[10, 1, 0]),
            ("BN", &[10, 1, 0]),
            ("BD", &[10, 1, 0]), // author 1 has a bad rating everywhere
            ("Amaz", &[11, 2, 0]),
            ("BN", &[11, 2, 0]), // author 2 misses BD -> not in Z1
            ("Upcoming", &[100, 1]),
            ("Upcoming", &[101, 2]),
        ]);
        let out = NaiveEvaluator::new().evaluate_sgf(&program, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[101, 2])));
    }

    #[test]
    fn sgf_all_exposes_intermediates() {
        let program = parse_program(
            "Z1 := SELECT x FROM R(x) WHERE S(x);\n\
             Z2 := SELECT x FROM Z1(x) WHERE NOT T(x);",
        )
        .unwrap();
        let d = db(&[
            ("R", &[1]),
            ("R", &[2]),
            ("S", &[1]),
            ("S", &[2]),
            ("T", &[2]),
        ]);
        let env = NaiveEvaluator::new()
            .evaluate_sgf_all(&program, &d)
            .unwrap();
        assert_eq!(env.get("Z1").unwrap().len(), 2);
        assert_eq!(env.get("Z2").unwrap().len(), 1);
    }

    #[test]
    fn projection_duplicates_collapse() {
        // Two guard tuples project to the same output tuple.
        let q = parse_query("Z := SELECT x FROM R(x, y);").unwrap();
        let d = db(&[("R", &[1, 2]), ("R", &[1, 3])]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn star_semijoin_example1() {
        // Z6 := SELECT (x1,...,x4) FROM R(...) WHERE S(x1,y1) AND ... (Example 1).
        let q = parse_query(
            "Z := SELECT (x1, x2, x3, x4) FROM R(x1, x2, x3, x4) \
             WHERE S(x1, y1) AND S(x2, y2) AND S(x3, y3) AND S(x4, y4);",
        )
        .unwrap();
        let d = db(&[
            ("R", &[1, 2, 3, 4]),
            ("R", &[1, 2, 3, 9]),
            ("S", &[1, 0]),
            ("S", &[2, 0]),
            ("S", &[3, 0]),
            ("S", &[4, 0]),
        ]);
        let out = NaiveEvaluator::new().evaluate_bsgf(&q, &d).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Tuple::from_ints(&[1, 2, 3, 4])));
    }
}
