//! 1-ROUND plans: MSJ + EVAL fused into a single job (§5.1, optimization 4).
//!
//! The paper names two triggers — every conditional atom of a query on one
//! join key, or a condition that is an OR of (possibly negated) atoms — and
//! both are one rule, [`QueryContext::fused_requests`]: split the condition
//! into its top-level disjuncts; when the atoms of every disjunct share one
//! non-empty join key, a guard tuple sends one request per distinct key,
//! and the reducer at that key decides the OR of that key's disjuncts from
//! the asserts present there. The query's answer is the union of what its
//! requests emit (set semantics deduplicate):
//!
//! * **same key**: one request per guard tuple, deciding all of `ϕ_C`;
//! * **disjunctive**, literals on distinct keys: one request per literal.
//!
//! The fused reducer writes the final output relations directly — no
//! second round, no `Xᵢ` intermediates.

use gumbo_common::{RelationName, Tuple};
use gumbo_mr::{
    Emitter, Group, Job, JobConfig, Mapper, Message, MsgView, Payload, PayloadView, Reducer,
};
use gumbo_sgf::{Atom, BoolExpr};

use crate::msj::present_asserts;
use crate::semijoin::{
    assert_projections, cond_groups, AssertProjection, FusedRequest, QueryContext, SemiJoin,
};

/// One request stream: guard tuples of query `query`, keyed on `key`
/// (coordinates within the guard) and decided by `formula` over the
/// job's assert groups.
#[derive(Debug, Clone)]
struct Request {
    query: u32,
    key: Vec<usize>,
    formula: BoolExpr,
}

/// A query's guard and the coordinates of its output variables in it.
#[derive(Debug, Clone)]
struct FusedGuard {
    atom: Atom,
    output: Vec<usize>,
}

struct OneRoundMapper {
    guards: Vec<FusedGuard>,
    requests: Vec<Request>,
    asserts: Vec<AssertProjection>,
}

impl Mapper for OneRoundMapper {
    fn map(&self, relation: &RelationName, tuple: &Tuple, _index: u64, out: &mut Emitter<'_>) {
        for (r, req) in self.requests.iter().enumerate() {
            let guard = &self.guards[req.query as usize];
            if guard.atom.conforms(relation, tuple) {
                out.project(
                    tuple,
                    &req.key,
                    Message::Req {
                        cond: r as u32,
                        payload: Payload::Tuple(tuple.project(&guard.output)),
                    },
                );
            }
        }
        for (g, (atom, key_positions)) in self.asserts.iter().enumerate() {
            if atom.conforms(relation, tuple) {
                out.project(tuple, key_positions, Message::Assert { cond: g as u32 });
            }
        }
    }
}

struct OneRoundReducer {
    /// Output relation per query.
    outputs: Vec<RelationName>,
    requests: Vec<Request>,
}

impl Reducer for OneRoundReducer {
    fn reduce(&self, group: &Group<'_>, emit: &mut dyn FnMut(&RelationName, Tuple)) {
        let present = present_asserts(group);
        for m in group.values() {
            if let MsgView::Req {
                cond,
                payload: PayloadView::Tuple(out),
            } = m
            {
                let req = &self.requests[cond as usize];
                if req.formula.evaluate(&|g| present.contains(g as u32)) {
                    emit(&self.outputs[req.query as usize], out.to_tuple());
                }
            }
        }
    }
}

/// Build the fused 1-ROUND job for a whole query set, sending `fused`: the
/// set's [`QueryContext::fused_requests`].
pub fn build_one_round_job(
    ctx: &QueryContext,
    fused: &[Vec<FusedRequest>],
    config: JobConfig,
) -> Job {
    let sjs: Vec<&SemiJoin> = ctx.semijoins().iter().collect();
    let (asserts, assignment) = cond_groups(&sjs);
    let mut guards = Vec::with_capacity(ctx.queries().len());
    let mut requests = Vec::new();
    for (j, (q, query_requests)) in ctx.queries().iter().zip(fused).enumerate() {
        for req in query_requests {
            requests.push(Request {
                query: j as u32,
                key: q.guard().projection(&req.key),
                formula: req.formula.map_vars(&|sj| assignment[&sj]),
            });
        }
        guards.push(FusedGuard {
            atom: q.guard().clone(),
            output: q.guard().projection(q.output_vars()),
        });
    }

    let mut inputs: Vec<RelationName> = Vec::new();
    let read = (guards.iter().map(|g| &g.atom)).chain(asserts.iter().map(|(a, _)| a));
    for atom in read {
        if !inputs.contains(atom.relation()) {
            inputs.push(atom.relation().clone());
        }
    }
    let outputs: Vec<RelationName> = ctx.queries().iter().map(|q| q.output().clone()).collect();
    let names: Vec<&str> = outputs.iter().map(RelationName::as_str).collect();
    let name = format!("1ROUND({})", names.join(","));
    let arities = (outputs.iter().zip(&guards))
        .map(|(o, g)| (o.clone(), g.output.len()))
        .collect();
    Job {
        name,
        inputs,
        outputs: arities,
        mapper: Box::new(OneRoundMapper {
            guards,
            requests: requests.clone(),
            asserts: assert_projections(&asserts),
        }),
        reducer: Box::new(OneRoundReducer { outputs, requests }),
        config,
        estimate: None,
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use gumbo_common::{Database, Fact, Relation};
    use gumbo_mr::{EngineConfig, ExecutorKind, MrProgram};
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::SimDfs;
    use proptest::prelude::*;

    fn db(facts: &[(&str, &[i64])], arities: &[(&str, usize)]) -> Database {
        let mut db = Database::new();
        for (name, arity) in arities {
            db.add_relation(Relation::new(*name, *arity));
        }
        for (rel, t) in facts {
            db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
                .unwrap();
        }
        db
    }

    fn run_fused(job: Job, database: &Database) -> SimDfs {
        let dfs = SimDfs::from_database(database);
        let mut program = MrProgram::new();
        program.push_job(job);
        // Fused 1-ROUND jobs run on the multi-threaded runtime here, so
        // every naive-evaluator comparison below also covers it.
        ExecutorKind::Parallel { threads: 2 }
            .build(EngineConfig::unscaled())
            .execute(&dfs, &program)
            .unwrap();
        dfs
    }

    /// Fuse the query `text`, run it over `d` and compare with the naive
    /// evaluator; returns the query's number of requests and its answer.
    fn check_fused(text: &str, d: &Database) -> (usize, Relation) {
        let q = parse_query(text).unwrap();
        let expected = NaiveEvaluator::new().evaluate_bsgf(&q, d).unwrap();
        let ctx = QueryContext::new(vec![q.clone()]).unwrap();
        let requests = ctx.fused_requests().expect("fusible");
        let job = build_one_round_job(&ctx, &requests, JobConfig::default());
        let dfs = run_fused(job, d);
        assert_eq!(dfs.peek(q.output()).unwrap().as_ref(), &expected, "{text}");
        (requests[0].len(), expected)
    }

    /// Fuse the set of queries `texts` and compare every output with the
    /// naive evaluator; returns the job's name and inputs.
    fn check_fused_set(texts: &[&str], d: &Database) -> (String, Vec<RelationName>) {
        let qs: Vec<_> = texts.iter().map(|t| parse_query(t).unwrap()).collect();
        let naive = NaiveEvaluator::new();
        let expected: Vec<Relation> = (qs.iter())
            .map(|q| naive.evaluate_bsgf(q, d).unwrap())
            .collect();
        let ctx = QueryContext::new(qs.clone()).unwrap();
        let job = build_one_round_job(&ctx, &ctx.fused_requests().unwrap(), JobConfig::default());
        let (name, inputs) = (job.name.clone(), job.inputs.clone());
        let dfs = run_fused(job, d);
        for (q, e) in qs.iter().zip(&expected) {
            assert!(!e.is_empty(), "{}", q.output());
            assert_eq!(dfs.peek(q.output()).unwrap().as_ref(), e);
        }
        (name, inputs)
    }

    #[test]
    fn same_key_fusion_matches_naive() {
        // A3 shape with mixed AND/OR/NOT, all on key x: one request.
        let d = db(
            &[
                ("R", &[1, 10]),
                ("R", &[2, 20]),
                ("R", &[3, 30]),
                ("S", &[1]),
                ("S", &[2]),
                ("T", &[1]),
                ("U", &[2]),
            ],
            &[("R", 2), ("S", 1), ("T", 1), ("U", 1)],
        );
        let text = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND (T(x) OR NOT U(x));";
        let (requests, expected) = check_fused(text, &d);
        assert_eq!(requests, 1);
        // R(1,10) only: R(2,20) has U(2) and no T(2), R(3,30) no S(3).
        assert_eq!(expected.len(), 1);
        assert!(expected.contains(&Tuple::from_ints(&[1, 10])));
    }

    #[test]
    fn same_key_rejects_mixed_keys() {
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        assert!(ctx.fused_requests().is_none());
    }

    #[test]
    fn b2_uniqueness_query_fused() {
        // B2: tuples connected to exactly one of S,T via x (reduced form).
        // Both disjuncts are on x, so they share one request.
        let d = db(
            &[
                ("R", &[1, 0]), // only S -> in
                ("R", &[2, 0]), // only T -> in
                ("R", &[3, 0]), // both -> out
                ("R", &[4, 0]), // neither -> out
                ("S", &[1]),
                ("S", &[3]),
                ("T", &[2]),
                ("T", &[3]),
            ],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        let text = "Z := SELECT (x, y) FROM R(x, y) WHERE \
                    (S(x) AND NOT T(x)) OR (NOT S(x) AND T(x));";
        let (requests, expected) = check_fused(text, &d);
        assert_eq!(requests, 1);
        assert_eq!(expected.len(), 2);
    }

    #[test]
    fn disjunctive_fusion_matches_naive() {
        // C4 shape: OR over different keys, with a negated literal. The
        // two literals on x share a request; NOT T(y) has its own.
        let d = db(
            &[
                ("R", &[1, 10]), // S(1) -> in
                ("R", &[2, 20]), // T(20) present, no S/U -> out
                ("R", &[3, 30]), // no T(30) -> in via NOT T
                ("S", &[1]),
                ("T", &[10]),
                ("T", &[20]),
            ],
            &[("R", 2), ("S", 1), ("T", 1), ("U", 1)],
        );
        let text = "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR NOT T(y) OR U(x);";
        let (requests, expected) = check_fused(text, &d);
        assert_eq!(requests, 2);
        // R(1,10): T(10) holds so NOT T fails, but S fires -> included once.
        assert!(expected.contains(&Tuple::from_ints(&[1, 10])));
    }

    #[test]
    fn disjunctive_rejects_conjunctions() {
        for text in [
            // A disjunct that joins on two keys.
            "Z := SELECT (x, y) FROM R(x, y) WHERE (S(x) AND T(y)) OR U(x);",
            // NOT over a disjunction is one disjunct over two keys.
            "Z := SELECT (x, y) FROM R(x, y) WHERE NOT (S(x) OR T(y));",
            // An atom that shares no variable with the guard.
            "Z := SELECT x FROM R(x) WHERE S(x) OR T(q);",
            // No condition at all.
            "Z := SELECT x FROM R(x);",
        ] {
            let ctx = QueryContext::new(vec![parse_query(text).unwrap()]).unwrap();
            assert!(ctx.fused_requests().is_none(), "{text}");
        }
    }

    #[test]
    fn multi_query_same_key_fusion() {
        // Two A3-like queries fused into one job, sharing S's assert stream.
        let d = db(
            &[
                ("R", &[1, 0]),
                ("R", &[2, 0]),
                ("G", &[1, 5]),
                ("G", &[9, 5]),
                ("S", &[1]),
                ("S", &[2]),
                ("T", &[1]),
            ],
            &[("R", 2), ("G", 2), ("S", 1), ("T", 1)],
        );
        let (_, inputs) = check_fused_set(
            &[
                "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(x);",
                "Z2 := SELECT (x, y) FROM G(x, y) WHERE S(x);",
            ],
            &d,
        );
        assert_eq!(inputs, ["R", "G", "S", "T"].map(RelationName::from));
    }

    #[test]
    fn multi_query_fusion_mixes_both_shapes() {
        // A same-key and a disjunctive query in one job, sharing S's
        // assert stream.
        let d = db(
            &[
                ("R", &[1, 0]),
                ("R", &[2, 0]),
                ("G", &[1, 5]),
                ("G", &[9, 2]),
                ("G", &[9, 5]),
                ("S", &[1]),
                ("S", &[2]),
                ("T", &[1]),
                ("T", &[2]),
            ],
            &[("R", 2), ("G", 2), ("S", 1), ("T", 1)],
        );
        let (name, inputs) = check_fused_set(
            &[
                "Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(x);",
                "Z2 := SELECT (x, y) FROM G(x, y) WHERE S(x) OR T(y);",
            ],
            &d,
        );
        assert_eq!(name, "1ROUND(Z1,Z2)");
        assert_eq!(inputs, ["R", "G", "S", "T"].map(RelationName::from));
    }

    /// A condition over `S`, `T` and `U` atoms on the placeholder key
    /// `{k}`, under NOT, AND and OR.
    fn arb_same_key_part() -> impl Strategy<Value = String> {
        let leaf = (0usize..3).prop_map(|r| format!("{}({{k}})", ["S", "T", "U"][r]));
        leaf.prop_recursive(2, 6, 2, |inner| {
            prop_oneof![
                inner.clone().prop_map(|c| format!("(NOT {c})")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} AND {b})")),
                (inner.clone(), inner).prop_map(|(a, b)| format!("({a} OR {b})")),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An OR of same-key parts on random keys — the paper's two
        /// triggers and everything between — fuses into one request per
        /// distinct key and agrees with the naive evaluator.
        #[test]
        fn or_of_same_key_parts_fuses_correctly(
            parts in proptest::collection::vec((arb_same_key_part(), 0usize..2), 1..4),
            rows in proptest::collection::vec((0i64..5, 0i64..5), 1..24),
            conds in proptest::collection::vec((0usize..3, 0i64..5), 0..9),
        ) {
            let keys: BTreeSet<usize> = parts.iter().map(|(_, k)| *k).collect();
            let condition: Vec<String> =
                parts.iter().map(|(p, k)| p.replace("{k}", ["x", "y"][*k])).collect();
            let text =
                format!("Z := SELECT (x, y) FROM R(x, y) WHERE {};", condition.join(" OR "));
            let mut d = db(&[], &[("R", 2), ("S", 1), ("T", 1), ("U", 1)]);
            for &(x, y) in &rows {
                d.insert_fact(Fact::new("R", Tuple::from_ints(&[x, y]))).unwrap();
            }
            for &(r, v) in &conds {
                d.insert_fact(Fact::new(["S", "T", "U"][r], Tuple::from_ints(&[v])))
                    .unwrap();
            }
            prop_assert_eq!(check_fused(&text, &d).0, keys.len(), "{}", text);
        }
    }
}
