//! The request/assert operator: the `MSJ(S)` job of Algorithm 1 (§4.1)
//! and the fused 1-ROUND job of §5.1 (4), one map/reduce pattern.
//!
//! A job is a list of requests plus the assert groups their formulas
//! read:
//!
//! * the mapper emits, for every fact conforming to the guard of request
//!   `r`, a request `⟨π_key(f) : [Req r; Out payload]⟩`, and for every
//!   fact conforming to the atom of assert group `g` an assert
//!   `⟨π_key(f) : [Assert g]⟩`;
//! * the reducer writes a request's payload into the request's target iff
//!   the request's formula holds over the assert groups present at its key.
//!
//! The two jobs are two ways of filling the request list:
//!
//! * **MSJ** ([`build_msj_job`]): one request per semi-join
//!   `Xᵢ := α ⋉ κᵢ`, keyed on its join key, with formula `Var(g)` for
//!   `κᵢ`'s assert group and target `Xᵢ`. The payload is the guard identity
//!   tuple or a `(guard, id)` reference (§5.1 (2)), per [`PayloadMode`].
//! * **1-ROUND** ([`build_one_round_job`]): the set's
//!   [`QueryContext::fused_requests`]. A query fuses when the atoms of every
//!   top-level disjunct of its condition share one non-empty join key; each
//!   distinct key is one request deciding the OR of that key's disjuncts,
//!   with the guard's output projection as payload and the query's output
//!   as target. The paper's two triggers are the ends of this rule: every
//!   atom on one key is one request, an OR of literals on distinct keys is
//!   one request per literal. The answer is the union of what a query's
//!   requests emit (set semantics deduplicate), so no second round and no
//!   `Xᵢ` intermediates are needed.
//!
//! Semi-joins whose `(κ, z̄)` coincide (e.g. the two queries of A5) share a
//! single assert stream (`cond_groups`). When every formula is false with
//! no assert present — always so for MSJ — the reducer skips a group
//! without asserts before reading its requests.

use gumbo_common::{RelationName, TupleView};
use gumbo_mr::{
    Emitter, Group, IdSet, Job, JobConfig, Mapper, MsgRef, MsgView, OutputSink, Reducer,
};
use gumbo_sgf::{Atom, BoolExpr};

use crate::plan::PayloadMode;
use crate::semijoin::{
    assert_projections, atoms_by_input, cond_groups, AssertProjection, FusedRequest, QueryContext,
    SemiJoin,
};

/// What a request carries to its target.
#[derive(Debug, Clone)]
pub(crate) enum RequestPayload {
    /// The guard fact projected on these coordinates.
    Project(Vec<usize>),
    /// A `(guard, id)` reference to the guard fact (§5.1 (2)).
    Reference(u32),
}

impl RequestPayload {
    /// Arity of the tuple the payload stores in the target.
    pub(crate) fn arity(&self) -> usize {
        match self {
            RequestPayload::Project(coords) => coords.len(),
            RequestPayload::Reference(_) => 2,
        }
    }
}

/// One request stream: facts conforming to `guard` send `payload` to `key`
/// (coordinates within the guard), where the reducer writes it to `target`
/// when `formula` holds over the job's assert groups.
#[derive(Debug, Clone)]
pub(crate) struct Request {
    pub(crate) guard: Atom,
    pub(crate) key: Vec<usize>,
    pub(crate) payload: RequestPayload,
    pub(crate) target: RelationName,
    pub(crate) formula: BoolExpr,
}

/// A request/assert job before it is lowered: the one description the job
/// builders and the estimator read.
#[derive(Debug)]
pub(crate) struct RequestJob {
    /// The job name's prefix: `MSJ` or `1ROUND`.
    kind: &'static str,
    /// In `cond` order; the requests of one target are adjacent.
    pub(crate) requests: Vec<Request>,
    /// The assert groups, in `cond` order, keyed on coordinates within
    /// their atom.
    pub(crate) asserts: Vec<AssertProjection>,
}

impl RequestJob {
    /// `MSJ(group)`: one single-atom request per semi-join of `group`.
    pub(crate) fn msj(ctx: &QueryContext, group: &[usize], mode: PayloadMode) -> RequestJob {
        let sjs: Vec<&SemiJoin> = group.iter().map(|&i| ctx.semijoin(i)).collect();
        let (asserts, assignment) = cond_groups(&sjs);
        let requests = (sjs.iter())
            .map(|sj| Request {
                guard: sj.guard.clone(),
                key: sj.guard.projection(&sj.join_key),
                payload: match mode {
                    PayloadMode::Full => {
                        RequestPayload::Project(sj.guard.projection(&sj.identity_vars))
                    }
                    PayloadMode::Reference => RequestPayload::Reference(sj.query_idx as u32),
                },
                target: sj.x_name.clone(),
                formula: BoolExpr::Var(assignment[&sj.id]),
            })
            .collect();
        RequestJob {
            kind: "MSJ",
            requests,
            asserts: assert_projections(&asserts),
        }
    }

    /// The fused 1-ROUND job of the whole set, sending `fused`.
    pub(crate) fn one_round(ctx: &QueryContext, fused: &[Vec<FusedRequest>]) -> RequestJob {
        let sjs: Vec<&SemiJoin> = ctx.semijoins().iter().collect();
        let (asserts, assignment) = cond_groups(&sjs);
        let mut requests = Vec::new();
        for (q, query_requests) in ctx.queries().iter().zip(fused) {
            let output = q.guard().projection(q.output_vars());
            for req in query_requests {
                requests.push(Request {
                    guard: q.guard().clone(),
                    key: q.guard().projection(&req.key),
                    payload: RequestPayload::Project(output.clone()),
                    target: q.output().clone(),
                    formula: req.formula.map_vars(&|sj| assignment[&sj]),
                });
            }
        }
        RequestJob {
            kind: "1ROUND",
            requests,
            asserts: assert_projections(&asserts),
        }
    }

    /// Every relation the job reads, once: request guards first, then
    /// assert atoms. A relation that guards several requests and/or
    /// asserts is still read once — the point of grouping.
    pub(crate) fn inputs(&self) -> Vec<RelationName> {
        let mut inputs: Vec<RelationName> = Vec::new();
        let atoms =
            (self.requests.iter().map(|r| &r.guard)).chain(self.asserts.iter().map(|a| &a.0));
        for atom in atoms {
            if !inputs.contains(atom.relation()) {
                inputs.push(atom.relation().clone());
            }
        }
        inputs
    }

    /// The requests of each target relation, in target order.
    pub(crate) fn targets(&self) -> impl Iterator<Item = &[Request]> + '_ {
        self.requests.chunk_by(|a, b| a.target == b.target)
    }

    /// Whether every formula is false with no assert present, so a reduce
    /// group without asserts emits nothing.
    fn needs_assert(&self) -> bool {
        (self.requests.iter()).all(|r| !r.formula.evaluate(&|_| false))
    }

    fn into_job(self, config: JobConfig) -> Job {
        let inputs = self.inputs();
        let outputs: Vec<(RelationName, usize)> = (self.targets())
            .map(|run| (run[0].target.clone(), run[0].payload.arity()))
            .collect();
        let names: Vec<&str> = outputs.iter().map(|(o, _)| o.as_str()).collect();
        let name = format!("{}({})", self.kind, names.join(","));
        let needs_assert = self.needs_assert();
        // Per input, the requests and assert groups whose atom names it.
        let requests = atoms_by_input(&inputs, self.requests.iter().map(|r| &r.guard));
        let asserts = atoms_by_input(&inputs, self.asserts.iter().map(|(atom, _)| atom));
        let by_input: Vec<(Vec<u32>, Vec<u32>)> = requests.into_iter().zip(asserts).collect();
        // Per input, the key arity of each request and assert whose atom
        // every fact of the input conforms to.
        let certain = (by_input.iter())
            .map(|(requests, asserts)| {
                let requests = (requests.iter()).map(|&r| &self.requests[r as usize]);
                let asserts = (asserts.iter()).map(|&g| &self.asserts[g as usize]);
                (requests.map(|r| (&r.guard, r.key.len())))
                    .chain(asserts.map(|(atom, key)| (atom, key.len())))
                    .filter(|(atom, _)| atom.is_unconstrained())
                    .map(|(_, arity)| arity)
                    .collect()
            })
            .collect();
        let slots = (self.requests.iter())
            .map(|r| {
                outputs
                    .iter()
                    .position(|(o, _)| *o == r.target)
                    .expect("declared target")
            })
            .collect();
        Job {
            name,
            inputs,
            outputs,
            mapper: Box::new(RequestMapper {
                requests: self.requests.clone(),
                asserts: self.asserts,
                by_input,
                certain,
            }),
            reducer: Box::new(RequestReducer {
                requests: self.requests,
                slots,
                needs_assert,
            }),
            config,
            estimate: None,
        }
    }
}

struct RequestMapper {
    requests: Vec<Request>,
    asserts: Vec<AssertProjection>,
    /// Per job input: the requests it guards and the assert groups it
    /// feeds, by index.
    by_input: Vec<(Vec<u32>, Vec<u32>)>,
    /// Per job input: the key arity of each pair every fact of it emits —
    /// its requests and asserts whose atom has no constant and no repeated
    /// variable.
    certain: Vec<Vec<usize>>,
}

impl Mapper for RequestMapper {
    fn certain_pairs(&self, input: usize) -> &[usize] {
        &self.certain[input]
    }

    fn map(&self, input: usize, tuple: TupleView<'_>, index: u64, out: &mut Emitter<'_>) {
        let (requests, asserts) = &self.by_input[input];
        for &r in requests {
            let req = &self.requests[r as usize];
            if req.guard.conforms_view(tuple) {
                let msg = match &req.payload {
                    RequestPayload::Project(coords) => MsgRef::Req {
                        cond: r,
                        tuple,
                        positions: coords,
                    },
                    RequestPayload::Reference(guard) => MsgRef::ReqRef {
                        cond: r,
                        guard: *guard,
                        id: index,
                    },
                };
                out.project(tuple, &req.key, msg);
            }
        }
        for &g in asserts {
            let (atom, key) = &self.asserts[g as usize];
            if atom.conforms_view(tuple) {
                out.project(tuple, key, MsgRef::Assert { cond: g });
            }
        }
    }
}

struct RequestReducer {
    requests: Vec<Request>,
    /// Each request's target, as its output slot.
    slots: Vec<usize>,
    /// Every formula is false when no assert is present.
    needs_assert: bool,
}

impl Reducer for RequestReducer {
    fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>) {
        let present: IdSet = (group.values())
            .filter_map(|v| match v {
                MsgView::Assert { cond } => Some(cond),
                _ => None,
            })
            .collect();
        if self.needs_assert && present.is_empty() {
            return;
        }
        for v in group.values() {
            if let MsgView::Req { cond, payload } = v {
                let req = &self.requests[cond as usize];
                if req.formula.evaluate(&|g| present.contains(g as u32)) {
                    out.payload(self.slots[cond as usize], payload);
                }
            }
        }
    }
}

/// Arity of the `Xᵢ` relation for a semi-join under a payload mode.
pub(crate) fn x_arity(sj: &SemiJoin, mode: PayloadMode) -> usize {
    match mode {
        PayloadMode::Full => sj.identity_vars.len(),
        PayloadMode::Reference => 2,
    }
}

/// Build the `MSJ` job for a group of semi-joins (ids into `ctx`).
pub fn build_msj_job(
    ctx: &QueryContext,
    group: &[usize],
    mode: PayloadMode,
    config: JobConfig,
) -> Job {
    RequestJob::msj(ctx, group, mode).into_job(config)
}

/// Build the fused 1-ROUND job for a whole query set, sending `fused`: the
/// set's [`QueryContext::fused_requests`].
pub fn build_one_round_job(
    ctx: &QueryContext,
    fused: &[Vec<FusedRequest>],
    config: JobConfig,
) -> Job {
    RequestJob::one_round(ctx, fused).into_job(config)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use gumbo_common::{Database, Fact, Relation, Tuple};
    use gumbo_mr::{EngineConfig, ExecutorKind, MrProgram};
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::{Dfs, SimDfs};
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

    fn dfs_with(facts: &[(&str, &[i64])], arities: &[(&str, usize)]) -> SimDfs {
        SimDfs::from_database(&db(facts, arities))
    }

    fn run_msj(ctx: &QueryContext, group: &[usize], mode: PayloadMode, dfs: &SimDfs) {
        let job = build_msj_job(ctx, group, mode, JobConfig::default());
        let executor = ExecutorKind::default().build(EngineConfig::unscaled());
        let mut program = MrProgram::new();
        program.push_job(job);
        executor.execute(dfs, &program).unwrap();
    }

    #[test]
    fn msj_computes_multiple_semijoins_in_one_job() {
        // Q from §1: X1 = R ⋉ S(x,y), X2 = R ⋉ S(y,x), X3 = R ⋉ T(x,z).
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);")
                .unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[
                ("R", &[1, 2]),
                ("R", &[3, 4]),
                ("S", &[1, 2]), // matches X1 for R(1,2)
                ("S", &[4, 3]), // matches X2 for R(3,4)
                ("T", &[1, 7]), // matches X3 for R(1,2)
            ],
            &[("R", 2), ("S", 2), ("T", 2)],
        );
        run_msj(&ctx, &[0, 1, 2], PayloadMode::Full, &dfs);
        let x1 = dfs.peek(&"Z#X0".into()).unwrap();
        let x2 = dfs.peek(&"Z#X1".into()).unwrap();
        let x3 = dfs.peek(&"Z#X2".into()).unwrap();
        assert!(x1.contains(&Tuple::from_ints(&[1, 2])));
        assert_eq!(x1.len(), 1);
        assert!(x2.contains(&Tuple::from_ints(&[3, 4])));
        assert_eq!(x2.len(), 1);
        assert!(x3.contains(&Tuple::from_ints(&[1, 2])));
        assert_eq!(x3.len(), 1);
    }

    #[test]
    fn msj_matches_naive_semijoin_semantics() {
        let q = parse_query("Z := SELECT x FROM R(x, z) WHERE S(z, y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        // Example 3 data.
        let dfs = dfs_with(
            &[("R", &[1, 2]), ("R", &[4, 5]), ("S", &[2, 3])],
            &[("R", 2), ("S", 2)],
        );
        run_msj(&ctx, &[0], PayloadMode::Full, &dfs);
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        // Identity tuples of matching guards: (1, 2).
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[1, 2])));
    }

    #[test]
    fn reference_mode_stores_guard_ids() {
        let q = parse_query("Z := SELECT x FROM R(x, z) WHERE S(z, y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[("R", &[1, 2]), ("R", &[4, 5]), ("S", &[2, 3])],
            &[("R", 2), ("S", 2)],
        );
        run_msj(&ctx, &[0], PayloadMode::Reference, &dfs);
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        // R(1,2) is index 0 in R's canonical order; guard_idx = 0.
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[0, 0])));
        assert_eq!(x.arity(), 2);
    }

    #[test]
    fn shared_guard_relation_read_once() {
        // A1-style: four semi-joins over the same guard; R, S, T in inputs once.
        let q =
            parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND S(y) AND T(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let job = build_msj_job(&ctx, &[0, 1, 2], PayloadMode::Full, JobConfig::default());
        let names: Vec<String> = job.inputs.iter().map(|r| r.to_string()).collect();
        assert_eq!(names, vec!["R", "S", "T"]);
    }

    #[test]
    fn partial_groups_compute_only_their_semijoins() {
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[("R", &[1, 2]), ("S", &[1]), ("T", &[2])],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        run_msj(&ctx, &[1], PayloadMode::Full, &dfs);
        assert!(dfs.exists(&"Z#X1".into()));
        assert!(!dfs.exists(&"Z#X0".into()));
    }

    #[test]
    fn empty_conditional_relation_yields_empty_x() {
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(&[("R", &[1])], &[("R", 1), ("S", 1)]);
        run_msj(&ctx, &[0], PayloadMode::Full, &dfs);
        assert_eq!(dfs.peek(&"Z#X0".into()).unwrap().len(), 0);
    }

    #[test]
    fn asserts_do_not_leak_across_distinct_conditionals() {
        // S(x) and T(x) share the join key x, but an S-assert must not
        // satisfy a T-request with the same key value.
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x) AND T(x);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(&[("R", &[5]), ("S", &[5])], &[("R", 1), ("S", 1), ("T", 1)]);
        run_msj(&ctx, &[0, 1], PayloadMode::Full, &dfs);
        assert_eq!(dfs.peek(&"Z#X0".into()).unwrap().len(), 1);
        assert_eq!(dfs.peek(&"Z#X1".into()).unwrap().len(), 0);
    }

    #[test]
    fn constants_in_conditionals_filter_asserts() {
        // κ = S(x, 9): only S facts with second field 9 assert.
        let q = parse_query("Z := SELECT x FROM R(x) WHERE S(x, 9);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let dfs = dfs_with(
            &[("R", &[1]), ("R", &[2]), ("S", &[1, 9]), ("S", &[2, 8])],
            &[("R", 1), ("S", 2)],
        );
        run_msj(&ctx, &[0], PayloadMode::Full, &dfs);
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[1])));
    }

    #[test]
    fn only_msj_style_formulas_skip_groups_without_asserts() {
        // MSJ's Var(g) and a monotone fused formula are false with no
        // assert present; a negated literal is not.
        let ctx = |text: &str| QueryContext::new(vec![parse_query(text).unwrap()]).unwrap();
        let c = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);");
        assert!(RequestJob::msj(&c, &[0, 1], PayloadMode::Full).needs_assert());
        let same_key = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(x);");
        let fused = same_key.fused_requests().unwrap();
        assert!(RequestJob::one_round(&same_key, &fused).needs_assert());
        let negated = ctx("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) OR NOT T(y);");
        let fused = negated.fused_requests().unwrap();
        assert!(!RequestJob::one_round(&negated, &fused).needs_assert());
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
