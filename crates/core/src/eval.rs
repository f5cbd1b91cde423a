//! The `EVAL` job: Boolean combinations of semi-join results (§4.3).
//!
//! `EVAL(Y₁, ϕ₁, …, Yₙ, ϕₙ)` evaluates several queries' Boolean formulas in
//! one job. For each query the mapper tags every guard tuple identity with
//! the relations `Xᵢ` it belongs to plus a guard-presence tag (the paper's
//! `X₀`); the reducer replays `X₀ ∧ ϕ` over the tag set and outputs the
//! `w̄`-projection of surviving guard tuples.
//!
//! In **reference** mode (§5.1 (2)) identities are `(guard, id)` pairs, so
//! the guard relation is re-read to recover output tuples — the trade
//! the paper calls out explicitly ("the guard relation needs to be re-read
//! in the EVAL job").

use gumbo_common::{RelationName, TupleView, Value};
use gumbo_mr::{
    Emitter, Group, IdSet, Job, JobConfig, Mapper, MsgRef, MsgView, OutputSink, Reducer,
};
use gumbo_sgf::{Atom, BoolExpr};

use crate::plan::PayloadMode;
use crate::semijoin::{atoms_by_input, QueryContext, SemiJoin};

/// Per-query mapper/reducer state. Variable sequences are resolved to
/// coordinates when the job is built.
#[derive(Debug, Clone)]
struct EvalQuery {
    output: RelationName,
    guard: Atom,
    /// Coordinates of the identity variables within the guard.
    identity: Vec<usize>,
    /// Coordinates of the output variables within the identity tuple
    /// (full mode) and within the guard (reference mode).
    out_of_identity: Vec<usize>,
    out_of_guard: Vec<usize>,
    /// `ϕ_C` over global semi-join ids (`Const(true)` if no WHERE clause).
    formula: BoolExpr,
}

/// What the mapper does with the facts of one input relation. Outputs are
/// declared in query order, so query `j` writes output slot `j`.
#[derive(Debug, Clone)]
enum Route {
    /// An `Xᵢ` relation: tag the identity.
    X(u32),
    /// A guard relation: the queries it guards.
    Guard(Vec<u32>),
}

struct EvalMapper {
    mode: PayloadMode,
    queries: Vec<EvalQuery>,
    /// What to do with each job input's facts, indexed by input.
    routes: Vec<Route>,
    /// Per job input: the key arity of each pair every fact of it emits.
    certain: Vec<Vec<usize>>,
}

impl Mapper for EvalMapper {
    fn certain_pairs(&self, input: usize) -> &[usize] {
        &self.certain[input]
    }

    fn map(&self, input: usize, tuple: TupleView<'_>, index: u64, out: &mut Emitter<'_>) {
        match &self.routes[input] {
            Route::X(tag) => out.tuple(tuple, MsgRef::Tag { rel: *tag }),
            // One tag (full mode) or guard-tuple message (ref mode) per
            // query guarded by this relation.
            Route::Guard(guarded) => {
                for &j in guarded {
                    let q = &self.queries[j as usize];
                    if !q.guard.conforms_view(tuple) {
                        continue;
                    }
                    match self.mode {
                        PayloadMode::Full => {
                            out.project(tuple, &q.identity, MsgRef::Tag { rel: j });
                        }
                        PayloadMode::Reference => {
                            out.key(
                                &[Value::Int(i64::from(j)), Value::Int(index as i64)],
                                MsgRef::GuardTuple { guard: j, tuple },
                            );
                        }
                    }
                }
            }
        }
    }
}

struct EvalReducer {
    mode: PayloadMode,
    queries: Vec<EvalQuery>,
    num_queries: u32,
}

impl EvalReducer {
    fn formula_holds(&self, q: &EvalQuery, tags: &IdSet) -> bool {
        q.formula
            .evaluate(&|sj| tags.contains(self.num_queries + sj as u32))
    }
}

impl Reducer for EvalReducer {
    fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>) {
        let tags: IdSet = group
            .values()
            .filter_map(|m| match m {
                MsgView::Tag { rel } => Some(rel),
                _ => None,
            })
            .collect();
        match self.mode {
            PayloadMode::Full => {
                let key = group.key();
                for (j, q) in self.queries.iter().enumerate() {
                    // The paper's X₀ ∧ ϕ: the guard tag must be present.
                    if key.arity() == q.identity.len()
                        && tags.contains(j as u32)
                        && self.formula_holds(q, &tags)
                    {
                        out.project(j, key, &q.out_of_identity);
                    }
                }
            }
            PayloadMode::Reference => {
                for m in group.values() {
                    if let MsgView::GuardTuple { guard, tuple } = m {
                        let q = &self.queries[guard as usize];
                        if self.formula_holds(q, &tags) {
                            out.project(guard as usize, tuple, &q.out_of_guard);
                        }
                    }
                }
            }
        }
    }
}

/// An input of the EVAL job.
pub(crate) enum EvalInput<'c> {
    /// A semi-join's `Xᵢ`.
    X(&'c SemiJoin),
    /// A guard relation, re-read.
    Guard(&'c RelationName),
}

/// The EVAL job's inputs, in order: every `Xᵢ`, then the distinct guard
/// relations — the guard re-read of optimization (2) / the X₀ read of
/// Eq. 7.
pub(crate) fn eval_inputs(ctx: &QueryContext) -> Vec<EvalInput<'_>> {
    let mut inputs: Vec<EvalInput<'_>> = ctx.semijoins().iter().map(EvalInput::X).collect();
    let mut guards: Vec<&RelationName> = Vec::new();
    for q in ctx.queries() {
        if !guards.contains(&q.guard().relation()) {
            guards.push(q.guard().relation());
            inputs.push(EvalInput::Guard(q.guard().relation()));
        }
    }
    inputs
}

/// Build the `EVAL` job for all queries of a [`QueryContext`].
pub fn build_eval_job(ctx: &QueryContext, mode: PayloadMode, config: JobConfig) -> Job {
    let num_queries = ctx.queries().len() as u32;
    let queries: Vec<EvalQuery> = ctx
        .queries()
        .iter()
        .enumerate()
        .map(|(j, q)| {
            let identity = crate::semijoin::identity_vars(q.guard());
            let out_of_identity = q
                .output_vars()
                .iter()
                .map(|v| {
                    identity
                        .iter()
                        .position(|iv| iv == v)
                        .expect("guarded output var")
                })
                .collect();
            EvalQuery {
                output: q.output().clone(),
                guard: q.guard().clone(),
                identity: q.guard().projection(&identity),
                out_of_identity,
                out_of_guard: q.guard().projection(q.output_vars()),
                formula: ctx.formula(j).cloned().unwrap_or(BoolExpr::Const(true)),
            }
        })
        .collect();

    let eval_inputs = eval_inputs(ctx);
    let inputs: Vec<RelationName> = (eval_inputs.iter())
        .map(|input| match input {
            EvalInput::X(sj) => sj.x_name.clone(),
            EvalInput::Guard(rel) => (*rel).clone(),
        })
        .collect();
    let guarded = atoms_by_input(&inputs, queries.iter().map(|q| &q.guard));
    // Per input, beside its route, the key arity of each pair every fact
    // of it emits: an `Xᵢ` fact is tagged whole; a guard fact is keyed
    // once per query it guards without a constant or a repeated variable.
    let (routes, certain) = (eval_inputs.iter().zip(guarded))
        .map(|(input, guarded)| match input {
            EvalInput::X(sj) => (
                Route::X(num_queries + sj.id as u32),
                vec![crate::msj::x_arity(sj, mode)],
            ),
            EvalInput::Guard(_) => {
                let certain = (guarded.iter())
                    .map(|&j| &queries[j as usize])
                    .filter(|q| q.guard.is_unconstrained())
                    .map(|q| match mode {
                        PayloadMode::Full => q.identity.len(),
                        PayloadMode::Reference => 2,
                    })
                    .collect();
                (Route::Guard(guarded), certain)
            }
        })
        .unzip();

    let outputs: Vec<(RelationName, usize)> = queries
        .iter()
        .map(|q| (q.output.clone(), q.out_of_guard.len()))
        .collect();

    let out_list: Vec<String> = queries.iter().map(|q| q.output.to_string()).collect();
    Job {
        name: format!("EVAL({})", out_list.join(",")),
        inputs,
        outputs,
        mapper: Box::new(EvalMapper {
            mode,
            queries: queries.clone(),
            routes,
            certain,
        }),
        reducer: Box::new(EvalReducer {
            mode,
            queries,
            num_queries,
        }),
        config,
        estimate: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msj::build_msj_job;
    use gumbo_common::{Database, Fact, Relation, Result, Tuple};
    use gumbo_mr::{EngineConfig, ExecutorKind, MrProgram};
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::{Dfs, SimDfs};

    /// Execute the canonical 2-round plan (one MSJ with all semi-joins,
    /// then EVAL) on `sim` and on a worker pool and compare against the
    /// naive evaluator.
    fn check_two_round(query_text: &str, facts: &[(&str, &[i64])], arities: &[(&str, usize)]) {
        let kinds = [
            ExecutorKind::Simulated,
            ExecutorKind::Parallel { threads: 2 },
        ];
        for (mode, kind) in [PayloadMode::Full, PayloadMode::Reference]
            .into_iter()
            .flat_map(|m| kinds.into_iter().map(move |k| (m, k)))
        {
            let q = parse_query(query_text).unwrap();
            let ctx = QueryContext::new(vec![q.clone()]).unwrap();
            let mut db = Database::new();
            for (name, arity) in arities {
                db.add_relation(Relation::new(*name, *arity));
            }
            for (rel, t) in facts {
                db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
                    .unwrap();
            }
            let expected = NaiveEvaluator::new().evaluate_bsgf(&q, &db).unwrap();

            let dfs = SimDfs::from_database(&db);
            let mut program = MrProgram::new();
            let all: Vec<usize> = (0..ctx.semijoins().len()).collect();
            if !all.is_empty() {
                program.push_job(build_msj_job(&ctx, &all, mode, JobConfig::default()));
            }
            program.push_job(build_eval_job(&ctx, mode, JobConfig::default()));
            kind.build(EngineConfig::unscaled())
                .execute(&dfs, &program)
                .unwrap();

            let got = dfs.peek(&q.output().clone()).unwrap();
            assert_eq!(
                got.as_ref(),
                &expected.renamed(q.output().clone()),
                "mode {mode:?}, executor {}",
                kind.label()
            );
        }
    }

    #[test]
    fn intro_query_full_plan() {
        check_two_round(
            "Z := SELECT (x, y) FROM R(x, y) WHERE (S(x, y) OR S(y, x)) AND T(x, z);",
            &[
                ("R", &[1, 2]),
                ("R", &[3, 4]),
                ("R", &[5, 6]),
                ("S", &[2, 1]),
                ("S", &[5, 6]),
                ("T", &[1, 9]),
            ],
            &[("R", 2), ("S", 2), ("T", 2)],
        );
    }

    #[test]
    fn negation_with_projection_is_sound() {
        // The case where projecting before the Boolean combination would be
        // wrong: two guard tuples share x = 1 but differ on S-membership.
        check_two_round(
            "Z := SELECT x FROM R(x, y) WHERE NOT S(y);",
            &[("R", &[1, 2]), ("R", &[1, 3]), ("S", &[2])],
            &[("R", 2), ("S", 1)],
        );
    }

    #[test]
    fn pure_negation_query() {
        check_two_round(
            "Z := SELECT x FROM R(x) WHERE NOT S(x);",
            &[("R", &[1]), ("R", &[2]), ("S", &[2])],
            &[("R", 1), ("S", 1)],
        );
    }

    #[test]
    fn no_where_clause_projects_guard() {
        check_two_round(
            "Z := SELECT y FROM R(x, y);",
            &[("R", &[1, 7]), ("R", &[2, 7]), ("R", &[3, 8])],
            &[("R", 2)],
        );
    }

    #[test]
    fn xor_query_z5() {
        check_two_round(
            "Z := SELECT (x, y) FROM R(x, y, 4) \
             WHERE (S(1, x) AND NOT S(y, 10)) OR (NOT S(1, x) AND S(y, 10));",
            &[
                ("R", &[1, 2, 4]),
                ("R", &[3, 4, 4]),
                ("R", &[5, 6, 7]), // wrong constant, filtered by guard
                ("S", &[1, 1]),    // S(1,x) for x=1
                ("S", &[4, 10]),   // S(y,10) for y=4
                ("S", &[1, 3]),    // S(1,x) for x=3 -> R(3,4,4) has both -> excluded
            ],
            &[("R", 3), ("S", 2)],
        );
    }

    #[test]
    fn multi_query_eval_in_one_job() {
        // Two queries with different guards, evaluated by one EVAL job.
        let q1 = parse_query("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x);").unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y) FROM G(x, y) WHERE NOT S(x);").unwrap();
        let ctx = QueryContext::new(vec![q1.clone(), q2.clone()]).unwrap();

        let mut db = Database::new();
        for (rel, t) in [
            ("R", [1i64, 2]),
            ("R", [3, 4]),
            ("G", [1, 2]),
            ("G", [5, 6]),
        ] {
            db.insert_fact(Fact::new(rel, Tuple::from_ints(&t)))
                .unwrap();
        }
        db.insert_fact(Fact::new("S", Tuple::from_ints(&[1])))
            .unwrap();
        let naive = NaiveEvaluator::new();
        let e1 = naive.evaluate_bsgf(&q1, &db).unwrap();
        let e2 = naive.evaluate_bsgf(&q2, &db).unwrap();

        for mode in [PayloadMode::Full, PayloadMode::Reference] {
            let dfs = SimDfs::from_database(&db);
            let mut program = MrProgram::new();
            program.push_job(build_msj_job(&ctx, &[0, 1], mode, JobConfig::default()));
            program.push_job(build_eval_job(&ctx, mode, JobConfig::default()));
            ExecutorKind::default()
                .build(EngineConfig::unscaled())
                .execute(&dfs, &program)
                .unwrap();
            assert_eq!(
                dfs.peek(&"Z1".into()).unwrap().as_ref(),
                &e1,
                "mode {mode:?}"
            );
            assert_eq!(
                dfs.peek(&"Z2".into()).unwrap().as_ref(),
                &e2,
                "mode {mode:?}"
            );
        }
    }

    #[test]
    fn same_guard_two_queries_share_one_read() -> Result<()> {
        let q1 = parse_query("Z1 := SELECT x FROM R(x, y) WHERE S(x);").unwrap();
        let q2 = parse_query("Z2 := SELECT y FROM R(x, y) WHERE T(y);").unwrap();
        let ctx = QueryContext::new(vec![q1, q2]).unwrap();
        let job = build_eval_job(&ctx, PayloadMode::Full, JobConfig::default());
        // Inputs: Z1#X0, Z2#X0, R (once).
        let names: Vec<String> = job.inputs.iter().map(|r| r.to_string()).collect();
        assert_eq!(names, vec!["Z1#X0", "Z2#X0", "R"]);
        Ok(())
    }
}
