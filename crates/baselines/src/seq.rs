//! SEQ: sequential semi-join reducers.
//!
//! The classical strategy (Bernstein/Yannakakis-style): apply one semi-join
//! per round to the output of the previous round, pruning data at every
//! step. Conjunctions become chains `W₀ = R`, `Wᵢ = Wᵢ₋₁ ⋉ κᵢ` (or an
//! antijoin for `NOT κᵢ`); a top-level disjunction evaluates each
//! conjunctive branch in parallel and unions the branch results (the B2
//! observation in §5.2). The number of rounds equals the longest chain —
//! which is exactly why SEQ has high net times on B1.
//!
//! Conditions that are not (disjunctions of) conjunctions of literals are
//! out of SEQ's scope, matching the paper's remark that conjunctive BSGF
//! queries "were chosen to simplify the comparison with sequential query
//! plans" (§5.2, footnote 4).

use gumbo_common::{GumboError, RelationName, Result, TupleView};
use gumbo_core::msj::build_one_round_job;
use gumbo_core::semijoin::{identity_vars, QueryContext};
use gumbo_core::{BsgfSetPlan, PayloadMode};
use gumbo_mr::{
    Emitter, Executor, Group, Job, JobConfig, Mapper, MrProgram, MsgRef, OutputSink, ProgramStats,
    Reducer,
};
use gumbo_sched::{DagScheduler, SchedulerConfig};
use gumbo_sgf::{Atom, BsgfQuery, Condition, Term, Var};
use gumbo_storage::Dfs;

/// A (possibly negated) conditional atom.
type LiteralAtom = (Atom, bool);

/// The SEQ strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqStrategy {
    /// Per-job configuration (Gumbo defaults: packing + sampling-based
    /// reducers; SEQ benefits from them too).
    pub job_config: JobConfig,
}

impl SeqStrategy {
    /// Build the sequential program for a set of independent BSGF queries
    /// (chains of different queries/branches run in the same rounds).
    pub fn build_program(&self, queries: &[BsgfQuery]) -> Result<MrProgram> {
        let mut chains: Vec<std::collections::VecDeque<Job>> = Vec::new();
        for q in queries {
            for steps in self.chains_for(q)? {
                chains.push(steps.into());
            }
        }
        // Assemble rounds: step r of every chain runs concurrently.
        let mut program = MrProgram::new();
        while chains.iter().any(|c| !c.is_empty()) {
            let round: Vec<Job> = chains.iter_mut().filter_map(|c| c.pop_front()).collect();
            program.push_round(round);
        }
        // Union round for multi-branch queries.
        let mut union_jobs = Vec::new();
        for q in queries {
            if let Some(job) = self.union_job_for(q)? {
                union_jobs.push(job);
            }
        }
        program.push_round(union_jobs);
        Ok(program)
    }

    /// Execute SEQ for a set of BSGF queries.
    pub fn evaluate(
        &self,
        executor: &Executor,
        dfs: &dyn Dfs,
        queries: &[BsgfQuery],
    ) -> Result<ProgramStats> {
        let program = self.build_program(queries)?;
        DagScheduler::new(SchedulerConfig::ONE_SLOT).execute_program(executor, dfs, program)
    }

    /// Decompose a condition into disjunctive branches of literal
    /// conjunctions.
    fn branches(cond: &Condition) -> Result<Vec<Vec<LiteralAtom>>> {
        cond.disjuncts()
            .into_iter()
            .map(Self::conjunction)
            .collect()
    }

    fn conjunction(cond: &Condition) -> Result<Vec<LiteralAtom>> {
        match cond {
            Condition::Atom(a) => Ok(vec![(a.clone(), true)]),
            Condition::Not(inner) => match &**inner {
                Condition::Atom(a) => Ok(vec![(a.clone(), false)]),
                _ => Err(GumboError::Plan(
                    "SEQ requires conditions in disjunctive normal form over literals".into(),
                )),
            },
            Condition::And(l, r) => {
                let mut out = Self::conjunction(l)?;
                out.extend(Self::conjunction(r)?);
                Ok(out)
            }
            Condition::Or(..) => Err(GumboError::Plan(
                "SEQ does not support nested disjunctions below conjunctions".into(),
            )),
        }
    }

    fn branch_count(q: &BsgfQuery) -> Result<usize> {
        Ok(match q.condition() {
            None => 1,
            Some(c) => Self::branches(c)?.len(),
        })
    }

    /// Build the chain(s) of jobs for one query.
    fn chains_for(&self, q: &BsgfQuery) -> Result<Vec<Vec<Job>>> {
        let ident = identity_vars(q.guard());
        let branches = match q.condition() {
            None => vec![Vec::new()],
            Some(c) => Self::branches(c)?,
        };
        let multi = branches.len() > 1;
        let mut chains = Vec::new();
        for (b, literals) in branches.into_iter().enumerate() {
            let mut steps: Vec<Job> = Vec::new();
            let mut current_guard = q.guard().clone();
            let k = literals.len();
            for (i, (atom, positive)) in literals.into_iter().enumerate() {
                let last = i + 1 == k;
                let (out_name, out_vars): (RelationName, Vec<Var>) = if last && !multi {
                    (q.output().clone(), q.output_vars().to_vec())
                } else if last {
                    (format!("{}#B{b}", q.output()).into(), ident.clone())
                } else {
                    (format!("{}#B{b}S{i}", q.output()).into(), ident.clone())
                };
                let cond = if positive {
                    Condition::Atom(atom.clone())
                } else {
                    Condition::Atom(atom.clone()).negated()
                };
                let step_query = BsgfQuery::new(
                    out_name.clone(),
                    out_vars,
                    current_guard.clone(),
                    Some(cond),
                )?;
                let ctx = QueryContext::new(vec![step_query])?;
                // A single literal fuses into one 1-ROUND job unless its
                // atom shares no variable with the guard; fall back to the
                // 2-round singleton plan in that case.
                if let Some(requests) = ctx.fused_requests() {
                    steps.push(build_one_round_job(&ctx, &requests, self.job_config));
                } else {
                    let plan = BsgfSetPlan::single_group(&ctx, PayloadMode::Full, self.job_config);
                    steps.extend(
                        plan.build_program(&ctx)?
                            .into_rounds()
                            .into_iter()
                            .flatten(),
                    );
                }
                // Next step guards on the just-produced intermediate.
                current_guard = Atom::new(
                    out_name,
                    ident.iter().map(|v| Term::Var(v.clone())).collect(),
                );
            }
            if steps.is_empty() {
                // No condition: a single projection step.
                let step_query = BsgfQuery::new(
                    q.output().clone(),
                    q.output_vars().to_vec(),
                    q.guard().clone(),
                    None,
                )?;
                let ctx = QueryContext::new(vec![step_query])?;
                let plan = BsgfSetPlan::single_group(&ctx, PayloadMode::Full, self.job_config);
                steps.extend(
                    plan.build_program(&ctx)?
                        .into_rounds()
                        .into_iter()
                        .flatten(),
                );
            }
            chains.push(steps);
        }
        Ok(chains)
    }

    /// The union job combining branch outputs (None for single branches).
    fn union_job_for(&self, q: &BsgfQuery) -> Result<Option<Job>> {
        let branches = Self::branch_count(q)?;
        if branches <= 1 {
            return Ok(None);
        }
        let ident = identity_vars(q.guard());
        let positions: Vec<usize> = q
            .output_vars()
            .iter()
            .map(|v| {
                ident
                    .iter()
                    .position(|iv| iv == v)
                    .expect("guarded output var")
            })
            .collect();
        let inputs: Vec<RelationName> = (0..branches)
            .map(|b| format!("{}#B{b}", q.output()).into())
            .collect();
        Ok(Some(Job {
            name: format!("UNION({})", q.output()),
            inputs,
            outputs: vec![(q.output().clone(), q.output_vars().len())],
            mapper: Box::new(UnionMapper { positions }),
            reducer: Box::new(UnionReducer),
            config: self.job_config,
            estimate: None,
        }))
    }
}

struct UnionMapper {
    positions: Vec<usize>,
}

impl Mapper for UnionMapper {
    fn map(&self, _: usize, tuple: TupleView<'_>, _i: u64, out: &mut Emitter<'_>) {
        out.project(tuple, &self.positions, MsgRef::Tag { rel: 0 });
    }
}

/// Writes every distinct key to the job's one output.
struct UnionReducer;

impl Reducer for UnionReducer {
    fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>) {
        out.view(0, group.key());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Database, Fact, Relation, Tuple};
    use gumbo_mr::EngineConfig;
    use gumbo_sgf::{parse_query, NaiveEvaluator};
    use gumbo_storage::SimDfs;

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

    fn check_seq(query_text: &str, d: &Database) -> ProgramStats {
        let q = parse_query(query_text).unwrap();
        let expected = NaiveEvaluator::new().evaluate_bsgf(&q, d).unwrap();
        let dfs = SimDfs::from_database(d);
        let engine = Executor::new(EngineConfig::unscaled());
        let stats = SeqStrategy::default()
            .evaluate(&engine, &dfs, std::slice::from_ref(&q))
            .unwrap();
        assert_eq!(
            dfs.peek(q.output()).unwrap().as_ref(),
            &expected,
            "query: {query_text}"
        );
        stats
    }

    #[test]
    fn conjunctive_chain_matches_naive() {
        let d = db(
            &[
                ("R", &[1, 10]),
                ("R", &[2, 20]),
                ("R", &[3, 30]),
                ("S", &[1]),
                ("S", &[2]),
                ("T", &[10]),
            ],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        let stats = check_seq("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);", &d);
        // Two semi-joins -> two rounds, one job each.
        assert_eq!(stats.num_rounds(), 2);
        assert_eq!(stats.num_jobs(), 2);
    }

    #[test]
    fn chain_prunes_intermediate_data() {
        // After the first (selective) step, the second step reads less.
        let mut facts: Vec<(&str, Vec<i64>)> = Vec::new();
        for i in 0..100 {
            facts.push(("R", vec![i, i]));
        }
        facts.push(("S", vec![1]));
        facts.push(("S", vec![2]));
        for i in 0..100 {
            facts.push(("T", vec![i]));
        }
        let mut d = Database::new();
        for (rel, t) in &facts {
            d.insert_fact(Fact::new(*rel, Tuple::from_ints(t))).unwrap();
        }
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let dfs = SimDfs::from_database(&d);
        let engine = Executor::new(EngineConfig::unscaled());
        let stats = SeqStrategy::default()
            .evaluate(&engine, &dfs, &[q])
            .unwrap();
        let first = &stats.jobs[0];
        let second = &stats.jobs[1];
        assert!(
            second.input_bytes() < first.input_bytes(),
            "pruning failed: {} -> {}",
            first.input_bytes(),
            second.input_bytes()
        );
    }

    #[test]
    fn antijoin_steps_work() {
        let d = db(
            &[("R", &[1, 10]), ("R", &[2, 20]), ("S", &[1]), ("T", &[20])],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        check_seq(
            "Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND NOT T(y);",
            &d,
        );
    }

    #[test]
    fn disjunctive_branches_in_parallel_plus_union() {
        let d = db(
            &[
                ("R", &[1, 10]),
                ("R", &[2, 20]),
                ("R", &[3, 30]),
                ("S", &[1]),
                ("T", &[20]),
                ("U", &[3]),
                ("V", &[30]),
            ],
            &[("R", 2), ("S", 1), ("T", 1), ("U", 1), ("V", 1)],
        );
        let stats = check_seq(
            "Z := SELECT (x, y) FROM R(x, y) WHERE (S(x) AND NOT T(y)) OR (U(x) AND V(y));",
            &d,
        );
        // Branches of length 2 run in 2 rounds + 1 union round.
        assert_eq!(stats.num_rounds(), 3);
        assert_eq!(stats.num_jobs(), 5);
    }

    #[test]
    fn b2_shape_has_parallel_branches() {
        let d = db(
            &[
                ("R", &[1, 0]),
                ("R", &[2, 0]),
                ("R", &[3, 0]),
                ("S", &[1]),
                ("S", &[3]),
                ("T", &[2]),
                ("T", &[3]),
            ],
            &[("R", 2), ("S", 1), ("T", 1)],
        );
        let stats = check_seq(
            "Z := SELECT (x, y) FROM R(x, y) WHERE \
             (S(x) AND NOT T(x)) OR (NOT S(x) AND T(x));",
            &d,
        );
        // 2 branches × 2 steps in 2 rounds, then a union round.
        assert_eq!(stats.num_rounds(), 3);
    }

    #[test]
    fn no_condition_single_projection_job() {
        let d = db(&[("R", &[1, 2]), ("R", &[3, 2])], &[("R", 2)]);
        let stats = check_seq("Z := SELECT y FROM R(x, y);", &d);
        assert_eq!(stats.num_jobs(), 1);
    }

    #[test]
    fn rejects_non_dnf_conditions() {
        let q = parse_query("Z := SELECT x FROM R(x, y) WHERE S(x) AND (T(y) OR U(x));").unwrap();
        assert!(SeqStrategy::default().build_program(&[q]).is_err());
    }

    #[test]
    fn multiple_queries_run_in_shared_rounds() {
        let d = db(
            &[
                ("R", &[1, 10]),
                ("G", &[5, 50]),
                ("S", &[1]),
                ("T", &[10]),
                ("U", &[5]),
                ("V", &[50]),
            ],
            &[("R", 2), ("G", 2), ("S", 1), ("T", 1), ("U", 1), ("V", 1)],
        );
        let q1 = parse_query("Z1 := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let q2 = parse_query("Z2 := SELECT (x, y) FROM G(x, y) WHERE U(x) AND V(y);").unwrap();
        let dfs = SimDfs::from_database(&d);
        let engine = Executor::new(EngineConfig::unscaled());
        let stats = SeqStrategy::default()
            .evaluate(&engine, &dfs, &[q1, q2])
            .unwrap();
        // Chains share rounds: 2 rounds of 2 jobs, no union.
        assert_eq!(stats.num_rounds(), 2);
        assert_eq!(stats.num_jobs(), 4);
        assert_eq!(dfs.peek(&"Z1".into()).unwrap().len(), 1);
        assert_eq!(dfs.peek(&"Z2".into()).unwrap().len(), 1);
    }
}
