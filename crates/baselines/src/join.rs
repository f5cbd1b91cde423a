//! Full-tuple repartition-join jobs: the building block of the Pig/Hive
//! simulations.
//!
//! Pig's COGROUP and Hive's (left-outer / left-semi) join operators shuffle
//! *complete tuples of both sides* — no request/assert message protocol, no
//! packing, no guard references. This module builds jobs with exactly that
//! byte behaviour while still computing correct semi-join results, so the
//! simulated baselines remain verifiable against the naive evaluator.

use gumbo_common::{RelationName, TupleView};
use gumbo_core::semijoin::{
    assert_projections, atoms_by_input, cond_groups, AssertProjection, QueryContext, SemiJoin,
};
use gumbo_mr::{
    Emitter, Group, IdSet, Job, JobConfig, Mapper, MsgRef, MsgView, OutputSink, PayloadView,
    Reducer,
};
use gumbo_sgf::Atom;

/// Per-semi-join mapper state: the guard plus the coordinates of its join
/// key and identity variables, resolved when the job is built.
#[derive(Debug, Clone)]
struct JoinSj {
    guard: Atom,
    join_key: Vec<usize>,
    identity: Vec<usize>,
}

struct JoinMapper {
    sjs: Vec<JoinSj>,
    /// Conditional streams: full tuples are shuffled (COGROUP behaviour).
    asserts: Vec<AssertProjection>,
    /// Per job input: the semi-joins it guards and the conditional
    /// streams it feeds, by index.
    by_input: Vec<(Vec<u32>, Vec<u32>)>,
}

impl Mapper for JoinMapper {
    fn map(&self, input: usize, tuple: TupleView<'_>, _i: u64, out: &mut Emitter<'_>) {
        let (guarded, streams) = &self.by_input[input];
        for &local in guarded {
            let sj = &self.sjs[local as usize];
            if sj.guard.conforms_view(tuple) {
                // Full guard tuple on the wire (no reference optimization).
                let msg = MsgRef::Req {
                    cond: local,
                    tuple,
                    positions: &sj.identity,
                };
                out.project(tuple, &sj.join_key, msg);
            }
        }
        for &g in streams {
            let (atom, key_positions) = &self.asserts[g as usize];
            if atom.conforms_view(tuple) {
                // Full conditional tuple on the wire (outer-join semantics
                // keep the right side's columns until the final projection).
                out.project(tuple, key_positions, MsgRef::GuardTuple { guard: g, tuple });
            }
        }
    }
}

struct JoinReducer {
    /// local semi-join index (= its output slot) → conditional stream
    /// index.
    streams: Vec<u32>,
}

impl Reducer for JoinReducer {
    fn reduce(&self, group: &Group<'_>, out: &mut OutputSink<'_>) {
        let present: IdSet = group
            .values()
            .filter_map(|m| match m {
                MsgView::GuardTuple { guard, .. } => Some(guard),
                _ => None,
            })
            .collect();
        for m in group.values() {
            if let MsgView::Req {
                cond,
                payload: PayloadView::Tuple(t),
            } = m
            {
                if present.contains(self.streams[cond as usize]) {
                    out.view(cond as usize, t);
                }
            }
        }
    }
}

/// Build a full-tuple join job computing the given semi-joins' `Xᵢ`
/// relations (always full-identity payloads — compatible with a
/// `PayloadMode::Full` EVAL job).
///
/// `extra_guard_reads` appends additional reads of each distinct guard
/// relation, modelling Hive's semi-join materialization overhead ("higher
/// average map and reduce input sizes", §5.2).
pub fn build_join_job(
    ctx: &QueryContext,
    group: &[usize],
    tag: &str,
    config: JobConfig,
    extra_guard_reads: usize,
) -> Job {
    let sjs: Vec<&SemiJoin> = group.iter().map(|&i| ctx.semijoin(i)).collect();
    let (assert_groups, assignment) = cond_groups(&sjs);

    let specs: Vec<JoinSj> = sjs
        .iter()
        .map(|sj| JoinSj {
            guard: sj.guard.clone(),
            join_key: sj.guard.projection(&sj.join_key),
            identity: sj.guard.projection(&sj.identity_vars),
        })
        .collect();
    let streams: Vec<u32> = sjs.iter().map(|sj| assignment[&sj.id] as u32).collect();

    let mut guards: Vec<RelationName> = Vec::new();
    for sj in &sjs {
        if !guards.contains(sj.guard.relation()) {
            guards.push(sj.guard.relation().clone());
        }
    }
    let mut inputs = guards.clone();
    for (atom, _) in &assert_groups {
        if !inputs.contains(atom.relation()) {
            inputs.push(atom.relation().clone());
        }
    }
    for _ in 0..extra_guard_reads {
        inputs.extend(guards.iter().cloned());
    }

    let outputs: Vec<(RelationName, usize)> = sjs
        .iter()
        .map(|sj| (sj.x_name.clone(), sj.identity_vars.len()))
        .collect();
    let x_list: Vec<String> = sjs.iter().map(|sj| sj.x_name.to_string()).collect();
    let guarded = atoms_by_input(&inputs, specs.iter().map(|sj| &sj.guard));
    let fed = atoms_by_input(&inputs, assert_groups.iter().map(|(atom, _)| atom));
    let by_input = guarded.into_iter().zip(fed).collect();
    Job {
        name: format!("{tag}({})", x_list.join(",")),
        inputs,
        outputs,
        mapper: Box::new(JoinMapper {
            by_input,
            sjs: specs,
            asserts: assert_projections(&assert_groups),
        }),
        reducer: Box::new(JoinReducer { streams }),
        config,
        estimate: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_common::{Database, Fact, Relation, Tuple};
    use gumbo_mr::{EngineConfig, Executor, MrProgram};
    use gumbo_sgf::parse_query;
    use gumbo_storage::{Dfs, SimDfs};

    fn setup() -> (QueryContext, Database) {
        let q = parse_query("Z := SELECT (x, y) FROM R(x, y) WHERE S(x) AND T(y);").unwrap();
        let ctx = QueryContext::new(vec![q]).unwrap();
        let mut db = Database::new();
        for (name, arity) in [("R", 2), ("S", 1), ("T", 1)] {
            db.add_relation(Relation::new(name, arity));
        }
        for (rel, t) in [
            ("R", vec![1i64, 10]),
            ("R", vec![2, 20]),
            ("S", vec![1]),
            ("T", vec![10]),
        ] {
            db.insert_fact(Fact::new(rel, Tuple::from_ints(&t)))
                .unwrap();
        }
        (ctx, db)
    }

    #[test]
    fn join_job_computes_semijoin() {
        let (ctx, db) = setup();
        let dfs = SimDfs::from_database(&db);
        let job = build_join_job(&ctx, &[0], "HJOIN", JobConfig::baseline(), 0);
        let mut program = MrProgram::new();
        program.push_job(job);
        Executor::new(EngineConfig::unscaled())
            .execute(&dfs, &program)
            .unwrap();
        let x = dfs.peek(&"Z#X0".into()).unwrap();
        assert_eq!(x.len(), 1);
        assert!(x.contains(&Tuple::from_ints(&[1, 10])));
    }

    #[test]
    fn join_shuffles_more_bytes_than_msj() {
        let (ctx, db) = setup();
        let engine = Executor::new(EngineConfig::unscaled());

        let dfs1 = SimDfs::from_database(&db);
        let join = build_join_job(&ctx, &[0], "HJOIN", JobConfig::baseline(), 0);
        let js = engine.execute_job(&dfs1, &join, 0).unwrap();

        let dfs2 = SimDfs::from_database(&db);
        let msj = gumbo_core::msj::build_msj_job(
            &ctx,
            &[0],
            gumbo_core::PayloadMode::Reference,
            JobConfig::default(),
        );
        let ms = engine.execute_job(&dfs2, &msj, 0).unwrap();
        assert!(
            js.communication_bytes() > ms.communication_bytes(),
            "join {} <= msj {}",
            js.communication_bytes(),
            ms.communication_bytes()
        );
    }

    #[test]
    fn extra_guard_reads_increase_input() {
        let (ctx, db) = setup();
        let engine = Executor::new(EngineConfig::unscaled());
        let d1 = SimDfs::from_database(&db);
        let d2 = SimDfs::from_database(&db);
        let j0 = build_join_job(&ctx, &[0], "J", JobConfig::baseline(), 0);
        let j1 = build_join_job(&ctx, &[0], "J", JobConfig::baseline(), 1);
        let s0 = engine.execute_job(&d1, &j0, 0).unwrap();
        let s1 = engine.execute_job(&d2, &j1, 0).unwrap();
        assert!(s1.input_bytes() > s0.input_bytes());
        // Results identical regardless.
        assert_eq!(
            d1.peek(&"Z#X0".into()).unwrap(),
            d2.peek(&"Z#X0".into()).unwrap()
        );
    }
}
