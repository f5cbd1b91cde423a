//! Helpers shared by the integration suites.

// Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use gumbo::prelude::*;

pub mod matrix;

/// A database of integer facts.
pub fn db(facts: &[(&str, &[i64])]) -> Database {
    let mut db = Database::new();
    for (rel, t) in facts {
        db.insert_fact(Fact::new(*rel, Tuple::from_ints(t)))
            .unwrap();
    }
    db
}

/// Evaluate `query` over `database` with every Gumbo strategy (each
/// [`Strategy`] with an engine; nested programs run group by group), each
/// on a fresh `SimDfs` and the one-worker unscaled executor, and assert
/// that every output the program defines equals `sgf::naive`'s. Returns
/// the naive answer of the final output.
pub fn assert_strategies_agree(query: &SgfQuery, database: &Database) -> Relation {
    let naive = NaiveEvaluator::new()
        .evaluate_sgf_all(query, database)
        .unwrap();
    let executor = Executor::new(EngineConfig::unscaled());
    let engines = Strategy::ALL
        .into_iter()
        .filter(|s| s.engine(*executor.config()).is_some());
    for strategy in engines {
        let label = strategy.label();
        let dfs = SimDfs::from_database(database);
        strategy
            .evaluate(&executor, &dfs, query)
            .unwrap_or_else(|e| panic!("{label} on {query}: {e}"));
        for q in query.queries() {
            let expected = naive.relation(q.output()).unwrap();
            let got = dfs.peek(q.output()).unwrap();
            assert_eq!(got.as_ref(), expected, "{label}: {} of {query}", q.output());
        }
    }
    naive.relation(query.output()).unwrap().clone()
}
