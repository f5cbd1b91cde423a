//! Strategy face-off on a paper workload: SEQ vs PAR vs GREEDY vs 1-ROUND.
//!
//! ```text
//! cargo run --release --example strategy_faceoff
//! ```
//!
//! Runs query A3 of Table 2 (`R(x,y,z,w) ⋉ S(x) ∧ T(x) ∧ U(x) ∧ V(x)`,
//! all conditionals sharing the join key `x`) on generated data and prints
//! the paper's four metrics for each strategy — the miniature version of
//! Figure 3's A3 column. Expect: parallel strategies win on *net* time,
//! SEQ wins on *total* time among unfused plans, and 1-ROUND wins both.

use gumbo::baselines::{greedy_engine, one_round_engine, par_engine, SeqStrategy};
use gumbo::datagen::queries;
use gumbo::prelude::*;

fn main() -> Result<()> {
    // A3 at 10k real tuples, scale 10_000 = the paper's 100M-tuple regime.
    let workload = queries::a3().with_tuples(10_000);
    let db = workload.spec.database(42);
    let config = EngineConfig {
        scale: 10_000,
        ..EngineConfig::default()
    };

    println!(
        "workload {} ({}M-equivalent guard tuples, selectivity {})\n",
        workload.name,
        (workload.spec.guard_tuples as u64 * config.scale) / 1_000_000,
        workload.spec.selectivity
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>7}",
        "strategy", "net (s)", "total (s)", "input", "shuffle", "jobs"
    );

    let expected = NaiveEvaluator::new().evaluate_sgf(&workload.query, &db)?;
    let report = |name: &str, stats: ProgramStats, dfs: &SimDfs| -> Result<()> {
        let out = dfs.peek(workload.query.output())?;
        assert_eq!(out.as_ref(), &expected, "{name} produced a wrong result");
        println!(
            "{:<10} {:>10.0} {:>12.0} {:>12} {:>12} {:>7}",
            name,
            stats.net_time(),
            stats.total_time(),
            stats.input_bytes().to_string(),
            stats.communication_bytes().to_string(),
            stats.num_jobs()
        );
        Ok(())
    };

    // SEQ: a chain of four semi-join jobs, pruning as it goes.
    let dfs = SimDfs::from_database(&db);
    let stats =
        SeqStrategy::default().evaluate(&Executor::new(config), &dfs, workload.query.queries())?;
    report("SEQ", stats, &dfs)?;

    // PAR: four ungrouped MSJ jobs + EVAL.
    let dfs = SimDfs::from_database(&db);
    let stats = par_engine(config).evaluate(&dfs, &workload.query)?;
    report("PAR", stats, &dfs)?;

    // GREEDY: Greedy-BSGF groups the semi-joins (shared guard scan).
    let dfs = SimDfs::from_database(&db);
    let stats = greedy_engine(config).evaluate(&dfs, &workload.query)?;
    report("GREEDY", stats, &dfs)?;

    // 1-ROUND: the fused MSJ+EVAL job (all conditionals share key x).
    let dfs = SimDfs::from_database(&db);
    let stats = one_round_engine(config).evaluate(&dfs, &workload.query)?;
    report("1-ROUND", stats, &dfs)?;

    println!("\nall strategies verified against the naive evaluator ✓");
    Ok(())
}
