//! Strategy runners: one entry point executing any of the paper's
//! evaluation strategies on a workload, with result verification.

use gumbo_baselines::{
    greedy_engine, greedy_sgf_engine, one_round_engine, par_engine, parunit_engine, sequnit_engine,
    HiveSim, PigSim, SeqStrategy,
};
use gumbo_common::{GumboError, Result};
use gumbo_core::GumboEngine;
use gumbo_datagen::Workload;
use gumbo_mr::{Cluster, EngineConfig, ExecutorKind, ProgramStats};
use gumbo_sgf::NaiveEvaluator;
use gumbo_storage::{Dfs, SimDfs};

/// The evaluation strategies of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Sequential semi-join reducers (BSGF experiments).
    Seq,
    /// Parallel, ungrouped MSJ jobs.
    Par,
    /// `Greedy-BSGF` / `Greedy-SGF` (with grouping, no fusion).
    Greedy,
    /// 1-ROUND fusion where applicable.
    OneRound,
    /// Hive with outer joins (sequential stages).
    Hpar,
    /// Hive with semi-join operators (parallel, no grouping).
    Hpars,
    /// Pig COGROUP.
    Ppar,
    /// SGF: one BSGF at a time, bottom-up.
    SeqUnit,
    /// SGF: level-by-level, per-level parallelism.
    ParUnit,
    /// SGF: Greedy-SGF ordering + Greedy-BSGF grouping.
    GreedySgf,
}

impl Strategy {
    /// Display name matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Seq => "SEQ",
            Strategy::Par => "PAR",
            Strategy::Greedy => "GREEDY",
            Strategy::OneRound => "1-ROUND",
            Strategy::Hpar => "HPAR",
            Strategy::Hpars => "HPARS",
            Strategy::Ppar => "PPAR",
            Strategy::SeqUnit => "SEQUNIT",
            Strategy::ParUnit => "PARUNIT",
            Strategy::GreedySgf => "GREEDY-SGF",
        }
    }
}

/// Shared run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Real tuples per guard relation.
    pub tuples: usize,
    /// Byte scale factor (tuples × scale = paper-equivalent tuples).
    pub scale: u64,
    /// Cluster nodes.
    pub nodes: usize,
    /// Conditional selectivity rate.
    pub selectivity: f64,
    /// Data seed.
    pub seed: u64,
    /// Verify results against the naive evaluator.
    pub verify: bool,
    /// Which MapReduce runtime executes the plans (`--executor`).
    pub executor: ExecutorKind,
    /// Record a trace of the whole experiment to this path (`--trace`).
    pub trace: Option<std::path::PathBuf>,
    /// Print the counter/gauge registry after the run (`--metrics-dump`).
    pub metrics_dump: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        // 20k real tuples at scale 5000 = the paper's 100M-tuple regime.
        RunConfig {
            tuples: 20_000,
            scale: 5_000,
            nodes: 10,
            selectivity: 0.5,
            seed: 1,
            verify: true,
            executor: ExecutorKind::Simulated,
            trace: None,
            metrics_dump: false,
        }
    }
}

impl RunConfig {
    /// The paper-equivalent guard tuple count.
    pub fn equivalent_tuples(&self) -> u64 {
        self.tuples as u64 * self.scale
    }

    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            scale: self.scale,
            cluster: Cluster::with_nodes(self.nodes),
            ..EngineConfig::default()
        }
    }
}

/// The outcome of one strategy run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy label.
    pub strategy: &'static str,
    /// Workload name.
    pub workload: String,
    /// Net time (simulated seconds).
    pub net: f64,
    /// Total time (simulated seconds).
    pub total: f64,
    /// DFS input bytes (GB at scale).
    pub input_gb: f64,
    /// Shuffle bytes (GB at scale).
    pub comm_gb: f64,
    /// Number of MapReduce rounds.
    pub rounds: usize,
    /// Number of MapReduce jobs.
    pub jobs: usize,
    /// Output cardinality (real tuples).
    pub output_tuples: usize,
}

impl RunResult {
    fn from_stats(
        strategy: Strategy,
        workload: &Workload,
        stats: &ProgramStats,
        output_tuples: usize,
    ) -> Self {
        RunResult {
            strategy: strategy.label(),
            workload: workload.name.clone(),
            net: stats.net_time(),
            total: stats.total_time(),
            input_gb: stats.input_bytes().as_bytes() as f64 / 1e9,
            comm_gb: stats.communication_bytes().as_bytes() as f64 / 1e9,
            rounds: stats.num_rounds(),
            jobs: stats.num_jobs(),
            output_tuples,
        }
    }
}

/// Whether a strategy can run a given workload (e.g. 1-ROUND needs a
/// fusible query; SEQ needs DNF conditions and a flat query).
pub fn applicable(strategy: Strategy, workload: &Workload) -> bool {
    use gumbo_core::QueryContext;
    match strategy {
        Strategy::OneRound => {
            let flat = gumbo_sgf::DependencyGraph::new(&workload.query)
                .level_sort()
                .len()
                == 1;
            flat && QueryContext::new(workload.query.queries().to_vec())
                .is_ok_and(|c| c.fused_requests().is_some())
        }
        Strategy::Seq | Strategy::Hpar | Strategy::Hpars | Strategy::Ppar => {
            // Flat (single-level) query sets only.
            gumbo_sgf::DependencyGraph::new(&workload.query)
                .level_sort()
                .len()
                == 1
        }
        _ => true,
    }
}

/// Execute one strategy on one workload.
pub fn run_strategy(strategy: Strategy, workload: &Workload, cfg: &RunConfig) -> Result<RunResult> {
    let spec = workload
        .spec
        .clone()
        .with_tuples(cfg.tuples)
        .with_selectivity(cfg.selectivity);
    let db = spec.database(cfg.seed);
    let dfs = SimDfs::from_database(&db);
    let engine_cfg = cfg.engine_config();
    let queries = workload.query.queries().to_vec();

    // Every strategy executes through the configured runtime: preset
    // engines get the executor kind stamped on, the job-level baselines
    // receive the built executor directly.
    let executor = cfg.executor.build(engine_cfg);
    let on = |mut engine: GumboEngine| {
        engine.executor = cfg.executor;
        engine
    };
    let stats = match strategy {
        Strategy::Seq => SeqStrategy::default().evaluate(&executor, &dfs, &queries)?,
        Strategy::Hpar => HiveSim::hpar().evaluate(&executor, &dfs, &queries)?,
        Strategy::Hpars => HiveSim::hpars().evaluate(&executor, &dfs, &queries)?,
        Strategy::Ppar => PigSim::ppar().evaluate(&executor, &dfs, &queries)?,
        Strategy::Par => on(par_engine(engine_cfg)).evaluate(&dfs, &workload.query)?,
        Strategy::ParUnit => on(parunit_engine(engine_cfg)).evaluate(&dfs, &workload.query)?,
        Strategy::Greedy => on(greedy_engine(engine_cfg)).evaluate(&dfs, &workload.query)?,
        Strategy::GreedySgf => on(greedy_sgf_engine(engine_cfg)).evaluate(&dfs, &workload.query)?,
        Strategy::OneRound => {
            if !applicable(strategy, workload) {
                return Err(GumboError::Plan(format!(
                    "1-ROUND is not applicable to workload {}",
                    workload.name
                )));
            }
            on(one_round_engine(engine_cfg)).evaluate(&dfs, &workload.query)?
        }
        Strategy::SeqUnit => on(sequnit_engine(engine_cfg)).evaluate(&dfs, &workload.query)?,
    };

    let mut output_tuples = 0;
    for q in workload.query.queries() {
        // For flat multi-query workloads (A4/A5) every output counts.
        if let Ok(rel) = dfs.peek(q.output()) {
            output_tuples += rel.len();
        }
    }

    if cfg.verify {
        let env = NaiveEvaluator::new().evaluate_sgf_all(&workload.query, &db)?;
        for q in workload.query.queries() {
            let expected = env
                .relation(q.output())
                .expect("naive computed all outputs");
            let got = dfs.peek(q.output())?;
            if got.as_ref() != expected {
                return Err(GumboError::Plan(format!(
                    "strategy {} produced a wrong result for {} of {} ({} vs {} tuples)",
                    strategy.label(),
                    q.output(),
                    workload.name,
                    got.len(),
                    expected.len()
                )));
            }
        }
    }

    Ok(RunResult::from_stats(
        strategy,
        workload,
        &stats,
        output_tuples,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_datagen::queries;

    fn tiny() -> RunConfig {
        RunConfig {
            tuples: 400,
            scale: 250_000,
            ..RunConfig::default()
        }
    }

    #[test]
    fn all_bsgf_strategies_verify_on_a1() {
        let w = queries::a1();
        for s in [
            Strategy::Seq,
            Strategy::Par,
            Strategy::Greedy,
            Strategy::Hpar,
            Strategy::Hpars,
            Strategy::Ppar,
        ] {
            let r = run_strategy(s, &w, &tiny()).unwrap();
            assert!(r.net > 0.0 && r.total >= r.net * 0.99, "{s:?}");
        }
    }

    #[test]
    fn one_round_applicability() {
        assert!(applicable(Strategy::OneRound, &queries::a3()));
        assert!(applicable(Strategy::OneRound, &queries::b2()));
        assert!(!applicable(Strategy::OneRound, &queries::a1()));
        assert!(!applicable(Strategy::Seq, &queries::c1()));
        assert!(applicable(Strategy::GreedySgf, &queries::c1()));
    }

    #[test]
    fn one_round_runs_on_a3() {
        let r = run_strategy(Strategy::OneRound, &queries::a3(), &tiny()).unwrap();
        assert_eq!(r.jobs, 1);
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn sgf_strategies_verify_on_c1() {
        let w = queries::c1();
        for s in [Strategy::SeqUnit, Strategy::ParUnit, Strategy::GreedySgf] {
            let r = run_strategy(s, &w, &tiny()).unwrap();
            assert!(r.net > 0.0, "{s:?}");
        }
    }

    #[test]
    fn parallel_executor_matches_simulated_run_results() {
        let w = queries::a3();
        for strategy in [Strategy::Greedy, Strategy::Seq, Strategy::OneRound] {
            let sim = run_strategy(strategy, &w, &tiny()).unwrap();
            let par_cfg = RunConfig {
                executor: ExecutorKind::Parallel { threads: 4 },
                ..tiny()
            };
            let par = run_strategy(strategy, &w, &par_cfg).unwrap();
            assert_eq!(sim.output_tuples, par.output_tuples, "{strategy:?}");
            assert_eq!(sim.rounds, par.rounds, "{strategy:?}");
            assert_eq!(sim.jobs, par.jobs, "{strategy:?}");
            assert!((sim.net - par.net).abs() < 1e-9, "{strategy:?}");
            assert!((sim.total - par.total).abs() < 1e-9, "{strategy:?}");
            assert_eq!(sim.input_gb, par.input_gb, "{strategy:?}");
            assert_eq!(sim.comm_gb, par.comm_gb, "{strategy:?}");
        }
    }

    #[test]
    fn par_beats_seq_on_net_time_for_a1() {
        let w = queries::a1();
        let seq = run_strategy(Strategy::Seq, &w, &tiny()).unwrap();
        let par = run_strategy(Strategy::Par, &w, &tiny()).unwrap();
        assert!(
            par.net < seq.net,
            "PAR net {} should beat SEQ net {}",
            par.net,
            seq.net
        );
        // ...at the cost of total time.
        assert!(par.total > seq.total);
    }
}
