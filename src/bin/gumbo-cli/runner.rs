//! Strategy runners: one entry point executing any of the paper's
//! evaluation strategies on a workload, with result verification.

use gumbo::baselines::{HiveSim, PigSim, SeqStrategy, Strategy};
use gumbo::common::{GumboError, Result};
use gumbo::datagen::Workload;
use gumbo::mr::{EngineConfig, ExecutorKind, ProgramStats};
use gumbo::sgf::NaiveEvaluator;
use gumbo::storage::{Dfs, SimDfs};

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
        }
    }
}

impl RunConfig {
    /// The paper-equivalent guard tuple count.
    pub fn equivalent_tuples(&self) -> u64 {
        self.tuples as u64 * self.scale
    }

    /// The cost-model scale and simulated cluster of this run.
    pub fn engine_config(&self) -> EngineConfig {
        super::engine_config(self.scale, self.nodes)
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
}

impl RunResult {
    fn from_stats(strategy: Strategy, workload: &Workload, stats: &ProgramStats) -> Self {
        RunResult {
            strategy: strategy.label(),
            workload: workload.name.clone(),
            net: stats.net_time(),
            total: stats.total_time(),
            input_gb: stats.input_bytes().as_bytes() as f64 / 1e9,
            comm_gb: stats.communication_bytes().as_bytes() as f64 / 1e9,
            rounds: stats.num_rounds(),
            jobs: stats.num_jobs(),
        }
    }
}

/// Execute one strategy on one workload.
pub fn run_strategy(strategy: Strategy, workload: &Workload, cfg: &RunConfig) -> Result<RunResult> {
    if !strategy.applicable(&workload.query) {
        return Err(GumboError::Plan(format!(
            "{} is not applicable to workload {}",
            strategy.label(),
            workload.name
        )));
    }
    let spec = workload
        .spec
        .clone()
        .with_tuples(cfg.tuples)
        .with_selectivity(cfg.selectivity);
    let db = spec.database(cfg.seed);
    let dfs = SimDfs::from_database(&db);
    let engine_cfg = cfg.engine_config();
    let queries = workload.query.queries().to_vec();

    // Every strategy executes through the configured runtime: Gumbo
    // engines get the executor kind stamped on, the job-level baselines
    // receive the built executor directly.
    let stats = if let Some(mut engine) = strategy.engine(engine_cfg) {
        engine.executor = cfg.executor;
        engine.evaluate(&dfs, &workload.query)?
    } else {
        let executor = cfg.executor.build(engine_cfg);
        match strategy {
            Strategy::Seq => SeqStrategy::default().evaluate(&executor, &dfs, &queries)?,
            Strategy::Hpar => HiveSim::hpar().evaluate(&executor, &dfs, &queries)?,
            Strategy::Hpars => HiveSim::hpars().evaluate(&executor, &dfs, &queries)?,
            Strategy::Ppar => PigSim::ppar().evaluate(&executor, &dfs, &queries)?,
            _ => unreachable!("{strategy:?} has an engine"),
        }
    };

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

    Ok(RunResult::from_stats(strategy, workload, &stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo::datagen::queries;

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
        assert!(Strategy::OneRound.applicable(&queries::a3().query));
        assert!(Strategy::OneRound.applicable(&queries::b2().query));
        assert!(!Strategy::OneRound.applicable(&queries::a1().query));
        assert!(!Strategy::Seq.applicable(&queries::c1().query));
        assert!(Strategy::GreedySgf.applicable(&queries::c1().query));
        let err = run_strategy(Strategy::OneRound, &queries::a1(), &tiny()).unwrap_err();
        assert!(err.to_string().contains("not applicable"), "{err}");
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
            // Both runs verify every output against the naive evaluator.
            let par = run_strategy(strategy, &w, &par_cfg).unwrap();
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
