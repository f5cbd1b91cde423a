//! The evaluation strategies of §5: one table of names, applicability
//! rules and, for the Gumbo-side strategies, engine options.

use gumbo_core::{EvalOptions, Grouping, GumboEngine, QueryContext, SortStrategy};
use gumbo_mr::EngineConfig;
use gumbo_sgf::{DependencyGraph, SgfQuery};

/// The evaluation strategies of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Sequential semi-join reducers (BSGF experiments).
    Seq,
    /// Parallel, ungrouped MSJ jobs.
    Par,
    /// `Greedy-BSGF` (§5.2, Figure 3): all queries of a flat set planned
    /// as *one* basic MR program (§4.5), no 1-ROUND fusion.
    Greedy,
    /// 1-ROUND fusion (§5.1 (4)) where applicable, greedy otherwise.
    OneRound,
    /// Hive with outer joins (sequential stages).
    Hpar,
    /// Hive with semi-join operators (parallel, no grouping).
    Hpars,
    /// Pig COGROUP.
    Ppar,
    /// SGF: one BSGF at a time in definition order, semi-joins ungrouped.
    SeqUnit,
    /// SGF: level-by-level, queries on one level in parallel, semi-joins
    /// ungrouped.
    ParUnit,
    /// SGF: `Greedy-SGF` ordering with `Greedy-BSGF` grouping — the
    /// paper's headline SGF strategy.
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

    /// Whether the strategy can run `query`: 1-ROUND needs a flat,
    /// fusible query; SEQ and the Pig/Hive simulations a flat one.
    pub fn applicable(self, query: &SgfQuery) -> bool {
        let flat = || DependencyGraph::new(query).level_sort().len() == 1;
        match self {
            Strategy::OneRound => {
                flat()
                    && QueryContext::new(query.queries().to_vec())
                        .is_ok_and(|c| c.fused_requests().is_some())
            }
            Strategy::Seq | Strategy::Hpar | Strategy::Hpars | Strategy::Ppar => flat(),
            _ => true,
        }
    }

    /// The Gumbo engine that evaluates this strategy on the simulated
    /// runtime, or `None` for the job-level baselines (SEQ, HPAR, HPARS,
    /// PPAR), which run on an executor directly. Every engine keeps the
    /// guard-reference optimization on.
    pub fn engine(self, config: EngineConfig) -> Option<GumboEngine> {
        let (grouping, sort, enable_one_round) = match self {
            Strategy::Greedy => (Grouping::Greedy, SortStrategy::Levels, false),
            Strategy::Par | Strategy::ParUnit => {
                (Grouping::Singletons, SortStrategy::Levels, false)
            }
            Strategy::OneRound => (Grouping::Greedy, SortStrategy::GreedySgf, true),
            Strategy::SeqUnit => (Grouping::Singletons, SortStrategy::Sequential, false),
            Strategy::GreedySgf => (Grouping::Greedy, SortStrategy::GreedySgf, false),
            Strategy::Seq | Strategy::Hpar | Strategy::Hpars | Strategy::Ppar => return None,
        };
        let options = EvalOptions {
            grouping,
            sort,
            enable_one_round,
            ..EvalOptions::default()
        };
        Some(GumboEngine::new(config, options))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gumbo_core::PayloadMode;

    #[test]
    fn engines_have_expected_options() {
        let options = |s: Strategy| s.engine(EngineConfig::default()).unwrap().options;
        assert_eq!(options(Strategy::Greedy).grouping, Grouping::Greedy);
        assert!(!options(Strategy::Greedy).enable_one_round);
        assert_eq!(options(Strategy::Par).grouping, Grouping::Singletons);
        assert!(options(Strategy::OneRound).enable_one_round);
        assert_eq!(options(Strategy::SeqUnit).sort, SortStrategy::Sequential);
        assert_eq!(options(Strategy::ParUnit).sort, SortStrategy::Levels);
        assert_eq!(
            format!("{:?}", options(Strategy::Par)),
            format!("{:?}", options(Strategy::ParUnit))
        );
        // All Gumbo engines keep the reference optimization on.
        assert_eq!(options(Strategy::Greedy).mode, PayloadMode::Reference);
        for s in [
            Strategy::Seq,
            Strategy::Hpar,
            Strategy::Hpars,
            Strategy::Ppar,
        ] {
            assert!(s.engine(EngineConfig::default()).is_none(), "{s:?}");
        }
    }
}
