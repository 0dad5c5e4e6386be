//! The hybrid solver the paper's §6.4 suggests:
//!
//! > *"the time required to generate optimal constrained design
//! > recommendations increases linearly with k … the time required for
//! > the merging heuristic is inversely related to k … Together, this
//! > suggests that a hybrid technique that switches to the merging
//! > approach for larger k will be an appropriate means of generating
//! > constrained designs."*
//!
//! The unconstrained optimum is solved first (both strategies need it
//! or its cost structure anyway). If it already satisfies `k`, done —
//! and optimally. Otherwise, with `l` unconstrained changes: a small
//! `k` relative to `l` means a cheap k-aware graph and many merging
//! steps, so the graph is used; a large `k` means few merging steps, so
//! merging refines the already-computed unconstrained design.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::tables::CostTables;
use crate::{kaware, merging, seqgraph};
use cdpd_types::Result;

/// Which strategy the hybrid actually ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// The unconstrained optimum already used at most `k` changes.
    UnconstrainedSufficed,
    /// Solved with the k-aware sequence graph (small `k`).
    KAwareGraph,
    /// Refined the unconstrained optimum by merging (large `k`).
    Merging,
}

/// Hybrid solve result.
#[derive(Clone, Debug)]
pub struct HybridOutcome {
    /// The recommended design.
    pub schedule: Schedule,
    /// Strategy used.
    pub strategy: Strategy,
}

/// Fraction of the unconstrained change count above which merging is
/// chosen: the paper's §6.4 split, "merging for larger k", placed at
/// half of `l`. It is not fitted to a measurement: the Figure 4
/// reproduction (EXPERIMENTS.md) finds merging cheaper at every `k` in
/// `2..=18`. Choosing the strategy from evidence instead is ROADMAP.md
/// item 5(b).
pub const DEFAULT_SWITCH_FRACTION: f64 = 0.5;

/// Solve with the default switch point.
pub fn solve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
) -> Result<HybridOutcome> {
    solve_with_switch(oracle, problem, candidates, k, DEFAULT_SWITCH_FRACTION)
}

/// Solve, switching to merging when `k ≥ switch_fraction · l`.
pub fn solve_with_switch(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
    switch_fraction: f64,
) -> Result<HybridOutcome> {
    let _span = cdpd_obs::span!("solve.hybrid", k = k, candidates = candidates.len());
    // One set of tables prices both stages: the unconstrained solve and
    // whichever strategy then brings it down to `k` changes.
    let tables = CostTables::build(oracle, problem, candidates)?;
    let path = seqgraph::shortest_path(&tables, problem)?;
    let unconstrained = tables.schedule(problem, &path);
    if unconstrained.changes <= k {
        return Ok(HybridOutcome {
            schedule: unconstrained,
            strategy: Strategy::UnconstrainedSufficed,
        });
    }
    let l = unconstrained.changes as f64;
    if (k as f64) >= switch_fraction * l {
        let replacements = tables.configs().len();
        let schedule = merging::refine_path(oracle, problem, &tables, replacements, k, &path)?;
        Ok(HybridOutcome {
            schedule,
            strategy: Strategy::Merging,
        })
    } else {
        let path = kaware::shortest_path(&tables, problem, k)?;
        Ok(HybridOutcome {
            schedule: tables.schedule(problem, &path),
            strategy: Strategy::KAwareGraph,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::problem::SyntheticOracle;
    use cdpd_types::Cost;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    fn phased(n: usize, m: usize) -> SyntheticOracle {
        SyntheticOracle::from_fn(
            n,
            m,
            move |stage, cfg| {
                let preferred = (stage * m) / n;
                let minor = (preferred + 1) % m;
                let want = if stage % 2 == 1 { minor } else { preferred };
                if cfg.contains(want) {
                    c(20)
                } else if cfg.contains(preferred) {
                    c(120)
                } else {
                    c(300)
                }
            },
            vec![c(5); m],
            c(1),
            vec![1; m],
        )
    }

    #[test]
    fn strategy_selection() {
        let o = phased(18, 3);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let unc = seqgraph::solve(&o, &p, &cands).unwrap();
        assert!(unc.changes >= 4, "need a twitchy baseline: {unc}");

        let big = solve(&o, &p, &cands, unc.changes).unwrap();
        assert_eq!(big.strategy, Strategy::UnconstrainedSufficed);

        let small = solve(&o, &p, &cands, 1).unwrap();
        assert_eq!(small.strategy, Strategy::KAwareGraph);

        let large = solve(&o, &p, &cands, unc.changes - 1).unwrap();
        assert_eq!(large.strategy, Strategy::Merging);
    }

    #[test]
    fn all_strategies_respect_k() {
        let o = phased(12, 3);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        for k in 0..8 {
            let out = solve(&o, &p, &cands, k).unwrap();
            out.schedule.validate(&o, &p, Some(k)).unwrap();
        }
    }

    #[test]
    fn switch_fraction_is_tunable() {
        let o = phased(12, 3);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // Force merging even at k = 1.
        let merged = solve_with_switch(&o, &p, &cands, 1, 0.0).unwrap();
        assert_eq!(merged.strategy, Strategy::Merging);
        // Force the graph always.
        let graphed = solve_with_switch(&o, &p, &cands, 4, 10.0).unwrap();
        assert!(matches!(
            graphed.strategy,
            Strategy::KAwareGraph | Strategy::UnconstrainedSufficed
        ));
    }
}
