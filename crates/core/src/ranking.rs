//! Constrained design via shortest-path ranking (§5).
//!
//! Enumerate source→destination paths of the *unconstrained* sequence
//! graph in ascending cost and stop at the first whose design sequence
//! has at most `k` changes. Because every path seen earlier was
//! cheaper-or-equal and had too many changes, the first feasible path
//! is an optimal constrained design — the ranking is an *anytime
//! optimal* alternative to the k-aware graph.
//!
//! The underlying ranking (`cdpd_graph::PathRanking`) is best-first
//! search with an exact remaining-distance heuristic, so producing each
//! next path is cheap; the danger is the number of paths that must be
//! ranked, which §5 shows can be astronomical when k is small and many
//! cheap-but-twitchy designs precede the first calm one. `max_paths`
//! caps the search; hitting the cap returns
//! [`cdpd_types::Error::Infeasible`] so callers can fall back to the
//! k-aware graph (see [`crate::hybrid`]).

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::seqgraph;
use crate::tables::CostTables;
use cdpd_graph::PathRanking;
use cdpd_types::{Error, Result};

/// Statistics about a ranking run (how hard the instance was).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankingStats {
    /// Paths generated before the first feasible one (inclusive).
    pub paths_ranked: usize,
}

/// Optimal design with at most `k` changes, by ranking at most
/// `max_paths` paths.
pub fn solve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
    max_paths: usize,
) -> Result<Schedule> {
    solve_with_stats(oracle, problem, candidates, k, max_paths).map(|(s, _)| s)
}

/// [`solve`], also reporting how many paths were ranked.
pub fn solve_with_stats(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
    max_paths: usize,
) -> Result<(Schedule, RankingStats)> {
    let _span = cdpd_obs::span!("solve.ranking", k = k, max_paths = max_paths);
    let tables = CostTables::build(oracle, problem, candidates)?;
    let graph = seqgraph::build(&tables);
    let mut ranked = 0usize;
    for path in PathRanking::new(&graph.dag, graph.source, graph.dest) {
        ranked += 1;
        if ranked > max_paths {
            return Err(Error::Infeasible(format!(
                "ranking budget of {max_paths} paths exhausted before a ≤{k}-change design"
            )));
        }
        let picks: Vec<usize> = path
            .nodes
            .iter()
            .filter_map(|&n| *graph.dag.payload(n))
            .collect();
        if tables.changes(problem, &picks) <= k {
            let schedule = tables.schedule(problem, &picks);
            debug_assert_eq!(schedule.total_cost(), path.cost);
            return Ok((
                schedule,
                RankingStats {
                    paths_ranked: ranked,
                },
            ));
        }
    }
    Err(Error::Infeasible(format!(
        "no design with at most {k} changes exists in the sequence graph"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::kaware;
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
                    c(45)
                } else {
                    c(300)
                }
            },
            vec![c(25); m],
            c(1),
            vec![1; m],
        )
    }

    #[test]
    fn ranking_matches_kaware_optimum() {
        let o = phased(8, 2);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        for k in 0..5 {
            let via_rank = solve(&o, &p, &cands, k, 1_000_000).unwrap();
            let via_graph = kaware::solve(&o, &p, &cands, k).unwrap();
            assert_eq!(
                via_rank.total_cost(),
                via_graph.total_cost(),
                "both are optimal at k={k}"
            );
            via_rank.validate(&o, &p, Some(k)).unwrap();
        }
    }

    #[test]
    fn first_path_wins_when_unconstrained_is_calm() {
        // Transitions so expensive the shortest path never changes
        // design: ranking should stop at path #1.
        let o = SyntheticOracle::from_fn(
            5,
            2,
            |_, cfg| if cfg.is_empty() { c(50) } else { c(40) },
            vec![c(100_000), c(100_000)],
            c(1),
            vec![1, 1],
        );
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let (s, stats) = solve_with_stats(&o, &p, &cands, 1, 10).unwrap();
        assert_eq!(stats.paths_ranked, 1);
        assert!(s.changes <= 1);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let o = phased(8, 3);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // k = 0 with strongly phased costs: many twitchy paths are
        // cheaper than any frozen design, so a tiny budget must trip.
        let err = solve(&o, &p, &cands, 0, 2).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }
}
