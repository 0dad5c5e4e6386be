//! GREEDY-SEQ-style candidate restriction (§4.1).
//!
//! The exponential solvers enumerate `2^m` configurations; GREEDY-SEQ
//! (Agrawal, Chu, Narasayya 2006) instead derives a *small* candidate
//! set from per-statement analysis and runs the shortest-path machinery
//! over it — `O(mn)` candidates, turning the k-aware solve into
//! `O(k·n³·m²)` in the worst case and far less in practice.
//!
//! Adaptation note (documented in DESIGN.md): the original GREEDY-SEQ
//! consults the server's what-if optimizer per statement to pick that
//! statement's best configurations. Our oracle exposes exactly that, so
//! per stage we take: the best single structure, the union of the two
//! best single structures (when it helps and fits), the empty
//! configuration, and the problem's boundary configurations.

use crate::config::Config;
use crate::oracle::ProjectableOracle;
use crate::problem::Problem;
use crate::schedule::Schedule;
use crate::{kaware, seqgraph};
use cdpd_types::Result;

/// Derive the restricted candidate set from per-stage analysis.
///
/// The per-stage ranking of single structures is read from
/// [`ProjectableOracle::singleton_costs`], which covers the stage's
/// relevance mask; every structure outside the mask costs what the
/// empty configuration costs, so the two lowest-indexed of those stand
/// in for all of them and the top two are exactly those of a ranking
/// over the whole vocabulary (ties go to the lower index).
pub fn candidates(oracle: &dyn ProjectableOracle, problem: &Problem) -> Vec<Config> {
    let m = oracle.n_structures();
    let mut out: Vec<Config> = vec![Config::EMPTY, problem.initial.clone()];
    if let Some(f) = &problem.final_config {
        out.push(f.clone());
    }
    for stage in 0..oracle.n_stages() {
        let costs = oracle.singleton_costs(stage);
        let mut in_mask = costs.singles.iter().map(|&(s, _)| s).peekable();
        let outside = (0..m)
            .filter(|s| in_mask.next_if_eq(s).is_none())
            .take(2)
            .map(|s| (costs.empty, s));
        // Rank by this stage's exec cost, lower index first among equals.
        let mut singles: Vec<_> = costs.singles.iter().map(|&(s, cost)| (cost, s)).collect();
        singles.extend(outside);
        singles.sort_unstable();
        if let Some(&(best_cost, best)) = singles.first() {
            let best_cfg = Config::single(best);
            // The union of the top two, when it actually helps.
            if let Some(&(_, second)) = singles.get(1) {
                let pair = best_cfg.with(second);
                if problem.fits(oracle, &pair) && oracle.exec(stage, &pair) < best_cost {
                    out.push(pair);
                }
            }
            if problem.fits(oracle, &best_cfg) {
                out.push(best_cfg);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Constrained design over the restricted candidate set.
pub fn solve(oracle: &dyn ProjectableOracle, problem: &Problem, k: usize) -> Result<Schedule> {
    let _span = cdpd_obs::span!("solve.greedy", k = k);
    let cands = candidates(oracle, problem);
    kaware::solve(oracle, problem, &cands, k)
}

/// Unconstrained design over the restricted candidate set
/// (Agrawal et al.'s original GREEDY-SEQ).
pub fn solve_unconstrained(oracle: &dyn ProjectableOracle, problem: &Problem) -> Result<Schedule> {
    let _span = cdpd_obs::span!("solve.greedy_unconstrained");
    let cands = candidates(oracle, problem);
    seqgraph::solve(oracle, problem, &cands)
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

    /// Each *phase* strongly prefers one singleton structure; wider
    /// configurations carry a heavy maintenance penalty, so pairs never
    /// help and the optimum is built from per-stage winners.
    fn single_winner(n: usize, m: usize) -> SyntheticOracle {
        SyntheticOracle::from_fn(
            n,
            m,
            move |stage, cfg| {
                let want = (stage * m) / n;
                let width_penalty = 50 * (cfg.len().saturating_sub(1)) as u64;
                if cfg.contains(want) {
                    c(10 + width_penalty)
                } else {
                    c(200 + width_penalty)
                }
            },
            vec![c(15); m],
            c(1),
            vec![1; m],
        )
    }

    #[test]
    fn candidate_set_is_small() {
        let o = single_winner(24, 8);
        let p = Problem::default();
        let cands = candidates(&o, &p);
        // Per-stage winners (8 distinct) + empty; far below 2^8 = 256.
        assert!(cands.len() <= 2 + 8, "got {}", cands.len());
        assert!(cands.contains(&Config::EMPTY));
    }

    #[test]
    fn greedy_matches_optimal_when_winners_are_singletons() {
        let o = single_winner(12, 4);
        let p = Problem::paper_experiment();
        let full = enumerate_configs(&o, None, None).unwrap();
        for k in [1, 2, 3, 6] {
            let greedy = solve(&o, &p, k).unwrap();
            let optimal = kaware::solve(&o, &p, &full, k).unwrap();
            greedy.validate(&o, &p, Some(k)).unwrap();
            assert!(
                greedy.total_cost() >= optimal.total_cost(),
                "a heuristic beating the optimum is a bug (k={k})"
            );
            // With one segment per phase available (k ≥ phases − 1) the
            // per-stage singleton winners are exactly what the optimum
            // uses, so the restriction loses nothing. Below that the
            // optimum packs multiple phases into one segment with pair
            // configurations greedy does not generate — the documented
            // heuristic gap.
            if k >= 3 {
                assert_eq!(
                    greedy.total_cost(),
                    optimal.total_cost(),
                    "restriction must be lossless at k={k}"
                );
            }
        }
    }

    #[test]
    fn pair_candidates_appear_when_they_help() {
        // Stages want BOTH structures at once.
        let o = SyntheticOracle::from_fn(
            4,
            2,
            |_, cfg| match cfg.len() {
                2 => c(5),
                1 => c(50),
                _ => c(200),
            },
            vec![c(10), c(10)],
            c(1),
            vec![1, 1],
        );
        let p = Problem::default();
        let cands = candidates(&o, &p);
        assert!(
            cands.contains(&Config::from_bits(0b11)),
            "pair config must be generated: {cands:?}"
        );
        let s = solve(&o, &p, 1).unwrap();
        assert!(s.configs.iter().all(|c| c.len() == 2), "{s}");
    }

    #[test]
    fn space_bound_limits_candidates() {
        let o = single_winner(6, 3);
        let p = Problem {
            space_bound: Some(0),
            ..Problem::default()
        };
        let cands = candidates(&o, &p);
        assert!(cands.iter().all(|c| c.is_empty()), "{cands:?}");
        let s = solve(&o, &p, 2).unwrap();
        assert!(s.configs.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn unconstrained_variant_runs() {
        let o = single_winner(12, 3);
        let p = Problem::default();
        let s = solve_unconstrained(&o, &p).unwrap();
        assert!(s.changes >= 2, "tracks the phases: {s}");
    }
}
