//! Sequence graphs and the unconstrained optimum (§3).
//!
//! A sequence graph has one *stage* of nodes per workload statement,
//! one node per candidate configuration, node weights `EXEC(Sᵢ, C)`,
//! edge weights `TRANS(C, C')`, plus a source (the initial
//! configuration) and a destination (optionally constraining the final
//! configuration). Dynamic designs are exactly the source→destination
//! paths, and the optimal unconstrained design is the shortest path —
//! `O(n·4^m)` with full candidate enumeration, or `O(n·|cands|²)` in
//! general. No solver materialises the graph: this one and the k-aware
//! graph run a layered dynamic program over the cost tables, and §5
//! ranking searches the same tables best-first.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::tables::CostTables;
use cdpd_types::{Error, Result};

/// The unconstrained optimum over already-built tables, as a path of
/// configuration indexes.
pub(crate) fn shortest_path(tables: &CostTables, problem: &Problem) -> Result<Vec<usize>> {
    tables
        .shortest_path(problem, None)
        .ok_or_else(|| Error::Infeasible("sequence graph has no finite-cost path".into()))
}

/// Optimal *unconstrained* dynamic design over `candidates`
/// (Agrawal et al.'s formulation; the paper's baseline).
pub fn solve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
) -> Result<Schedule> {
    let _span = cdpd_obs::span!("solve.seqgraph", candidates = candidates.len());
    let tables = CostTables::build(oracle, problem, candidates)?;
    let path = shortest_path(&tables, problem)?;
    Ok(tables.schedule(problem, &path))
}

/// Optimal unconstrained design whose first `prefix.len()` stages are
/// pinned to an already-committed prefix — the warm-start entry point.
/// Extending the horizon by one window re-solves only the suffix
/// (`O((n − p)·|cands|²)` graph work) from the prefix's last
/// configuration, instead of rebuilding the whole sequence graph; when
/// the oracle is a shared memoizing layer, suffix probes that earlier
/// solves already evaluated are cache hits.
///
/// With an empty prefix this is exactly [`solve`]. The result is a
/// full `n`-stage [`Schedule`] evaluated under the original `problem`,
/// directly comparable to a cold solve — and by the principle of
/// optimality, optimal among all schedules sharing the prefix.
pub fn solve_with_prefix(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    prefix: &[Config],
) -> Result<Schedule> {
    if prefix.is_empty() {
        return solve(oracle, problem, candidates);
    }
    let _span = cdpd_obs::span!(
        "solve.seqgraph.warm",
        prefix = prefix.len(),
        candidates = candidates.len()
    );
    crate::warm::check_prefix(oracle, problem, prefix)?;
    if prefix.len() == oracle.n_stages() {
        return Ok(Schedule::evaluate(oracle, problem, prefix.to_vec()));
    }
    let suffix = crate::warm::SuffixOracle {
        inner: oracle,
        start: prefix.len(),
    };
    let sub = crate::warm::suffix_problem(problem, prefix);
    let tail = solve(&suffix, &sub, candidates)?;
    let mut configs = prefix.to_vec();
    configs.extend(tail.configs);
    Ok(Schedule::evaluate(oracle, problem, configs))
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

    /// Two structures; stage s is cheap under structure s % 2.
    fn alternating_oracle(n: usize, build: u64) -> SyntheticOracle {
        SyntheticOracle::from_fn(
            n,
            2,
            |stage, cfg| {
                if cfg.contains(stage % 2) {
                    c(10)
                } else {
                    c(100)
                }
            },
            vec![c(build), c(build)],
            c(1),
            vec![1, 1],
        )
    }

    #[test]
    fn cheap_transitions_track_every_shift() {
        let o = alternating_oracle(4, 5);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let s = solve(&o, &p, &cands).unwrap();
        assert_eq!(s.changes, 3, "design flips every stage: {s}");
        assert_eq!(s.exec_cost, c(40));
    }

    #[test]
    fn expensive_transitions_freeze_the_design() {
        let o = alternating_oracle(4, 10_000);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let s = solve(&o, &p, &cands).unwrap();
        assert!(s.changes <= 1, "flipping can never pay for itself: {s}");
    }

    #[test]
    fn matches_brute_force_on_small_instances() {
        let o = SyntheticOracle::from_fn(
            3,
            2,
            |stage, cfg| c(((stage as u64 + 1) * 37) % (3 + cfg.bits() * 11) + 5),
            vec![c(9), c(14)],
            c(2),
            vec![1, 1],
        );
        let p = Problem {
            final_config: Some(Config::EMPTY),
            ..Problem::default()
        };
        let cands = enumerate_configs(&o, None, None).unwrap();
        let got = solve(&o, &p, &cands).unwrap();

        // Brute force over all |cands|^3 schedules.
        let mut best: Option<Schedule> = None;
        for a in &cands {
            for b in &cands {
                for d in &cands {
                    let s = Schedule::evaluate(&o, &p, vec![a.clone(), b.clone(), d.clone()]);
                    if best
                        .as_ref()
                        .is_none_or(|x| s.total_cost() < x.total_cost())
                    {
                        best = Some(s);
                    }
                }
            }
        }
        assert_eq!(got.total_cost(), best.unwrap().total_cost());
    }

    #[test]
    fn space_bound_excludes_candidates() {
        let o = SyntheticOracle::from_fn(
            2,
            2,
            |_, cfg| if cfg.contains(1) { c(1) } else { c(50) },
            vec![c(1), c(1)],
            c(1),
            vec![1, 100],
        );
        let p = Problem {
            space_bound: Some(10),
            ..Problem::default()
        };
        let cands = enumerate_configs(&o, None, None).unwrap();
        let s = solve(&o, &p, &cands).unwrap();
        assert!(
            s.configs.iter().all(|cfg| !cfg.contains(1)),
            "structure 1 violates the bound: {s}"
        );
        s.validate(&o, &p, None).unwrap();
    }

    #[test]
    fn warm_prefix_of_the_optimum_reproduces_the_optimum() {
        // Principle of optimality: pin any prefix of the cold optimum
        // and the warm solve must land on the same total cost.
        let o = alternating_oracle(6, 30);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let cold = solve(&o, &p, &cands).unwrap();
        for split in 0..=o.n_stages() {
            let warm = solve_with_prefix(&o, &p, &cands, &cold.configs[..split]).unwrap();
            assert_eq!(warm.total_cost(), cold.total_cost(), "split={split}");
            assert_eq!(warm.configs[..split], cold.configs[..split]);
            assert_eq!(warm.configs.len(), o.n_stages());
            warm.validate(&o, &p, None).unwrap();
        }
    }

    #[test]
    fn warm_solve_respects_a_suboptimal_commitment() {
        // A deliberately bad committed prefix: the warm solve optimizes
        // the suffix but must keep the prefix and charge its costs.
        let o = alternating_oracle(4, 5);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let bad = Config::EMPTY; // cheap under nothing
        let warm = solve_with_prefix(&o, &p, &cands, std::slice::from_ref(&bad)).unwrap();
        assert_eq!(warm.configs[0], bad);
        let cold = solve(&o, &p, &cands).unwrap();
        assert!(warm.total_cost() >= cold.total_cost());
        // The suffix is still optimal among schedules starting [bad, ..].
        for b in &cands {
            for cc in &cands {
                for d in &cands {
                    let s = Schedule::evaluate(
                        &o,
                        &p,
                        vec![bad.clone(), b.clone(), cc.clone(), d.clone()],
                    );
                    assert!(warm.total_cost() <= s.total_cost());
                }
            }
        }
    }

    #[test]
    fn warm_prefix_input_validation() {
        let o = alternating_oracle(3, 5);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let too_long = vec![Config::EMPTY; 4];
        assert!(solve_with_prefix(&o, &p, &cands, &too_long).is_err());
        // Full-length prefix: nothing left to solve, just evaluate.
        let full = vec![Config::from_bits(1); 3];
        let s = solve_with_prefix(&o, &p, &cands, &full).unwrap();
        assert_eq!(s.configs, full);
    }

    #[test]
    fn infeasible_inputs_error() {
        let o = alternating_oracle(2, 5);
        let p = Problem {
            space_bound: Some(0),
            ..Problem::default()
        };
        // Only the empty config fits; that is still feasible.
        let cands = enumerate_configs(&o, None, None).unwrap();
        assert!(solve(&o, &p, &cands).is_ok());
        // No candidates at all is not.
        assert!(solve(&o, &p, &[]).is_err());
        // Empty workload is rejected.
        let empty = SyntheticOracle::from_fn(0, 1, |_, _| c(1), vec![c(1)], c(1), vec![1]);
        assert!(solve(&empty, &Problem::default(), &[Config::EMPTY]).is_err());
    }
}
