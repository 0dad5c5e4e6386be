//! The *k-aware sequence graph*: the paper's optimal solution to the
//! constrained problem (§3).
//!
//! The sequence graph is replicated into `k + 1` *layers*; a node
//! `(stage, config, layer)` means "statement `stage` runs under
//! `config` after exactly `layer` design changes so far". Staying in a
//! configuration moves horizontally within a layer; changing
//! configuration descends one layer. Paths through the layered graph
//! are exactly the dynamic designs with at most `k` changes, so the
//! shortest path is the constrained optimum — `O(k·n·4^m)` time with
//! full enumeration (the paper's `O(k·n·2^{2m})`).
//!
//! The layered graph is walked, not built: `EXEC` and `TRANS` are read
//! into dense tables once per solve and a forward dynamic program keeps
//! one stage of `|C|·(k + 1)` distances plus a predecessor per node
//! (`crate::tables`), resolving equal-cost designs exactly as the
//! explicit graph's shortest-path walk did.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::tables::CostTables;
use cdpd_types::{Error, Result};

/// The constrained optimum over already-built tables, as a path of
/// configuration indexes.
pub(crate) fn shortest_path(
    tables: &CostTables,
    problem: &Problem,
    k: usize,
) -> Result<Vec<usize>> {
    tables
        .shortest_path(problem, Some(k))
        .ok_or_else(|| no_design(k))
}

/// The error for a budget under which no finite-cost design exists.
pub(crate) fn no_design(k: usize) -> Error {
    Error::Infeasible(format!("no design with at most {k} changes"))
}

/// Optimal design with at most `k` changes over `candidates`.
pub fn solve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
) -> Result<Schedule> {
    let _span = cdpd_obs::span!("solve.kaware", k = k, candidates = candidates.len());
    let tables = CostTables::build(oracle, problem, candidates)?;
    let path = shortest_path(&tables, problem, k)?;
    let schedule = tables.schedule(problem, &path);
    debug_assert!(
        schedule.changes <= k,
        "layering must enforce the change budget"
    );
    Ok(schedule)
}

/// Optimal design with at most `k` *total* changes whose first
/// `prefix.len()` stages are pinned to an already-committed prefix —
/// the warm-start entry point for rolling re-solves.
///
/// The changes the prefix already spent (counted exactly as
/// [`Schedule::evaluate`] counts them) are deducted from `k`; the
/// suffix is solved under the remaining budget, starting from the
/// prefix's last configuration, with the boundary change counted. Errs
/// with [`Error::Infeasible`] when the prefix alone exceeds `k`. With
/// an empty prefix this is exactly [`solve`]; the result is always a
/// full `n`-stage schedule under the original `problem`.
pub fn solve_with_prefix(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
    prefix: &[Config],
) -> Result<Schedule> {
    if prefix.is_empty() {
        return solve(oracle, problem, candidates, k);
    }
    let _span = cdpd_obs::span!("solve.kaware.warm", k = k, prefix = prefix.len());
    crate::warm::check_prefix(oracle, problem, prefix)?;
    let used = problem.changes(prefix);
    let Some(remaining) = k.checked_sub(used) else {
        return Err(Error::Infeasible(format!(
            "committed prefix already uses {used} changes, over the budget of {k}"
        )));
    };
    if prefix.len() == oracle.n_stages() {
        return Ok(Schedule::evaluate(oracle, problem, prefix.to_vec()));
    }
    let suffix = crate::warm::SuffixOracle {
        inner: oracle,
        start: prefix.len(),
    };
    let sub = crate::warm::suffix_problem(problem, prefix);
    let tail = solve(&suffix, &sub, candidates, remaining)?;
    let mut configs = prefix.to_vec();
    configs.extend(tail.configs);
    let schedule = Schedule::evaluate(oracle, problem, configs);
    debug_assert!(
        schedule.changes <= k,
        "prefix + suffix must respect the total budget"
    );
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::problem::SyntheticOracle;
    use crate::seqgraph;
    use cdpd_types::Cost;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    /// W1-like: three phases, each preferring a different structure;
    /// minor fluctuations inside each phase.
    fn phased_oracle() -> SyntheticOracle {
        SyntheticOracle::from_fn(
            12,
            3,
            |stage, cfg| {
                let phase = stage / 4;
                let fluctuation = stage % 2 == 1;
                let preferred = phase;
                let minor = (phase + 1) % 3;
                let want = if fluctuation { minor } else { preferred };
                if cfg.contains(want) {
                    c(20)
                } else if cfg.contains(preferred) {
                    c(40)
                } else {
                    c(200)
                }
            },
            vec![c(30); 3],
            c(1),
            vec![1; 3],
        )
    }

    #[test]
    fn k_bounds_are_respected_and_cost_is_monotone() {
        let o = phased_oracle();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let unconstrained = seqgraph::solve(&o, &p, &cands).unwrap();
        let mut prev_cost = None;
        for k in 0..=unconstrained.changes + 1 {
            let s = solve(&o, &p, &cands, k).unwrap();
            s.validate(&o, &p, Some(k)).unwrap();
            if let Some(prev) = prev_cost {
                assert!(s.total_cost() <= prev, "more budget can never hurt");
            }
            prev_cost = Some(s.total_cost());
        }
        // With enough budget the constrained optimum IS the optimum.
        let full = solve(&o, &p, &cands, unconstrained.changes).unwrap();
        assert_eq!(full.total_cost(), unconstrained.total_cost());
    }

    #[test]
    fn k2_tracks_major_shifts_only() {
        let o = phased_oracle();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let s = solve(&o, &p, &cands, 2).unwrap();
        assert_eq!(s.changes, 2);
        let segs = s.segments();
        assert_eq!(segs.len(), 3, "one segment per phase: {s}");
        // Each phase settles on its preferred structure.
        assert!(segs[0].1.contains(0));
        assert!(segs[1].1.contains(1));
        assert!(segs[2].1.contains(2));
    }

    #[test]
    fn matches_brute_force_under_constraint() {
        let o = SyntheticOracle::from_fn(
            4,
            2,
            |stage, cfg| c((stage as u64 * 13 + cfg.bits() * 29) % 47 + 1),
            vec![c(7), c(11)],
            c(1),
            vec![1, 1],
        );
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, None).unwrap();
        for k in 0..4 {
            let got = solve(&o, &p, &cands, k).unwrap();
            let mut best: Option<Cost> = None;
            // Brute force all 4^4 schedules with ≤ k changes.
            let idx = 0..cands.len();
            for a in idx.clone() {
                for b in idx.clone() {
                    for cc in idx.clone() {
                        for d in idx.clone() {
                            let cfgs = vec![
                                cands[a].clone(),
                                cands[b].clone(),
                                cands[cc].clone(),
                                cands[d].clone(),
                            ];
                            let s = Schedule::evaluate(&o, &p, cfgs);
                            if s.changes <= k && best.is_none_or(|x| s.total_cost() < x) {
                                best = Some(s.total_cost());
                            }
                        }
                    }
                }
            }
            assert_eq!(got.total_cost(), best.unwrap(), "k={k}");
        }
    }

    #[test]
    fn k_zero_freezes_the_design() {
        let o = phased_oracle();
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let s = solve(&o, &p, &cands, 0).unwrap();
        assert_eq!(s.changes, 0);
        assert_eq!(s.segments().len(), 1);
    }

    #[test]
    fn strict_mode_charges_the_initial_build() {
        let o = phased_oracle();
        let p = Problem {
            count_initial_change: true,
            ..Problem::default()
        };
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // k = 0 in strict mode: must stay in the (empty) initial config.
        let s = solve(&o, &p, &cands, 0).unwrap();
        assert!(s.configs.iter().all(|cfg| *cfg == Config::EMPTY));
        // k = 1 buys exactly the initial build.
        let s = solve(&o, &p, &cands, 1).unwrap();
        assert!(s.changes <= 1);
        let loose = solve(&o, &Problem::default(), &cands, 1).unwrap();
        assert!(
            loose.total_cost() <= s.total_cost(),
            "strict counting can only restrict"
        );
    }

    #[test]
    fn warm_prefix_of_the_optimum_reproduces_the_optimum() {
        let o = phased_oracle();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        for k in 0..4 {
            let cold = solve(&o, &p, &cands, k).unwrap();
            for split in 0..=o.n_stages() {
                let warm = solve_with_prefix(&o, &p, &cands, k, &cold.configs[..split]).unwrap();
                assert_eq!(warm.total_cost(), cold.total_cost(), "k={k} split={split}");
                warm.validate(&o, &p, Some(k)).unwrap();
            }
        }
    }

    #[test]
    fn warm_budget_deducts_prefix_spending() {
        let o = phased_oracle();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // empty → {0} → {1}: one counted change (the stage-0 build is
        // free under the paper's default counting).
        let prefix = vec![
            Config::from_bits(0b001),
            Config::from_bits(0b001),
            Config::from_bits(0b010),
        ];
        // Budget 0 < 1 spent: infeasible.
        assert!(solve_with_prefix(&o, &p, &cands, 0, &prefix).is_err());
        // Budget 1: the suffix must freeze on the prefix's last config.
        let s = solve_with_prefix(&o, &p, &cands, 1, &prefix).unwrap();
        assert_eq!(s.changes, 1);
        assert!(s.configs[2..]
            .iter()
            .all(|cfg| *cfg == Config::from_bits(0b010)));
        // Budget 2: one more change is allowed, and it can only help.
        let s2 = solve_with_prefix(&o, &p, &cands, 2, &prefix).unwrap();
        assert!(s2.changes <= 2);
        assert!(s2.total_cost() <= s.total_cost());
    }

    #[test]
    fn warm_strict_mode_charges_the_prefix_initial_build() {
        let o = phased_oracle();
        let p = Problem {
            count_initial_change: true,
            ..Problem::default()
        };
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // Strict counting: building {0} at stage 0 is one change.
        let prefix = vec![Config::from_bits(0b001)];
        assert!(solve_with_prefix(&o, &p, &cands, 0, &prefix).is_err());
        let s = solve_with_prefix(&o, &p, &cands, 1, &prefix).unwrap();
        s.validate(&o, &p, Some(1)).unwrap();
    }

    #[test]
    fn large_k_equals_unconstrained() {
        let o = phased_oracle();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, None).unwrap();
        let unc = seqgraph::solve(&o, &p, &cands).unwrap();
        let k = o.n_stages(); // more budget than stages
        let s = solve(&o, &p, &cands, k).unwrap();
        assert_eq!(s.total_cost(), unc.total_cost());
    }
}
