//! Sequential design merging (§4.2): refine an *unconstrained* solution
//! down to the change budget.
//!
//! The design sequence is held as maximal runs of equal configurations.
//! Each step picks the adjacent run pair whose replacement by a single
//! best configuration has the smallest *penalty*
//!
//! ```text
//! p = [TRANS(C_{i-1}, C') + EXEC(S_i ∪ S_{i+1}, C') + TRANS(C', C_{i+2})]
//!   − [TRANS(C_{i-1}, C_i) + EXEC(S_i, C_i) + TRANS(C_i, C_{i+1})
//!      + EXEC(S_{i+1}, C_{i+1}) + TRANS(C_{i+1}, C_{i+2})]
//! ```
//!
//! and merges it, reducing the change count by one — or by two when the
//! replacement equals a neighbouring run (the paper's `C' = C_{i-1}` /
//! `C' = C_{i+2}` case, handled here by coalescing). Heuristic: the
//! result satisfies the budget but is not guaranteed optimal, even
//! starting from an optimal unconstrained design. Complexity per step
//! is `O(runs · |candidates|)` exec-sum evaluations; `(l − k)` steps.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::seqgraph;
use crate::tables::{usable_candidates, CostTables};
use cdpd_types::{Cost, Error, Result};
use std::ops::Range;

/// A maximal run of one configuration, by its index in the tables.
#[derive(Clone, Debug)]
struct Run {
    config: usize,
    stages: Range<usize>,
}

/// Maximal runs of equal entries of `path`.
fn runs_of(path: &[usize]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for (stage, &config) in path.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if run.config == config => run.stages.end = stage + 1,
            _ => runs.push(Run {
                config,
                stages: stage..stage + 1,
            }),
        }
    }
    runs
}

/// Refine `start` (typically the unconstrained optimum) until it uses at
/// most `k` changes. Replacement configurations are drawn from
/// `candidates` (the paper: *"chosen from the same set of candidate
/// configurations that was used to generate the original, unconstrained
/// design sequence"*).
pub fn refine(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
    start: &Schedule,
) -> Result<Schedule> {
    let mut configs = usable_candidates(oracle, problem, candidates)?;
    if start.configs.len() != oracle.n_stages() {
        return Err(Error::InvalidArgument(
            "starting schedule does not cover the workload".into(),
        ));
    }
    // Configurations only the starting design uses are priced too, past
    // the end of the replacement set.
    let replacements = configs.len();
    let path: Vec<usize> = start
        .configs
        .iter()
        .map(|cfg| {
            configs.iter().position(|c| c == cfg).unwrap_or_else(|| {
                configs.push(cfg.clone());
                configs.len() - 1
            })
        })
        .collect();
    let tables = CostTables::over(oracle, problem, configs);
    refine_path(oracle, problem, &tables, replacements, k, &path)
}

/// [`refine`] over already-built tables: `start` is a path of table
/// indexes, and the first `replacements` table entries are the
/// configurations a merged run may be replaced by.
pub(crate) fn refine_path(
    oracle: &dyn CostOracle,
    problem: &Problem,
    tables: &CostTables,
    replacements: usize,
    k: usize,
    start: &[usize],
) -> Result<Schedule> {
    let mut runs = runs_of(start);
    let changes_of = |runs: &[Run]| {
        let initial = problem.count_initial_change
            && runs
                .first()
                .is_some_and(|r| tables.configs()[r.config] != problem.initial);
        runs.len().saturating_sub(1) + usize::from(initial)
    };

    while changes_of(&runs) > k {
        if runs.len() == 1 {
            // Only possible in strict counting mode with k = 0: the sole
            // remaining move is to stay in the initial configuration.
            if problem.fits(oracle, &problem.initial) {
                let stay = vec![problem.initial.clone(); tables.n_stages()];
                return Ok(Schedule::evaluate(oracle, problem, stay));
            }
            return Err(Error::Infeasible(
                "cannot reach the change budget: initial configuration violates the space bound"
                    .into(),
            ));
        }

        let mut best: Option<(i128, usize, usize)> = None;
        for i in 0..runs.len() - 1 {
            let (left, right) = (&runs[i], &runs[i + 1]);
            let trans_in = |c: usize| match i.checked_sub(1) {
                Some(p) => tables.trans(runs[p].config, c),
                None => tables.enter(c),
            };
            let trans_out = |c: usize| match runs.get(i + 2) {
                Some(next) => tables.trans(c, next.config),
                None => tables.leave(c),
            };
            let old_cost = trans_in(left.config)
                + tables.exec_range(left.stages.clone(), left.config)
                + tables.trans(left.config, right.config)
                + tables.exec_range(right.stages.clone(), right.config)
                + trans_out(right.config);

            for cand in 0..replacements {
                let new_cost: Cost = trans_in(cand)
                    + tables.exec_range(left.stages.start..right.stages.end, cand)
                    + trans_out(cand);
                let penalty = new_cost.raw() as i128 - old_cost.raw() as i128;
                if best.as_ref().is_none_or(|(bp, ..)| penalty < *bp) {
                    best = Some((penalty, i, cand));
                }
            }
        }

        let (_, i, cand) =
            best.ok_or_else(|| Error::Infeasible("no merge candidate available".into()))?;
        let merged = Run {
            config: cand,
            stages: runs[i].stages.start..runs[i + 1].stages.end,
        };
        runs.splice(i..i + 2, [merged]);
        // Coalesce with equal neighbours (the paper's −2 case).
        let mut j = i;
        if j > 0 && runs[j - 1].config == runs[j].config {
            let start = runs[j - 1].stages.start;
            runs[j].stages.start = start;
            runs.remove(j - 1);
            j -= 1;
        }
        if j + 1 < runs.len() && runs[j + 1].config == runs[j].config {
            let end = runs[j + 1].stages.end;
            runs[j].stages.end = end;
            runs.remove(j + 1);
        }
    }

    let mut path = vec![0; tables.n_stages()];
    for run in &runs {
        path[run.stages.clone()].fill(run.config);
    }
    let schedule = tables.schedule(problem, &path);
    schedule.check_feasible(oracle, problem, Some(k))?;
    Ok(schedule)
}

/// Convenience: solve the unconstrained problem first (§3 baseline),
/// then merge down to `k` changes.
pub fn solve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
) -> Result<Schedule> {
    let _span = cdpd_obs::span!("solve.merging", k = k, candidates = candidates.len());
    let tables = CostTables::build(oracle, problem, candidates)?;
    let path = seqgraph::shortest_path(&tables, problem)?;
    let unconstrained = tables.schedule(problem, &path);
    if unconstrained.changes <= k {
        return Ok(unconstrained);
    }
    let replacements = tables.configs().len();
    refine_path(oracle, problem, &tables, replacements, k, &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::kaware;
    use crate::problem::SyntheticOracle;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    /// Paper §4.2 example: n = 3, one candidate index, best
    /// unconstrained design [∅, {IX}, ∅] with l = 2 changes; k = 1.
    fn paper_example_oracle() -> SyntheticOracle {
        SyntheticOracle::from_fn(
            3,
            1,
            |stage, cfg| match (stage, cfg.contains(0)) {
                (1, true) => c(10), // the middle query loves the index
                (1, false) => c(500),
                (_, true) => c(100), // outer queries mildly dislike it
                (_, false) => c(50),
            },
            vec![c(20)],
            c(1),
            vec![1],
        )
    }

    #[test]
    fn paper_example_merges_one_pair() {
        let o = paper_example_oracle();
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, None).unwrap();
        let unc = seqgraph::solve(&o, &p, &cands).unwrap();
        assert_eq!(unc.changes, 2, "unconstrained flips in and out: {unc}");
        let merged = solve(&o, &p, &cands, 1).unwrap();
        assert!(merged.changes <= 1, "{merged}");
        merged.validate(&o, &p, Some(1)).unwrap();
        // Merging (∅,{IX}) or ({IX},∅) into one config: with the index
        // everywhere, cost = 20 + 100+10+100 + ... vs without = 50+500+50.
        assert!(
            merged.total_cost() < Schedule::evaluate(&o, &p, vec![Config::EMPTY; 3]).total_cost()
        );
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
    fn always_meets_budget_and_never_beats_optimal() {
        let o = phased(12, 3);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let unc = seqgraph::solve(&o, &p, &cands).unwrap();
        for k in 0..unc.changes {
            let merged = solve(&o, &p, &cands, k).unwrap();
            merged.validate(&o, &p, Some(k)).unwrap();
            let optimal = kaware::solve(&o, &p, &cands, k).unwrap();
            assert!(
                merged.total_cost() >= optimal.total_cost(),
                "heuristic beating the optimum is a bug: k={k}"
            );
            // Sanity: it should not be wildly worse on this easy family.
            assert!(
                merged.total_cost().raw() <= optimal.total_cost().raw() * 2,
                "k={k}: merged {} vs optimal {}",
                merged.total_cost(),
                optimal.total_cost()
            );
        }
    }

    #[test]
    fn already_feasible_start_is_returned_unchanged() {
        let o = phased(6, 2);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let unc = seqgraph::solve(&o, &p, &cands).unwrap();
        let s = solve(&o, &p, &cands, unc.changes).unwrap();
        assert_eq!(s, unc);
    }

    #[test]
    fn coalescing_reduces_changes_by_two() {
        // Schedule A B A: merging the middle with either neighbour and
        // replacing by A must coalesce into a single run (−2 changes).
        let o = SyntheticOracle::from_fn(
            3,
            2,
            move |stage, cfg| {
                if stage == 1 && cfg.contains(1) {
                    c(5)
                } else if cfg.contains(0) {
                    c(10)
                } else {
                    c(100)
                }
            },
            vec![c(1), c(1)],
            c(1),
            vec![1, 1],
        );
        let p = Problem::default();
        let a = Config::single(0);
        let b = Config::single(1);
        let start = Schedule::evaluate(&o, &p, vec![a.clone(), b.clone(), a.clone()]);
        assert_eq!(start.changes, 2);
        let refined = refine(&o, &p, &[Config::EMPTY, a, b], 0, &start).unwrap();
        assert_eq!(refined.changes, 0);
        assert_eq!(refined.segments().len(), 1);
    }

    #[test]
    fn strict_mode_k0_falls_back_to_initial() {
        let o = phased(4, 2);
        let p = Problem {
            count_initial_change: true,
            ..Problem::default()
        };
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let s = solve(&o, &p, &cands, 0).unwrap();
        assert_eq!(s.changes, 0);
        assert!(s.configs.iter().all(|c| *c == p.initial));
    }

    #[test]
    fn rejects_mismatched_start() {
        let o = phased(4, 2);
        let p = Problem::default();
        let bogus = Schedule::evaluate(&o, &p, vec![Config::EMPTY; 4]);
        let mut truncated = bogus;
        truncated.configs.pop();
        assert!(refine(&o, &p, &[Config::EMPTY], 0, &truncated).is_err());
    }
}
