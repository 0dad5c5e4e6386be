//! Choosing the change budget `k` — the paper's first open question
//! (§8: *"One question is how to choose an appropriate change
//! constraint (k)"*).
//!
//! Two answers:
//!
//! * [`cost_curve`] — the constrained-optimal cost for every `k` in
//!   `0..=k_max` — and [`suggest_k_elbow`], the *knee* of that curve.
//!   Costs stop improving once the budget covers the workload's major
//!   trends, so the knee sits at "number of major shifts" — exactly the
//!   domain-knowledge rule of thumb §2 describes (*"choose a value of k
//!   equal to or a bit larger than the number of anticipated
//!   fluctuations"*), derived from data instead of domain knowledge.
//! * [`robust_curve`] and [`suggest_robust_k`] — cross-validation: the
//!   budget whose schedule, trained on one workload, costs least on
//!   held-out ones (§6.3's W1-trained designs evaluated on W2 and W3).
//!
//! Every curve is one table build and one k-aware pass at `k_max`,
//! whose lower layers hold every smaller budget's answer, ties
//! included (`tests/solver_prop.rs` holds it against `k_max + 1`
//! separate [`kaware`] solves).

use crate::config::Config;
use crate::kaware;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::tables::CostTables;
use crate::warm;
use cdpd_types::{Cost, Error, Result};

/// One point of the cost-vs-k curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KCurvePoint {
    /// The change budget.
    pub k: usize,
    /// Constrained-optimal total cost at this budget.
    pub cost: Cost,
    /// Changes the optimal schedule actually used (≤ k).
    pub changes: usize,
}

/// Constrained-optimal cost for each `k ∈ 0..=k_max`.
///
/// # Errors
/// Those of [`kaware::solve`] at any budget in the range.
pub fn cost_curve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k_max: usize,
) -> Result<Vec<KCurvePoint>> {
    cost_curve_with_prefix(oracle, problem, candidates, k_max, &[])
}

/// [`cost_curve`] with the first `prefix.len()` stages pinned to an
/// already-committed prefix — the rolling-budget sweep an online
/// advisor runs when its horizon grows. Point `k` is
/// [`kaware::solve_with_prefix`]'s answer at `k`.
///
/// Under a non-empty prefix, a budget with no feasible design — in
/// particular one smaller than the changes the prefix already spent —
/// is *omitted* from the returned curve; any other error is propagated.
/// An empty prefix reproduces [`cost_curve`] exactly.
pub fn cost_curve_with_prefix(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k_max: usize,
    prefix: &[Config],
) -> Result<Vec<KCurvePoint>> {
    let _span = cdpd_obs::span!("kselect.curve", k_max = k_max, prefix = prefix.len());
    Ok(schedules(oracle, problem, candidates, k_max, prefix)?
        .into_iter()
        .map(|(k, s)| KCurvePoint {
            k,
            cost: s.total_cost(),
            changes: s.changes,
        })
        .collect())
}

/// `(k, schedule)` at every budget [`cost_curve_with_prefix`] keeps.
fn schedules(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k_max: usize,
    prefix: &[Config],
) -> Result<Vec<(usize, Schedule)>> {
    // Under a prefix an infeasible budget is omitted, and infeasibility
    // that does not depend on the budget omits every one; with no
    // prefix it is an error, as it is for every per-budget solve.
    let omit = |e: Error| match e {
        Error::Infeasible(_) if !prefix.is_empty() => Ok(Vec::new()),
        e => Err(e),
    };
    if let Err(e) = warm::check_prefix(oracle, problem, prefix) {
        return omit(e);
    }
    let spent = problem.changes(prefix);
    let Some(room) = k_max.checked_sub(spent) else {
        return Ok(Vec::new());
    };
    if !prefix.is_empty() && prefix.len() == oracle.n_stages() {
        let pinned = Schedule::evaluate(oracle, problem, prefix.to_vec());
        return Ok((spent..=k_max).map(|k| (k, pinned.clone())).collect());
    }
    let suffix = warm::SuffixOracle {
        inner: oracle,
        start: prefix.len(),
    };
    let sub = warm::suffix_problem(problem, prefix);
    let tables = match CostTables::build(&suffix, &sub, candidates) {
        Ok(tables) => tables,
        Err(e) => return omit(e),
    };
    let mut out = Vec::with_capacity(room + 1);
    for (k, tail) in (spent..=k_max).zip(tables.shortest_paths(&sub, Some(room), 0)) {
        match tail {
            Some(tail) => {
                let mut configs = prefix.to_vec();
                configs.extend(tail.iter().map(|&c| tables.configs()[c].clone()));
                out.push((k, Schedule::evaluate(oracle, problem, configs)));
            }
            None if prefix.is_empty() => return Err(kaware::no_design(k)),
            None => {}
        }
    }
    Ok(out)
}

/// Geometric knee detection (kneedle-style): normalize both axes to
/// `[0, 1]` and return the `k` maximizing the vertical distance *below*
/// the chord from the first to the last curve point. Robust against
/// the long flat tail that minor-shift tracking produces: the big drop
/// at "k = number of major shifts" dominates the chord distance.
///
/// Returns `k = 0` for flat curves (no budget buys anything) and `None`
/// for curves with fewer than two points.
pub fn suggest_k_elbow(curve: &[KCurvePoint]) -> Option<usize> {
    if curve.len() < 2 {
        return curve.first().map(|p| p.k);
    }
    let first = curve.first().expect("len checked");
    let last = curve.last().expect("len checked");
    let cost_span = first.cost.raw() as f64 - last.cost.raw() as f64;
    if cost_span <= 0.0 {
        return Some(first.k); // flat (or rising, impossible) curve
    }
    let k_span = (last.k - first.k) as f64;
    let mut best: Option<(f64, usize)> = None;
    for p in curve {
        let x = (p.k - first.k) as f64 / k_span;
        let y = (first.cost.raw() as f64 - p.cost.raw() as f64) / cost_span;
        let dist = y - x; // height above the (normalized) chord
        if best.is_none_or(|(d, _)| dist > d + 1e-12) {
            best = Some((dist, p.k));
        }
    }
    best.map(|(_, k)| k)
}

/// One point of a cross-validated k sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RobustPoint {
    /// The change budget.
    pub k: usize,
    /// Cost of the k-optimal schedule on the *training* workload.
    pub train_cost: Cost,
    /// Mean cost of that same schedule on the held-out workloads.
    pub mean_test_cost: Cost,
}

/// Cross-validated choice of `k` — §6.3 operationalized.
///
/// The paper evaluates W1-trained designs on W2 and W3 and finds the
/// constrained design transfers better. This function turns that
/// experiment into a selection rule: for each `k`, solve on `train`,
/// then *re-cost the same schedule* on each held-out oracle (same
/// candidate-structure indexing; the held-out oracles typically wrap
/// traces captured on other days). Training cost decreases
/// monotonically with `k` — held-out cost does not, and its minimum is
/// the `k` that generalizes.
///
/// Budget `k`'s schedule is [`kaware::solve`]'s at `k`, read off one
/// pass like [`cost_curve`]'s.
pub fn robust_curve(
    train: &dyn CostOracle,
    holdouts: &[&dyn CostOracle],
    problem: &Problem,
    candidates: &[Config],
    k_max: usize,
) -> Result<Vec<RobustPoint>> {
    if holdouts.is_empty() {
        return Err(Error::InvalidArgument(
            "robust_curve needs held-out workloads".into(),
        ));
    }
    for oracle in holdouts {
        if oracle.n_stages() != train.n_stages() {
            return Err(Error::InvalidArgument(
                "held-out workload has a different stage count".into(),
            ));
        }
    }
    let _span = cdpd_obs::span!("kselect.robust_curve", k_max = k_max);
    Ok(schedules(train, problem, candidates, k_max, &[])?
        .into_iter()
        .map(|(k, schedule)| {
            let total: u128 = holdouts
                .iter()
                .map(|h| Schedule::evaluate(*h, problem, schedule.configs.clone()))
                .map(|s| s.total_cost().raw() as u128)
                .sum();
            let mean = (total / holdouts.len() as u128) as u64;
            RobustPoint {
                k,
                train_cost: schedule.total_cost(),
                mean_test_cost: Cost::from_raw(mean),
            }
        })
        .collect())
}

/// The budget minimizing held-out cost (smallest such `k` on ties).
pub fn suggest_robust_k(curve: &[RobustPoint]) -> Option<usize> {
    curve
        .iter()
        .min_by(|a, b| a.mean_test_cost.cmp(&b.mean_test_cost).then(a.k.cmp(&b.k)))
        .map(|p| p.k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::problem::SyntheticOracle;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    /// Three phases with minor fluctuations: the knee should be at
    /// k = 2 (the number of major shifts).
    fn w1_like() -> SyntheticOracle {
        SyntheticOracle::from_fn(
            30,
            3,
            |stage, cfg| {
                let phase = stage / 10;
                let minor = stage % 2 == 1;
                // Preferred structure per phase: 0, 1, 0 (like A/C/A).
                let preferred = if phase == 1 { 1 } else { 0 };
                // Minor fluctuation mildly prefers structure 2.
                if cfg.contains(preferred) {
                    if minor {
                        c(60)
                    } else {
                        c(40)
                    }
                } else if minor && cfg.contains(2) {
                    c(50)
                } else {
                    c(400)
                }
            },
            vec![c(100); 3],
            c(1),
            vec![1; 3],
        )
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let o = w1_like();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let curve = cost_curve(&o, &p, &cands, 8).unwrap();
        assert_eq!(curve.len(), 9);
        for w in curve.windows(2) {
            assert!(w[1].cost <= w[0].cost, "{curve:?}");
        }
        for p in &curve {
            assert!(p.changes <= p.k);
        }
    }

    #[test]
    fn knee_lands_on_major_shift_count() {
        let o = w1_like();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let curve = cost_curve(&o, &p, &cands, 10).unwrap();
        let k = suggest_k_elbow(&curve).unwrap();
        assert_eq!(k, 2, "two major shifts ⇒ knee at 2: {curve:?}");
    }

    #[test]
    fn elbow_detection() {
        // Big drop at k = 2, slow tail after.
        let mk = |k: usize, cost: u64| KCurvePoint {
            k,
            cost: c(cost),
            changes: k,
        };
        let curve = [
            mk(0, 1000),
            mk(1, 990),
            mk(2, 400),
            mk(3, 395),
            mk(4, 390),
            mk(5, 385),
        ];
        assert_eq!(suggest_k_elbow(&curve), Some(2));
        // Flat curve.
        let flat = [mk(0, 100), mk(1, 100), mk(2, 100)];
        assert_eq!(suggest_k_elbow(&flat), Some(0));
        // Degenerate curves.
        assert_eq!(suggest_k_elbow(&[]), None);
        assert_eq!(suggest_k_elbow(&[mk(3, 5)]), Some(3));
    }

    /// Oracle pair for cross-validation: minor fluctuations strongly
    /// reward structure 2, but on `minor_parity`-indexed stages only —
    /// the train/holdout pair uses opposite parities (the W1/W3
    /// construction), so chasing train's fluctuations backfires on the
    /// holdout.
    fn fluctuating(minor_parity: usize) -> SyntheticOracle {
        SyntheticOracle::from_fn(
            30,
            3,
            move |stage, cfg| {
                let phase = stage / 10;
                let preferred = if phase == 1 { 1 } else { 0 };
                if stage % 2 == minor_parity {
                    if cfg.contains(2) {
                        c(30) // tracking the fluctuation pays on train...
                    } else if cfg.contains(preferred) {
                        c(200)
                    } else {
                        c(400)
                    }
                } else if cfg.contains(preferred) {
                    c(40)
                } else {
                    c(400)
                }
            },
            vec![c(40); 3],
            c(1),
            vec![1; 3],
        )
    }

    #[test]
    fn robust_k_prefers_generalizing_budget() {
        let train = fluctuating(1);
        let holdout = fluctuating(0);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&train, None, Some(1)).unwrap();
        let curve = robust_curve(&train, &[&holdout as &dyn CostOracle], &p, &cands, 10).unwrap();
        // Training cost is non-increasing in k ...
        for w in curve.windows(2) {
            assert!(w[1].train_cost <= w[0].train_cost);
        }
        // ... but the held-out cost bottoms out at the major-shift
        // count: chasing w1's minor fluctuations hurts on w3.
        let k = suggest_robust_k(&curve).unwrap();
        assert_eq!(k, 2, "{curve:?}");
        let at2 = curve.iter().find(|p| p.k == 2).unwrap();
        let at10 = curve.iter().find(|p| p.k == 10).unwrap();
        assert!(
            at2.mean_test_cost < at10.mean_test_cost,
            "overfitting must cost on the holdout: {curve:?}"
        );
    }

    #[test]
    fn robust_curve_validates_inputs() {
        let train = w1_like();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&train, None, Some(1)).unwrap();
        assert!(robust_curve(&train, &[], &p, &cands, 3).is_err());
        let short = SyntheticOracle::from_fn(5, 3, |_, _| c(1), vec![c(1); 3], c(1), vec![1; 3]);
        assert!(
            robust_curve(&train, &[&short as &dyn CostOracle], &p, &cands, 3).is_err(),
            "stage-count mismatch must be rejected"
        );
        assert_eq!(suggest_robust_k(&[]), None);
    }

    #[test]
    fn prefix_curve_starts_at_spent_changes_and_matches_cold_optima() {
        let o = w1_like();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // Commit the cold k=4 optimum's first 15 stages, then sweep.
        let cold = kaware::solve(&o, &p, &cands, 4).unwrap();
        let prefix = &cold.configs[..15];
        let spent = {
            let mut n = 0;
            let mut prev = &p.initial;
            for (stage, cfg) in prefix.iter().enumerate() {
                // Mirror Schedule::evaluate: the stage-0 build is free
                // unless count_initial_change (false here).
                if cfg != prev && stage > 0 {
                    n += 1;
                }
                prev = cfg;
            }
            n
        };
        let curve = cost_curve_with_prefix(&o, &p, &cands, 8, prefix).unwrap();
        // Budgets below the prefix's spending are omitted.
        assert_eq!(curve.first().unwrap().k, spent);
        assert_eq!(curve.last().unwrap().k, 8);
        for point in &curve {
            let warm = kaware::solve_with_prefix(&o, &p, &cands, point.k, prefix).unwrap();
            assert_eq!(warm.total_cost(), point.cost, "k={}", point.k);
        }
        // At the committed solve's own budget, the warm curve touches
        // the cold optimum (the prefix came from that very schedule).
        let at4 = curve.iter().find(|pt| pt.k == 4).unwrap();
        assert_eq!(at4.cost, cold.total_cost());
        // Empty prefix reproduces the plain sweep.
        let plain = cost_curve(&o, &p, &cands, 5).unwrap();
        let empty = cost_curve_with_prefix(&o, &p, &cands, 5, &[]).unwrap();
        assert_eq!(plain, empty);
    }
}
