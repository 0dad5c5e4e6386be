//! Warm-start plumbing shared by the prefix-committed solver entry
//! points ([`crate::seqgraph::solve_with_prefix`],
//! [`crate::kaware::solve_with_prefix`]) and the one-pass k-curve under
//! a prefix ([`crate::kselect::cost_curve_with_prefix`], one suffix
//! pass for every budget).
//!
//! An online advisor extends its horizon one window at a time. The
//! stages it has already *executed* are committed — their
//! configurations cannot change — so a re-solve only needs to optimize
//! the suffix. By the principle of optimality on the sequence graph,
//! pinning the first `p` stages and solving the remaining `n - p` from
//! the prefix's last configuration yields the optimal schedule among
//! all schedules sharing that prefix: the suffix sub-problem sees the
//! true boundary state (last committed config as its initial, a change
//! budget reduced by what the prefix spent) and every cost on the
//! boundary edge is charged exactly once.
//!
//! The helpers here make that reduction explicit and keep the change
//! accounting bit-identical to [`Schedule::evaluate`]'s
//! (`crate::schedule`) — the invariant the warm/cold equivalence tests
//! pin down.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use cdpd_types::{Cost, Error, Result};

/// View of an oracle restricted to stages `start..`, re-indexed from 0.
///
/// Borrowing (rather than wrapping by value) is what keeps re-solves
/// warm: probes pass through to the shared memoizing oracle, so costs
/// evaluated by earlier solves are cache hits here.
pub(crate) struct SuffixOracle<'a> {
    pub(crate) inner: &'a dyn CostOracle,
    pub(crate) start: usize,
}

impl CostOracle for SuffixOracle<'_> {
    fn n_stages(&self) -> usize {
        self.inner.n_stages() - self.start
    }
    fn n_structures(&self) -> usize {
        self.inner.n_structures()
    }
    fn exec(&self, stage: usize, config: &Config) -> Cost {
        self.inner.exec(stage + self.start, config)
    }
    fn trans(&self, from: &Config, to: &Config) -> Cost {
        self.inner.trans(from, to)
    }
    fn size(&self, config: &Config) -> u64 {
        self.inner.size(config)
    }
}

/// The sub-problem a committed prefix leaves behind. The suffix starts
/// from the prefix's last configuration; when the prefix is non-empty,
/// a config change at the first suffix stage is a real mid-sequence
/// change, so the sub-problem always counts its initial change.
pub(crate) fn suffix_problem(problem: &Problem, prefix: &[Config]) -> Problem {
    Problem {
        initial: prefix
            .last()
            .cloned()
            .unwrap_or_else(|| problem.initial.clone()),
        final_config: problem.final_config.clone(),
        space_bound: problem.space_bound,
        count_initial_change: if prefix.is_empty() {
            problem.count_initial_change
        } else {
            true
        },
    }
}

/// Reject prefixes longer than the workload or violating the space
/// bound (a committed prefix was feasible when committed; re-checking
/// catches stats drift and caller bugs cheaply).
pub(crate) fn check_prefix(
    oracle: &dyn CostOracle,
    problem: &Problem,
    prefix: &[Config],
) -> Result<()> {
    if prefix.len() > oracle.n_stages() {
        return Err(Error::InvalidArgument(format!(
            "committed prefix ({} stages) is longer than the workload ({})",
            prefix.len(),
            oracle.n_stages()
        )));
    }
    for (stage, cfg) in prefix.iter().enumerate() {
        if !problem.fits(oracle, cfg) {
            return Err(Error::Infeasible(format!(
                "committed prefix violates the space bound at stage {stage}"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SyntheticOracle;
    use crate::schedule::Schedule;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    fn oracle() -> SyntheticOracle {
        SyntheticOracle::from_fn(
            4,
            2,
            |stage, cfg| c(10 + stage as u64 + cfg.bits()),
            vec![c(5), c(7)],
            c(1),
            vec![1, 3],
        )
    }

    #[test]
    fn suffix_view_reindexes_stages() {
        let o = oracle();
        let s = SuffixOracle {
            inner: &o,
            start: 2,
        };
        assert_eq!(s.n_stages(), 2);
        assert_eq!(s.n_structures(), 2);
        for bits in 0..4u64 {
            let cfg = Config::from_bits(bits);
            assert_eq!(s.exec(0, &cfg), o.exec(2, &cfg));
            assert_eq!(s.exec(1, &cfg), o.exec(3, &cfg));
            assert_eq!(s.size(&cfg), o.size(&cfg));
        }
    }

    #[test]
    fn prefix_change_accounting_matches_schedule_evaluate() {
        let o = oracle();
        for count_initial in [false, true] {
            let p = Problem {
                count_initial_change: count_initial,
                ..Problem::default()
            };
            let cfgs = vec![
                Config::from_bits(0b01),
                Config::from_bits(0b01),
                Config::from_bits(0b10),
                Config::from_bits(0b10),
            ];
            let s = Schedule::evaluate(&o, &p, cfgs.clone());
            assert_eq!(p.changes(&cfgs), s.changes, "strict={count_initial}");
            assert_eq!(s.changes, 1 + usize::from(count_initial));
        }
    }

    #[test]
    fn suffix_problem_counts_the_boundary_change() {
        let p = Problem::default();
        assert!(!suffix_problem(&p, &[]).count_initial_change);
        let sub = suffix_problem(&p, &[Config::from_bits(1)]);
        assert!(sub.count_initial_change);
        assert_eq!(sub.initial, Config::from_bits(1));
    }

    #[test]
    fn invalid_prefixes_are_rejected() {
        let o = oracle();
        let p = Problem::default();
        let too_long = vec![Config::EMPTY; 5];
        assert!(check_prefix(&o, &p, &too_long).is_err());
        let bounded = Problem {
            space_bound: Some(2),
            ..Problem::default()
        };
        // Structure 1 has size 3 > bound 2.
        assert!(check_prefix(&o, &bounded, &[Config::from_bits(0b10)]).is_err());
        assert!(check_prefix(&o, &bounded, &[Config::from_bits(0b01)]).is_ok());
    }
}
