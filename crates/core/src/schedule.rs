use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use cdpd_types::{Cost, Error, Result};
use std::fmt;
use std::ops::Range;

/// A dynamic physical design: one configuration per workload stage,
/// with its evaluated cost breakdown.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schedule {
    /// `C_1 … C_n`, one per stage.
    pub configs: Vec<Config>,
    /// `Σ EXEC(S_i, C_i)`.
    pub exec_cost: Cost,
    /// `Σ TRANS(C_{i-1}, C_i)` including the closing transition to the
    /// problem's final configuration, if constrained.
    pub trans_cost: Cost,
    /// Number of design changes charged against `k` (respecting the
    /// problem's `count_initial_change`).
    pub changes: usize,
}

impl Schedule {
    /// Evaluate `configs` under `oracle`/`problem`, computing the cost
    /// breakdown and change count.
    pub fn evaluate(oracle: &dyn CostOracle, problem: &Problem, configs: Vec<Config>) -> Schedule {
        let mut exec_cost = Cost::ZERO;
        let mut trans_cost = Cost::ZERO;
        let mut prev = &problem.initial;
        for (stage, cfg) in configs.iter().enumerate() {
            trans_cost += oracle.trans(prev, cfg);
            exec_cost += oracle.exec(stage, cfg);
            prev = cfg;
        }
        if let Some(f) = &problem.final_config {
            trans_cost += oracle.trans(prev, f);
        }
        Schedule {
            changes: problem.changes(&configs),
            configs,
            exec_cost,
            trans_cost,
        }
    }

    /// `exec_cost + trans_cost` — the paper's sequence execution cost.
    pub fn total_cost(&self) -> Cost {
        self.exec_cost + self.trans_cost
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True if the schedule covers no stages.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Maximal runs of equal configurations, as `(stage range, config)`.
    pub fn segments(&self) -> Vec<(Range<usize>, Config)> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..=self.configs.len() {
            if i == self.configs.len() || self.configs[i] != self.configs[start] {
                out.push((start..i, self.configs[start].clone()));
                start = i;
            }
        }
        out
    }

    /// Check every invariant of Definition 1 against this schedule:
    /// stage count, space bound, change budget, and cost bookkeeping.
    pub fn validate(
        &self,
        oracle: &dyn CostOracle,
        problem: &Problem,
        k: Option<usize>,
    ) -> Result<()> {
        self.check_feasible(oracle, problem, k)?;
        let reference = Schedule::evaluate(oracle, problem, self.configs.clone());
        if reference != *self {
            return Err(Error::InvalidArgument(
                "schedule cost bookkeeping does not match re-evaluation".into(),
            ));
        }
        Ok(())
    }

    /// The feasibility half of [`Schedule::validate`] — stage count,
    /// space bound, change budget — which asks the oracle for sizes
    /// only, never for a cost.
    pub(crate) fn check_feasible(
        &self,
        oracle: &dyn CostOracle,
        problem: &Problem,
        k: Option<usize>,
    ) -> Result<()> {
        if self.configs.len() != oracle.n_stages() {
            return Err(Error::InvalidArgument(format!(
                "schedule has {} stages, workload has {}",
                self.configs.len(),
                oracle.n_stages()
            )));
        }
        for (i, c) in self.configs.iter().enumerate() {
            if !problem.fits(oracle, c) {
                return Err(Error::Infeasible(format!(
                    "stage {i} config {c} exceeds the space bound"
                )));
            }
        }
        if let Some(k) = k {
            if self.changes > k {
                return Err(Error::Infeasible(format!(
                    "schedule uses {} changes, budget is {k}",
                    self.changes
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cost={} (exec={}, trans={}), {} change(s): ",
            self.total_cost(),
            self.exec_cost,
            self.trans_cost,
            self.changes
        )?;
        for (n, (range, cfg)) in self.segments().into_iter().enumerate() {
            if n > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{cfg}@[{}..{})", range.start, range.end)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::SyntheticOracle;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    fn oracle() -> SyntheticOracle {
        // Stage cost: 100 for empty, 10 with structure 0, 50 with 1.
        SyntheticOracle::from_fn(
            4,
            2,
            |_, cfg| {
                if cfg.contains(0) {
                    c(10)
                } else if cfg.contains(1) {
                    c(50)
                } else {
                    c(100)
                }
            },
            vec![c(30), c(40)],
            c(1),
            vec![5, 7],
        )
    }

    #[test]
    fn evaluate_counts_costs_and_changes() {
        let o = oracle();
        let p = Problem::default();
        let s0 = Config::single(0);
        let s1 = Config::single(1);
        let sched = Schedule::evaluate(&o, &p, vec![s0.clone(), s0, s1.clone(), s1]);
        assert_eq!(sched.exec_cost, c(10 + 10 + 50 + 50));
        // build s0 (30) + build s1/drop s0 (40 + 1)
        assert_eq!(sched.trans_cost, c(71));
        assert_eq!(sched.changes, 1, "initial build not counted by default");
        assert_eq!(sched.total_cost(), c(191));
    }

    #[test]
    fn initial_change_counting_modes() {
        let o = oracle();
        let s0 = Config::single(0);
        let loose = Schedule::evaluate(&o, &Problem::default(), vec![s0.clone(), s0.clone()]);
        assert_eq!(loose.changes, 0);
        let strict = Schedule::evaluate(
            &o,
            &Problem {
                count_initial_change: true,
                ..Problem::default()
            },
            vec![s0.clone(), s0],
        );
        assert_eq!(strict.changes, 1);
    }

    #[test]
    fn final_config_adds_closing_trans() {
        let o = oracle();
        let p = Problem {
            final_config: Some(Config::EMPTY),
            ..Problem::default()
        };
        let s0 = Config::single(0);
        let sched = Schedule::evaluate(&o, &p, vec![s0.clone(), s0]);
        assert_eq!(sched.trans_cost, c(30 + 1), "build + closing drop");
    }

    #[test]
    fn segments_and_display() {
        let o = oracle();
        let p = Problem::default();
        let s0 = Config::single(0);
        let s1 = Config::single(1);
        let sched =
            Schedule::evaluate(&o, &p, vec![s0.clone(), s0.clone(), s1.clone(), s0.clone()]);
        let segs = sched.segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0], (0..2, s0.clone()));
        assert_eq!(segs[1], (2..3, s1));
        assert_eq!(segs[2], (3..4, s0));
        let text = sched.to_string();
        assert!(text.contains("2 change(s)"), "{text}");
    }

    #[test]
    fn validate_catches_violations() {
        let o = oracle();
        let p = Problem {
            space_bound: Some(5),
            ..Problem::default()
        };
        let s0 = Config::single(0);
        let s1 = Config::single(1); // size 7 > bound 5
        let good = Schedule::evaluate(&o, &p, vec![s0.clone(); 4]);
        good.validate(&o, &p, Some(1)).unwrap();

        let bad_space =
            Schedule::evaluate(&o, &p, vec![s0.clone(), s1.clone(), s0.clone(), s0.clone()]);
        assert!(bad_space.validate(&o, &p, None).is_err());

        let p2 = Problem::default();
        let many = Schedule::evaluate(
            &o,
            &p2,
            vec![s0.clone(), s1.clone(), s0.clone(), s1.clone()],
        );
        assert!(many.validate(&o, &p2, Some(2)).is_err());
        many.validate(&o, &p2, Some(3)).unwrap();

        let wrong_len = Schedule::evaluate(&o, &p2, vec![s0]);
        assert!(wrong_len.validate(&o, &p2, None).is_err());

        let mut doctored = good;
        doctored.exec_cost = Cost::ZERO;
        assert!(doctored.validate(&o, &p, None).is_err());
    }
}
