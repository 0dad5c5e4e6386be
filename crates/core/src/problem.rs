use crate::config::Config;
use crate::oracle::{ProjectableOracle, ProjectedOracle};
use cdpd_types::Cost;

/// The `EXEC` / `TRANS` / `SIZE` cost oracle of the paper's §2.
///
/// Stages index the workload's statements (or summarized statement
/// blocks); structures index the candidate-structure list the oracle
/// was built over. Implementations must be deterministic — solvers
/// assume `exec(i, c)` is a pure function. Configurations are passed by
/// reference because [`Config`] is no longer `Copy` (it can spill past
/// 64 structures); implementations clone only what they store.
pub trait CostOracle {
    /// Number of statements (stages) in the workload sequence.
    fn n_stages(&self) -> usize;
    /// Number of candidate structures (`m`).
    fn n_structures(&self) -> usize;
    /// `EXEC(S_stage, config)`: cost of executing the stage's
    /// statement(s) under `config`.
    fn exec(&self, stage: usize, config: &Config) -> Cost;
    /// `TRANS(from, to)`: cost of changing the physical design.
    /// Must be zero when `from == to`.
    fn trans(&self, from: &Config, to: &Config) -> Cost;
    /// `SIZE(config)` in the problem's space unit (pages).
    fn size(&self, config: &Config) -> u64;
}

/// The problem instance around the oracle: boundary conditions and the
/// space bound. The change budget `k` is a per-solve argument.
#[derive(Clone, Debug)]
pub struct Problem {
    /// `C_0`: the configuration in place before the first statement.
    pub initial: Config,
    /// Optional required final configuration. When set, `TRANS(C_n, f)`
    /// is added to every schedule's cost (the sequence graph's
    /// destination node; the paper's experiments pin it to `{}`). The
    /// closing transition never counts against `k`.
    pub final_config: Option<Config>,
    /// `b`: maximum `SIZE(C_i)` for every stage, if bounded.
    pub space_bound: Option<u64>,
    /// Whether `C_0 ≠ C_1` counts as one of the `k` changes.
    ///
    /// Definition 1 counts every `i` with `C_{i-1} ≠ C_i`, which
    /// includes the initial build. The paper's own experiment (Table 2,
    /// `k = 2` starting from an empty design with three phases) is only
    /// feasible if the initial build is *not* counted, so that is the
    /// default; set `true` for the strict Definition 1 reading.
    pub count_initial_change: bool,
}

impl Default for Problem {
    fn default() -> Self {
        Problem {
            initial: Config::EMPTY,
            final_config: None,
            space_bound: None,
            count_initial_change: false,
        }
    }
}

impl Problem {
    /// The paper's experimental setup: start empty, end empty,
    /// unbounded space, initial build not counted.
    pub fn paper_experiment() -> Problem {
        Problem {
            initial: Config::EMPTY,
            final_config: Some(Config::EMPTY),
            space_bound: None,
            count_initial_change: false,
        }
    }

    /// True if `config` respects the space bound under `oracle`.
    pub fn fits(&self, oracle: &dyn CostOracle, config: &Config) -> bool {
        self.space_bound.is_none_or(|b| oracle.size(config) <= b)
    }

    /// Design changes `configs` spends against `k` when they follow
    /// [`Problem::initial`]: every stage whose configuration differs
    /// from the previous one, except a change at stage 0 unless
    /// [`Problem::count_initial_change`] is set.
    pub fn changes(&self, configs: &[Config]) -> usize {
        let mut prev = &self.initial;
        let mut changes = 0;
        for (stage, cfg) in configs.iter().enumerate() {
            if cfg != prev && (stage > 0 || self.count_initial_change) {
                changes += 1;
            }
            prev = cfg;
        }
        changes
    }
}

/// The closure-backed inner oracle [`SyntheticOracle`] memoizes.
/// `TRANS` is per-structure build costs plus a flat drop cost; `SIZE`
/// is additive over per-structure sizes. Relevance info is the trivial
/// default (one full-mask part per stage), so the cache holds one entry
/// per distinct `(stage, config)` probed.
type ExecFn = Box<dyn Fn(usize, &Config) -> Cost + Send + Sync>;

struct FnOracle {
    n_stages: usize,
    n_structures: usize,
    exec: ExecFn,
    build: Vec<Cost>,
    drop_cost: Cost,
    sizes: Vec<u64>,
}

impl CostOracle for FnOracle {
    fn n_stages(&self) -> usize {
        self.n_stages
    }

    fn n_structures(&self) -> usize {
        self.n_structures
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        (self.exec)(stage, config)
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        let mut total = Cost::ZERO;
        for s in to.minus(from).structures() {
            total += self.build[s];
        }
        if !from.minus(to).is_empty() {
            total += self.drop_cost.scale(from.minus(to).len() as u64);
        }
        total
    }

    fn size(&self, config: &Config) -> u64 {
        config.structures().map(|s| self.sizes[s]).sum()
    }
}

impl ProjectableOracle for FnOracle {}

/// A closure-driven oracle for tests, simulations, and benchmarks.
///
/// A thin wrapper over [`ProjectedOracle`] — the one cache the
/// engine-backed advisor uses — so every test and simulation exercises
/// the production cost path: the cost function is evaluated on demand,
/// once per distinct `(stage, config)`, at any vocabulary width.
pub struct SyntheticOracle {
    memo: ProjectedOracle<FnOracle>,
}

impl SyntheticOracle {
    /// Build an oracle from a cost function.
    ///
    /// # Panics
    /// Panics if the `build`/`sizes` vectors have the wrong length.
    pub fn from_fn(
        n_stages: usize,
        n_structures: usize,
        exec: impl Fn(usize, &Config) -> Cost + Send + Sync + 'static,
        build: Vec<Cost>,
        drop_cost: Cost,
        sizes: Vec<u64>,
    ) -> SyntheticOracle {
        assert_eq!(build.len(), n_structures);
        assert_eq!(sizes.len(), n_structures);
        let inner = FnOracle {
            n_stages,
            n_structures,
            exec: Box::new(exec),
            build,
            drop_cost,
            sizes,
        };
        SyntheticOracle {
            memo: ProjectedOracle::new(inner),
        }
    }
}

impl CostOracle for SyntheticOracle {
    fn n_stages(&self) -> usize {
        self.memo.n_stages()
    }

    fn n_structures(&self) -> usize {
        self.memo.n_structures()
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        self.memo.exec(stage, config)
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        self.memo.trans(from, to)
    }

    fn size(&self, config: &Config) -> u64 {
        self.memo.size(config)
    }
}

impl ProjectableOracle for SyntheticOracle {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ProjectedOracle;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    fn oracle() -> SyntheticOracle {
        SyntheticOracle::from_fn(
            3,
            2,
            |stage, cfg| c(100 - 10 * (stage as u64) - 5 * cfg.len() as u64),
            vec![c(50), c(60)],
            c(1),
            vec![10, 20],
        )
    }

    #[test]
    fn synthetic_exec_matrix() {
        let o = oracle();
        assert_eq!(o.n_stages(), 3);
        assert_eq!(o.n_structures(), 2);
        assert_eq!(o.exec(0, &Config::EMPTY), c(100));
        assert_eq!(o.exec(2, &Config::from_bits(0b11)), c(70));
    }

    #[test]
    fn synthetic_memoizes_on_demand_at_any_width() {
        // Nothing is evaluated up front; each distinct probe reaches
        // the cost function once, spilled configurations included.
        let o = SyntheticOracle::from_fn(
            2,
            80,
            |_, cfg| c(100 + cfg.len() as u64),
            vec![c(1); 80],
            c(1),
            vec![1; 80],
        );
        assert_eq!(o.memo.stats_snapshot().raw_exec_evals, 0);
        let wide = Config::EMPTY.with(3).with(79);
        assert_eq!(o.exec(0, &wide), c(102));
        assert_eq!(o.exec(0, &wide), c(102));
        assert_eq!(o.memo.stats_snapshot().raw_exec_evals, 1);
        assert_eq!(o.size(&wide), 2);
        assert_eq!(o.trans(&Config::EMPTY, &wide), c(2));
    }

    #[test]
    fn synthetic_trans_builds_and_drops() {
        let o = oracle();
        let e = Config::EMPTY;
        let s0 = Config::single(0);
        let s1 = Config::single(1);
        assert_eq!(o.trans(&e, &e), Cost::ZERO);
        assert_eq!(o.trans(&e, &s0), c(50));
        assert_eq!(o.trans(&s0, &e), c(1));
        assert_eq!(o.trans(&s0, &s1), c(61), "build 60 + drop 1");
        assert_eq!(o.trans(&e, &s0.union(&s1)), c(110));
    }

    #[test]
    fn synthetic_size_additive() {
        let o = oracle();
        assert_eq!(o.size(&Config::EMPTY), 0);
        assert_eq!(o.size(&Config::from_bits(0b11)), 30);
    }

    #[test]
    fn problem_fits_space_bound() {
        let o = oracle();
        let p = Problem {
            space_bound: Some(15),
            ..Problem::default()
        };
        assert!(p.fits(&o, &Config::single(0)));
        assert!(!p.fits(&o, &Config::single(1)));
        let unbounded = Problem::default();
        assert!(unbounded.fits(&o, &Config::from_bits(0b11)));
    }

    #[test]
    fn projected_layer_caches_exec_over_synthetic() {
        let o = ProjectedOracle::new(oracle());
        assert_eq!(o.exec_evaluations(), 0);
        let a = o.exec(1, &Config::single(0));
        let b = o.exec(1, &Config::single(0));
        assert_eq!(a, b);
        assert_eq!(o.exec_evaluations(), 1);
        o.exec(2, &Config::single(0));
        assert_eq!(o.exec_evaluations(), 2);
        assert_eq!(o.size(&Config::single(1)), 20);
        assert_eq!(o.size(&Config::single(1)), 20);
    }
}
