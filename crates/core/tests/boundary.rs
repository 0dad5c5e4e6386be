//! Config boundary behavior at the representation's width boundaries:
//! 63 (last inline slot), 64 (first spill), 65, and 128 must work
//! through every solver and the caching oracle, and out-of-range
//! indices must fail the same way everywhere — a panic, never a silent
//! `false`.

use cdpd_core::decompose;
use cdpd_core::{
    greedy, hybrid, kaware, kselect, merging, ranking, seqgraph, Config, CostOracle, Problem,
    ProjectableOracle, ProjectedOracle,
};
use cdpd_types::Cost;

fn c(io: u64) -> Cost {
    Cost::from_ios(io)
}

/// `m` candidate structures; only indices 0 and `m - 1` ever matter.
/// Early stages run cheap under the top structure, late stages under
/// structure 0, so optimal schedules are forced to exercise the highest
/// slot — whichever side of the 64-bit spill boundary it sits on.
struct WideAt {
    n_stages: usize,
    m: usize,
}

impl WideAt {
    fn top(&self) -> usize {
        self.m - 1
    }
}

impl CostOracle for WideAt {
    fn n_stages(&self) -> usize {
        self.n_stages
    }
    fn n_structures(&self) -> usize {
        self.m
    }
    fn exec(&self, stage: usize, config: &Config) -> Cost {
        let want = if stage < self.n_stages / 2 {
            self.top()
        } else {
            0
        };
        if config.contains(want) {
            c(10)
        } else {
            c(100)
        }
    }
    fn trans(&self, from: &Config, to: &Config) -> Cost {
        c(5).scale(to.minus(from).len() as u64) + c(1).scale(from.minus(to).len() as u64)
    }
    fn size(&self, config: &Config) -> u64 {
        config.len() as u64
    }
}

impl ProjectableOracle for WideAt {
    // Only {0, top} are relevant — the masks a decomposition collapses.
    fn relevance_mask(&self, _stage: usize) -> Config {
        Config::single(0).with(self.top())
    }
}

const WIDTHS: [usize; 4] = [63, 64, 65, 128];

fn wide(m: usize) -> WideAt {
    WideAt { n_stages: 4, m }
}

fn candidates(m: usize) -> Vec<Config> {
    vec![Config::EMPTY, Config::single(0), Config::single(m - 1)]
}

#[test]
fn config_ops_at_boundary_indices() {
    for top in [63usize, 64, 65, 127] {
        let cfg = Config::single(top);
        assert!(cfg.contains(top));
        assert!(!cfg.contains(0));
        assert_eq!(cfg.len(), 1);
        assert_eq!(Config::EMPTY.with(top), cfg);
        assert_eq!(cfg.without(top), Config::EMPTY);
        assert_eq!(cfg.structures().collect::<Vec<_>>(), vec![top]);
        assert_eq!(cfg.to_string(), format!("{{{top}}}"));
        let full = Config::full(top + 1);
        assert!(full.contains(top));
        assert_eq!(full.len(), top + 1);
        assert!(cfg.is_subset_of(&full));
        assert_eq!(full.rank(top), top);
    }
    // The spill boundary itself: 63 stays inline, 64 spills.
    assert_eq!(Config::single(63).words().len(), 1);
    assert_eq!(Config::single(63).words(), [1u64 << 63]);
    assert_eq!(Config::single(64).words().len(), 2);
    assert_eq!(Config::full(64).words().len(), 1);
    assert_eq!(Config::full(65).words().len(), 2);
}

#[test]
fn every_solver_handles_boundary_widths() {
    for m in WIDTHS {
        let o = wide(m);
        let p = Problem::default();
        let cands = candidates(m);
        let top = Config::single(m - 1);
        let zero = Config::single(0);

        let unconstrained = seqgraph::solve(&o, &p, &cands).unwrap();
        assert_eq!(
            unconstrained.configs,
            vec![top.clone(), top.clone(), zero.clone(), zero.clone()],
            "the optimum must ride the top slot at m={m}"
        );
        unconstrained.validate(&o, &p, None).unwrap();

        let constrained = kaware::solve(&o, &p, &cands, 1).unwrap();
        constrained.validate(&o, &p, Some(1)).unwrap();
        assert!(constrained.configs.iter().any(|cfg| cfg.contains(m - 1)));

        let warm = kaware::solve_with_prefix(&o, &p, &cands, 1, &constrained.configs[..2]).unwrap();
        assert_eq!(warm.total_cost(), constrained.total_cost());

        let merged = merging::solve(&o, &p, &cands, 1).unwrap();
        merged.validate(&o, &p, Some(1)).unwrap();

        let ranked = ranking::solve(&o, &p, &cands, 1, 64).unwrap();
        ranked.validate(&o, &p, Some(1)).unwrap();
        assert_eq!(ranked.total_cost(), constrained.total_cost());

        let hybrid_out = hybrid::solve(&o, &p, &cands, 1).unwrap();
        hybrid_out.schedule.validate(&o, &p, Some(1)).unwrap();

        // Greedy generates its own candidates by probing all singletons.
        let g = greedy::solve(&o, &p, 2).unwrap();
        g.validate(&o, &p, Some(2)).unwrap();
        assert_eq!(g.total_cost(), unconstrained.total_cost());

        let curve = kselect::cost_curve(&o, &p, &cands, 3).unwrap();
        assert_eq!(curve.len(), 4);
        assert_eq!(curve[2].cost, unconstrained.total_cost());

        // The decomposed solve collapses every width to the same 2-wide
        // local instance; full local enumeration can only improve on the
        // restricted singleton candidate list above.
        let dec = decompose::solve_decomposed(&o, &p, &[], None, |lo, lp, cands, _| {
            kaware::solve(lo, lp, cands, 2)
        })
        .unwrap();
        dec.validate(&o, &p, Some(2)).unwrap();
        assert!(dec.total_cost() <= unconstrained.total_cost(), "m={m}");
    }
}

#[test]
fn caching_oracle_agrees_across_boundary_widths() {
    for m in WIDTHS {
        let raw = wide(m);
        let projected = ProjectedOracle::new(wide(m));
        let probes = [
            Config::EMPTY,
            Config::single(m - 1),
            Config::single(0).with(m - 1),
            Config::full(m),
        ];
        for stage in 0..raw.n_stages() {
            for cfg in &probes {
                assert_eq!(projected.exec(stage, cfg), raw.exec(stage, cfg));
            }
        }
        for cfg in &probes {
            assert_eq!(projected.size(cfg), raw.size(cfg));
        }
        // Solving through the wrapper reproduces the raw optimum.
        let p = Problem::default();
        let cands = candidates(m);
        let want = seqgraph::solve(&raw, &p, &cands).unwrap();
        let via_projected = seqgraph::solve(&projected, &p, &cands).unwrap();
        assert_eq!(via_projected.total_cost(), want.total_cost());
        assert_eq!(via_projected.configs, want.configs);
    }
}

fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep test output clean
    let r = std::panic::catch_unwind(f).is_err();
    std::panic::set_hook(prev);
    r
}

#[test]
fn out_of_range_indices_fail_consistently() {
    // The last valid slot works everywhere...
    let top = cdpd_core::MAX_STRUCTURE_INDEX - 1;
    assert!(!panics(move || {
        let _ = Config::single(top);
        let _ = Config::EMPTY.contains(top);
        let _ = Config::EMPTY.with(top);
        let _ = Config::EMPTY.without(top);
    }));
    // ...and anything at or past the cap panics in every index-taking
    // method — including `contains`, which used to answer a silent
    // `false`.
    for idx in [top + 1, top + 2, 10 * (top + 1)] {
        assert!(panics(move || {
            let _ = Config::single(idx);
        }));
        assert!(panics(move || {
            let _ = Config::full(1).contains(idx);
        }));
        assert!(panics(move || {
            let _ = Config::EMPTY.with(idx);
        }));
        assert!(panics(move || {
            let _ = Config::EMPTY.without(idx);
        }));
    }
}
