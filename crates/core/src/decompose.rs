//! CoPhy-style candidate decomposition (Dash, Polyzotis, Ailamaki,
//! arXiv 1104.3214): solve in *local* coordinates over the structures
//! the workload can actually use, not the full vocabulary.
//!
//! The observation is the same one the relevance projection in
//! [`crate::oracle`] exploits, lifted from the cache to the solver: a
//! stage's cost depends only on the structures in its relevance mask,
//! so the union of every stage's mask — plus the problem's boundary
//! configurations — is a complete *active set*. Structures outside it
//! cannot change any schedule's exec cost, and no optimal schedule
//! builds them (they cost transition I/Os and space for nothing). A
//! [`Decomposition`] renames the active set to a dense `0..a` local
//! index space; candidate derivation and solvers then scale with `a`
//! (relevant structures), not `m` (vocabulary width). The localized
//! solve is bit-identical to solving the narrow instance directly —
//! localization is a pure index relabeling, not an approximation.
//!
//! The pieces compose: [`Decomposition::from_oracle`] computes the
//! active set, [`LocalOracle`] presents the inner oracle in local
//! coordinates, [`candidate_configs`] is the candidate policy,
//! [`Decomposition::globalize_schedule`] maps a local solution back,
//! and [`solve_decomposed`] is the one function that performs the
//! round trip — the batch and online advisors both call it, over a
//! memo keyed in *global* coordinates (the rename sits above the cache,
//! so entries survive re-solves whose active sets differ), and differ
//! only in the solver they pass it.

use crate::config::{enumerate_configs, Config, ENUMERABLE_WIDTH};
use crate::greedy;
use crate::oracle::{ProjectableOracle, SingletonCosts};
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use cdpd_types::{Cost, Result};

/// A rename of the workload's *active* structures — the union of every
/// stage's relevance mask and the problem's boundary configurations —
/// onto the dense local index space `0..n_local()`.
///
/// Localization is exact for any configuration that is a subset of the
/// active set (`globalize(localize(c)) == c`); for other configurations
/// it projects the irrelevant structures away, which leaves every exec
/// cost unchanged by the relevance contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decomposition {
    active: Config,
    /// Select table: local index → global structure index.
    members: Vec<usize>,
}

impl Decomposition {
    /// Decompose around an oracle's relevance masks. `pinned` is unioned
    /// into the active set — pass any configurations that must survive
    /// the round trip exactly (an online advisor's committed prefix, for
    /// example) beyond the problem's own boundary configurations, which
    /// are always included.
    pub fn from_oracle<O: ProjectableOracle + ?Sized>(
        oracle: &O,
        problem: &Problem,
        pinned: &[Config],
    ) -> Decomposition {
        let mut active = problem.initial.clone();
        if let Some(f) = &problem.final_config {
            active = active.union(f);
        }
        for stage in 0..oracle.n_stages() {
            active = active.union(&oracle.relevance_mask(stage));
        }
        for cfg in pinned {
            active = active.union(cfg);
        }
        Decomposition::from_active(active)
    }

    /// Decompose around an explicit active set.
    pub fn from_active(active: Config) -> Decomposition {
        let members = active.structures().collect();
        Decomposition { active, members }
    }

    /// The global active set.
    pub fn active(&self) -> &Config {
        &self.active
    }

    /// Number of local structures (`a` = |active set|).
    pub fn n_local(&self) -> usize {
        self.members.len()
    }

    /// Select table: `members()[local]` is the global structure index.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Rename `global` into local coordinates, projecting away any
    /// structures outside the active set.
    pub fn localize(&self, global: &Config) -> Config {
        let mut local = Config::EMPTY;
        for g in global.intersect(&self.active).structures() {
            local = local.with(self.active.rank(g));
        }
        local
    }

    /// Rename `local` back into global coordinates.
    ///
    /// # Panics
    /// Panics if `local` has a structure at or above [`Self::n_local`].
    pub fn globalize(&self, local: &Config) -> Config {
        let mut global = Config::EMPTY;
        for s in local.structures() {
            global = global.with(self.members[s]);
        }
        global
    }

    /// The problem instance in local coordinates.
    pub fn localize_problem(&self, problem: &Problem) -> Problem {
        Problem {
            initial: self.localize(&problem.initial),
            final_config: problem.final_config.as_ref().map(|f| self.localize(f)),
            space_bound: problem.space_bound,
            count_initial_change: problem.count_initial_change,
        }
    }

    /// Map a schedule solved in local coordinates back to global
    /// structure indexes. Costs and the change count carry over
    /// unchanged — localization preserves both by construction.
    pub fn globalize_schedule(&self, schedule: Schedule) -> Schedule {
        Schedule {
            configs: schedule.configs.iter().map(|c| self.globalize(c)).collect(),
            exec_cost: schedule.exec_cost,
            trans_cost: schedule.trans_cost,
            changes: schedule.changes,
        }
    }

    /// View `inner` in this decomposition's local coordinates.
    pub fn local_oracle<'a, O: ProjectableOracle + ?Sized>(
        &'a self,
        inner: &'a O,
    ) -> LocalOracle<'a, O> {
        LocalOracle {
            inner,
            decomp: self,
        }
    }
}

/// An oracle adapter presenting the wrapped oracle's active structures
/// as a dense `0..n_local` vocabulary. Every probe renames its
/// configurations through the [`Decomposition`] before it reaches the
/// wrapped oracle — over a [`crate::oracle::ProjectedOracle`] that
/// means the memo stays keyed in global coordinates. Relevance masks
/// are renamed too, so the adapter is itself projectable.
pub struct LocalOracle<'a, O: ?Sized> {
    inner: &'a O,
    decomp: &'a Decomposition,
}

impl<O: ProjectableOracle + ?Sized> CostOracle for LocalOracle<'_, O> {
    fn n_stages(&self) -> usize {
        self.inner.n_stages()
    }

    fn n_structures(&self) -> usize {
        self.decomp.n_local()
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        self.inner.exec(stage, &self.decomp.globalize(config))
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        self.inner
            .trans(&self.decomp.globalize(from), &self.decomp.globalize(to))
    }

    fn size(&self, config: &Config) -> u64 {
        self.inner.size(&self.decomp.globalize(config))
    }
}

impl<O: ProjectableOracle + ?Sized> ProjectableOracle for LocalOracle<'_, O> {
    fn relevance_mask(&self, stage: usize) -> Config {
        self.decomp.localize(&self.inner.relevance_mask(stage))
    }

    fn n_parts(&self, stage: usize) -> usize {
        self.inner.n_parts(stage)
    }

    fn part_mask(&self, stage: usize, part: usize) -> Config {
        self.decomp.localize(&self.inner.part_mask(stage, part))
    }

    fn exec_part(&self, stage: usize, part: usize, config: &Config) -> Cost {
        // `config` arrives projected onto the *local* part mask;
        // globalizing it reproduces the projection onto the global part
        // mask (part masks are subsets of the active set), so the inner
        // contract is preserved.
        self.inner
            .exec_part(stage, part, &self.decomp.globalize(config))
    }

    fn singleton_costs(&self, stage: usize) -> SingletonCosts {
        // The stage's mask is inside the active set and `rank` is
        // monotone, so the rename keeps the ascending order.
        let global = self.inner.singleton_costs(stage);
        SingletonCosts {
            empty: global.empty,
            singles: global
                .singles
                .into_iter()
                .map(|(g, cost)| (self.decomp.active.rank(g), cost))
                .collect(),
        }
    }
}

/// The candidate policy: every subset while the vocabulary fits
/// [`ENUMERABLE_WIDTH`], greedy per-stage derivation
/// ([`greedy::candidates`]) beyond it.
pub fn candidate_configs(oracle: &dyn ProjectableOracle, problem: &Problem) -> Result<Vec<Config>> {
    capped_candidates(oracle, problem, None)
}

/// [`candidate_configs`] under a cap on structures per configuration.
/// The greedy arm pushes top-two pairs whatever the cap, so the cap is
/// enforced on its output; the problem's boundary configurations stay
/// (a design already in place is not a recommendation to build it).
fn capped_candidates(
    oracle: &dyn ProjectableOracle,
    problem: &Problem,
    max_structures: Option<usize>,
) -> Result<Vec<Config>> {
    let _span = cdpd_obs::span!("solve.candidates", stages = oracle.n_stages());
    if oracle.n_structures() <= ENUMERABLE_WIDTH {
        return enumerate_configs(oracle, problem.space_bound, max_structures);
    }
    let mut candidates = greedy::candidates(oracle, problem);
    if let Some(cap) = max_structures {
        candidates.retain(|c| {
            c.len() <= cap || *c == problem.initial || problem.final_config.as_ref() == Some(c)
        });
    }
    Ok(candidates)
}

/// The decomposition round trip: compute the active set (with `pinned`
/// — an online advisor's committed prefix — unioned in, so localization
/// is lossless on it), rename, derive candidates in local coordinates
/// under the `max_structures` cap, hand the local instance to `solve`,
/// and globalize the schedule it returns. `solve` receives the local
/// oracle, the local problem, the candidates, and `pinned` localized.
///
/// Local indexes never escape this function. On instances whose active
/// set is the whole vocabulary the rename is the identity and this
/// reduces to calling `solve` over the same candidates.
pub fn solve_decomposed<O: ProjectableOracle + ?Sized>(
    oracle: &O,
    problem: &Problem,
    pinned: &[Config],
    max_structures: Option<usize>,
    solve: impl FnOnce(&dyn ProjectableOracle, &Problem, &[Config], &[Config]) -> Result<Schedule>,
) -> Result<Schedule> {
    let decomp = Decomposition::from_oracle(oracle, problem, pinned);
    let _span = cdpd_obs::span!(
        "solve.decomposed",
        vocabulary = oracle.n_structures(),
        active = decomp.n_local()
    );
    let local = decomp.local_oracle(oracle);
    let local_problem = decomp.localize_problem(problem);
    let local_pinned: Vec<Config> = pinned.iter().map(|c| decomp.localize(c)).collect();
    let candidates = capped_candidates(&local, &local_problem, max_structures)?;
    let schedule = solve(&local, &local_problem, &candidates, &local_pinned)?;
    Ok(decomp.globalize_schedule(schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kaware;
    use cdpd_types::Cost;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    /// A wide-but-sparse oracle: `m` structures, but each stage only
    /// uses `spread`-spaced structures from `picks`. Costs depend only
    /// on the relevant intersection, honoring the relevance contract.
    struct Sparse {
        n_stages: usize,
        m: usize,
        picks: Vec<Vec<usize>>,
    }

    impl Sparse {
        fn new(n_stages: usize, m: usize, picks: Vec<Vec<usize>>) -> Sparse {
            assert_eq!(picks.len(), n_stages);
            Sparse { n_stages, m, picks }
        }

        fn mask(&self, stage: usize) -> Config {
            self.picks[stage]
                .iter()
                .fold(Config::EMPTY, |acc, &s| acc.with(s))
        }
    }

    impl CostOracle for Sparse {
        fn n_stages(&self) -> usize {
            self.n_stages
        }
        fn n_structures(&self) -> usize {
            self.m
        }
        fn exec(&self, stage: usize, config: &Config) -> Cost {
            // 100 baseline, minus 30 per relevant structure present.
            let hits = self.picks[stage]
                .iter()
                .filter(|&&s| config.contains(s))
                .count() as u64;
            c(100 - 30 * hits.min(3))
        }
        fn trans(&self, from: &Config, to: &Config) -> Cost {
            c(7).scale(to.minus(from).len() as u64) + c(1).scale(from.minus(to).len() as u64)
        }
        fn size(&self, config: &Config) -> u64 {
            config.len() as u64
        }
    }

    impl ProjectableOracle for Sparse {
        fn relevance_mask(&self, stage: usize) -> Config {
            self.mask(stage)
        }
    }

    #[test]
    fn active_set_and_rename_roundtrip() {
        let o = Sparse::new(3, 200, vec![vec![5, 130], vec![5, 70], vec![199]]);
        let p = Problem::paper_experiment();
        let d = Decomposition::from_oracle(&o, &p, &[]);
        assert_eq!(d.n_local(), 4);
        assert_eq!(d.members(), &[5, 70, 130, 199]);
        assert_eq!(
            *d.active(),
            Config::EMPTY.with(5).with(70).with(130).with(199)
        );
        // Round trip over subsets of the active set is exact.
        let g = Config::EMPTY.with(5).with(199);
        let l = d.localize(&g);
        assert_eq!(l, Config::EMPTY.with(0).with(3));
        assert_eq!(d.globalize(&l), g);
        // Structures outside the active set are projected away.
        assert_eq!(d.localize(&g.with(42)), l);
        // Pinned configs widen the active set.
        let pinned = Decomposition::from_oracle(&o, &p, &[Config::single(42)]);
        assert_eq!(pinned.n_local(), 5);
        assert_eq!(pinned.localize(&Config::single(42)), Config::single(1));
    }

    #[test]
    fn rename_is_the_identity_on_dense_instances() {
        let o = Sparse::new(2, 3, vec![vec![0, 1], vec![1, 2]]);
        let p = Problem::default();
        let d = Decomposition::from_oracle(&o, &p, &[]);
        assert_eq!(d.members(), &[0, 1, 2]);
        let g = Config::EMPTY.with(0).with(2);
        assert_eq!(d.localize(&g), g);
        assert_eq!(d.globalize(&g), g);
    }

    #[test]
    fn local_oracle_preserves_costs_and_relevance() {
        let o = Sparse::new(3, 200, vec![vec![5, 130], vec![5, 70], vec![199]]);
        let p = Problem::paper_experiment();
        let d = Decomposition::from_oracle(&o, &p, &[]);
        let local = d.local_oracle(&o);
        assert_eq!(local.n_structures(), 4);
        assert_eq!(local.n_stages(), 3);
        for stage in 0..3 {
            assert_eq!(local.relevance_mask(stage), d.localize(&o.mask(stage)));
            for bits in 0..16u64 {
                let lc = Config::from_bits(bits);
                let gc = d.globalize(&lc);
                assert_eq!(local.exec(stage, &lc), o.exec(stage, &gc));
                assert_eq!(local.size(&lc), o.size(&gc));
                assert_eq!(
                    local.trans(&Config::EMPTY, &lc),
                    o.trans(&Config::EMPTY, &gc)
                );
            }
        }
    }

    #[test]
    fn decomposed_solve_is_bit_identical_to_narrow_reference() {
        // The same workload expressed twice: over a 200-wide vocabulary
        // touching only structures {5, 70, 130, 199}, and directly over
        // the 4-wide renamed vocabulary. The decomposed solve of the
        // wide instance must equal the direct solve of the narrow one,
        // configuration for configuration.
        let picks_wide = vec![
            vec![5, 130],
            vec![5, 130],
            vec![5, 70],
            vec![199],
            vec![199],
        ];
        let rename = |s: usize| match s {
            5 => 0,
            70 => 1,
            130 => 2,
            199 => 3,
            _ => unreachable!(),
        };
        let picks_narrow: Vec<Vec<usize>> = picks_wide
            .iter()
            .map(|p| p.iter().map(|&s| rename(s)).collect())
            .collect();
        let wide = Sparse::new(5, 200, picks_wide);
        let narrow = Sparse::new(5, 4, picks_narrow);
        let p = Problem::paper_experiment();
        for k in [0, 1, 2, 4] {
            let via_decomp = solve_decomposed(&wide, &p, &[], None, |o, p, cands, _| {
                kaware::solve(o, p, cands, k)
            })
            .unwrap();
            let d = Decomposition::from_oracle(&wide, &p, &[]);
            let cands = candidate_configs(&narrow, &p).unwrap();
            let direct = kaware::solve(&narrow, &p, &cands, k).unwrap();
            assert_eq!(via_decomp.total_cost(), direct.total_cost(), "k={k}");
            assert_eq!(via_decomp.changes, direct.changes, "k={k}");
            let localized: Vec<Config> = via_decomp.configs.iter().map(|c| d.localize(c)).collect();
            assert_eq!(localized, direct.configs, "k={k}");
            via_decomp.validate(&wide, &p, Some(k)).unwrap();
        }
    }

    #[test]
    fn globalize_schedule_preserves_bookkeeping() {
        let o = Sparse::new(3, 200, vec![vec![5, 130], vec![5, 70], vec![199]]);
        let p = Problem::paper_experiment();
        let d = Decomposition::from_oracle(&o, &p, &[]);
        let local = d.local_oracle(&o);
        let lp = d.localize_problem(&p);
        let cands = candidate_configs(&local, &lp).unwrap();
        let ls = kaware::solve(&local, &lp, &cands, 2).unwrap();
        let gs = d.globalize_schedule(ls.clone());
        assert_eq!(gs.exec_cost, ls.exec_cost);
        assert_eq!(gs.trans_cost, ls.trans_cost);
        assert_eq!(gs.changes, ls.changes);
        // The globalized schedule re-validates against the wide oracle.
        gs.validate(&o, &p, Some(2)).unwrap();
    }

    #[test]
    fn candidate_configs_switches_policy_at_the_width_wall() {
        let small = Sparse::new(2, 3, vec![vec![0], vec![1]]);
        let p = Problem::default();
        let cands = candidate_configs(&small, &p).unwrap();
        assert_eq!(cands.len(), 8, "full enumeration while it fits");
        let wide = Sparse::new(2, 100, vec![vec![0], vec![1]]);
        let wide_cands = candidate_configs(&wide, &p).unwrap();
        assert!(
            wide_cands.len() < 100,
            "greedy derivation stays small: {}",
            wide_cands.len()
        );
        assert!(wide_cands.contains(&Config::EMPTY));
    }

    /// 30 structures, every one relevant; stage `s` is served by the
    /// pair `{2s, 2s + 1}`, so greedy derivation wants pairs.
    fn pairwise(n_stages: usize) -> Sparse {
        Sparse::new(
            n_stages,
            30,
            (0..n_stages).map(|s| vec![2 * s, 2 * s + 1]).collect(),
        )
    }

    #[test]
    fn cap_is_enforced_past_the_enumeration_width() {
        let o = pairwise(4);
        let p = Problem::default();
        assert!(o.n_structures() > ENUMERABLE_WIDTH);
        let uncapped = candidate_configs(&o, &p).unwrap();
        assert!(uncapped.iter().any(|c| c.len() == 2), "{uncapped:?}");
        let capped = capped_candidates(&o, &p, Some(1)).unwrap();
        assert!(capped.iter().all(|c| c.len() <= 1), "{capped:?}");
        assert!(capped.len() > 1, "singletons survive the cap");
        // Boundary configurations stay, whatever their width.
        let boundary = Problem {
            initial: Config::EMPTY.with(0).with(9).with(20),
            ..Problem::default()
        };
        let capped = capped_candidates(&o, &boundary, Some(1)).unwrap();
        assert!(capped.contains(&boundary.initial));
        assert!(capped
            .iter()
            .all(|c| c.len() <= 1 || *c == boundary.initial));
    }

    #[test]
    fn pinned_prefix_survives_the_round_trip() {
        // Structure 42 is relevant to nothing, but a committed prefix
        // holds it: it must be pinned into the active set, reach the
        // solver localized, and come back unchanged.
        let o = Sparse::new(3, 200, vec![vec![5, 130], vec![5, 70], vec![199]]);
        let p = Problem::default();
        let prefix = vec![Config::single(42)];
        let s = solve_decomposed(&o, &p, &prefix, Some(1), |lo, lp, cands, pinned| {
            assert_eq!(lo.n_structures(), 5);
            assert_eq!(pinned, [Config::single(1)]);
            kaware::solve_with_prefix(lo, lp, cands, 2, pinned)
        })
        .unwrap();
        assert_eq!(s.configs[0], prefix[0]);
        assert!(s.configs.iter().all(|c| c.len() <= 1));
        s.validate(&o, &p, Some(2)).unwrap();
    }
}
