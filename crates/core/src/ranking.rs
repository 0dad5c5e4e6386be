//! Constrained design via shortest-path ranking (§5).
//!
//! Enumerate source→destination paths of the *unconstrained* sequence
//! graph in ascending cost and stop at the first whose design sequence
//! has at most `k` changes. Because every path seen earlier was
//! cheaper-or-equal and had too many changes, the first feasible path
//! is an optimal constrained design — the ranking is an *anytime
//! optimal* alternative to the k-aware graph.
//!
//! The ranking is best-first search over partial paths with an exact
//! remaining-distance heuristic, so producing each next path is cheap;
//! the danger is the number of paths that must be ranked, which §5
//! shows can be astronomical when k is small and many cheap-but-twitchy
//! designs precede the first calm one. `max_paths` caps the search;
//! hitting the cap returns [`cdpd_types::Error::Infeasible`], and a
//! caller that needs an answer regardless runs the k-aware graph
//! ([`crate::kaware`]), whose cost does not depend on how many designs
//! are cheaper than the first calm one.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use crate::tables::CostTables;
use cdpd_types::{Cost, Error, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// Optimal design with at most `k` changes, by ranking at most
/// `max_paths` paths.
pub fn solve(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
    k: usize,
    max_paths: usize,
) -> Result<Schedule> {
    let _span = cdpd_obs::span!("solve.ranking", k = k, max_paths = max_paths);
    let tables = CostTables::build(oracle, problem, candidates)?;
    for (ranked, (cost, path)) in PathRanking::new(&tables).enumerate() {
        if ranked == max_paths {
            return Err(Error::Infeasible(format!(
                "ranking budget of {max_paths} paths exhausted before a ≤{k}-change design"
            )));
        }
        if tables.changes(problem, &path) <= k {
            let schedule = tables.schedule(problem, &path);
            debug_assert_eq!(schedule.total_cost(), cost);
            return Ok(schedule);
        }
    }
    Err(Error::Infeasible(format!(
        "no design with at most {k} changes exists in the sequence graph"
    )))
}

/// A partial path as a shared cons-list, so that the frontier's many
/// partial paths share their common prefixes.
struct Step {
    /// The configuration index run at this step's stage.
    c: usize,
    prev: Option<Rc<Step>>,
}

/// Frontier entry: a partial path whose last step runs at `stage`, or a
/// finished path (closing transition charged) when `stage` is the stage
/// count. `g` is its exact cost so far and `f = g + h`, `h` being the
/// exact cost of its cheapest completion.
struct Frontier {
    f: Cost,
    g: Cost,
    stage: usize,
    tail: Rc<Step>,
}

impl PartialEq for Frontier {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f
    }
}
impl Eq for Frontier {}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on f.
        other.f.cmp(&self.f)
    }
}

/// Every design over `tables`, as `(total cost, one configuration index
/// per stage)`, in nondecreasing cost — the paths of the unconstrained
/// sequence graph, which is never materialised.
///
/// *"Shortest path ranking algorithms generate paths in ascending order
/// of length until a given stopping condition is reached."* This is
/// best-first search over partial paths. The heuristic is exact — one
/// backward pass over the tables — so the first time a finished path
/// pops it is a true next-shortest path: no path-deletion surgery is
/// needed on a layered graph. Equal-`f` entries leave the heap in the
/// order its push sequence dictates, which is the explicit graph's:
/// stage-0 entries and successors by ascending configuration index, a
/// finished path pushed once more as a terminal entry.
struct PathRanking<'t> {
    tables: &'t CostTables,
    /// `h[stage·|C| + c]`: the cheapest completion of a partial path
    /// ending at `(stage, c)`, `EXEC` of `(stage, c)` itself excluded;
    /// one row per stage plus the finished paths' row of zeros.
    h: Vec<Cost>,
    heap: BinaryHeap<Frontier>,
}

impl<'t> PathRanking<'t> {
    fn new(tables: &'t CostTables) -> Self {
        let n = tables.n_stages();
        let nc = tables.configs().len();
        let mut h = vec![Cost::ZERO; (n + 1) * nc];
        for c in 0..nc {
            h[(n - 1) * nc + c] = tables.leave(c);
        }
        for stage in (0..n - 1).rev() {
            let (row, next) = h[stage * nc..].split_at_mut(nc);
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (0..nc)
                    .map(|to| tables.trans(c, to) + tables.exec(stage + 1, to) + next[to])
                    .min()
                    .expect("at least one candidate");
            }
        }
        let mut ranking = PathRanking {
            tables,
            h,
            heap: BinaryHeap::new(),
        };
        for c in 0..nc {
            let g = tables.enter(c) + tables.exec(0, c);
            ranking.push(0, g, Rc::new(Step { c, prev: None }));
        }
        ranking
    }

    /// Queue `tail`, ending at `stage`, unless no finite completion
    /// exists.
    fn push(&mut self, stage: usize, g: Cost, tail: Rc<Step>) {
        let f = g + self.h[stage * self.tables.configs().len() + tail.c];
        if !f.is_infinite() {
            self.heap.push(Frontier { f, g, stage, tail });
        }
    }
}

impl Iterator for PathRanking<'_> {
    type Item = (Cost, Vec<usize>);

    fn next(&mut self) -> Option<(Cost, Vec<usize>)> {
        let n = self.tables.n_stages();
        while let Some(Frontier { g, stage, tail, .. }) = self.heap.pop() {
            if stage == n {
                let mut path = vec![0; n];
                let mut step = Some(&tail);
                for slot in path.iter_mut().rev() {
                    let at = step.expect("one step per stage");
                    *slot = at.c;
                    step = at.prev.as_ref();
                }
                return Some((g, path));
            }
            if stage + 1 == n {
                self.push(n, g + self.tables.leave(tail.c), tail);
                continue;
            }
            for to in 0..self.tables.configs().len() {
                let g = g + self.tables.trans(tail.c, to) + self.tables.exec(stage + 1, to);
                let step = Step {
                    c: to,
                    prev: Some(tail.clone()),
                };
                self.push(stage + 1, g, Rc::new(step));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::kaware;
    use crate::problem::SyntheticOracle;
    use cdpd_testkit::prop::{any_bool, any_u8, vec_of, Config as PropConfig};
    use cdpd_testkit::props;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
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

    props! {
        config: PropConfig::with_cases(64);

        fn ranking_yields_every_path_once_in_cost_order(
            n in 1usize..4,
            nc in 1usize..5,
            tied in any_bool(),
            exec_seed in vec_of(any_u8(), 8..64),
            build_seed in vec_of(any_u8(), 1..4),
            picks in vec_of(any_u8(), 2..3),
        ) {
            let (n, nc) = (*n, *nc);
            // Tied: exec from three values and builds from two, so most
            // paths share their cost with another.
            let (exec_mod, build_mod) = if *tied { (3, 2) } else { (256, 256) };
            let exec: Vec<u64> = exec_seed.iter().map(|&b| 1 + u64::from(b) % exec_mod).collect();
            let build: Vec<Cost> = (0..2)
                .map(|i| c(1 + u64::from(build_seed[i % build_seed.len()]) % build_mod))
                .collect();
            let o = SyntheticOracle::from_fn(
                n,
                2,
                move |stage, cfg| c(exec[(stage * 31 + cfg.bits() as usize * 17) % exec.len()]),
                build,
                c(1),
                vec![1; 2],
            );
            let all = enumerate_configs(&o, None, None).unwrap();
            let cands: Vec<Config> = all.iter().cycle().skip(picks[0] as usize).take(nc).cloned().collect();
            // A pinned final configuration: leaving any other costs.
            let p = Problem {
                final_config: Some(all[picks[1] as usize % all.len()].clone()),
                ..Problem::default()
            };
            let t = CostTables::build(&o, &p, &cands).unwrap();

            let ranked: Vec<(Cost, Vec<usize>)> = PathRanking::new(&t).collect();
            for (cost, path) in &ranked {
                assert_eq!(t.schedule(&p, path).total_cost(), *cost, "{path:?}");
            }
            let mut paths: Vec<&Vec<usize>> = ranked.iter().map(|(_, path)| path).collect();
            paths.sort();
            paths.dedup();
            assert_eq!(paths.len(), ranked.len(), "a path was yielded twice");
            assert_eq!(ranked.len(), nc.pow(n as u32), "a path was never yielded");

            let mut brute: Vec<Cost> = (0..nc.pow(n as u32))
                .map(|code| {
                    let configs = (0..n)
                        .map(|stage| cands[code / nc.pow(stage as u32) % nc].clone())
                        .collect();
                    Schedule::evaluate(&o, &p, configs).total_cost()
                })
                .collect();
            brute.sort();
            let costs: Vec<Cost> = ranked.iter().map(|(cost, _)| *cost).collect();
            assert_eq!(costs, brute, "costs must come out sorted, one per path");
        }
    }

    #[test]
    fn saturated_tables_rank_no_path() {
        let o = SyntheticOracle::from_fn(2, 1, |_, _| Cost::MAX, vec![c(1)], c(1), vec![1]);
        let p = Problem::default();
        let cands = [Config::EMPTY, Config::single(0)];
        let t = CostTables::build(&o, &p, &cands).unwrap();
        assert_eq!(PathRanking::new(&t).count(), 0);
        let err = solve(&o, &p, &cands, 1, 10).unwrap_err();
        assert!(err.to_string().contains("no design"), "{err}");
    }

    #[test]
    fn poisoned_routes_are_skipped() {
        // Building the structure saturates, so every path that runs it
        // is poisoned; only the one that never does is ranked.
        let o = SyntheticOracle::from_fn(
            2,
            1,
            |stage, cfg| c(1 + stage as u64 + cfg.len() as u64),
            vec![Cost::MAX],
            c(1),
            vec![1],
        );
        let p = Problem::default();
        let t = CostTables::build(&o, &p, &[Config::single(0), Config::EMPTY]).unwrap();
        let ranked: Vec<_> = PathRanking::new(&t).collect();
        assert_eq!(ranked, vec![(c(3), vec![1, 1])]);
    }

    #[test]
    fn ranking_matches_kaware_optimum() {
        let o = phased(8, 2);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        for k in 0..5 {
            let via_rank = solve(&o, &p, &cands, k, 1_000_000).unwrap();
            let via_graph = kaware::solve(&o, &p, &cands, k).unwrap();
            assert_eq!(
                via_rank.total_cost(),
                via_graph.total_cost(),
                "both are optimal at k={k}"
            );
            via_rank.validate(&o, &p, Some(k)).unwrap();
        }
    }

    #[test]
    fn first_path_wins_when_unconstrained_is_calm() {
        // Transitions so expensive the shortest path never changes
        // design: a budget of one path suffices, which it does only if
        // path #1 is feasible.
        let o = SyntheticOracle::from_fn(
            5,
            2,
            |_, cfg| if cfg.is_empty() { c(50) } else { c(40) },
            vec![c(100_000), c(100_000)],
            c(1),
            vec![1, 1],
        );
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        let s = solve(&o, &p, &cands, 1, 1).unwrap();
        assert!(s.changes <= 1);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let o = phased(8, 3);
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, Some(1)).unwrap();
        // k = 0 with strongly phased costs: many twitchy paths are
        // cheaper than any frozen design, so a tiny budget must trip.
        let err = solve(&o, &p, &cands, 0, 2).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        // The budget counts paths ranked, the feasible one included.
        let t = CostTables::build(&o, &p, &cands).unwrap();
        let rank = 1 + PathRanking::new(&t)
            .position(|(_, path)| t.changes(&p, &path) == 0)
            .unwrap();
        assert!(rank > 2);
        assert!(solve(&o, &p, &cands, 0, rank).is_ok());
        let err = solve(&o, &p, &cands, 0, rank - 1).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }
}
