//! Dense cost tables: every price a solve needs, asked of the oracle
//! once.
//!
//! The paper's solvers are `O(k·n·|C|²)` *given* `EXEC` and `TRANS`;
//! asking the oracle inside the innermost loop instead multiplies that
//! by the cost of a probe (a memo lookup per part for `EXEC`, a set
//! difference over structure lists for `TRANS`). `TRANS` does not
//! depend on the stage, so a horizon of `n` stages needs `|C|²` of
//! them, not `(n − 1)·|C|²`. [`CostTables`] holds `exec[stage][cand]`,
//! `trans[cand][cand]` and the two boundary vectors; the sequence-graph
//! solvers run a layered dynamic program over it, merging and ranking
//! read the same cells.

use crate::config::Config;
use crate::problem::{CostOracle, Problem};
use crate::schedule::Schedule;
use cdpd_types::{Cost, Error, Result};

/// `EXEC` and `TRANS` for one solve, over a fixed configuration list.
pub(crate) struct CostTables {
    configs: Vec<Config>,
    n_stages: usize,
    /// `exec[stage * |configs| + c]`.
    exec: Vec<Cost>,
    /// `trans[from * |configs| + to]`, diagonal included.
    trans: Vec<Cost>,
    /// `TRANS(initial, c)`.
    enter: Vec<Cost>,
    /// `TRANS(c, final)`; zero when the final configuration is free.
    leave: Vec<Cost>,
}

impl CostTables {
    /// Tables over the members of `candidates` that satisfy the space
    /// bound, deduplicated in first-occurrence order.
    ///
    /// # Errors
    /// An empty workload, or no candidate within the bound.
    pub(crate) fn build(
        oracle: &dyn CostOracle,
        problem: &Problem,
        candidates: &[Config],
    ) -> Result<CostTables> {
        Ok(CostTables::over(
            oracle,
            problem,
            usable_candidates(oracle, problem, candidates)?,
        ))
    }

    /// Tables over exactly `configs`: `n·|configs|` `exec` calls and at
    /// most `|configs|² + 2·|configs|` `trans` calls — none twice, the
    /// boundary vectors being read off the matrix when the boundary
    /// configuration is itself in `configs` — and the only ones a
    /// table-driven solve makes.
    pub(crate) fn over(
        oracle: &dyn CostOracle,
        problem: &Problem,
        configs: Vec<Config>,
    ) -> CostTables {
        let n_stages = oracle.n_stages();
        let nc = configs.len();
        let _span = cdpd_obs::span!("solve.tables", stages = n_stages, configs = nc);
        let mut exec = Vec::with_capacity(n_stages * nc);
        for stage in 0..n_stages {
            exec.extend(configs.iter().map(|c| oracle.exec(stage, c)));
        }
        let mut trans = Vec::with_capacity(nc * nc);
        for from in &configs {
            trans.extend(configs.iter().map(|to| oracle.trans(from, to)));
        }
        let position = |cfg: &Config| configs.iter().position(|c| c == cfg);
        let enter = match position(&problem.initial) {
            Some(row) => trans[row * nc..(row + 1) * nc].to_vec(),
            None => configs
                .iter()
                .map(|c| oracle.trans(&problem.initial, c))
                .collect(),
        };
        let leave = match &problem.final_config {
            None => vec![Cost::ZERO; nc],
            Some(f) => match position(f) {
                Some(col) => (0..nc).map(|row| trans[row * nc + col]).collect(),
                None => configs.iter().map(|c| oracle.trans(c, f)).collect(),
            },
        };
        CostTables {
            configs,
            n_stages,
            exec,
            trans,
            enter,
            leave,
        }
    }

    /// The configuration list; indexes into it are what the tables and
    /// the paths they produce are keyed by.
    pub(crate) fn configs(&self) -> &[Config] {
        &self.configs
    }

    pub(crate) fn n_stages(&self) -> usize {
        self.n_stages
    }

    pub(crate) fn exec(&self, stage: usize, c: usize) -> Cost {
        self.exec[stage * self.configs.len() + c]
    }

    pub(crate) fn trans(&self, from: usize, to: usize) -> Cost {
        self.trans[from * self.configs.len() + to]
    }

    pub(crate) fn enter(&self, c: usize) -> Cost {
        self.enter[c]
    }

    pub(crate) fn leave(&self, c: usize) -> Cost {
        self.leave[c]
    }

    /// `Σ exec(stage, c)` over `stages`.
    pub(crate) fn exec_range(&self, stages: std::ops::Range<usize>, c: usize) -> Cost {
        stages.map(|s| self.exec(s, c)).sum()
    }

    /// Design changes along `path`, counted as [`Schedule::evaluate`]
    /// counts them (leaving the initial configuration at stage 0 is
    /// free unless the problem says otherwise).
    pub(crate) fn changes(&self, problem: &Problem, path: &[usize]) -> usize {
        let initial = problem.count_initial_change
            && path
                .first()
                .is_some_and(|&c| self.configs[c] != problem.initial);
        usize::from(initial) + path.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// The schedule that runs `path[stage]` at every stage, priced from
    /// the tables exactly as [`Schedule::evaluate`] prices it from the
    /// oracle.
    pub(crate) fn schedule(&self, problem: &Problem, path: &[usize]) -> Schedule {
        debug_assert_eq!(path.len(), self.n_stages);
        let exec_cost = path
            .iter()
            .enumerate()
            .map(|(stage, &c)| self.exec(stage, c))
            .sum();
        let steps: Cost = path.windows(2).map(|w| self.trans(w[0], w[1])).sum();
        let boundary = match (path.first(), path.last()) {
            (Some(&first), Some(&last)) => self.enter(first) + self.leave(last),
            _ => Cost::ZERO,
        };
        Schedule {
            configs: path.iter().map(|&c| self.configs[c].clone()).collect(),
            exec_cost,
            trans_cost: steps + boundary,
            changes: self.changes(problem, path),
        }
    }

    /// The cheapest design over the tables, as one configuration index
    /// per stage: with `budget = Some(k)` the shortest path of the
    /// paper's k-aware sequence graph (at most `k` changes), with `None`
    /// that of the plain sequence graph. `None` when no finite-cost
    /// design exists.
    pub(crate) fn shortest_path(
        &self,
        problem: &Problem,
        budget: Option<usize>,
    ) -> Option<Vec<usize>> {
        let top = budget.unwrap_or(0);
        self.shortest_paths(problem, budget, top).pop().flatten()
    }

    /// [`CostTables::shortest_path`] at every budget from `lowest` up to
    /// `budget`, in that order, from one forward pass: layer `j`'s
    /// distances and predecessors depend only on layers `≤ j`, so the
    /// pass at budget `k` holds the budget-`j` pass in its first `j + 1`
    /// layers, and budget `j`'s path is read by restricting the
    /// destination to them.
    ///
    /// The graph is never materialised. A node is `(stage, config,
    /// layer)`, `layer` being the changes spent so far (always 0 without
    /// a budget); staying keeps the layer and, under a budget, costs
    /// nothing, changing pays `TRANS` and descends one layer. One
    /// forward pass keeps a single stage of distances and, per node, the
    /// predecessor the graph's own shortest-path walk would have picked:
    /// the lowest configuration index among the predecessors that attain
    /// the node's distance — "stay" competes at its own index — and, at
    /// the destination, the lowest `(configuration, layer)`. Equal-cost
    /// designs therefore resolve exactly as they did on the explicit
    /// graph (`tests/solver_prop.rs` holds the two side by side).
    pub(crate) fn shortest_paths(
        &self,
        problem: &Problem,
        budget: Option<usize>,
        lowest: usize,
    ) -> Vec<Option<Vec<usize>>> {
        let nc = self.configs.len();
        let layers = budget.map_or(1, |k| k + 1);
        let at = |c: usize, layer: usize| c * layers + layer;
        // An unreachable node and one reachable only at saturated cost
        // are the same thing to a caller: neither is on a finite path.
        let mut dist = vec![Cost::MAX; nc * layers];
        for c in 0..nc {
            let charged = budget.is_some()
                && problem.count_initial_change
                && self.configs[c] != problem.initial;
            let layer = usize::from(charged);
            if layer < layers {
                dist[at(c, layer)] = self.enter(c) + self.exec(0, c);
            }
        }
        // pred[(stage - 1) * nc * layers + at(c, layer)]
        let mut pred: Vec<u32> = Vec::with_capacity((self.n_stages - 1) * nc * layers);
        let mut next = vec![Cost::MAX; nc * layers];
        let mut best = vec![(Cost::MAX, 0u32); layers];
        for stage in 1..self.n_stages {
            for to in 0..nc {
                best.fill((Cost::MAX, to as u32));
                // Ascending `from`, strict `<`: the lowest index among
                // the cheapest predecessors wins, per layer.
                for from in 0..nc {
                    let reached = &dist[from * layers..(from + 1) * layers];
                    let mut relax = |layer: usize, arrive: Cost| {
                        if arrive < best[layer].0 {
                            best[layer] = (arrive, from as u32);
                        }
                    };
                    match budget {
                        None => relax(0, reached[0] + self.trans(from, to)),
                        Some(_) if from == to => {
                            for (layer, &d) in reached.iter().enumerate() {
                                relax(layer, d);
                            }
                        }
                        Some(_) => {
                            let trans = self.trans(from, to);
                            for layer in 1..layers {
                                relax(layer, reached[layer - 1] + trans);
                            }
                        }
                    }
                }
                let exec = self.exec(stage, to);
                for (layer, &(arrive, from)) in best.iter().enumerate() {
                    next[at(to, layer)] = arrive + exec;
                    pred.push(from);
                }
            }
            std::mem::swap(&mut dist, &mut next);
        }
        (lowest..layers)
            .map(|max_layer| {
                let mut end = (Cost::MAX, 0, 0);
                for c in 0..nc {
                    for layer in 0..=max_layer {
                        let total = dist[at(c, layer)] + self.leave(c);
                        if total < end.0 {
                            end = (total, c, layer);
                        }
                    }
                }
                let (total, mut c, mut layer) = end;
                if total.is_infinite() {
                    return None;
                }
                let mut path = vec![0; self.n_stages];
                for stage in (0..self.n_stages).rev() {
                    path[stage] = c;
                    if stage > 0 {
                        let from = pred[(stage - 1) * nc * layers + at(c, layer)] as usize;
                        if from != c && budget.is_some() {
                            layer -= 1;
                        }
                        c = from;
                    }
                }
                debug_assert_eq!(
                    self.schedule(problem, &path).total_cost(),
                    total,
                    "dynamic program and evaluator disagree"
                );
                Some(path)
            })
            .collect()
    }
}

/// Drop candidates violating the space bound; error out when nothing
/// survives or the workload is empty.
pub(crate) fn usable_candidates(
    oracle: &dyn CostOracle,
    problem: &Problem,
    candidates: &[Config],
) -> Result<Vec<Config>> {
    if oracle.n_stages() == 0 {
        return Err(Error::InvalidArgument("workload has no statements".into()));
    }
    let mut out: Vec<Config> = Vec::with_capacity(candidates.len());
    for c in candidates {
        if problem.fits(oracle, c) && !out.contains(c) {
            out.push(c.clone());
        }
    }
    if out.is_empty() {
        return Err(Error::Infeasible(
            "no candidate configuration satisfies the space bound".into(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::problem::SyntheticOracle;

    fn c(io: u64) -> Cost {
        Cost::from_ios(io)
    }

    fn oracle() -> SyntheticOracle {
        SyntheticOracle::from_fn(
            5,
            2,
            |stage, cfg| c((stage as u64 * 7 + cfg.bits() * 13) % 23 + 1),
            vec![c(9), c(4)],
            c(1),
            vec![1, 1],
        )
    }

    #[test]
    fn schedule_prices_and_counts_like_evaluate() {
        let o = oracle();
        let cands = enumerate_configs(&o, None, None).unwrap();
        for count_initial_change in [false, true] {
            for final_config in [None, Some(Config::single(1))] {
                let p = Problem {
                    initial: Config::single(0),
                    final_config: final_config.clone(),
                    count_initial_change,
                    ..Problem::default()
                };
                let t = CostTables::build(&o, &p, &cands).unwrap();
                assert_eq!(t.configs(), cands);
                // Starts in the initial config, leaves it, stays, returns.
                let at = |cfg: &Config| cands.iter().position(|c| c == cfg).unwrap();
                for path in [
                    vec![at(&Config::single(0)); 5],
                    vec![1, 1, 3, 3, 1],
                    vec![0, 1, 2, 3, 0],
                ] {
                    let configs: Vec<Config> = path.iter().map(|&i| cands[i].clone()).collect();
                    assert_eq!(t.schedule(&p, &path), Schedule::evaluate(&o, &p, configs));
                }
            }
        }
    }

    #[test]
    fn strict_mode_charges_leaving_the_initial_config_at_stage_zero() {
        let o = oracle();
        let cands = enumerate_configs(&o, None, None).unwrap();
        let strict = Problem {
            count_initial_change: true,
            ..Problem::default()
        };
        let t = CostTables::build(&o, &strict, &cands).unwrap();
        let path = [1, 1, 2, 2, 2];
        assert_eq!(t.schedule(&Problem::default(), &path).changes, 1);
        assert_eq!(t.schedule(&strict, &path).changes, 2);
    }

    #[test]
    fn budget_none_is_the_budget_that_never_binds() {
        let o = oracle();
        let p = Problem::paper_experiment();
        let cands = enumerate_configs(&o, None, None).unwrap();
        let t = CostTables::build(&o, &p, &cands).unwrap();
        let free = t.schedule(&p, &t.shortest_path(&p, None).unwrap());
        let roomy = t.schedule(&p, &t.shortest_path(&p, Some(5)).unwrap());
        assert_eq!(free.total_cost(), roomy.total_cost());
        let frozen = t.schedule(&p, &t.shortest_path(&p, Some(0)).unwrap());
        assert_eq!(frozen.changes, 0);
        assert!(frozen.total_cost() >= free.total_cost());
    }

    #[test]
    fn saturated_tables_have_no_path() {
        let o = SyntheticOracle::from_fn(2, 1, |_, _| Cost::MAX, vec![c(1)], c(1), vec![1]);
        let p = Problem::default();
        let t = CostTables::build(&o, &p, &[Config::EMPTY, Config::single(0)]).unwrap();
        assert_eq!(t.shortest_path(&p, None), None);
        assert_eq!(t.shortest_path(&p, Some(1)), None);
    }
}
