//! Cross-solver property tests on random synthetic problem instances:
//! the k-aware graph is never beaten by brute force, ranking agrees
//! with the k-aware optimum, heuristics are feasible and never better
//! than optimal, budgets behave monotonically — and the table-driven
//! solvers return, schedule for schedule, what the explicit layered
//! graphs they replaced return ([`reference`]), asking the oracle for
//! each price at most once. The one-pass k-curves return what a
//! separate solve per budget returns.

use cdpd_core::kselect::{self, KCurvePoint, RobustPoint};
use cdpd_core::{
    enumerate_configs, greedy, hybrid, kaware, merging, ranking, seqgraph, Config as SolverConfig,
    CostOracle, Problem, Schedule, SyntheticOracle,
};
use cdpd_testkit::prop::{any_bool, any_u8, vec_of, Config};
use cdpd_testkit::props;
use cdpd_types::{Cost, Error, Result};
use std::cell::RefCell;
use std::collections::HashMap;

/// The solvers as they were before the cost tables: every price asked
/// of the oracle where it is used, the sequence graphs materialised as
/// explicit `Dag`s and solved by its shortest-path walk. Kept as the
/// definition of which of several equal-cost designs is *the* answer.
mod reference {
    use super::SolverConfig as Config;
    use cdpd_core::{CostOracle, Problem, Schedule};
    use cdpd_types::{Cost, Error, Result};
    use std::ops::Range;

    /// A node's position in insertion order, which is topological.
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct NodeId(usize);

    struct Node<N> {
        payload: N,
        weight: Cost,
        /// In-edges as `(source, edge weight)`, in insertion order.
        inc: Vec<(NodeId, Cost)>,
    }

    /// A staged graph with `EXEC` on its nodes and `TRANS` on its
    /// edges; a path's cost is the sum of both along it.
    struct Dag<N> {
        nodes: Vec<Node<N>>,
    }

    impl<N> Dag<N> {
        fn with_capacity(nodes: usize) -> Self {
            Dag {
                nodes: Vec::with_capacity(nodes),
            }
        }

        fn add_node(&mut self, payload: N, weight: Cost) -> NodeId {
            self.nodes.push(Node {
                payload,
                weight,
                inc: Vec::new(),
            });
            NodeId(self.nodes.len() - 1)
        }

        fn add_edge(&mut self, from: NodeId, to: NodeId, weight: Cost) {
            assert!(from.0 < to.0, "edges must go forward in insertion order");
            self.nodes[to.0].inc.push((from, weight));
        }

        fn payload(&self, id: NodeId) -> &N {
            &self.nodes[id.0].payload
        }

        /// The cheapest `source → target` path's cost and nodes; `None`
        /// when every route saturates. The path is walked back from
        /// `target`, each node taking its first in-edge that attains its
        /// distance: that walk is the tie-break.
        fn shortest_path(&self, source: NodeId, target: NodeId) -> Option<(Cost, Vec<NodeId>)> {
            let mut dist: Vec<Option<Cost>> = vec![None; self.nodes.len()];
            dist[source.0] = Some(self.nodes[source.0].weight);
            for id in source.0 + 1..self.nodes.len() {
                let node = &self.nodes[id];
                dist[id] = node
                    .inc
                    .iter()
                    .filter_map(|&(from, ew)| dist[from.0].map(|d| d + ew + node.weight))
                    .min();
            }
            let total = dist[target.0].filter(|d| !d.is_infinite())?;
            let mut nodes = vec![target];
            let mut cur = target;
            while cur != source {
                let node = &self.nodes[cur.0];
                let d_cur = dist[cur.0].expect("on-path node must be reachable");
                cur = node
                    .inc
                    .iter()
                    .find(|&&(from, ew)| {
                        dist[from.0].is_some_and(|d| d + ew + node.weight == d_cur)
                    })
                    .map(|&(from, _)| from)
                    .expect("shortest-path predecessor must exist");
                nodes.push(cur);
            }
            nodes.reverse();
            Some((total, nodes))
        }
    }

    fn usable(oracle: &dyn CostOracle, problem: &Problem, cands: &[Config]) -> Result<Vec<Config>> {
        if oracle.n_stages() == 0 {
            return Err(Error::InvalidArgument("workload has no statements".into()));
        }
        let mut out: Vec<Config> = Vec::new();
        for c in cands {
            if problem.fits(oracle, c) && !out.contains(c) {
                out.push(c.clone());
            }
        }
        if out.is_empty() {
            return Err(Error::Infeasible("no candidate fits".into()));
        }
        Ok(out)
    }

    fn walk(
        oracle: &dyn CostOracle,
        problem: &Problem,
        cands: &[Config],
        dag: &Dag<Option<usize>>,
        source: NodeId,
        dest: NodeId,
    ) -> Result<Schedule> {
        let (cost, nodes) = dag
            .shortest_path(source, dest)
            .ok_or_else(|| Error::Infeasible("no finite-cost path".into()))?;
        let configs: Vec<Config> = nodes
            .iter()
            .filter_map(|&n| dag.payload(n).map(|ci| cands[ci].clone()))
            .collect();
        let schedule = Schedule::evaluate(oracle, problem, configs);
        assert_eq!(schedule.total_cost(), cost, "graph and evaluator disagree");
        Ok(schedule)
    }

    pub fn seqgraph(
        oracle: &dyn CostOracle,
        problem: &Problem,
        cands: &[Config],
    ) -> Result<Schedule> {
        let cands = usable(oracle, problem, cands)?;
        let n = oracle.n_stages();
        let mut dag = Dag::with_capacity(n * cands.len() + 2);
        let source = dag.add_node(None, Cost::ZERO);
        let mut prev: Vec<NodeId> = Vec::new();
        for stage in 0..n {
            let cur: Vec<NodeId> = cands
                .iter()
                .enumerate()
                .map(|(ci, cfg)| dag.add_node(Some(ci), oracle.exec(stage, cfg)))
                .collect();
            if stage == 0 {
                for (ci, &node) in cur.iter().enumerate() {
                    dag.add_edge(source, node, oracle.trans(&problem.initial, &cands[ci]));
                }
            } else {
                for (ai, &a) in prev.iter().enumerate() {
                    for (bi, &b) in cur.iter().enumerate() {
                        dag.add_edge(a, b, oracle.trans(&cands[ai], &cands[bi]));
                    }
                }
            }
            prev = cur;
        }
        let dest = dag.add_node(None, Cost::ZERO);
        for (ci, &node) in prev.iter().enumerate() {
            let w = match &problem.final_config {
                Some(f) => oracle.trans(&cands[ci], f),
                None => Cost::ZERO,
            };
            dag.add_edge(node, dest, w);
        }
        walk(oracle, problem, &cands, &dag, source, dest)
    }

    #[allow(clippy::needless_range_loop)] // layer indexes parallel structures
    pub fn kaware(
        oracle: &dyn CostOracle,
        problem: &Problem,
        cands: &[Config],
        k: usize,
    ) -> Result<Schedule> {
        let cands = usable(oracle, problem, cands)?;
        let n = oracle.n_stages();
        let layers = k + 1;
        let mut dag: Dag<Option<usize>> = Dag::with_capacity(n * cands.len() * layers + 2);
        let source = dag.add_node(None, Cost::ZERO);
        // nodes[stage][cand][layer]
        let mut nodes: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(n);
        for stage in 0..n {
            nodes.push(
                cands
                    .iter()
                    .enumerate()
                    .map(|(ci, cfg)| {
                        let exec = oracle.exec(stage, cfg);
                        (0..layers).map(|_| dag.add_node(Some(ci), exec)).collect()
                    })
                    .collect(),
            );
        }
        let dest = dag.add_node(None, Cost::ZERO);
        for (ci, cfg) in cands.iter().enumerate() {
            let layer = usize::from(*cfg != problem.initial && problem.count_initial_change);
            if layer < layers {
                dag.add_edge(
                    source,
                    nodes[0][ci][layer],
                    oracle.trans(&problem.initial, cfg),
                );
            }
        }
        for stage in 0..n.saturating_sub(1) {
            for (ai, a) in cands.iter().enumerate() {
                for (bi, b) in cands.iter().enumerate() {
                    if ai == bi {
                        for layer in 0..layers {
                            dag.add_edge(
                                nodes[stage][ai][layer],
                                nodes[stage + 1][bi][layer],
                                Cost::ZERO,
                            );
                        }
                    } else {
                        let trans = oracle.trans(a, b);
                        for layer in 0..layers.saturating_sub(1) {
                            dag.add_edge(
                                nodes[stage][ai][layer],
                                nodes[stage + 1][bi][layer + 1],
                                trans,
                            );
                        }
                    }
                }
            }
        }
        for (ci, cfg) in cands.iter().enumerate() {
            let w = match &problem.final_config {
                Some(f) => oracle.trans(cfg, f),
                None => Cost::ZERO,
            };
            for layer in 0..layers {
                dag.add_edge(nodes[n - 1][ci][layer], dest, w);
            }
        }
        walk(oracle, problem, &cands, &dag, source, dest)
    }

    struct Suffix<'a> {
        inner: &'a dyn CostOracle,
        start: usize,
    }

    impl CostOracle for Suffix<'_> {
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

    /// The committed prefix spends budget as `Schedule` counts changes;
    /// the suffix starts from its last configuration and counts its own
    /// first change.
    pub fn kaware_with_prefix(
        oracle: &dyn CostOracle,
        problem: &Problem,
        cands: &[Config],
        k: usize,
        prefix: &[Config],
    ) -> Result<Schedule> {
        assert!(!prefix.is_empty() && prefix.len() <= oracle.n_stages());
        let spent = Schedule::evaluate(oracle, problem, prefix.to_vec()).changes;
        let remaining = k
            .checked_sub(spent)
            .ok_or_else(|| Error::Infeasible("prefix over budget".into()))?;
        let mut configs = prefix.to_vec();
        if prefix.len() < oracle.n_stages() {
            let suffix = Suffix {
                inner: oracle,
                start: prefix.len(),
            };
            let sub = Problem {
                initial: prefix[prefix.len() - 1].clone(),
                count_initial_change: true,
                ..problem.clone()
            };
            configs.extend(kaware(&suffix, &sub, cands, remaining)?.configs);
        }
        Ok(Schedule::evaluate(oracle, problem, configs))
    }

    struct Run {
        config: Config,
        stages: Range<usize>,
    }

    fn changes_of(runs: &[Run], problem: &Problem) -> usize {
        let initial = problem.count_initial_change
            && runs.first().is_some_and(|r| r.config != problem.initial);
        runs.len().saturating_sub(1) + usize::from(initial)
    }

    fn exec_range(oracle: &dyn CostOracle, stages: Range<usize>, cfg: &Config) -> Cost {
        stages.map(|s| oracle.exec(s, cfg)).sum()
    }

    pub fn refine(
        oracle: &dyn CostOracle,
        problem: &Problem,
        cands: &[Config],
        k: usize,
        start: &Schedule,
    ) -> Result<Schedule> {
        let cands = usable(oracle, problem, cands)?;
        let mut runs: Vec<Run> = start
            .segments()
            .into_iter()
            .map(|(stages, config)| Run { config, stages })
            .collect();
        while changes_of(&runs, problem) > k {
            if runs.len() == 1 {
                if problem.fits(oracle, &problem.initial) {
                    runs[0].config = problem.initial.clone();
                    break;
                }
                return Err(Error::Infeasible(
                    "initial configuration does not fit".into(),
                ));
            }
            let mut best: Option<(i128, usize, Config)> = None;
            for i in 0..runs.len() - 1 {
                let prev_cfg = if i == 0 {
                    &problem.initial
                } else {
                    &runs[i - 1].config
                };
                let next_cfg = if i + 2 < runs.len() {
                    Some(&runs[i + 2].config)
                } else {
                    problem.final_config.as_ref()
                };
                let (left, right) = (&runs[i], &runs[i + 1]);
                let trans_out =
                    |cfg: &Config| next_cfg.map_or(Cost::ZERO, |nx| oracle.trans(cfg, nx));
                let old_cost = oracle.trans(prev_cfg, &left.config)
                    + exec_range(oracle, left.stages.clone(), &left.config)
                    + oracle.trans(&left.config, &right.config)
                    + exec_range(oracle, right.stages.clone(), &right.config)
                    + trans_out(&right.config);
                for cand in &cands {
                    let new_cost = oracle.trans(prev_cfg, cand)
                        + exec_range(oracle, left.stages.start..right.stages.end, cand)
                        + trans_out(cand);
                    let penalty = new_cost.raw() as i128 - old_cost.raw() as i128;
                    if best.as_ref().is_none_or(|(bp, ..)| penalty < *bp) {
                        best = Some((penalty, i, cand.clone()));
                    }
                }
            }
            let (_, i, cand) = best.expect("two runs and a candidate");
            let merged = Run {
                config: cand,
                stages: runs[i].stages.start..runs[i + 1].stages.end,
            };
            runs.splice(i..i + 2, [merged]);
            let mut j = i;
            if j > 0 && runs[j - 1].config == runs[j].config {
                runs[j].stages.start = runs[j - 1].stages.start;
                runs.remove(j - 1);
                j -= 1;
            }
            if j + 1 < runs.len() && runs[j + 1].config == runs[j].config {
                runs[j].stages.end = runs[j + 1].stages.end;
                runs.remove(j + 1);
            }
        }
        let mut configs = vec![Config::EMPTY; oracle.n_stages()];
        for run in &runs {
            for s in run.stages.clone() {
                configs[s] = run.config.clone();
            }
        }
        let schedule = Schedule::evaluate(oracle, problem, configs);
        schedule.validate(oracle, problem, Some(k))?;
        Ok(schedule)
    }
}

/// An instance built to tie: exec costs from three values, build costs
/// from two, so equal-cost designs are the rule and the tie-break rule
/// decides most answers.
fn tied_instance(n: usize, m: usize, exec_seed: &[u8], build_seed: &[u8]) -> SyntheticOracle {
    let exec: Vec<u64> = exec_seed.iter().map(|&b| 1 + (b % 3) as u64).collect();
    let build: Vec<Cost> = (0..m)
        .map(|i| Cost::from_ios(1 + (build_seed[i % build_seed.len()] % 2) as u64))
        .collect();
    SyntheticOracle::from_fn(
        n,
        m,
        move |stage, cfg| {
            Cost::from_ios(exec[(stage * 31 + cfg.bits() as usize * 17) % exec.len()])
        },
        build,
        Cost::from_ios(1),
        vec![1; m],
    )
}

/// Same schedule, or both refuse.
fn assert_same(what: &str, got: &Result<Schedule>, want: &Result<Schedule>) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(g, w, "{what}"),
        (Err(_), Err(_)) => {}
        (g, w) => panic!("{what}: tables {g:?} vs reference {w:?}"),
    }
}

/// Counts every `exec` cell and `trans` pair asked of the wrapped
/// oracle.
struct Counting<'a> {
    inner: &'a SyntheticOracle,
    exec: RefCell<HashMap<(usize, SolverConfig), usize>>,
    trans: RefCell<HashMap<(SolverConfig, SolverConfig), usize>>,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a SyntheticOracle) -> Counting<'a> {
        Counting {
            inner,
            exec: RefCell::default(),
            trans: RefCell::default(),
        }
    }

    fn exec_calls(&self) -> usize {
        self.exec.borrow().values().sum()
    }

    fn trans_calls(&self) -> usize {
        self.trans.borrow().values().sum()
    }

    fn most_asked(&self) -> usize {
        let exec = self.exec.borrow().values().copied().max().unwrap_or(0);
        let trans = self.trans.borrow().values().copied().max().unwrap_or(0);
        exec.max(trans)
    }
}

impl CostOracle for Counting<'_> {
    fn n_stages(&self) -> usize {
        self.inner.n_stages()
    }
    fn n_structures(&self) -> usize {
        self.inner.n_structures()
    }
    fn exec(&self, stage: usize, config: &SolverConfig) -> Cost {
        *self
            .exec
            .borrow_mut()
            .entry((stage, config.clone()))
            .or_default() += 1;
        self.inner.exec(stage, config)
    }
    fn trans(&self, from: &SolverConfig, to: &SolverConfig) -> Cost {
        *self
            .trans
            .borrow_mut()
            .entry((from.clone(), to.clone()))
            .or_default() += 1;
        self.inner.trans(from, to)
    }
    fn size(&self, config: &SolverConfig) -> u64 {
        self.inner.size(config)
    }
}

/// Flips every stage between two structures: the unconstrained optimum
/// changes `n - 1` times, so small and large `k` land on either side of
/// the hybrid's switch point.
fn flipping(n: usize) -> SyntheticOracle {
    SyntheticOracle::from_fn(
        n,
        2,
        |stage, cfg| Cost::from_ios(if cfg.contains(stage % 2) { 10 } else { 100 }),
        vec![Cost::from_ios(5); 2],
        Cost::from_ios(1),
        vec![1; 2],
    )
}

#[test]
fn one_kaware_solve_asks_each_price_at_most_once() {
    for n in [1, 2, 9, 40] {
        let o = flipping(n);
        let cands = enumerate_configs(&o, None, None).unwrap();
        let nc = cands.len();
        // Boundaries outside the candidate list: the worst case for the
        // boundary vectors, which then cannot be read off the matrix.
        let p = Problem {
            initial: SolverConfig::single(0),
            final_config: Some(SolverConfig::single(1)),
            ..Problem::default()
        };
        let outside: Vec<SolverConfig> = cands
            .iter()
            .filter(|c| **c != p.initial && Some(*c) != p.final_config.as_ref())
            .cloned()
            .collect();
        for (cands, nc) in [(&cands, nc), (&outside, nc - 2)] {
            let counting = Counting::new(&o);
            kaware::solve(&counting, &p, cands, 3).unwrap();
            assert!(counting.exec_calls() <= n * nc, "n={n}");
            assert!(counting.trans_calls() <= nc * nc + 2 * nc, "n={n}");
            assert_eq!(counting.most_asked(), 1, "n={n}");
        }
    }
}

#[test]
fn hybrid_prices_both_of_its_stages_from_one_set_of_tables() {
    let o = flipping(10);
    let p = Problem::paper_experiment();
    let cands = enumerate_configs(&o, None, Some(1)).unwrap();
    for (k, strategy) in [
        (1, hybrid::Strategy::KAwareGraph),
        (7, hybrid::Strategy::Merging),
    ] {
        let counting = Counting::new(&o);
        let out = hybrid::solve(&counting, &p, &cands, k).unwrap();
        assert_eq!(out.strategy, strategy, "k={k}");
        assert_eq!(counting.most_asked(), 1, "k={k}");
        assert!(counting.exec_calls() <= 10 * cands.len());
        assert!(counting.trans_calls() <= cands.len() * cands.len());
    }
}

/// A random instance: n stages, m structures, cost tables from the
/// supplied byte vectors (consumed cyclically).
fn instance(n: usize, m: usize, exec_seed: &[u8], build_seed: &[u8]) -> SyntheticOracle {
    let exec: Vec<u64> = exec_seed.iter().map(|&b| 1 + b as u64).collect();
    let build: Vec<Cost> = (0..m)
        .map(|i| Cost::from_ios(1 + build_seed[i % build_seed.len()] as u64))
        .collect();
    let el = exec.len();
    SyntheticOracle::from_fn(
        n,
        m,
        move |stage, cfg| {
            let idx = (stage * 31 + cfg.bits() as usize * 17) % el;
            Cost::from_ios(exec[idx])
        },
        build,
        Cost::from_ios(1),
        vec![1; m],
    )
}

/// All schedules over `cands` with exactly `n` stages (n small).
fn brute_force_best(
    oracle: &SyntheticOracle,
    problem: &Problem,
    cands: &[SolverConfig],
    n: usize,
    k: usize,
) -> Option<Cost> {
    let mut best: Option<Cost> = None;
    let total = cands.len().pow(n as u32);
    for code in 0..total {
        let mut c = code;
        let configs: Vec<SolverConfig> = (0..n)
            .map(|_| {
                let pick = cands[c % cands.len()].clone();
                c /= cands.len();
                pick
            })
            .collect();
        let s = Schedule::evaluate(oracle, problem, configs);
        if s.changes <= k && best.is_none_or(|b| s.total_cost() < b) {
            best = Some(s.total_cost());
        }
    }
    best
}

props! {
    config: Config::with_cases(64);

    fn table_driven_solvers_return_the_reference_schedules(
        n in 1usize..13,
        m in 1usize..5,
        k in 0usize..5,
        exec_seed in vec_of(any_u8(), 8..64),
        build_seed in vec_of(any_u8(), 1..8),
        picks in vec_of(any_u8(), 16..32),
        flags in any_u8(),
    ) {
        let (n, m, k) = (*n, *m, *k);
        let o = tied_instance(n, m, exec_seed, build_seed);
        let all = enumerate_configs(&o, None, None).unwrap();
        let pick = |i: usize| all[picks[i % picks.len()] as usize % all.len()].clone();
        let p = Problem {
            initial: if flags & 1 == 0 { SolverConfig::EMPTY } else { pick(0) },
            final_config: (flags & 2 != 0).then(|| pick(1)),
            // Sizes are 1 per structure: the bound caps configuration
            // width and drops the wider candidates.
            space_bound: (flags & 4 != 0).then_some(1 + (picks[2] as u64) % m as u64),
            count_initial_change: flags & 8 != 0,
        };
        // Candidates in a scrambled order, repeats included: the
        // tie-break is by position in this list.
        let rotate = picks[3] as usize % all.len();
        let cands: Vec<SolverConfig> = all[rotate..]
            .iter()
            .chain(&all[..rotate])
            .chain(&all[..rotate.min(2)])
            .rev()
            .cloned()
            .collect();

        let unconstrained = reference::seqgraph(&o, &p, &cands);
        assert_same("seqgraph", &seqgraph::solve(&o, &p, &cands), &unconstrained);
        assert_same(
            "kaware",
            &kaware::solve(&o, &p, &cands, k),
            &reference::kaware(&o, &p, &cands, k),
        );

        let fitting: Vec<&SolverConfig> = cands.iter().filter(|c| p.fits(&o, c)).collect();
        let prefix: Vec<SolverConfig> = (0..1 + picks[4] as usize % n)
            .map(|i| fitting[picks[(5 + i) % picks.len()] as usize % fitting.len()].clone())
            .collect();
        assert_same(
            "kaware with prefix",
            &kaware::solve_with_prefix(&o, &p, &cands, k, &prefix),
            &reference::kaware_with_prefix(&o, &p, &cands, k, &prefix),
        );

        // Merging from the unconstrained optimum, and from a design of
        // arbitrary configurations the candidate list need not hold.
        let arbitrary = Schedule::evaluate(&o, &p, (0..n).map(|i| pick(6 + i / 2)).collect());
        for start in unconstrained.into_iter().chain([arbitrary]) {
            assert_same(
                "merging",
                &merging::refine(&o, &p, &cands, k, &start),
                &reference::refine(&o, &p, &cands, k, &start),
            );
        }
    }

    fn one_pass_curves_equal_per_budget_solves(
        n in 1usize..13,
        m in 1usize..5,
        k_max in 0usize..6,
        exec_seed in vec_of(any_u8(), 8..64),
        build_seed in vec_of(any_u8(), 1..8),
        picks in vec_of(any_u8(), 16..32),
        flags in any_u8(),
    ) {
        let (n, m, k_max) = (*n, *m, *k_max);
        let o = tied_instance(n, m, exec_seed, build_seed);
        let all = enumerate_configs(&o, None, None).unwrap();
        let pick = |i: usize| all[picks[i % picks.len()] as usize % all.len()].clone();
        let p = Problem {
            initial: if flags & 1 == 0 { SolverConfig::EMPTY } else { pick(0) },
            final_config: (flags & 2 != 0).then(|| pick(1)),
            space_bound: (flags & 4 != 0).then_some(1 + (picks[2] as u64) % m as u64),
            count_initial_change: flags & 8 != 0,
        };
        let rotate = picks[3] as usize % all.len();
        let mut cands: Vec<SolverConfig> =
            all[rotate..].iter().chain(&all[..rotate]).rev().cloned().collect();
        if flags & 32 != 0 {
            // Nothing fits: infeasible at every budget.
            cands.retain(|c| !p.fits(&o, c));
        }
        let fitting: Vec<&SolverConfig> = all.iter().filter(|c| p.fits(&o, c)).collect();
        let prefix: Vec<SolverConfig> = if flags & 16 == 0 {
            Vec::new()
        } else {
            (0..1 + picks[4] as usize % n)
                .map(|i| fitting[picks[(5 + i) % picks.len()] as usize % fitting.len()].clone())
                .collect()
        };

        // k_max + 1 independent solves, each checked against the
        // explicit layered graph, which fixes the tie-break.
        let per_budget: Result<Vec<(usize, Schedule)>> = (0..=k_max)
            .filter_map(|k| {
                let solved = kaware::solve_with_prefix(&o, &p, &cands, k, &prefix);
                let graph = if prefix.is_empty() {
                    reference::kaware(&o, &p, &cands, k)
                } else {
                    reference::kaware_with_prefix(&o, &p, &cands, k, &prefix)
                };
                assert_same(&format!("kaware k={k}"), &solved, &graph);
                match solved {
                    Ok(s) => Some(Ok((k, s))),
                    Err(Error::Infeasible(_)) if !prefix.is_empty() => None,
                    Err(e) => Some(Err(e)),
                }
            })
            .collect();
        let curve = kselect::cost_curve_with_prefix(&o, &p, &cands, k_max, &prefix);
        match (&curve, &per_budget) {
            (Ok(curve), Ok(want)) => {
                let want: Vec<KCurvePoint> = want
                    .iter()
                    .map(|(k, s)| KCurvePoint { k: *k, cost: s.total_cost(), changes: s.changes })
                    .collect();
                assert_eq!(curve, &want);
            }
            (Err(Error::Infeasible(_)), Err(Error::Infeasible(_))) => {
                assert!(prefix.is_empty(), "a prefix omits infeasible budgets");
            }
            (got, want) => panic!("curve {got:?} vs per-budget {want:?}"),
        }

        if !prefix.is_empty() {
            return;
        }
        // Re-costing on hold-outs sees the configurations: the
        // fingerprint hold-out prices a schedule as its configurations'
        // digits in base 17, so equal costs mean equal designs.
        let fingerprint = SyntheticOracle::from_fn(
            n,
            m,
            |stage, cfg| Cost::from_raw((cfg.bits() + 1) * 17u64.pow(stage as u32)),
            vec![Cost::ZERO; m],
            Cost::ZERO,
            vec![1; m],
        );
        let other = tied_instance(n, m, build_seed, exec_seed);
        for holdouts in [vec![&fingerprint], vec![&fingerprint, &other]] {
            let dyn_holdouts: Vec<&dyn CostOracle> =
                holdouts.iter().map(|h| *h as &dyn CostOracle).collect();
            let robust = kselect::robust_curve(&o, &dyn_holdouts, &p, &cands, k_max);
            let want: Result<Vec<RobustPoint>> = (0..=k_max)
                .map(|k| {
                    let s = kaware::solve(&o, &p, &cands, k)?;
                    let held: u128 = holdouts
                        .iter()
                        .map(|h| Schedule::evaluate(*h, &p, s.configs.clone()).total_cost().raw() as u128)
                        .sum();
                    Ok(RobustPoint {
                        k,
                        train_cost: s.total_cost(),
                        mean_test_cost: Cost::from_raw((held / holdouts.len() as u128) as u64),
                    })
                })
                .collect();
            match (robust, want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want),
                (Err(Error::Infeasible(_)), Err(Error::Infeasible(_))) => {}
                (got, want) => panic!("robust curve {got:?} vs per-budget {want:?}"),
            }
        }
    }

    fn kaware_matches_brute_force(
        n in 2usize..5,
        m in 1usize..3,
        k in 0usize..4,
        exec_seed in vec_of(any_u8(), 8..64),
        build_seed in vec_of(any_u8(), 1..8),
        count_initial in any_bool(),
        pin_final in any_bool(),
    ) {
        let o = instance(*n, *m, exec_seed, build_seed);
        let p = Problem {
            count_initial_change: *count_initial,
            final_config: pin_final.then_some(SolverConfig::EMPTY),
            ..Problem::default()
        };
        let cands = enumerate_configs(&o, None, None).unwrap();
        let brute = brute_force_best(&o, &p, &cands, *n, *k);
        match kaware::solve(&o, &p, &cands, *k) {
            Ok(s) => {
                s.validate(&o, &p, Some(*k)).unwrap();
                assert_eq!(Some(s.total_cost()), brute);
            }
            Err(_) => assert_eq!(brute, None),
        }
    }

    fn ranking_agrees_with_kaware(
        n in 1usize..6,
        m in 1usize..4,
        k in 0usize..4,
        exec_seed in vec_of(any_u8(), 8..64),
        build_seed in vec_of(any_u8(), 1..8),
        picks in vec_of(any_u8(), 16..32),
        flags in any_u8(),
    ) {
        let (n, m, k) = (*n, *m, *k);
        let o = tied_instance(n, m, exec_seed, build_seed);
        let all = enumerate_configs(&o, None, None).unwrap();
        let pick = |i: usize| all[picks[i % picks.len()] as usize % all.len()].clone();
        let p = Problem {
            initial: if flags & 1 == 0 { SolverConfig::EMPTY } else { pick(0) },
            final_config: (flags & 2 != 0).then(|| pick(1)),
            space_bound: (flags & 4 != 0).then_some(1 + (picks[2] as u64) % m as u64),
            count_initial_change: flags & 8 != 0,
        };
        let graph = kaware::solve(&o, &p, &all, k);
        let rank = ranking::solve(&o, &p, &all, k, 5_000_000);
        match (graph, rank) {
            (Ok(g), Ok(r)) => {
                assert_eq!(g.total_cost(), r.total_cost());
                assert!(r.changes <= k, "{r}");
                r.validate(&o, &p, Some(k)).unwrap();
            }
            (Err(_), Err(_)) => {}
            (g, r) => panic!("solvers disagree on feasibility: {g:?} vs {r:?}"),
        }
    }

    fn heuristics_are_feasible_and_not_better_than_optimal(
        n in 2usize..6,
        m in 1usize..3,
        k in 0usize..3,
        exec_seed in vec_of(any_u8(), 8..64),
        build_seed in vec_of(any_u8(), 1..8),
    ) {
        let o = instance(*n, *m, exec_seed, build_seed);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, None).unwrap();
        let optimal = kaware::solve(&o, &p, &cands, *k).unwrap();

        let merged = merging::solve(&o, &p, &cands, *k).unwrap();
        merged.validate(&o, &p, Some(*k)).unwrap();
        assert!(merged.total_cost() >= optimal.total_cost());

        let hyb = hybrid::solve(&o, &p, &cands, *k).unwrap();
        hyb.schedule.validate(&o, &p, Some(*k)).unwrap();
        assert!(hyb.schedule.total_cost() >= optimal.total_cost());

        let g = greedy::solve(&o, &p, *k).unwrap();
        g.validate(&o, &p, Some(*k)).unwrap();
        assert!(g.total_cost() >= optimal.total_cost());
    }

    fn budget_monotonicity_and_convergence(
        n in 2usize..6,
        m in 1usize..3,
        exec_seed in vec_of(any_u8(), 8..64),
        build_seed in vec_of(any_u8(), 1..8),
    ) {
        let o = instance(*n, *m, exec_seed, build_seed);
        let p = Problem::default();
        let cands = enumerate_configs(&o, None, None).unwrap();
        let unconstrained = seqgraph::solve(&o, &p, &cands).unwrap();
        let mut prev: Option<Cost> = None;
        for k in 0..=*n {
            let s = kaware::solve(&o, &p, &cands, k).unwrap();
            if let Some(pc) = prev {
                assert!(s.total_cost() <= pc, "budget k={k} made things worse");
            }
            prev = Some(s.total_cost());
        }
        assert_eq!(prev.unwrap(), unconstrained.total_cost(),
            "at k = n the constraint is vacuous");
    }
}
