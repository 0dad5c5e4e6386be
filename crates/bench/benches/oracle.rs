//! The oracle-pipeline companion to the optimizer benches: how much
//! engine work (raw what-if calls) the projected memo issues for a
//! solve of the Table-1 instance (W1, paper design space), how fast
//! warm solves run on top of it, and whether decomposed solves stay
//! independent of the vocabulary width.
//!
//! The what-if call count is deterministic (it depends only on the
//! workload's part masks and the candidate list), so it lands in
//! `BENCH_oracle.json` as a gated lower-is-better metric: a change that
//! erodes projection sharing shows up as a jump here. So are the
//! numbers of `exec` and `trans` calls one k-aware solve makes of the
//! oracle under it — `n·|C|` and at most `|C|² + 2·|C|` while every
//! price is read into the solver's tables once; a solver that goes back
//! to asking inside its loops shows up there. The raw [`EngineOracle`]
//! is the reference the memoized solve must match.

use cdpd::core::{
    decompose, enumerate_configs, kaware, Config, CostOracle, Problem, ProjectableOracle,
};
use cdpd::engine::WhatIfEngine;
use cdpd::types::Cost;
use cdpd::workload::{generate, paper, summarize, SummarizedWorkload};
use cdpd::EngineOracle;
use cdpd_bench::{build_database, paper_structures, Scale};
use cdpd_engine::Database;
use cdpd_testkit::bench::{Better, Criterion};
use cdpd_testkit::{criterion_group, criterion_main};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the `exec` and `trans` calls a solver makes of `inner`.
struct CountingOracle<'a, O> {
    inner: &'a O,
    exec_calls: AtomicU64,
    trans_calls: AtomicU64,
}

impl<O: CostOracle> CostOracle for CountingOracle<'_, O> {
    fn n_stages(&self) -> usize {
        self.inner.n_stages()
    }

    fn n_structures(&self) -> usize {
        self.inner.n_structures()
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        self.exec_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.exec(stage, config)
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        self.trans_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.trans(from, to)
    }

    fn size(&self, config: &Config) -> u64 {
        self.inner.size(config)
    }
}

fn mk_engine(db: &Database, workload: &SummarizedWorkload) -> EngineOracle {
    EngineOracle::new(
        WhatIfEngine::snapshot(db, "t").expect("analyzed"),
        paper_structures(),
        workload,
    )
    .expect("valid oracle")
}

fn bench_oracle(criterion: &mut Criterion) {
    let scale = Scale {
        rows: 20_000,
        window_len: 100,
        seed: 42,
    };
    let db = build_database(&scale);
    let trace = generate(&paper::w1_with(&scale.params()), scale.seed);
    let workload = summarize(&trace, scale.window_len).expect("summarize");

    let raw = mk_engine(&db, &workload);
    let projected = mk_engine(&db, &workload).into_shared();

    let problem = Problem::paper_experiment();
    let candidates = enumerate_configs(&projected, None, Some(2)).expect("small m");

    // Cold solve: count the raw what-if calls the memo lets through.
    let s_raw = kaware::solve(&raw, &problem, &candidates, 2).expect("feasible");
    let s_proj = kaware::solve(&projected, &problem, &candidates, 2).expect("feasible");
    assert_eq!(s_raw, s_proj, "projected path must be bit-identical");
    let snap = projected.stats_snapshot();
    assert!(
        snap.projected_hits > snap.raw_exec_evals,
        "a solve must be served mostly from the memo: {snap}"
    );

    // One more solve through a counting wrapper: how often the solver
    // itself goes to the oracle, whatever the memo then absorbs.
    let counting = CountingOracle {
        inner: &projected,
        exec_calls: AtomicU64::new(0),
        trans_calls: AtomicU64::new(0),
    };
    let s_counted = kaware::solve(&counting, &problem, &candidates, 2).expect("feasible");
    assert_eq!(s_counted, s_proj);

    // The three call counts are deterministic, so their floors are tight.
    let mut group = criterion.benchmark_group("oracle");
    group.sample_size(10);
    group.gated_metric(
        "whatif_calls/projected",
        snap.whatif_calls as f64,
        Better::Lower,
        0.90,
    );
    group.gated_metric(
        "exec_calls/kaware",
        counting.exec_calls.load(Ordering::Relaxed) as f64,
        Better::Lower,
        0.90,
    );
    group.gated_metric(
        "trans_calls/kaware",
        counting.trans_calls.load(Ordering::Relaxed) as f64,
        Better::Lower,
        0.90,
    );

    // Warm solves: pure lookup + solver work.
    group.bench_function("solve_warm/projected", |b| {
        b.iter(|| kaware::solve(&projected, &problem, &candidates, 2).expect("feasible"))
    });

    // Vocabulary-width scaling: wide-but-sparse solves through the
    // CoPhy decomposition must not slow down with the raw width.
    let (widths, timings, within_2x) = width_scaling();
    for (&m, &t) in widths.iter().zip(&timings) {
        group.metric(format!("width_scaling/solve_ms_{m}"), t * 1e3);
    }
    // Asserted ≥ 0.5 in-bench; the floor sits lower to absorb host
    // noise while still catching a collapse of width independence.
    group.gated_metric(
        "width_scaling/within_2x_256",
        within_2x,
        Better::Higher,
        0.30,
    );
    group.finish();
}

/// Members of [`SparseWide`]'s active set: past the enumeration width,
/// so its candidates are derived greedily.
const ACTIVE: usize = 24;

/// A wide-but-sparse instance: `m` candidate structures of which only a
/// fixed [`ACTIVE`]-member active set — spread evenly across the vocabulary —
/// is ever relevant. Costs depend only on the active *ranks* present,
/// so instances at every width rename to the identical local problem:
/// solve costs must agree bit-for-bit, and solve time must not scale
/// with the vocabulary width.
struct SparseWide {
    n_stages: usize,
    m: usize,
    members: Vec<usize>,
    active: Config,
}

impl SparseWide {
    fn new(n_stages: usize, m: usize) -> SparseWide {
        let members: Vec<usize> = (0..ACTIVE).map(|i| i * m / ACTIVE).collect();
        let active = members.iter().fold(Config::EMPTY, |acc, &g| acc.with(g));
        SparseWide {
            n_stages,
            m,
            members,
            active,
        }
    }

    /// The active ranks present in `config`, as an `ACTIVE`-bit code.
    fn code(&self, config: &Config) -> u64 {
        let mut code = 0u64;
        for (rank, &g) in self.members.iter().enumerate() {
            if config.contains(g) {
                code |= 1 << rank;
            }
        }
        code
    }
}

impl CostOracle for SparseWide {
    fn n_stages(&self) -> usize {
        self.n_stages
    }

    fn n_structures(&self) -> usize {
        self.m
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        // A deterministic pseudo-random table over (stage, active code):
        // rich enough that solves do real work, identical across widths.
        let code = self.code(config);
        let h = (stage as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(code.wrapping_mul(0xA24B_AED4_963E_E407));
        Cost::from_ios(200 + (h >> 48) - 10 * code.count_ones() as u64)
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        Cost::from_ios(40).scale(to.minus(from).len() as u64)
            + Cost::from_ios(2).scale(from.minus(to).len() as u64)
    }

    fn size(&self, config: &Config) -> u64 {
        config.len() as u64
    }
}

impl ProjectableOracle for SparseWide {
    fn relevance_mask(&self, _stage: usize) -> Config {
        self.active.clone()
    }
}

fn width_scaling() -> ([usize; 3], Vec<f64>, f64) {
    const STAGES: usize = 8;
    const K: usize = 3;
    const ITERS: u32 = 15;
    let widths = [64usize, 128, 256];
    let problem = Problem::default();

    let mut timings = Vec::new();
    let mut costs = Vec::new();
    for &m in &widths {
        let oracle = SparseWide::new(STAGES, m);
        // Warm-up (and correctness capture) outside the timed loop.
        let solve = || {
            decompose::solve_decomposed(&oracle, &problem, &[], None, |o, p, cands, _| {
                kaware::solve(o, p, cands, K)
            })
            .expect("feasible")
        };
        costs.push(solve().total_cost());
        let started = std::time::Instant::now();
        for _ in 0..ITERS {
            solve();
        }
        timings.push(started.elapsed().as_secs_f64() / f64::from(ITERS));
    }
    assert!(
        costs.iter().all(|&c| c == costs[0]),
        "every width renames to the same local instance: costs {costs:?}"
    );
    // The acceptance bar: a 256-wide sparse instance must solve within
    // 2x of the 64-wide one — the decomposition makes solve work scale
    // with the *active* width, not the vocabulary.
    let within_2x = timings[0] / timings[2];
    assert!(
        within_2x >= 0.5,
        "256-wide solve took {:.3}ms vs {:.3}ms at 64 wide (> 2x)",
        timings[2] * 1e3,
        timings[0] * 1e3
    );
    (widths, timings, within_2x)
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_oracle
}
criterion_main!(benches);
