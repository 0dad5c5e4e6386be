//! The online-pipeline bench: what warm-starting buys, on the Table-1
//! instance (W1, paper design space). Ingest throughput is the
//! benchmark's `online.ingest_ns`.
//!
//! Records in `BENCH_online.json`:
//!
//! * **re-solve latency** — p95 over every warm re-solve the session
//!   ran (each seal solves the whole retained horizon with the
//!   committed prefix pinned);
//! * **warm vs cold speedup** — the final-horizon warm re-solve
//!   against what a naive loop would do at the same boundary: rebuild
//!   the cost oracle over the full summary and solve from scratch.
//!   The warm path must be at least 2× faster; that is asserted, not
//!   just recorded.

use cdpd::core::{enumerate_configs, kaware, Problem};
use cdpd::engine::WhatIfEngine;
use cdpd::workload::{generate, paper, summarize};
use cdpd::{EngineOracle, OnlineAdvisor, OnlineOptions};
use cdpd_bench::{build_database, paper_structures, Scale};
use cdpd_testkit::bench::Criterion;
use cdpd_testkit::{criterion_group, criterion_main};
use std::time::Instant;

const K: usize = 2;

fn bench_online(criterion: &mut Criterion) {
    let scale = Scale {
        rows: 20_000,
        window_len: 100,
        seed: 42,
    };
    let db = build_database(&scale);
    let trace = generate(&paper::w1_with(&scale.params()), scale.seed);
    let options = OnlineOptions {
        advisor: cdpd::AdvisorOptions {
            k: Some(K),
            window_len: scale.window_len,
            structures: Some(paper_structures()),
            max_structures_per_config: Some(1),
            ..cdpd::AdvisorOptions::default()
        },
        ..OnlineOptions::default()
    };

    // Warm re-solve latencies, best of a few runs.
    let mut warm_final_ns = u64::MAX;
    let mut resolve_ns: Vec<u64> = Vec::new();
    let mut session = None;
    for _ in 0..3 {
        let mut online = OnlineAdvisor::new(&db, "t", options.clone()).expect("session opens");
        online
            .ingest_all(&db, trace.statements())
            .expect("trace ingests");
        let solves: Vec<u64> = online
            .decisions()
            .iter()
            .filter(|d| d.resolved)
            .map(|d| d.solve_nanos)
            .collect();
        warm_final_ns = warm_final_ns.min(*solves.last().expect("every window re-solves"));
        resolve_ns = solves;
        session = Some(online);
    }
    let session = session.expect("ran at least once");
    assert_eq!(
        session.rebuilds(),
        1,
        "a fixed vocabulary with an unbounded window builds the oracle exactly once"
    );
    resolve_ns.sort_unstable();
    let p95 = resolve_ns[(resolve_ns.len() * 95 / 100).min(resolve_ns.len() - 1)];

    // Cold baseline at the same final boundary: rebuild everything the
    // session kept warm — what-if snapshot, per-part cost probing,
    // candidate enumeration — then solve the full horizon from scratch.
    let workload = summarize(&trace, scale.window_len).expect("summarize");
    let problem = Problem::default();
    let mut cold_ns = u64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let oracle = EngineOracle::new(
            WhatIfEngine::snapshot(&db, "t").expect("analyzed"),
            paper_structures(),
            &workload,
        )
        .expect("valid oracle")
        .into_shared();
        let candidates = enumerate_configs(&oracle, None, Some(1)).expect("small m");
        kaware::solve(&oracle, &problem, &candidates, K).expect("feasible");
        cold_ns = cold_ns.min(start.elapsed().as_nanos() as u64);
    }

    let speedup = cold_ns as f64 / warm_final_ns as f64;
    assert!(
        speedup >= 2.0,
        "warm re-solve must be at least 2x faster than a cold rebuild+solve: \
         warm {warm_final_ns}ns vs cold {cold_ns}ns ({speedup:.1}x)"
    );

    let mut group = criterion.benchmark_group("online");
    group.metric("resolve/p95_ms", p95 as f64 / 1e6);
    group.metric("resolve/warm_final_ms", warm_final_ns as f64 / 1e6);
    group.metric("resolve/cold_final_ms", cold_ns as f64 / 1e6);
    group.metric("resolve/warm_speedup", speedup);
    group.finish();
}

criterion_group!(benches, bench_online);
criterion_main!(benches);
