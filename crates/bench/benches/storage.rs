//! Striped pager scaling: raw `Pager::read` fan-out at 8 worker
//! threads against one, below the engine, isolating the shard layer
//! from planner and B-tree work. `benchmark/` has no probe at this
//! layer; its `engine.par_speedup` measures the read path above it.
//!
//! Records `pager/scaling_x8` (1-thread time over 8-thread time) in
//! `BENCH_storage.json`.

use cdpd::engine::parallel_map;
use cdpd::storage::Pager;
use cdpd_testkit::bench::Criterion;
use cdpd_testkit::{criterion_group, criterion_main};
use std::time::Instant;

const THREADS: usize = 8;

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..runs {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as u64);
    }
    best
}

/// Raw pager fan-out: every worker reads a disjoint slice of a page
/// set spread across all 16 shards.
fn pager_scaling() -> f64 {
    const PAGES: u32 = 4_096;
    const READS_PER_CHUNK: usize = 200_000;
    let pager = Pager::new();
    let ids: Vec<_> = (0..PAGES).map(|_| pager.allocate()).collect();
    let chunk = |i: usize| {
        let mut acc = 0u64;
        for r in 0..READS_PER_CHUNK {
            let id = ids[(i * READS_PER_CHUNK + r * 17) % ids.len()];
            acc = acc.wrapping_add(pager.read(id).expect("allocated")[0] as u64);
        }
        Ok(acc)
    };
    let t1 = best_of(3, || parallel_map(THREADS, 1, chunk).unwrap());
    let t8 = best_of(3, || parallel_map(THREADS, THREADS, chunk).unwrap());
    t1 as f64 / t8 as f64
}

fn bench_storage(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("storage");
    group.metric("pager/scaling_x8", pager_scaling());
    group.finish();
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
