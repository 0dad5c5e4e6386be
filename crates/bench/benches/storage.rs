//! Storage-layer figures below the engine, in `BENCH_storage.json`:
//!
//! * `pager/scaling_x8`: raw `Pager::read` fan-out at 8 worker threads
//!   against one, isolating the shard layer from planner and B-tree
//!   work. `benchmark/` has no probe at this layer; its
//!   `engine.par_speedup` measures the read path above it.
//! * `btree/seek_ns_int`, `btree/seek_ns_str`: one `BTree::seek` and
//!   its first entry on a bulk-loaded tree of 200k entries, on one-`INT`
//!   keys (one key length: nodes are bisected) and on `STR` keys of
//!   varying length (nodes are walked). Both cost `height` page reads.
//! * `scan/count_ns_per_row`, `scan/sum_ns_per_row` and their ratio
//!   `scan/sum_over_count`: a sequential `COUNT(*)` and `SUM(b)` over
//!   the rows a range on `c` matches (a quarter to a half of them). Both
//!   fold every row without branching on its answer; the ratio is
//!   asserted at most 1.3.
//! * `write/insert_ns_per_row`, `write/update_all_ns_per_row` and their
//!   ratio `write/update_over_insert`: loading a 200k-row, four-`INT`
//!   table through `insert_many`, then `UPDATE t SET d = 1 WHERE b >= 0`
//!   over it with an index on `b`, in memory: one streaming pass over
//!   the located rows inside one undo scope, whose pre-images copy each
//!   heap page once. The ratio is gated, as both timings move together
//!   with the host's speed.

use cdpd::engine::{parallel_map, Database, IndexSpec};
use cdpd::sql::{AggFunc, Condition, Projection, SelectStmt};
use cdpd::storage::{BTree, Pager};
use cdpd::testkit::Prng;
use cdpd::types::{ColumnDef, PageId, Rid, Schema, Value};
use cdpd_testkit::bench::{Better, Criterion};
use cdpd_testkit::{criterion_group, criterion_main};
use std::sync::Arc;
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

/// Mean ns per seek (and its first entry) over probes spread across a
/// bulk-loaded tree of 200k entries whose `i`-th key is `key(i)`
/// (ascending in `i`).
fn seek_ns(key: impl Fn(u32) -> Value) -> f64 {
    const ENTRIES: u32 = 200_000;
    const PROBES: u32 = 4_096;
    let entries = (0..ENTRIES).map(|i| (vec![key(i)], Rid::new(PageId(i / 64), (i % 64) as u16)));
    let tree = BTree::bulk_load(Arc::new(Pager::new()), entries).expect("ascending keys");
    let probes: Vec<Vec<Value>> = (0..PROBES)
        .map(|p| vec![key((p.wrapping_mul(2_654_435_761) >> 7) % ENTRIES)])
        .collect();
    let ns = best_of(7, || {
        for probe in &probes {
            let mut cursor = tree.seek(probe).expect("in memory");
            std::hint::black_box(cursor.next_entry().expect("in memory").is_some());
        }
    });
    ns as f64 / f64::from(PROBES)
}

/// Ns per row of a sequential `COUNT(*)` and of a `SUM(b)`, each over
/// the rows of a 100k-row table whose `c` lies in one of four ranges
/// of 25–50% of its domain.
fn count_and_sum_ns_per_row() -> (f64, f64) {
    const ROWS: i64 = 100_000;
    let db = Database::new();
    let columns = ["a", "b", "c", "d"].map(ColumnDef::int).to_vec();
    db.create_table("t", Schema::new(columns))
        .expect("fresh table");
    let mut rng = Prng::seed_from_u64(0x5c4a);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| (0..4).map(|_| Value::Int(rng.gen_range(0..ROWS))).collect())
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice))
        .expect("rows fit");
    db.analyze("t").expect("table exists");
    let statement = |projection: &Projection, (lo, width): (i64, i64)| SelectStmt {
        projection: projection.clone(),
        table: "t".into(),
        conditions: vec![Condition::Range {
            column: "c".into(),
            lo: Some(Value::Int(lo)),
            lo_inclusive: true,
            hi: Some(Value::Int(lo + width)),
            hi_inclusive: false,
        }],
        order_by: None,
        limit: None,
    };
    let ranges = [
        (0, ROWS / 4),
        (ROWS / 3, ROWS / 3),
        (ROWS / 8, ROWS / 2),
        (ROWS / 2, ROWS * 3 / 8),
    ];
    let ns_per_row = |projection: Projection| {
        let stmts: Vec<SelectStmt> = ranges.iter().map(|&r| statement(&projection, r)).collect();
        let ns = best_of(7, || {
            for stmt in &stmts {
                let result = db.query(stmt).expect("scan runs");
                assert!(result.plan.starts_with("SeqScan"), "{}", result.plan);
                std::hint::black_box(result.aggregate);
            }
        });
        ns as f64 / (ROWS as f64 * stmts.len() as f64)
    };
    let count = ns_per_row(Projection::CountStar);
    (
        count,
        ns_per_row(Projection::Aggregate(AggFunc::Sum, "b".into())),
    )
}

/// Ns per row of loading a 200k-row table through `insert_many` (best
/// of 5 fresh tables), and of an `UPDATE` that then rewrites every row
/// (best of 5).
fn insert_and_update_ns_per_row() -> (f64, f64) {
    const ROWS: i64 = 200_000;
    let mut rng = Prng::seed_from_u64(0x0bd8);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| (0..4).map(|_| Value::Int(rng.gen_range(0..ROWS))).collect())
        .collect();
    let (mut insert, mut db) = (u64::MAX, None);
    for _ in 0..5 {
        drop(db.take());
        let start = Instant::now();
        let fresh = Database::new();
        let columns = ["a", "b", "c", "d"].map(ColumnDef::int).to_vec();
        fresh
            .create_table("t", Schema::new(columns))
            .expect("fresh table");
        fresh
            .insert_many("t", rows.iter().map(Vec::as_slice))
            .expect("rows fit");
        insert = insert.min(start.elapsed().as_nanos() as u64);
        db = Some(fresh);
    }
    let db = db.expect("loaded");
    db.analyze("t").expect("table exists");
    db.create_index(&IndexSpec::new("t", &["b"]))
        .expect("fresh index");
    let update = best_of(5, || {
        let result = db.execute_sql("UPDATE t SET d = 1 WHERE b >= 0");
        assert_eq!(result.expect("update runs").count, ROWS as u64);
    });
    (insert as f64 / ROWS as f64, update as f64 / ROWS as f64)
}

fn bench_storage(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("storage");
    group.metric("pager/scaling_x8", pager_scaling());
    // Timings: the floors only catch a collapse, not host noise.
    group.gated_metric(
        "btree/seek_ns_int",
        seek_ns(|i| Value::Int(i64::from(i))),
        Better::Lower,
        0.5,
    );
    let text = |i: u32| Value::from(format!("k{i:07}{}", "s".repeat(i as usize % 17)).as_str());
    group.gated_metric("btree/seek_ns_str", seek_ns(text), Better::Lower, 0.5);
    let (count, sum) = count_and_sum_ns_per_row();
    group.metric("scan/count_ns_per_row", count);
    group.metric("scan/sum_ns_per_row", sum);
    let ratio = sum / count;
    group.gated_metric("scan/sum_over_count", ratio, Better::Lower, 0.75);
    let (insert, update) = insert_and_update_ns_per_row();
    group.metric("write/insert_ns_per_row", insert);
    group.metric("write/update_all_ns_per_row", update);
    let update_ratio = update / insert;
    group.gated_metric("write/update_over_insert", update_ratio, Better::Lower, 0.6);
    group.finish();
    assert!(
        ratio <= 1.3,
        "a SUM scan costs {ratio:.2}× the COUNT(*) scan of the same rows (at most 1.3)"
    );
}

criterion_group!(benches, bench_storage);
criterion_main!(benches);
