//! The parallel-read-path bench: what lock striping and the `&self`
//! read surface buy, on the Table-1/W1-scale instance.
//!
//! Records in `BENCH_storage.json`:
//!
//! * **batch read throughput** at 1 and 8 worker threads — a batch of
//!   covering index-only scans fanned out through
//!   [`cdpd::engine::parallel_map`] against one shared `&Database`;
//! * **read scaling** — the 8-thread/1-thread throughput ratio. On a
//!   host with ≥ 4 cores the ratio must be ≥ 2×; that is asserted,
//!   not just recorded. On smaller hosts (CI containers are often
//!   single-core) the assert degrades to "no contention collapse":
//!   parallelism may not help, but striping must keep it from
//!   *hurting* by more than 2×.
//! * **single-thread parity** — `parallel_map` at `threads == 1` takes
//!   the serial branch, so it must stay within 10% of a plain serial
//!   loop; asserted. Regression versus the *pre-refactor* serial read
//!   path is enforced separately by `ci.sh`'s bench-diff gate over the
//!   committed `BENCH_access_paths.json` timings.
//! * **striped pager scaling** — raw `Pager::read` fan-out below the
//!   engine, isolating the shard layer from planner/B-tree work.
//! * **durable tier** — WAL commit throughput over a 100k-commit log
//!   (every 10th commit logging a dirty page), checkpoint latency for
//!   the accumulated dirty set, and cold recovery time replaying that
//!   same 100k-transaction WAL. Recovery is verified in-bench: the
//!   reopened pager must land on the exact committed sequence and
//!   app-meta the writer reached.
//! * **engine commit** — a durable one-row `UPDATE` through
//!   `Database` at 10k and at 100k rows: ns per statement and the WAL
//!   bytes its commit frame carries beside the page images (the catalog
//!   delta plus the pager's allocation state). A commit costs what the
//!   statement changed, not the size of the catalog, so both must stay
//!   within 2× across the 10× growth; asserted.

use cdpd::engine::{parallel_map, Database, IndexSpec};
use cdpd::sql::{Condition, Dml, SelectStmt, UpdateStmt};
use cdpd::storage::{DurableOptions, MemVfs, Pager, PAGE_SIZE};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd_bench::{build_database, Scale};
use cdpd_testkit::bench::Criterion;
use cdpd_testkit::{criterion_group, criterion_main};
use std::time::Instant;

const ROWS: i64 = 50_000;
/// Statements per batch: enough work (~30 ms serial) that worker
/// startup is noise, small enough that the bench stays quick.
const BATCH: usize = 64;
const THREADS: usize = 8;

fn db_with_indexes() -> Database {
    let scale = Scale {
        rows: ROWS,
        window_len: 500,
        seed: 5,
    };
    let db = build_database(&scale);
    db.create_index(&IndexSpec::new("t", &["a", "b"]))
        .expect("builds");
    db
}

/// A read batch dominated by covering index-only scans of I(a,b):
/// the heaviest indexed read path, so per-statement work dwarfs
/// scheduling overhead.
fn read_batch() -> Vec<SelectStmt> {
    let domain = ROWS / cdpd_bench::ROWS_PER_VALUE;
    (0..BATCH)
        .map(|k| SelectStmt::point("t", "b", (k as i64 * 131) % domain))
        .collect()
}

/// Execute the whole batch at `threads` workers; returns matched rows.
fn run_batch(db: &Database, batch: &[SelectStmt], threads: usize) -> u64 {
    parallel_map(batch.len(), threads, |k| db.query_count(&batch[k]))
        .expect("reads succeed")
        .iter()
        .map(|r| r.count)
        .sum()
}

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
/// set spread across all 16 shards — the layer the striping refactor
/// actually changed, with no planner or B-tree work on top.
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

/// Durable-tier measurements over a `MemVfs` (isolating the WAL /
/// checkpoint / recovery code paths from disk variance): commit
/// throughput, checkpoint latency, and cold recovery over a
/// 100k-transaction log.
struct DurableMetrics {
    commits_per_sec: f64,
    append_mib_per_sec: f64,
    checkpoint_ms: f64,
    recovery_ms: f64,
}

fn durable_metrics() -> DurableMetrics {
    const COMMITS: u64 = 100_000;
    const PAGES: usize = 1_024;
    let opts = DurableOptions {
        cache_pages: 0,
        group_commit: 16,
        checkpoint_wal_bytes: 0, // explicit checkpoints only
    };
    let vfs = MemVfs::new();
    let open = Pager::open_durable(std::sync::Arc::new(vfs.clone()), opts.clone())
        .expect("fresh durable pager");
    let pager = open.pager;
    let ids: Vec<_> = (0..PAGES).map(|_| pager.allocate()).collect();
    pager.commit(b"init").expect("commits");
    pager.checkpoint().expect("checkpoints");

    // The 100k-statement log: every commit carries app meta, every
    // 10th also logs a dirty page image.
    let start = Instant::now();
    for i in 0..COMMITS {
        if i % 10 == 0 {
            pager
                .update(ids[(i / 10) as usize % PAGES], |b| {
                    b[0] = b[0].wrapping_add(1)
                })
                .expect("updates");
        }
        pager.commit(&i.to_le_bytes()).expect("commits");
    }
    let append_s = start.elapsed().as_secs_f64();
    let wal_bytes = pager.wal_bytes();
    let final_seq = pager.committed_seq();

    // Freeze the surviving bytes *before* checkpointing, so recovery
    // is measured against the full 100k-transaction WAL.
    let frozen = MemVfs::new();
    for name in ["data", "sums", "wal", "hdr.0", "hdr.1"] {
        if let Some(bytes) = vfs.snapshot(name) {
            frozen.overwrite(name, bytes);
        }
    }

    let start = Instant::now();
    pager.checkpoint().expect("checkpoints");
    let checkpoint_s = start.elapsed().as_secs_f64();
    assert!(
        pager.wal_bytes() < wal_bytes,
        "checkpoint must truncate the WAL ({wal_bytes} -> {} bytes)",
        pager.wal_bytes()
    );

    let start = Instant::now();
    let recovered =
        Pager::open_durable(std::sync::Arc::new(frozen), opts).expect("recovery over the full WAL");
    let recovery_s = start.elapsed().as_secs_f64();
    assert_eq!(
        recovered.committed_seq, final_seq,
        "recovery lands on the writer's seq"
    );
    assert_eq!(
        recovered.app_deltas.last().unwrap_or(&recovered.app_image)[..],
        (COMMITS - 1).to_le_bytes(),
        "recovery yields the last committed app meta"
    );

    DurableMetrics {
        commits_per_sec: COMMITS as f64 / append_s,
        append_mib_per_sec: wal_bytes as f64 / (1024.0 * 1024.0) / append_s,
        checkpoint_ms: checkpoint_s * 1e3,
        recovery_ms: recovery_s * 1e3,
    }
}

/// What a durable one-row `UPDATE` costs on an analysed, indexed table
/// of `rows` rows, over a `MemVfs` with an fsync per commit and no
/// checkpoint under the measurement: (ns per statement, WAL bytes per
/// commit beside its page images).
fn engine_commit_cost(rows: i64) -> (f64, f64) {
    const UPDATES: i64 = 2_000;
    let opts = DurableOptions {
        checkpoint_wal_bytes: 0,
        ..DurableOptions::default()
    };
    let db = Database::open_with_vfs(std::sync::Arc::new(MemVfs::new()), opts)
        .expect("fresh durable database");
    let columns = ["a", "b", "c", "d"].map(ColumnDef::int).to_vec();
    db.create_table("t", Schema::new(columns)).expect("creates");
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            [i, i % (rows / 10), i % 97, i * 7 % rows]
                .map(Value::Int)
                .to_vec()
        })
        .collect();
    db.insert_many("t", data.iter().map(Vec::as_slice))
        .expect("loads");
    db.analyze("t").expect("analyzes");
    db.create_index(&IndexSpec::new("t", &["a"]))
        .expect("builds");
    db.checkpoint().expect("checkpoints");

    // Every statement moves one row's `d` to a value the column has
    // not held: a new distinct value and, when sampled, a new sample
    // entry — the delta's widest case.
    let updates: Vec<Dml> = (0..UPDATES)
        .map(|i| {
            Dml::Update(UpdateStmt {
                table: "t".into(),
                set: vec![("d".into(), Value::Int(rows + i))],
                conditions: vec![Condition::Eq {
                    column: "a".into(),
                    value: Value::Int(i * 131 % rows),
                }],
            })
        })
        .collect();
    let (wal, frames) = (db.pager().wal_bytes(), db.pager().durable_stats());
    let start = Instant::now();
    for u in &updates {
        let r = db.execute_dml(u).expect("updates");
        assert_eq!(std::hint::black_box(r).count, 1);
    }
    let ns = start.elapsed().as_nanos() as f64 / UPDATES as f64;
    let frames = db.pager().durable_stats().delta(frames);
    assert_eq!(frames.wal_commits, UPDATES as u64);
    let page_frame = 1 + 4 + PAGE_SIZE as u64 + 8;
    let meta = db.pager().wal_bytes() - wal - frames.wal_appends * page_frame;
    (ns, meta as f64 / UPDATES as f64)
}

fn bench_storage(criterion: &mut Criterion) {
    let db = db_with_indexes();
    let batch = read_batch();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Warm the read path once before timing anything.
    let expect_rows = run_batch(&db, &batch, 1);

    let serial_ns = best_of(5, || {
        batch
            .iter()
            .map(|q| db.query_count(q).expect("reads succeed").count)
            .sum::<u64>()
    });
    let t1_ns = best_of(5, || run_batch(&db, &batch, 1));
    let t8_ns = best_of(5, || run_batch(&db, &batch, THREADS));
    assert_eq!(run_batch(&db, &batch, THREADS), expect_rows);

    let per_sec = |ns: u64| BATCH as f64 / (ns as f64 / 1e9);
    let scaling = t1_ns as f64 / t8_ns as f64;

    // threads == 1 takes parallel_map's serial branch: the parallel
    // machinery must cost nothing when unused.
    assert!(
        t1_ns as f64 <= serial_ns as f64 * 1.10,
        "single-thread parallel_map regressed vs plain serial loop: \
         {t1_ns}ns vs {serial_ns}ns"
    );
    if cores >= 4 {
        assert!(
            scaling >= 2.0,
            "aggregate read throughput must scale at least 2x at \
             {THREADS} threads on a {cores}-core host: {scaling:.2}x \
             ({t1_ns}ns -> {t8_ns}ns)"
        );
    } else {
        // Too few cores for speedup; striping must still prevent the
        // old single-mutex collapse, where 8 threads serialized on one
        // lock and paid contention on top.
        assert!(
            scaling >= 0.5,
            "read path collapses under {THREADS} threads on a \
             {cores}-core host: {scaling:.2}x slower than serial"
        );
        println!(
            "note: {cores} core(s) available; recording scaling \
             ({scaling:.2}x) without the >=2x assert (needs >=4 cores)"
        );
    }

    let pager_x8 = pager_scaling();
    let durable = durable_metrics();
    let (commit_ns_10k, commit_bytes_10k) = engine_commit_cost(10_000);
    let (commit_ns_100k, commit_bytes_100k) = engine_commit_cost(100_000);
    assert!(
        commit_bytes_100k < 2.0 * commit_bytes_10k,
        "commit metadata must not grow with the table: \
         {commit_bytes_10k:.0} B at 10k rows, {commit_bytes_100k:.0} B at 100k"
    );
    assert!(
        commit_ns_100k < 2.0 * commit_ns_10k,
        "a durable one-row UPDATE must not slow with the table: \
         {commit_ns_10k:.0} ns at 10k rows, {commit_ns_100k:.0} ns at 100k"
    );

    let mut group = criterion.benchmark_group("storage");
    group.sample_size(10);
    group.metric("read/serial_stmts_per_sec", per_sec(serial_ns));
    group.metric("read/threads_1_stmts_per_sec", per_sec(t1_ns));
    group.metric("read/threads_8_stmts_per_sec", per_sec(t8_ns));
    group.metric("read/scaling_x8", scaling);
    group.metric("pager/scaling_x8", pager_x8);
    group.metric("wal/commits_per_sec", durable.commits_per_sec);
    group.metric("wal/append_mib_per_sec", durable.append_mib_per_sec);
    group.metric("checkpoint/latency_ms", durable.checkpoint_ms);
    group.metric("recovery/ms_100k_commits", durable.recovery_ms);
    group.metric("commit/engine_update_ns_10k", commit_ns_10k);
    group.metric("commit/engine_update_ns_100k", commit_ns_100k);
    group.metric("commit/engine_meta_bytes_10k", commit_bytes_10k);
    group.metric("commit/engine_meta_bytes_100k", commit_bytes_100k);
    group.bench_function("batch_reads/threads_1", |b| {
        b.iter(|| run_batch(&db, &batch, 1))
    });
    group.bench_function("batch_reads/threads_8", |b| {
        b.iter(|| run_batch(&db, &batch, THREADS))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_storage
}
criterion_main!(benches);
