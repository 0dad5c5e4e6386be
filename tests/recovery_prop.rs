//! Kill-at-any-point crash recovery: the headline property of the
//! durable tier.
//!
//! A deterministic workload script — table load, W1–W3-derived
//! statements, index DDL, stats maintenance, checkpoints, app-state
//! writes — runs against a durable [`Database`] whose VFS is wrapped in
//! [`FaultyVfs`]. One counting pass (`kill_at = u64::MAX`) learns the
//! total number of mutating VFS operations and the commit sequence
//! number reached after every logical op; then the same script is
//! killed at an arbitrary operation (the fatal write lands only a torn
//! prefix) and the surviving bytes are reopened through the inner VFS.
//!
//! The invariants, at **every** kill point:
//!
//! 1. recovery succeeds — a crash never bricks the database;
//! 2. every *acknowledged* commit survives (recovered sequence ≥ the
//!    last op that returned `Ok`);
//! 3. the recovered sequence is one some commit actually produced —
//!    never a half-applied state;
//! 4. the recovered logical state is **bit-identical** to a fresh
//!    in-memory database replaying exactly that committed prefix of
//!    the script (rows, index set, plans, full statistics snapshot,
//!    app state) — and stays so when both run a fixed continuation of
//!    DML and a statistics refresh, which is what shows the recovered
//!    *maintainer* (distinct sets, samples, sampling clock, dirty
//!    flags), not just its last snapshot, is the control's.
//!
//! Durable commits carry catalog *deltas*; only checkpoint headers hold
//! an image. Every script therefore ends by walking recovery through
//! each shape it must fold — header image only, image + N deltas, and
//! deltas that replace (an `ANALYZE`'s fresh maintainer, a
//! `set_app_state`) as well as patch — and
//! `recovery_folds_every_record_shape` pins each shape explicitly.
//!
//! The same binary proves the advisory layer resumes warm:
//! [`OnlineAdvisor::save_state`] → restart → [`OnlineAdvisor::restore`]
//! continues with the same decision sequence an uninterrupted session
//! produces.
//!
//! Two drivers share the core check: a `props!` property (shrinking,
//! `CDPD_PROP_CASES` / `CDPD_PROP_SEED`, persisted failure seeds under
//! `tests/regressions/`) and a deterministic sweep of 8 seeds × all
//! three paper workloads × 50 kill points spread across the full
//! operation range — the fixed matrix CI gates on.

mod common;

use cdpd::engine::{Database, IndexSpec};
use cdpd::sql::Dml;
use cdpd::storage::{DurableOptions, MemVfs, PAGE_SIZE};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::paper::PaperParams;
use cdpd::workload::{generate, paper};
use cdpd::{AdvisorOptions, OnlineAdvisor, OnlineDecision, OnlineOptions};
use cdpd_testkit::prop::Config as PropConfig;
use cdpd_testkit::{props, FaultyVfs, Prng};
use common::{paper_database, paper_params, paper_structures};
use std::sync::Arc;

// --- Workload scripts --------------------------------------------------

const ROWS: i64 = 150;
const DOMAIN: i64 = ROWS / common::ROWS_PER_VALUE;

/// One logical operation of a recovery workload. Each mutating op is
/// one commit (or none, for reads and no-op refreshes); the script is
/// what both the durable run and the in-memory control replay.
#[derive(Clone, Debug)]
enum Op {
    CreateTable,
    InsertBatch(Vec<Vec<Value>>),
    Analyze,
    RefreshStats,
    CreateIndex(IndexSpec),
    DropIndex(IndexSpec),
    Dml(Dml),
    Sql(String),
    Checkpoint,
    SetAppState(Vec<u8>),
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("a"),
        ColumnDef::int("b"),
        ColumnDef::int("c"),
        ColumnDef::int("d"),
    ])
}

fn batch(rng: &mut Prng, rows: usize) -> Vec<Vec<Value>> {
    (0..rows)
        .map(|_| {
            (0..4)
                .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
                .collect()
        })
        .collect()
}

/// Where [`script`]'s shape tail stands after each of its three legs.
struct ShapeCuts {
    /// Just checkpointed: recovery sees the header image and no delta.
    image_only: usize,
    /// `TAIL_DELTAS` DML commits later: image + that many deltas.
    image_and_deltas: usize,
    /// After an `ANALYZE`, a `set_app_state` and more DML: the deltas
    /// now replace a maintainer and the app state as well as patch.
    replacing_deltas: usize,
}

const TAIL_DELTAS: usize = 4;

/// A write statement that always changes rows (`a` covers the domain),
/// so it always commits a delta with new sample entries.
fn tail_update(rng: &mut Prng) -> Op {
    Op::Sql(format!(
        "UPDATE t SET c = {} WHERE a = {}",
        DOMAIN + rng.gen_range(0..1_000i64),
        rng.gen_range(0..DOMAIN)
    ))
}

/// Build the deterministic script for `(seed, which)`: create + load +
/// analyze, then a mix of paper-workload statements, synthetic write
/// DML, index DDL over the §6.1 pool, stats maintenance, checkpoints,
/// and app-state writes — and last the shape tail (see the module
/// docs).
fn script(seed: u64, which: u64) -> Vec<Op> {
    script_with_cuts(seed, which).0
}

fn script_with_cuts(seed: u64, which: u64) -> (Vec<Op>, ShapeCuts) {
    let mut rng = Prng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ which);
    let mut ops = vec![Op::CreateTable];
    for _ in 0..6 {
        ops.push(Op::InsertBatch(batch(&mut rng, 25)));
    }
    ops.push(Op::Analyze);

    let params = PaperParams {
        table: "t".into(),
        domain: DOMAIN,
        window_len: 10,
    };
    let spec = match which % 3 {
        0 => paper::w1_with(&params),
        1 => paper::w2_with(&params),
        _ => paper::w3_with(&params),
    };
    let trace = generate(&spec, seed);
    let mut stmts = trace.statements().iter().cycle();
    let pool = paper_structures();
    let mut live = vec![false; pool.len()];

    for _ in 0..30 {
        let op = match rng.gen_range(0..10i64) {
            0..=3 => Op::Dml(stmts.next().expect("trace is non-empty").clone()),
            4 | 5 => {
                let v = rng.gen_range(0..DOMAIN);
                if rng.gen_bool(0.6) {
                    Op::Sql(format!(
                        "UPDATE t SET c = {} WHERE a = {v}",
                        rng.gen_range(0..DOMAIN)
                    ))
                } else {
                    Op::Sql(format!("DELETE FROM t WHERE b = {v} AND d = {v}"))
                }
            }
            6 => {
                let i = rng.gen_range(0..pool.len() as i64) as usize;
                live[i] = !live[i];
                if live[i] {
                    Op::CreateIndex(pool[i].clone())
                } else {
                    Op::DropIndex(pool[i].clone())
                }
            }
            7 => Op::InsertBatch(batch(&mut rng, 10)),
            8 => {
                if rng.gen_bool(0.5) {
                    Op::Analyze
                } else {
                    Op::RefreshStats
                }
            }
            _ => {
                if rng.gen_bool(0.6) {
                    Op::Checkpoint
                } else {
                    let n = rng.gen_range(1..64i64) as usize;
                    Op::SetAppState((0..n).map(|i| (rng.next_u64() ^ i as u64) as u8).collect())
                }
            }
        };
        ops.push(op);
    }

    ops.push(Op::Checkpoint);
    let image_only = ops.len();
    for _ in 0..TAIL_DELTAS {
        ops.push(tail_update(&mut rng));
    }
    let image_and_deltas = ops.len();
    ops.push(Op::Analyze);
    ops.push(Op::SetAppState(rng.next_u64().to_le_bytes().to_vec()));
    ops.push(tail_update(&mut rng));
    ops.push(Op::InsertBatch(batch(&mut rng, 5)));
    ops.push(Op::RefreshStats);
    ops.push(tail_update(&mut rng));
    let cuts = ShapeCuts {
        image_only,
        image_and_deltas,
        replacing_deltas: ops.len(),
    };
    (ops, cuts)
}

fn apply(db: &mut Database, op: &Op) -> cdpd::types::Result<()> {
    match op {
        Op::CreateTable => db.create_table("t", schema()).map(|_| ()),
        Op::InsertBatch(rows) => db
            .insert_many("t", rows.iter().map(Vec::as_slice))
            .map(|_| ()),
        Op::Analyze => db.analyze("t").map(|_| ()),
        Op::RefreshStats => db.refresh_stats("t").map(|_| ()),
        Op::CreateIndex(spec) => db.create_index(spec).map(|_| ()),
        Op::DropIndex(spec) => db.drop_index(spec).map(|_| ()),
        Op::Dml(stmt) => db.execute_dml(stmt).map(|_| ()),
        Op::Sql(sql) => db.execute_sql(sql).map(|_| ()),
        Op::Checkpoint => db.checkpoint(),
        Op::SetAppState(bytes) => db.set_app_state(bytes.clone()),
    }
}

// --- Logical digests ---------------------------------------------------

/// Everything observable about the database's logical state. `None`
/// when the table does not exist yet (kill before the creating commit).
#[derive(Debug, PartialEq)]
struct Digest {
    rows: Vec<Vec<Value>>,
    indexes: Vec<IndexSpec>,
    plans: Vec<(String, u64)>,
    stats: Option<String>,
    app_state: Vec<u8>,
}

fn select(db: &Database, sql: &str) -> (Vec<Vec<Value>>, String, u64) {
    let cdpd::sql::Statement::Select(sel) = cdpd::sql::parse(sql).expect("digest query parses")
    else {
        panic!("not a select: {sql}")
    };
    let r = db.query(&sel).expect("digest query runs");
    (r.rows.unwrap_or_default(), r.plan, r.count)
}

fn digest(db: &mut Database) -> Option<Digest> {
    let stats = match db.stats("t") {
        Err(_) => return None, // table absent
        Ok(s) => s.map(|s| format!("{s:?}")),
    };
    if stats.is_none() {
        // Killed between CREATE TABLE and the first ANALYZE: the
        // stats-less state is itself part of the digest (the `None`
        // above), but the planner refuses to run without statistics —
        // analyze both sides identically so the row scans below work.
        db.analyze("t").expect("digest analyze");
    }
    let (rows, _, _) = select(db, "SELECT * FROM t");
    let plans = [
        "SELECT * FROM t WHERE b = 3",
        "SELECT * FROM t WHERE a = 7 AND c = 2",
        "SELECT * FROM t WHERE c = 1 AND d = 4",
    ]
    .iter()
    .map(|sql| {
        let (_, plan, count) = select(db, sql);
        (plan, count)
    })
    .collect();
    Some(Digest {
        rows,
        indexes: db.index_specs("t").expect("table exists"),
        plans,
        stats,
        app_state: db.app_state(),
    })
}

/// Replay `ops` into a fresh in-memory database.
fn control(ops: &[Op]) -> Database {
    let mut db = Database::new();
    for op in ops {
        apply(&mut db, op).expect("control replay is crash-free");
    }
    db
}

/// Invariant 4: `recovered` is bit-identical to the control replay of
/// `prefix`, now and after both run the same continuation — new values
/// for the distinct sets and samples, then a refresh that rebuilds the
/// statistics from the maintainer.
#[track_caller]
fn assert_matches_control(recovered: &mut Database, prefix: &[Op], context: &str) {
    let mut control = control(prefix);
    let now = digest(recovered);
    assert_eq!(
        now,
        digest(&mut control),
        "{context}: recovered state diverges from the committed prefix"
    );
    if now.is_none() {
        return; // no table yet: nothing to continue on
    }
    let continuation = [
        Op::Sql(format!("UPDATE t SET b = {} WHERE a = 1", DOMAIN + 7)),
        Op::Sql(format!("UPDATE t SET d = {} WHERE c = 2", DOMAIN + 8)),
        Op::InsertBatch(vec![vec![Value::Int(DOMAIN + 9); 4]; 3]),
        Op::RefreshStats,
    ];
    for op in &continuation {
        apply(recovered, op).expect("recovered database continues");
        apply(&mut control, op).expect("control continues");
    }
    assert_eq!(
        digest(recovered),
        digest(&mut control),
        "{context}: recovered maintainer diverges once the continuation refreshes from it"
    );
}

// --- The kill-at-any-point check ---------------------------------------

fn opts() -> DurableOptions {
    DurableOptions {
        // Small cache so recovery also exercises eviction + backend
        // refetch; small auto-checkpoint threshold so crashes land
        // inside checkpoints the script didn't ask for (a page's frames
        // after its first are deltas, so it takes ~30 checkpoints over
        // the 8-seed sweep, as many as page-sized frames took at 128 KiB).
        cache_pages: 16,
        group_commit: 1,
        checkpoint_wal_bytes: 48 * 1024,
    }
}

/// The counting pass: run the whole script crash-free on a durable
/// database and record the VFS op budget plus the commit sequence
/// reached after each logical op.
struct CountRun {
    total_ops: u64,
    seq_after: Vec<u64>,
    initial_seq: u64,
}

fn count_run(ops: &[Op]) -> CountRun {
    let vfs = FaultyVfs::new(Arc::new(MemVfs::new()), u64::MAX, 0);
    let mut db = Database::open_with_vfs(Arc::new(vfs.clone()), opts()).expect("crash-free open");
    let initial_seq = db.committed_seq();
    let mut seq_after = Vec::with_capacity(ops.len());
    for op in ops {
        apply(&mut db, op).expect("crash-free run");
        seq_after.push(db.committed_seq());
    }
    CountRun {
        total_ops: vfs.ops(),
        seq_after,
        initial_seq,
    }
}

/// The WAL's page-frame tag (`cdpd_storage`'s `wal` module docs).
const WAL_PAGE_FRAME: u8 = 0x01;

/// Run the script against a `FaultyVfs` killing at `kill_at`, reopen
/// the surviving bytes, and check invariants 1–4 of the module docs.
/// Returns whether the kill tore a WAL delta frame: a page frame shorter
/// than a page (a full image is longer), cut strictly inside.
fn check_kill(ops: &[Op], count: &CountRun, kill_at: u64, torn_seed: u64) -> bool {
    assert!(kill_at >= 1 && kill_at <= count.total_ops);
    let mem = MemVfs::new();
    let vfs = FaultyVfs::new(Arc::new(mem.clone()), kill_at, torn_seed);

    let mut acked = 0usize;
    // An Err open means the kill fired during the initial open itself.
    if let Ok(mut db) = Database::open_with_vfs(Arc::new(vfs.clone()), opts()) {
        for op in ops {
            match apply(&mut db, op) {
                Ok(()) => acked += 1,
                Err(_) => break,
            }
        }
    }
    assert!(
        vfs.killed(),
        "kill_at {kill_at} within the op budget must fire (determinism)"
    );
    let tore_delta = vfs.torn_write().is_some_and(|w| {
        w.file == "wal"
            && w.data[0] == WAL_PAGE_FRAME
            && w.data.len() < PAGE_SIZE
            && (1..w.data.len()).contains(&w.kept)
    });

    // The crashed process is gone; recovery reopens the surviving bytes
    // through the inner (clean) VFS.
    let mut recovered = Database::open_with_vfs(Arc::new(mem), opts())
        .unwrap_or_else(|e| panic!("recovery failed at kill point {kill_at}: {e}"));
    let seq = recovered.committed_seq();

    // (2) Acknowledged commits survive.
    let acked_seq = match acked {
        0 => count.initial_seq,
        n => count.seq_after[n - 1],
    };
    assert!(
        seq >= acked_seq,
        "kill {kill_at}: recovered seq {seq} lost acknowledged commit {acked_seq}"
    );
    // The crashed op may have durably committed before dying (e.g. in a
    // post-commit auto-checkpoint), but nothing past it can have.
    let max_seq = count.seq_after[acked.min(ops.len() - 1)];
    assert!(
        seq <= max_seq,
        "kill {kill_at}: recovered seq {seq} exceeds last attempted commit {max_seq}"
    );

    // (3) The recovered sequence is one a commit actually produced.
    let prefix_end = count.seq_after.iter().rposition(|&s| s == seq);
    if prefix_end.is_none() {
        assert_eq!(
            seq, count.initial_seq,
            "kill {kill_at}: recovered seq {seq} matches no commit of this script"
        );
    }

    // (4) Bit-identical to the committed-prefix replay.
    let prefix = prefix_end.map_or(&ops[..0], |i| &ops[..=i]);
    assert_matches_control(
        &mut recovered,
        prefix,
        &format!("kill {kill_at} ({} of {} ops)", prefix.len(), ops.len()),
    );
    tore_delta
}

// --- The shapes recovery folds -----------------------------------------

/// Durable commits carry deltas and only checkpoint headers an image,
/// so recovery folds one of three shapes. Each is pinned here on the
/// seeded scripts' tails with a clean shutdown at the cut — the shape
/// is read back from the surviving files through the raw pager, so the
/// test cannot pass by recovering through some other shape.
#[test]
fn recovery_folds_every_record_shape() {
    // No auto-checkpoint: the script's own checkpoints decide the shape.
    let opts = DurableOptions {
        checkpoint_wal_bytes: 0,
        ..opts()
    };
    for seed in 0..8u64 {
        let (ops, cuts) = script_with_cuts(seed * 31 + 5, seed % 3);
        for (cut, deltas) in [
            (cuts.image_only, 0),
            (cuts.image_and_deltas, TAIL_DELTAS),
            // ANALYZE, set_app_state, UPDATE, INSERT, refresh, UPDATE.
            (cuts.replacing_deltas, TAIL_DELTAS + 6),
        ] {
            let mem = MemVfs::new();
            let mut db = Database::open_with_vfs(Arc::new(mem.clone()), opts.clone())
                .expect("fresh durable database");
            for op in &ops[..cut] {
                apply(&mut db, op).expect("crash-free run");
            }
            drop(db);

            // What recovery will fold, read through the raw pager (after
            // a clean shutdown opening it changes nothing on the VFS).
            let raw = cdpd::storage::Pager::open_durable(Arc::new(mem.clone()), opts.clone())
                .expect("raw open");
            assert!(
                !raw.app_image.is_empty(),
                "seed {seed}: header holds an image"
            );
            assert_eq!(
                raw.app_deltas.len(),
                deltas,
                "seed {seed}, cut {cut}: deltas past the header"
            );
            let image = raw.app_image.len();
            for (i, delta) in raw.app_deltas.iter().enumerate() {
                // The ANALYZE's delta carries a whole maintainer and a
                // statistics snapshot, the refresh's a snapshot alone;
                // every other delta only what its statement touched.
                let fits = match i.checked_sub(TAIL_DELTAS) {
                    Some(0) => delta.len() > image / 2,
                    Some(4) => delta.len() > 1024 && delta.len() < image / 2,
                    _ => delta.len() < 1024,
                };
                assert!(
                    fits,
                    "seed {seed}, cut {cut}: delta {i} is {} bytes beside a {image}-byte image",
                    delta.len()
                );
            }
            drop(raw);

            let mut recovered =
                Database::open_with_vfs(Arc::new(mem), opts.clone()).expect("recovery");
            assert_matches_control(
                &mut recovered,
                &ops[..cut],
                &format!("seed {seed}, cut {cut}"),
            );
        }
    }
}

// --- Drivers -----------------------------------------------------------

props! {
    config: PropConfig::with_cases(24);

    /// Random (seed, workload, kill point) cases with shrinking and
    /// persisted failure seeds. The kill fraction maps onto the live
    /// op range, so shrinking it walks the crash earlier.
    fn kill_at_any_point_recovers_to_committed_prefix(
        seed in 0u64..1_000_000,
        which in 0u64..3,
        frac in 0u64..10_000,
    ) {
        let ops = script(*seed, *which);
        let count = count_run(&ops);
        let kill_at = 1 + frac % count.total_ops;
        let _ = check_kill(&ops, &count, kill_at, *seed ^ *frac);
    }
}

/// The fixed CI matrix: 8 seeds (cycling through W1/W2/W3) × 50 kill
/// points spread evenly across each script's full mutating-op range —
/// including the initial open, the load, and every checkpoint — of
/// which some must tear a WAL delta frame.
#[test]
fn kill_point_sweep_covers_the_full_op_range() {
    const SEEDS: u64 = 8;
    const POINTS: u64 = 50;
    let mut torn_deltas = 0;
    for seed in 0..SEEDS {
        let which = seed % 3;
        let ops = script(seed * 31 + 5, which);
        let count = count_run(&ops);
        assert!(
            count.total_ops > POINTS,
            "script too small to sweep meaningfully"
        );
        for j in 0..POINTS {
            let kill_at = 1 + j * (count.total_ops - 1) / (POINTS - 1);
            torn_deltas += usize::from(check_kill(&ops, &count, kill_at, seed ^ (j << 8)));
        }
    }
    assert!(torn_deltas > 0, "no kill point tore a WAL delta frame");
}

/// A recovered database is live, not read-only: it accepts new commits
/// and a further clean reopen sees them.
#[test]
fn recovered_database_accepts_new_work() {
    let ops = script(77, 1);
    let count = count_run(&ops);
    let mem = MemVfs::new();
    let vfs = FaultyVfs::new(Arc::new(mem.clone()), count.total_ops / 2, 9);
    if let Ok(mut db) = Database::open_with_vfs(Arc::new(vfs.clone()), opts()) {
        for op in &ops {
            if apply(&mut db, op).is_err() {
                break;
            }
        }
    }
    assert!(vfs.killed());

    let db = Database::open_with_vfs(Arc::new(mem.clone()), opts()).expect("recovery");
    let before = select(&db, "SELECT * FROM t").0.len();
    db.insert(
        "t",
        &[Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)],
    )
    .expect("recovered database accepts inserts");
    db.checkpoint().expect("recovered database checkpoints");
    drop(db);

    let db = Database::open_with_vfs(Arc::new(mem), opts()).expect("second reopen");
    assert_eq!(select(&db, "SELECT * FROM t").0.len(), before + 1);
}

// --- Racing writers ahead of the kill point ----------------------------

/// With the epoch-versioned catalog every mutator takes `&self`, so
/// the kill can now land while **several writer threads race** — WAL
/// commit ordering must still hold. A concurrent insert storm dies at
/// an arbitrary mutating op; afterwards:
///
/// 1. recovery succeeds;
/// 2. the recovered sequence ≥ every sequence any thread observed
///    after an acknowledged commit (acks are never rolled back);
/// 3. every *acknowledged* row survives, and every surviving row was
///    actually attempted (no phantoms, torn rows, or duplicates);
/// 4. heap and surviving indexes agree — point counts through the
///    index equal ground truth recomputed from the full scan — and the
///    recovered database accepts new commits.
#[test]
fn racing_writers_ahead_of_kill_point_keep_acknowledged_commits() {
    const WRITERS: usize = 4;
    const PER_WRITER: usize = 60;
    const TAG_BASE: i64 = 1_000_000;
    /// Wider than the file-level DOMAIN so point probes are selective
    /// enough for the planner to choose the index.
    const STORM_DOMAIN: i64 = 1_000;

    /// The sweep's `opts()` uses a deliberately tiny cache to exercise
    /// eviction; here the subject is concurrency, so a working-set
    /// sized cache keeps the storm fast.
    fn storm_opts() -> DurableOptions {
        DurableOptions {
            cache_pages: 256,
            group_commit: 1,
            checkpoint_wal_bytes: 128 * 1024,
        }
    }

    /// Serial setup, identical in the counting and kill passes: table,
    /// base load, stats, and an index the storm must maintain.
    fn setup(db: &Database) {
        db.create_table("t", schema()).expect("fresh table");
        let mut rng = Prng::seed_from_u64(5);
        // A base load big enough that the planner prefers the index
        // for point probes (hundreds of heap pages vs a handful of
        // node reads) — one batched commit keeps setup cheap.
        let base: Vec<Vec<Value>> = (0..6_000)
            .map(|_| {
                (0..4)
                    .map(|_| Value::Int(rng.gen_range(0..STORM_DOMAIN)))
                    .collect()
            })
            .collect();
        db.insert_many("t", base.iter().map(Vec::as_slice))
            .expect("base load");
        db.analyze("t").expect("analyze");
        db.create_index(&IndexSpec::new("t", &["a"]))
            .expect("index");
    }

    /// The storm: every writer inserts rows tagged uniquely in `d`,
    /// recording which tags were *acknowledged* and the highest commit
    /// sequence observed after an ack. Writers stop at the first error
    /// (the crash) — nothing retries past the kill.
    fn storm(db: &Database, seed: u64) -> (Vec<i64>, u64) {
        let per_writer: Vec<(Vec<i64>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    s.spawn(move || {
                        let mut rng = Prng::seed_from_u64(seed ^ (w as u64) << 32);
                        let mut acked = Vec::new();
                        let mut max_seq = 0u64;
                        for i in 0..PER_WRITER {
                            let tag = TAG_BASE + (w * PER_WRITER + i) as i64;
                            let row = vec![
                                Value::Int(rng.gen_range(0..STORM_DOMAIN)),
                                Value::Int(rng.gen_range(0..STORM_DOMAIN)),
                                Value::Int(w as i64),
                                Value::Int(tag),
                            ];
                            match db.insert("t", &row) {
                                Ok(_) => {
                                    acked.push(tag);
                                    max_seq = max_seq.max(db.committed_seq());
                                }
                                Err(_) => break,
                            }
                        }
                        (acked, max_seq)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("writer thread"))
                .collect()
        });
        let mut acked = Vec::new();
        let mut max_seq = 0;
        for (tags, seq) in per_writer {
            acked.extend(tags);
            max_seq = max_seq.max(seq);
        }
        (acked, max_seq)
    }

    for (seed, frac) in [(3u64, 4u64), (17, 11)] {
        // Counting pass: learn the op budget of setup + full storm so
        // the kill can be aimed inside the storm (frac/16ths of it —
        // comfortably under the budget even though the concurrent
        // schedule shifts op totals between runs).
        let vfs = FaultyVfs::new(Arc::new(MemVfs::new()), u64::MAX, 0);
        let db = Database::open_with_vfs(Arc::new(vfs.clone()), storm_opts()).expect("open");
        setup(&db);
        let setup_ops = vfs.ops();
        let (all_tags, _) = storm(&db, seed);
        assert_eq!(all_tags.len(), WRITERS * PER_WRITER, "crash-free storm");
        let storm_ops = vfs.ops() - setup_ops;
        drop(db);

        // Kill pass.
        let kill_at = setup_ops + 1 + storm_ops * frac / 16;
        let mem = MemVfs::new();
        let vfs = FaultyVfs::new(Arc::new(mem.clone()), kill_at, seed);
        let db = Database::open_with_vfs(Arc::new(vfs.clone()), storm_opts()).expect("open");
        setup(&db);
        let (acked, max_acked_seq) = storm(&db, seed);
        assert!(vfs.killed(), "kill {kill_at} must land inside the storm");
        assert!(
            acked.len() < WRITERS * PER_WRITER,
            "the crash must interrupt the storm"
        );
        drop(db);

        // (1) Recovery succeeds on the surviving bytes.
        let recovered = Database::open_with_vfs(Arc::new(mem.clone()), storm_opts())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));

        // (2) Acknowledged sequences survive.
        assert!(
            recovered.committed_seq() >= max_acked_seq,
            "seed {seed}: recovered seq {} lost acknowledged seq {max_acked_seq}",
            recovered.committed_seq()
        );

        // (3) Row-level ack durability, and no phantoms.
        let rows = select(&recovered, "SELECT * FROM t").0;
        let mut recovered_tags: Vec<i64> = rows
            .iter()
            .filter_map(|r| match r[3] {
                Value::Int(tag) if tag >= TAG_BASE => Some(tag),
                _ => None,
            })
            .collect();
        recovered_tags.sort_unstable();
        assert!(
            recovered_tags.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: a storm row was recovered twice"
        );
        for tag in &acked {
            assert!(
                recovered_tags.binary_search(tag).is_ok(),
                "seed {seed}: acknowledged row {tag} lost by recovery"
            );
        }
        // Tags are dealt densely from TAG_BASE, so range-checking is
        // enough to rule out torn / invented rows.
        assert!(
            recovered_tags
                .iter()
                .all(|t| (TAG_BASE..TAG_BASE + (WRITERS * PER_WRITER) as i64).contains(t)),
            "seed {seed}: recovery invented a row no writer attempted"
        );

        // (4) Heap and index agree, and the database is live.
        assert!(
            recovered
                .index_specs("t")
                .expect("table exists")
                .contains(&IndexSpec::new("t", &["a"])),
            "seed {seed}: the index created before the storm must survive"
        );
        let mut index_probes = 0;
        for v in (0..STORM_DOMAIN).step_by(3) {
            let truth = rows.iter().filter(|r| r[0] == Value::Int(v)).count() as u64;
            let (_, plan, count) = select(&recovered, &format!("SELECT * FROM t WHERE a = {v}"));
            assert_eq!(
                count, truth,
                "seed {seed}: index diverges from heap at a={v}"
            );
            index_probes += u64::from(plan.contains("Index"));
        }
        // The planner may legitimately SeqScan sparse values, but the
        // integrity sweep is vacuous unless the tree answered some of
        // the probes.
        assert!(
            index_probes > 0,
            "seed {seed}: no probe consulted the surviving index"
        );
        let n = rows.len();
        recovered
            .insert(
                "t",
                &[Value::Int(0), Value::Int(0), Value::Int(0), Value::Int(0)],
            )
            .expect("recovered database accepts inserts");
        drop(recovered);
        let reopened = Database::open_with_vfs(Arc::new(mem), storm_opts()).expect("second reopen");
        assert_eq!(select(&reopened, "SELECT * FROM t").0.len(), n + 1);
    }
}

// --- Advisor warm resume -----------------------------------------------

const ADV_ROWS: i64 = 5_000;
const ADV_WINDOW: usize = 25;

fn adv_db() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| paper_database(ADV_ROWS, 7))
}

fn adv_spec(which: u64) -> cdpd::workload::WorkloadSpec {
    let params = paper_params(ADV_ROWS, ADV_WINDOW);
    match which % 3 {
        0 => paper::w1_with(&params),
        1 => paper::w2_with(&params),
        _ => paper::w3_with(&params),
    }
}

fn adv_options(bounded: bool) -> OnlineOptions {
    OnlineOptions {
        advisor: AdvisorOptions {
            k: Some(2),
            window_len: ADV_WINDOW,
            max_structures_per_config: Some(1),
            ..AdvisorOptions::default()
        },
        max_windows: bounded.then_some(4),
        ..OnlineOptions::default()
    }
}

/// Decision equality modulo `solve_nanos` (wall-clock, by definition
/// not reproducible across runs).
#[track_caller]
fn assert_same_decisions(control: &[OnlineDecision], resumed: &[OnlineDecision]) {
    assert_eq!(control.len(), resumed.len(), "decision counts differ");
    for (i, (c, r)) in control.iter().zip(resumed).enumerate() {
        assert_eq!(c.window, r.window, "decision {i}: window");
        assert_eq!(c.config, r.config, "decision {i}: config");
        assert_eq!(c.specs, r.specs, "decision {i}: specs");
        assert_eq!(c.changed, r.changed, "decision {i}: changed");
        assert_eq!(
            c.degradation.to_bits(),
            r.degradation.to_bits(),
            "decision {i}: degradation"
        );
        assert_eq!(c.resolved, r.resolved, "decision {i}: resolved");
        assert_eq!(c.changes_used, r.changes_used, "decision {i}: changes_used");
    }
}

props! {
    config: PropConfig::with_cases(6);

    /// Save/restore at an arbitrary split point is invisible: the
    /// resumed session emits exactly the decisions the uninterrupted
    /// control emits, and the hindsight recommendation matches.
    fn advisor_resumes_warm_after_save_restore(
        seed in 0u64..1_000_000,
        which in 0u64..3,
        split in 1u64..10,
        bounded in 0u64..2,
    ) {
        let db = adv_db();
        let trace = generate(&adv_spec(*which), *seed);
        let stmts = trace.statements();
        let cut = ((stmts.len() as u64 * split / 10) as usize).clamp(1, stmts.len() - 1);
        let options = adv_options(*bounded == 1);

        let mut control = OnlineAdvisor::new(db, "t", options.clone()).expect("opens");
        control.ingest_all(db, stmts).expect("control ingests");

        let mut first = OnlineAdvisor::new(db, "t", options.clone()).expect("opens");
        first.ingest_all(db, &stmts[..cut]).expect("first half ingests");
        let blob = first.save_state();
        let mut resumed =
            OnlineAdvisor::restore(db, options, &blob).expect("state restores");
        resumed
            .ingest_all(db, &stmts[cut..])
            .expect("second half ingests");

        assert_same_decisions(control.decisions(), resumed.decisions());
        let c = control.finish(db).expect("control recommends");
        let r = resumed.finish(db).expect("resumed recommends");
        assert_eq!(c.schedule, r.schedule, "hindsight schedules must match");
        assert_eq!(c.structures, r.structures, "vocabularies must match");
    }
}

/// End to end through the durable engine: the advisor's state rides the
/// catalog (`set_app_state`), survives a real restart, and the resumed
/// session decides exactly like an uninterrupted one.
#[test]
fn advisor_state_survives_database_restart() {
    let vfs = MemVfs::new();
    let db = Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default())
        .expect("fresh durable database");
    db.create_table("t", schema()).unwrap();
    let mut rng = Prng::seed_from_u64(11);
    let rows: Vec<Vec<Value>> = (0..2_000)
        .map(|_| (0..4).map(|_| Value::Int(rng.gen_range(0..400))).collect())
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();

    let params = PaperParams {
        table: "t".into(),
        domain: 400,
        window_len: ADV_WINDOW,
    };
    let trace = generate(&paper::w2_with(&params), 13);
    let stmts = trace.statements();
    let cut = stmts.len() / 2;
    let options = OnlineOptions {
        advisor: AdvisorOptions {
            k: Some(2),
            window_len: ADV_WINDOW,
            structures: Some(paper_structures()),
            max_structures_per_config: Some(1),
            ..AdvisorOptions::default()
        },
        ..OnlineOptions::default()
    };

    let mut session = OnlineAdvisor::new(&db, "t", options.clone()).expect("opens");
    session.ingest_all(&db, &stmts[..cut]).expect("ingests");
    db.set_app_state(session.save_state())
        .expect("state persists");
    drop((session, db));

    // Restart: reopen the surviving store, pull the blob back out of
    // the catalog, resume, and finish the trace.
    let db = Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default())
        .expect("restart recovers");
    let mut resumed =
        OnlineAdvisor::restore(&db, options.clone(), &db.app_state()).expect("resumes warm");
    resumed.ingest_all(&db, &stmts[cut..]).expect("ingests");

    let mut control = OnlineAdvisor::new(&db, "t", options).expect("opens");
    control.ingest_all(&db, stmts).expect("control ingests");

    assert_same_decisions(control.decisions(), resumed.decisions());
    let c = control.finish(&db).expect("control recommends");
    let r = resumed.finish(&db).expect("resumed recommends");
    assert_eq!(c.schedule, r.schedule);
}

/// Restore is strict: wrong options and damaged blobs are rejected
/// cleanly instead of resuming a half-wrong session.
#[test]
fn restore_rejects_mismatched_options_and_corrupt_state() {
    let db = adv_db();
    let trace = generate(&adv_spec(0), 3);
    let options = adv_options(false);
    let mut session = OnlineAdvisor::new(db, "t", options.clone()).expect("opens");
    session.ingest_all(db, trace.statements()).expect("ingests");
    let blob = session.save_state();

    // Sanity: the blob itself restores.
    OnlineAdvisor::restore(db, options.clone(), &blob).expect("intact blob restores");

    let mut wrong = options.clone();
    wrong.advisor.window_len = ADV_WINDOW + 1;
    assert!(matches!(
        OnlineAdvisor::restore(db, wrong, &blob),
        Err(cdpd::types::Error::InvalidArgument(_))
    ));

    let mut wrong = options.clone();
    wrong.max_windows = Some(7);
    assert!(matches!(
        OnlineAdvisor::restore(db, wrong, &blob),
        Err(cdpd::types::Error::InvalidArgument(_))
    ));

    for cut in [0, 4, blob.len() / 2, blob.len() - 1] {
        assert!(
            OnlineAdvisor::restore(db, options.clone(), &blob[..cut]).is_err(),
            "truncation at {cut} must not restore"
        );
    }
    let mut garbled = blob.clone();
    garbled[0] ^= 0xFF;
    assert!(matches!(
        OnlineAdvisor::restore(db, options, &garbled),
        Err(cdpd::types::Error::Corrupt(_))
    ));
}
