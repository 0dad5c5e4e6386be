//! Durable `Database` round-trips: open → mutate → reopen must restore
//! the catalog, data, indexes, and statistics exactly.
//!
//! The kill-at-any-point crash suite lives in the facade crate
//! (`tests/recovery_prop.rs`); these tests pin the clean-shutdown
//! contract the crash suite builds on.

use cdpd_engine::{Database, IndexSpec};
use cdpd_storage::{DurableOptions, MemVfs, Vfs, VfsFile, PAGE_SIZE};
use cdpd_testkit::FaultyVfs;
use cdpd_types::{ColumnDef, Error, Result, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn iv(i: i64) -> Value {
    Value::Int(i)
}

fn open_mem(vfs: &MemVfs) -> Database {
    Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default()).unwrap()
}

fn abcd_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("a"),
        ColumnDef::int("b"),
        ColumnDef::int("c"),
        ColumnDef::text("d"),
    ])
}

fn load(db: &mut Database, rows: i64) {
    db.create_table("t", abcd_schema()).unwrap();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| vec![iv(i), iv(i % 10), iv(i % 97), Value::Str(format!("row{i}"))])
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
}

/// Observable logical state: every row of `t` in scan order, plus the
/// plan and count for a representative query.
fn digest(db: &Database) -> (Vec<Vec<Value>>, String, u64) {
    let q = cdpd_sql::parse("SELECT * FROM t WHERE b = 3").unwrap();
    let cdpd_sql::Statement::Select(sel) = q else {
        panic!("not a select")
    };
    let r = db.query(&sel).unwrap();
    let all = cdpd_sql::parse("SELECT * FROM t").unwrap();
    let cdpd_sql::Statement::Select(all) = all else {
        panic!("not a select")
    };
    let rows = db.query(&all).unwrap().rows.unwrap();
    (rows, r.plan, r.count)
}

#[test]
fn reopen_restores_rows_indexes_and_stats() {
    let vfs = MemVfs::new();
    let before = {
        let mut db = open_mem(&vfs);
        load(&mut db, 500);
        db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
        db.execute_sql("UPDATE t SET c = 5 WHERE a < 50").unwrap();
        db.execute_sql("DELETE FROM t WHERE a = 499").unwrap();
        digest(&db)
    };
    let db = open_mem(&vfs);
    assert!(db.is_durable());
    assert_eq!(digest(&db), before);
    assert!(db.has_index(&IndexSpec::new("t", &["b"])));
    // Statistics survived field-exactly: same rows/pages and the same
    // folded (unrefreshed) snapshot the planner saw before shutdown.
    let stats = db.stats("t").unwrap().unwrap();
    assert_eq!(stats.row_count, 500);
}

#[test]
fn reopen_resumes_table_id_allocation_and_ddl() {
    let vfs = MemVfs::new();
    {
        let mut db = open_mem(&vfs);
        load(&mut db, 50);
        db.create_table("u", abcd_schema()).unwrap();
    }
    let db = open_mem(&vfs);
    // New DDL keeps working against the recovered pager and catalog.
    db.create_table("v", abcd_schema()).unwrap();
    db.insert("v", &[iv(1), iv(2), iv(3), Value::Str("x".into())])
        .unwrap();
    db.create_index(&IndexSpec::new("t", &["c"])).unwrap();
    db.execute_sql("DELETE FROM t WHERE b = 7").unwrap();
    let db2 = open_mem(&vfs);
    assert_eq!(digest(&db2), digest(&db));
}

#[test]
fn stale_stats_snapshot_survives_reopen() {
    // DML folded into the maintainer but NOT refreshed: the planner
    // must see the stale snapshot after reopen, and a refresh must
    // then report exactly the pending changes.
    let vfs = MemVfs::new();
    {
        let mut db = open_mem(&vfs);
        load(&mut db, 200);
        db.execute_sql("UPDATE t SET b = 11 WHERE a < 20").unwrap();
    }
    let mut control = Database::new();
    load(&mut control, 200);
    control
        .execute_sql("UPDATE t SET b = 11 WHERE a < 20")
        .unwrap();

    let db = open_mem(&vfs);
    let stats = db.stats("t").unwrap().unwrap();
    let cstats = control.stats("t").unwrap().unwrap();
    assert_eq!(stats.row_count, cstats.row_count);
    assert_eq!(stats.columns[1].distinct, cstats.columns[1].distinct);
    let r = db.refresh_stats("t").unwrap();
    let c = control.refresh_stats("t").unwrap();
    assert_eq!(r, c, "pending dirty flags survive recovery");
    assert_eq!(
        db.stats("t").unwrap().unwrap().columns[1].distinct,
        control.stats("t").unwrap().unwrap().columns[1].distinct
    );
}

#[test]
fn app_state_round_trips() {
    let vfs = MemVfs::new();
    {
        let db = open_mem(&vfs);
        db.set_app_state(b"advisor state v1".to_vec()).unwrap();
    }
    let db = open_mem(&vfs);
    assert_eq!(db.app_state(), b"advisor state v1");
    // In-memory databases accept but do not persist app state.
    let mem = Database::new();
    assert!(!mem.is_durable());
    mem.set_app_state(b"x".to_vec()).unwrap();
    assert_eq!(mem.app_state(), b"x");
}

/// The bytes a durable database writes are pinned: catalog commit
/// records (image and deltas, statistics and app state included), the
/// pager's allocation metadata, and the checkpoint header carrying them
/// hash to fixed values. A change that moves one byte of the record
/// format must update these digests on purpose — and bump the magic.
#[test]
fn persisted_record_bytes_are_pinned() {
    let vfs = MemVfs::new();
    let mut db = open_mem(&vfs);
    load(&mut db, 300);
    db.create_index(&IndexSpec::new("t", &["b", "c"])).unwrap();
    db.set_app_state(b"advisor".to_vec()).unwrap();
    db.checkpoint().unwrap();
    db.execute_sql("UPDATE t SET d = 'post' WHERE b = 1")
        .unwrap();
    db.refresh_stats("t").unwrap();
    db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
    db.drop_index(&IndexSpec::new("t", &["b", "c"])).unwrap();
    // Every file ends in a crc64 of what precedes it, and a CRC over
    // data plus its own CRC is a constant; so digest all but the tail.
    let digest = |name: &str| {
        let bytes = vfs.snapshot(name).expect("file exists");
        (bytes.len(), cdpd_storage::crc64(&bytes[..bytes.len() - 8]))
    };
    assert_eq!(
        [digest("hdr.0"), digest("hdr.1"), digest("wal")],
        [
            (116, 3420504732432106958),
            (21280, 14769384914008760432),
            (30626, 13284286642863478798),
        ],
        "hdr.0, hdr.1, wal"
    );
}

#[test]
fn checkpoint_then_reopen_matches_wal_replay() {
    let vfs = MemVfs::new();
    let before = {
        let mut db = open_mem(&vfs);
        load(&mut db, 300);
        db.create_index(&IndexSpec::new("t", &["b", "c"])).unwrap();
        db.checkpoint().unwrap();
        // More work after the checkpoint: recovered partly from the
        // data file, partly from WAL replay.
        db.execute_sql("UPDATE t SET d = 'post' WHERE b = 1")
            .unwrap();
        digest(&db)
    };
    let db = open_mem(&vfs);
    assert_eq!(digest(&db), before);
}

#[test]
fn bounded_cache_database_round_trips() {
    let vfs = MemVfs::new();
    let opts = DurableOptions {
        cache_pages: 32,
        ..DurableOptions::default()
    };
    let before = {
        let mut db = Database::open_with_vfs(Arc::new(vfs.clone()), opts.clone()).unwrap();
        load(&mut db, 800);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.checkpoint().unwrap();
        db.execute_sql("DELETE FROM t WHERE c = 13").unwrap();
        digest(&db)
    };
    let db = Database::open_with_vfs(Arc::new(vfs.clone()), opts).unwrap();
    assert_eq!(digest(&db), before);
}

/// Complements the `execute_script` statement-index tests in `db.rs`
/// (which already pin the parse- and execution-error tags): commit
/// granularity is per statement, so when a script dies at statement N,
/// exactly statements `0..N` survive a restart — the tagged index
/// tells the operator precisely where a replayed script must resume.
#[test]
fn failed_script_keeps_its_committed_prefix_across_restart() {
    let vfs = MemVfs::new();
    {
        let db = open_mem(&vfs);
        db.execute_script("CREATE TABLE s (x INT, y INT); INSERT INTO s VALUES (1, 10);")
            .unwrap();
        db.analyze("s").unwrap();
        let err = db
            .execute_script(
                "INSERT INTO s VALUES (2, 20); INSERT INTO s VALUES (3); \
                 INSERT INTO s VALUES (4, 40);",
            )
            .unwrap_err();
        assert!(
            matches!(&err, cdpd_types::Error::TypeMismatch(m) if m.starts_with("statement 1:")),
            "{err}"
        );
    }
    let db = open_mem(&vfs);
    let rows = db.execute_sql("SELECT x FROM s WHERE x >= 0").unwrap();
    // Statement 0 of the failed script committed; statement 1 failed
    // before touching anything; statement 2 never ran.
    assert_eq!(rows.count, 2);
    assert_eq!(
        db.execute_sql("SELECT MAX(x) FROM s").unwrap().aggregate,
        Some(Value::Int(2))
    );
}

#[test]
fn disk_backed_database_round_trips() {
    let dir = std::env::temp_dir().join(format!(
        "cdpd-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let before = {
        let mut db = Database::open(&dir).unwrap();
        load(&mut db, 120);
        db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
        digest(&db)
    };
    let db = Database::open(&dir).unwrap();
    let after = digest(&db);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(after, before);
}

// --- Commit deltas ------------------------------------------------------

/// A durable commit costs what the statement changed, not the size of
/// the page or of the catalog: a heap-only one-row `UPDATE` appends
/// under 4 KiB of WAL in total — its page frame and its commit
/// metadata — whether the analysed table holds 10k rows or 100k (whose
/// distinct sets and samples alone are megabytes). The first UPDATE of
/// the page after the checkpoint logs the full image by design; the
/// measured ones are the page's next UPDATEs.
#[test]
fn heap_only_update_logs_under_4k_at_10k_and_100k_rows() {
    for rows in [10_000i64, 100_000] {
        let opts = DurableOptions {
            checkpoint_wal_bytes: 0, // the log must not reset under the measurement
            ..DurableOptions::default()
        };
        let mut db = Database::open_with_vfs(Arc::new(MemVfs::new()), opts).unwrap();
        load(&mut db, rows);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.checkpoint().unwrap();
        let wal = db.pager().wal_bytes();
        assert_eq!(
            db.execute_sql("UPDATE t SET c = 6 WHERE a = 6")
                .unwrap()
                .count,
            1
        );
        assert!(
            db.pager().wal_bytes() - wal > PAGE_SIZE as u64,
            "the page's first log after the checkpoint is its full image"
        );
        for (i, sql) in [
            // A value no row held: enters a distinct set and a sample.
            format!("UPDATE t SET c = {} WHERE a = 7", rows * 3),
            // One the column already holds.
            "UPDATE t SET c = 5 WHERE a = 8".to_owned(),
        ]
        .iter()
        .enumerate()
        {
            let (wal, frames) = (db.pager().wal_bytes(), db.pager().durable_stats());
            assert_eq!(db.execute_sql(sql).unwrap().count, 1);
            let frames = db.pager().durable_stats().delta(frames);
            assert_eq!(
                (frames.wal_commits, frames.wal_appends),
                (1, 1),
                "heap only"
            );
            let logged = db.pager().wal_bytes() - wal;
            assert!(
                logged < 4096,
                "{rows} rows, update {i}: {logged} bytes of WAL"
            );
        }
    }
}

/// A commit whose frame reached the log but whose fsync failed is not
/// acknowledged, and its pages' next frames must not be deltas against
/// what was logged before it: recovery resolves a delta against the
/// newest image in the log, which is the unacknowledged frame. The
/// fsync arm writes a byte back to its pre-failure value (an empty
/// delta against the old base, wrongly resolved onto the failed frame);
/// the write arm leaves the failed statement's byte alone and updates
/// its neighbour (a delta against a base that never reached the log
/// would omit the failed byte). Either way, the reopened database must
/// equal the acknowledged state.
#[test]
fn pages_of_a_failed_commit_are_logged_whole_on_retry() {
    let script = [
        "UPDATE t SET c = 4001 WHERE a = 5",
        "UPDATE t SET c = 4002 WHERE a = 5", // its commit fails
    ];
    for (fail_at_sync, retry) in [
        (true, "UPDATE t SET c = 4001 WHERE a = 5"),
        (false, "UPDATE t SET b = 4003 WHERE a = 5"),
    ] {
        let vfs = FlakyVfs {
            inner: MemVfs::new(),
            fail_write: Arc::default(),
            fail_sync: Arc::default(),
        };
        let flag = if fail_at_sync {
            &vfs.fail_sync
        } else {
            &vfs.fail_write
        };
        let mut db =
            Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default()).unwrap();
        load(&mut db, 400);
        db.execute_sql(script[0]).unwrap();
        flag.store(true, Ordering::Relaxed);
        assert!(db.execute_sql(script[1]).is_err());
        flag.store(false, Ordering::Relaxed);
        db.execute_sql(retry).unwrap();
        drop(db);

        let mut control = Database::new();
        load(&mut control, 400);
        for sql in script.iter().chain([&retry]) {
            control.execute_sql(sql).unwrap();
        }
        assert_eq!(
            full_digest(&open_mem(&vfs.inner)),
            full_digest(&control),
            "fail_at_sync={fail_at_sync}"
        );
    }
}

/// A [`Vfs`] whose log can be made to fail on demand — at the write
/// (nothing reaches the log) or at the fsync (the frame is in the log,
/// but the commit is not acknowledged) — and then heal.
#[derive(Clone)]
struct FlakyVfs {
    inner: MemVfs,
    fail_write: Arc<AtomicBool>,
    fail_sync: Arc<AtomicBool>,
}

struct FlakyFile {
    inner: Box<dyn VfsFile>,
    vfs: FlakyVfs,
}

fn injected() -> Error {
    Error::Io(std::io::Error::other("injected log failure"))
}

impl Vfs for FlakyVfs {
    fn open(&self, name: &str) -> Result<Box<dyn VfsFile>> {
        let inner = self.inner.open(name)?;
        Ok(if name == "wal" {
            Box::new(FlakyFile {
                inner,
                vfs: self.clone(),
            })
        } else {
            inner
        })
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

impl VfsFile for FlakyFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.inner.read_at(off, buf)
    }
    fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
        if self.vfs.fail_write.load(Ordering::Relaxed) {
            return Err(injected());
        }
        self.inner.write_at(off, data)
    }
    fn sync(&self) -> Result<()> {
        if self.vfs.fail_sync.load(Ordering::Relaxed) {
            return Err(injected());
        }
        self.inner.sync()
    }
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }
    fn truncate(&self, len: u64) -> Result<()> {
        self.inner.truncate(len)
    }
}

type Stmt = Box<dyn Fn(&Database) -> Result<()>>;

/// The statements the failed-commit tests run: between them they touch
/// every part of a commit delta — new distinct values and sample
/// entries, the heap chain, an index drop and a build, a replaced
/// maintainer, a refreshed snapshot, the app state.
fn delta_script() -> Vec<Stmt> {
    fn sql(text: &'static str) -> Stmt {
        Box::new(move |db| db.execute_sql(text).map(|_| ()))
    }
    vec![
        sql("UPDATE t SET b = 4001 WHERE a < 30"),
        sql("UPDATE t SET c = 4002, d = 'moved to a longer string' WHERE a >= 380"),
        Box::new(|db| db.drop_index(&IndexSpec::new("t", &["b"])).map(|_| ())),
        sql("DELETE FROM t WHERE a = 17"),
        Box::new(|db| db.refresh_stats("t").map(|_| ())),
        Box::new(|db| db.set_app_state(b"advisor state v2".to_vec())),
        sql("INSERT INTO t VALUES (9001, 4003, 4004, 'fresh')"),
        Box::new(|db| db.create_index(&IndexSpec::new("t", &["c"])).map(|_| ())),
        Box::new(|db| db.analyze("t").map(|_| ())),
        sql("UPDATE t SET b = 4005 WHERE a = 9001"),
        Box::new(|db| db.create_index(&IndexSpec::new("t", &["b"])).map(|_| ())),
        sql("UPDATE t SET c = 4006 WHERE b = 4001"),
    ]
}

fn delta_fixture(db: &mut Database) {
    load(db, 400);
    db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
}

/// [`digest`] plus what only the catalog holds: index set, app state,
/// and the statistics a refresh produces from the recovered maintainer
/// (its distinct sets, samples and dirty flags, not just the last
/// snapshot).
fn full_digest(db: &Database) -> impl PartialEq + std::fmt::Debug {
    let before = format!("{:?}", db.stats("t").unwrap());
    let refresh = db.refresh_stats("t").unwrap();
    let after = format!("{:?}", db.stats("t").unwrap());
    (
        digest(db),
        db.index_specs("t").unwrap(),
        db.app_state(),
        (before, refresh, after),
    )
}

/// A commit fails and the handle *keeps going*: the commit marks must
/// not have advanced, so the next acknowledged commit carries the
/// failed statements' changes too — whether or not the failed frames
/// reached the log (fsync failures leave them there, to be folded
/// again by recovery). No delta is ever half-accounted.
#[test]
fn failed_commits_are_carried_by_the_next_acknowledged_one() {
    let script = delta_script();
    let mut control = Database::new();
    delta_fixture(&mut control);
    for stmt in &script {
        stmt(&control).unwrap();
    }
    let expected = full_digest(&control);

    for fail_at_sync in [false, true] {
        // Fail two statements out of every three.
        let vfs = FlakyVfs {
            inner: MemVfs::new(),
            fail_write: Arc::default(),
            fail_sync: Arc::default(),
        };
        let arm = |on: bool| {
            let flag = if fail_at_sync {
                &vfs.fail_sync
            } else {
                &vfs.fail_write
            };
            flag.store(on, Ordering::Relaxed);
        };
        let mut db =
            Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default()).unwrap();
        delta_fixture(&mut db);
        for (i, stmt) in script.iter().enumerate() {
            let fail = i % 3 != 2;
            arm(fail);
            let seq = db.committed_seq();
            assert_eq!(stmt(&db).is_err(), fail, "statement {i}");
            assert_eq!(db.committed_seq() > seq, !fail, "statement {i}");
        }
        drop(db);
        let db = open_mem(&vfs.inner);
        assert_eq!(
            full_digest(&db),
            expected,
            "fail_at_sync={fail_at_sync}: recovery must see every statement exactly once"
        );
    }
}

/// A commit fails and the handle is *dropped*: whatever statement the
/// crash interrupts, the reopened database equals the replay of exactly
/// the acknowledged statements.
#[test]
fn failed_commit_then_drop_recovers_the_acknowledged_prefix() {
    let script = delta_script();
    // Counting pass: the VFS op count as each statement begins.
    let counting = FaultyVfs::new(Arc::new(MemVfs::new()), u64::MAX, 0);
    let mut db =
        Database::open_with_vfs(Arc::new(counting.clone()), DurableOptions::default()).unwrap();
    delta_fixture(&mut db);
    let mut starts = Vec::new();
    for stmt in &script {
        starts.push(counting.ops());
        stmt(&db).unwrap();
    }
    drop(db);

    for (k, &ops_before) in starts.iter().enumerate() {
        // Kill at statement k's first log write: its commit fails torn.
        let mem = MemVfs::new();
        let vfs = FaultyVfs::new(Arc::new(mem.clone()), ops_before + 1, k as u64);
        let mut db =
            Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default()).unwrap();
        delta_fixture(&mut db);
        let acked = script.iter().take_while(|stmt| stmt(&db).is_ok()).count();
        assert!(vfs.killed());
        assert_eq!(acked, k, "the kill must land in statement {k}'s commit");
        drop(db);

        let mut control = Database::new();
        delta_fixture(&mut control);
        for stmt in &script[..k] {
            stmt(&control).unwrap();
        }
        assert_eq!(
            full_digest(&open_mem(&mem)),
            full_digest(&control),
            "statement {k}'s failed commit leaked into (or out of) the recovered state"
        );
    }
}

/// A call fails *midway* — an `insert_many` batch lands its first row,
/// then the index refuses the next row's key — and commits nothing
/// itself. The batch is undone whole, but its pages stay dirty and ride
/// the next acknowledged commit of any statement, so that commit's
/// delta carries the failed call's table too: the recovered database
/// equals the live one, rows and page counts alike.
#[test]
fn statement_that_fails_midway_is_carried_by_the_next_commit() {
    let vfs = MemVfs::new();
    let mut db = open_mem(&vfs);
    load(&mut db, 2);
    db.create_index(&IndexSpec::new("t", &["d"])).unwrap();
    db.create_table("u", abcd_schema()).unwrap();
    for len in [4200, 4300, 4400] {
        // The second row fits a heap page, not a B-tree key.
        let kept = [iv(100), iv(0), iv(0), Value::Str(format!("kept{len}"))];
        let refused = [iv(100), iv(0), iv(0), Value::Str("\0".repeat(len))];
        let seq = db.committed_seq();
        let batch = db.insert_many("t", [&kept[..], &refused[..]]);
        assert!(matches!(batch, Err(Error::TooLarge(_))));
        assert_eq!(db.committed_seq(), seq);
    }
    // An unrelated commit logs the failed statements' pages.
    db.insert("u", &[iv(1), iv(1), iv(1), Value::Str("u".into())])
        .unwrap();
    let all = cdpd_sql::parse("SELECT * FROM t").unwrap();
    let cdpd_sql::Statement::Select(all) = all else {
        panic!("not a select")
    };
    let live = (db.query(&all).unwrap().rows.unwrap(), db.page_count());
    assert_eq!(live.0.len(), 2, "the refused batches left no row behind");
    drop(db);
    let db = open_mem(&vfs);
    let recovered = (db.query(&all).unwrap().rows.unwrap(), db.page_count());
    assert_eq!(recovered, live);
    // And the recovered shape still takes writes.
    db.insert("t", &[iv(7), iv(7), iv(7), Value::Str("seven".into())])
        .unwrap();
    assert_eq!(db.query(&all).unwrap().rows.unwrap().len(), 3);
}
