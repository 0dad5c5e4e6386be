//! The executor's hot paths allocate per statement, never per row: a
//! counting global allocator shows that a sequential-scan `SUM`, a
//! `COUNT(*)`, and point `SELECT`s (scanned and index-served) make the
//! same number of allocations over 2,000 rows as over 20,000. So do
//! the write paths: a one-row `INSERT`, an `UPDATE` of an indexed and
//! of an unindexed column, and a one-row `DELETE`. Planning allocates
//! per statement, never per index: a point `SELECT` makes as many
//! allocations on a table with five indexes as on one with one. A
//! whole-table `UPDATE` holds no decoded row: the bytes it keeps live
//! peak below what its page pre-images and its rids account for.
//!
//! Each test counts only the allocations (and live bytes) of the
//! thread that runs it, so the harness's other threads cannot disturb
//! the counts.

use cdpd_engine::{Database, IndexSpec};
use cdpd_sql::{parse, SelectStmt, Statement};
use cdpd_storage::PAGE_SIZE;
use cdpd_types::{ColumnDef, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed, and the most
    /// that has reached since [`reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + bytes);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters are const-initialized thread-local `Cell`s with no
// destructor, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        grow(layout.size() as i64);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Start a new peak at the current live bytes, and return them.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

const STATEMENTS: [&str; 4] = [
    "SELECT SUM(b) FROM t WHERE c < 500",
    "SELECT COUNT(*) FROM t WHERE c < 500",
    "SELECT d FROM t WHERE d = 777",
    "SELECT b FROM t WHERE a = 777",
];

/// Write statements, after the `SELECT`s, as (warm-up, measured)
/// pairs: each statement changes exactly one row, located through the
/// index on `a` (the indexed `UPDATE` moves its row past the loaded
/// range, where the measured one finds it).
const WRITES: [(&str, &str); 4] = [
    (
        "INSERT INTO t VALUES (100000001, 0, 0, 0)",
        "INSERT INTO t VALUES (100000002, 0, 0, 0)",
    ),
    (
        "UPDATE t SET a = 100000003 WHERE a = 777",
        "UPDATE t SET a = 100000004 WHERE a = 100000003",
    ),
    (
        "UPDATE t SET b = 5 WHERE a = 778",
        "UPDATE t SET b = 6 WHERE a = 778",
    ),
    ("DELETE FROM t WHERE a = 779", "DELETE FROM t WHERE a = 780"),
];

/// `rows` rows, `a` indexed; `c < 500` matches half of them and
/// `a = 777` / `d = 777` exactly one.
fn database(rows: i64) -> Database {
    database_with(rows, &[&["a"]])
}

/// [`database`] with `indexes` built instead of the one on `a`.
fn database_with(rows: i64, indexes: &[&[&str]]) -> Database {
    let db = Database::new();
    let schema = Schema::new(["a", "b", "c", "d"].map(ColumnDef::int).to_vec());
    db.create_table("t", schema).unwrap();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| [i, i % 100, i % 1000, i].map(Value::Int).to_vec())
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
    for columns in indexes {
        db.create_index(&IndexSpec::new("t", columns)).unwrap();
    }
    db
}

/// Allocations of one execution of `stmt`, after a warm-up run.
fn allocations(db: &Database, stmt: &SelectStmt) -> (u64, String) {
    let plan = db.query(stmt).unwrap().plan;
    let before = allocs();
    let result = db.query(stmt).unwrap();
    let n = allocs() - before;
    drop(result);
    (n, plan)
}

/// Allocations of the measured write of `pair`, after its warm-up.
fn write_allocations(db: &Database, (warm_up, measured): (&str, &str)) -> (u64, String) {
    let plan = db.execute_sql(warm_up).unwrap().plan;
    let stmt = parse(measured).unwrap();
    let before = allocs();
    let result = db.execute_statement(stmt).unwrap();
    let n = allocs() - before;
    let rows = u64::from(!measured.starts_with("INSERT"));
    assert_eq!(result.count, rows, "{measured}: rows changed");
    (n, plan)
}

#[test]
fn statements_allocate_the_same_at_2k_and_20k_rows() {
    let (small, large) = (database(2_000), database(20_000));
    for sql in STATEMENTS {
        let Ok(Statement::Select(stmt)) = parse(sql) else {
            panic!("{sql} is a SELECT");
        };
        let (at_2k, plan_2k) = allocations(&small, &stmt);
        let (at_20k, plan_20k) = allocations(&large, &stmt);
        let kind = |plan: &str| plan.split([' ', '(']).next().unwrap_or("").to_owned();
        assert_eq!(kind(&plan_2k), kind(&plan_20k), "{sql}: plans differ");
        assert!(
            at_20k.abs_diff(at_2k) <= 4,
            "{sql} ({plan_20k}): {at_2k} allocations at 2k rows, {at_20k} at 20k"
        );
    }
    for pair in WRITES {
        let (at_2k, plan_2k) = write_allocations(&small, pair);
        let (at_20k, plan_20k) = write_allocations(&large, pair);
        assert_eq!(plan_2k, plan_20k, "{}: plans differ", pair.1);
        assert!(
            at_20k.abs_diff(at_2k) <= 4,
            "{} ({plan_20k}): {at_2k} allocations at 2k rows, {at_20k} at 20k",
            pair.1
        );
    }
}

#[test]
fn point_select_allocates_the_same_under_one_and_five_indexes() {
    let one = database(2_000);
    let five = database_with(2_000, &[&["a"], &["b"], &["c"], &["d"], &["c", "d"]]);
    let Ok(Statement::Select(stmt)) = parse("SELECT b FROM t WHERE a = 777") else {
        panic!("a SELECT");
    };
    let (under_one, plan_one) = allocations(&one, &stmt);
    let (under_five, plan_five) = allocations(&five, &stmt);
    assert_eq!(plan_one, plan_five);
    assert_eq!(
        under_five, under_one,
        "{plan_five}: {under_one} allocations under one index, {under_five} under five"
    );
}

/// `UPDATE t SET d = 1` over 20,000 rows keeps live, at its peak, less
/// than a copy of every page of the table (the most its pre-images can
/// make a statement copy), 16 bytes per row (the located rids, with the
/// vector's slack) and 64 KiB. Holding each decoded row until the end
/// of the statement takes about 300 bytes per row. A warm-up update
/// first grows the statistics' sample to its cap, which it keeps.
#[test]
fn whole_table_update_peaks_below_its_pages_and_rids() {
    const ROWS: i64 = 20_000;
    let db = database(ROWS);
    db.execute_sql("UPDATE t SET d = 0").unwrap();
    let stmt = parse("UPDATE t SET d = 1").unwrap();
    let bound = db.page_count() as i64 * PAGE_SIZE as i64 + ROWS * 16 + (64 << 10);
    let before = reset_peak();
    let result = db.execute_statement(stmt).unwrap();
    let peak = PEAK.with(Cell::get) - before;
    assert_eq!(result.count, ROWS as u64);
    assert!(
        peak < bound,
        "peak {peak} bytes over {ROWS} rows; bound {bound}"
    );
}
