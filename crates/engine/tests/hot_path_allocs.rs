//! The executor's hot paths allocate per statement, never per row: a
//! counting global allocator shows that a sequential-scan `SUM`, a
//! `COUNT(*)`, and point `SELECT`s (scanned and index-served) make the
//! same number of allocations over 2,000 rows as over 20,000.
//!
//! This binary holds one test and counts only the allocations of the
//! thread that runs it, so the harness's own threads cannot disturb
//! the counts.

use cdpd_engine::{Database, IndexSpec};
use cdpd_sql::{parse, SelectStmt, Statement};
use cdpd_types::{ColumnDef, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is a const-initialized thread-local `Cell` with no
// destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const STATEMENTS: [&str; 4] = [
    "SELECT SUM(b) FROM t WHERE c < 500",
    "SELECT COUNT(*) FROM t WHERE c < 500",
    "SELECT d FROM t WHERE d = 777",
    "SELECT b FROM t WHERE a = 777",
];

/// `rows` rows, `a` indexed; `c < 500` matches half of them and
/// `a = 777` / `d = 777` exactly one.
fn database(rows: i64) -> Database {
    let db = Database::new();
    let schema = Schema::new(["a", "b", "c", "d"].map(ColumnDef::int).to_vec());
    db.create_table("t", schema).unwrap();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| [i, i % 100, i % 1000, i].map(Value::Int).to_vec())
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
    db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
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
}
