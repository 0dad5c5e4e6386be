//! Pricing a prepared statement allocates nothing: a counting global
//! allocator shows that `WhatIfEngine::price` of a bound SELECT, IN,
//! OR and UPDATE under a 0-, 1- and 2-index set, by value or by
//! reference, makes no heap allocation. The advisor prices statements
//! this way hundreds of thousands of times per recommendation.
//!
//! This binary holds one test and counts only the allocations of the
//! thread that runs it, so the harness's own threads cannot disturb
//! the counts.

use cdpd_engine::{Database, IndexInfo, IndexSpec, WhatIfEngine};
use cdpd_sql::{parse, Dml, Statement};
use cdpd_types::{ColumnDef, Schema, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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
    "SELECT b FROM t WHERE a = 7",
    "SELECT * FROM t WHERE a IN (1, 2, 3, 2)",
    "SELECT * FROM t WHERE (a = 1 OR b = 2)",
    "UPDATE t SET c = 1 WHERE a = 5",
];

fn dml(sql: &str) -> Dml {
    match parse(sql).unwrap() {
        Statement::Select(s) => Dml::Select(s),
        Statement::Update(u) => Dml::Update(u),
        other => panic!("{other:?} is not a test statement"),
    }
}

#[test]
fn pricing_a_prepared_statement_allocates_nothing() {
    let db = Database::new();
    let schema = Schema::new(["a", "b", "c", "d"].map(ColumnDef::int).to_vec());
    db.create_table("t", schema).unwrap();
    let rows: Vec<Vec<Value>> = (0..5_000i64)
        .map(|i| [i % 1000, i % 700, i % 13, i].map(Value::Int).to_vec())
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
    let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
    let pool = whatif
        .resolve_structures(&[
            IndexSpec::new("t", &["a"]),
            IndexSpec::new("t", &["b", "c"]),
        ])
        .unwrap();
    let sets: [&[IndexInfo]; 3] = [&pool[..0], &pool[..1], &pool[..]];
    for sql in STATEMENTS {
        let prepared = whatif.prepare(&dml(sql)).unwrap();
        for set in sets {
            let by_ref: Vec<&IndexInfo> = set.iter().collect();
            // Warm-up: the first call registers the metric counters.
            let expected = whatif.price(&prepared, set);
            let before = allocs();
            let owned = black_box(whatif.price(black_box(&prepared), black_box(set)));
            let borrowed = black_box(whatif.price(black_box(&prepared), black_box(&by_ref)));
            let n = allocs() - before;
            assert_eq!((owned, borrowed), (expected, expected), "{sql}");
            assert_eq!(n, 0, "{sql} under {} indexes: {n} allocations", set.len());
        }
    }
}
