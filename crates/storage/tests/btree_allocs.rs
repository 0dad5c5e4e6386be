//! Index maintenance allocates per entry op, never per entry in the
//! leaf: a counting global allocator shows that a non-splitting
//! `BTree::insert` and a `BTree::delete` make the same small number of
//! allocations (the entry key, the descent path and the edited page
//! image) in a leaf of one entry as in a leaf of 433.
//!
//! This binary holds one test and counts only the allocations of the
//! thread that runs it, so the harness's own threads cannot disturb
//! the counts.

use cdpd_storage::{BTree, Pager};
use cdpd_types::{PageId, Rid, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

fn entry(i: i64) -> [Value; 1] {
    [Value::Int(i)]
}

fn rid() -> Rid {
    Rid::new(PageId(0), 0)
}

/// Allocations of inserting and then deleting `(i, rid)`.
fn insert_delete_allocs(tree: &mut BTree, i: i64) -> (u64, u64) {
    let key = entry(i);
    let before = allocs();
    tree.insert(&key, rid()).unwrap();
    let inserted = allocs();
    assert!(tree.delete(&key, rid()).unwrap());
    (inserted - before, allocs() - inserted)
}

#[test]
fn entry_ops_allocate_the_same_in_sparse_and_full_leaves() {
    // 434 even keys bulk-load into a 433-entry leaf (90% full) and a
    // one-entry leaf under a root: both edits below descend two levels.
    let entries = (0..434i64).map(|i| (entry(2 * i).to_vec(), rid()));
    let mut tree = BTree::bulk_load(Arc::new(Pager::new()), entries).unwrap();
    assert_eq!((tree.height(), tree.leaf_count()), (2, 2));
    let pages = tree.page_count();
    // Warm-up: lazily registered counters allocate on first use.
    insert_delete_allocs(&mut tree, 1);

    let full = insert_delete_allocs(&mut tree, 3);
    let sparse = insert_delete_allocs(&mut tree, 10_001);
    assert_eq!(tree.page_count(), pages, "no op may split");
    assert_eq!(
        full, sparse,
        "(insert, delete) allocations, full vs sparse leaf"
    );
    let (insert, delete) = full;
    assert!(insert <= 3, "insert made {insert} allocations");
    assert!(delete <= 2, "delete made {delete} allocations");
}
