//! Property tests: the paged B+-tree must behave exactly like an
//! in-memory ordered map over `(values, rid)` keys, under arbitrary
//! interleavings of inserts and deletes, and seeks must match the
//! model's range queries. `CREATE INDEX`'s byte-key build
//! ([`BTree::build_from_heap`]) must produce, page for page and I/O for
//! I/O, the tree a build over decoded `(values, rid)` entries produces.
//!
//! The durable variants run the same model against a file-backed pager:
//! mutate → commit → checkpoint → reopen must reattach the identical
//! tree (with both unbounded and tiny page caches, so recovery reads go
//! through eviction + backend refetch), and corrupted data or checksum
//! files must surface as clean [`Err`]s — never as wrong answers or UB.

use cdpd_storage::codec::{decode_key, encode_row};
use cdpd_storage::{crc64, BTree, DurableOptions, HeapFile, MemVfs, Pager, PAGE_SIZE};
use cdpd_testkit::prop::{btree_set_of, string_of, vec_of, Config, Just, Strategy};
use cdpd_testkit::{one_of, props};
use cdpd_types::{PageId, Rid, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Insert(i64, u32),
    Delete(i64, u32),
    Seek(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    one_of![
        3 => (0i64..200, 0u32..8).prop_map(|(k, r)| Op::Insert(k, r)),
        1 => (0i64..200, 0u32..8).prop_map(|(k, r)| Op::Delete(k, r)),
        // Deletes targeting the pre-populated rid range of the
        // pre-split variant (hits separator keys).
        1 => (0i64..200, 100u32..108).prop_map(|(k, r)| Op::Delete(k, r)),
        1 => (0i64..220).prop_map(Op::Seek),
    ]
}

fn tree_entries(tree: &BTree) -> Vec<(i64, Rid)> {
    let mut out = Vec::new();
    let mut cur = tree.scan_all().unwrap();
    while let Some((k, rid)) = cur.next_entry().unwrap() {
        let vals = decode_key(k).unwrap();
        out.push((vals[0].as_int().unwrap(), rid));
    }
    out
}

/// Apply `ops` to both the tree and the model, checking each step.
fn run_ops(tree: &mut BTree, model: &mut BTreeSet<(i64, u32)>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Insert(k, r) => {
                let res = tree.insert(&[Value::Int(k)], Rid::new(PageId(r), 0));
                if model.insert((k, r)) {
                    assert!(res.is_ok());
                } else {
                    assert!(res.is_err(), "duplicate must be rejected");
                }
            }
            Op::Delete(k, r) => {
                let removed = tree
                    .delete(&[Value::Int(k)], Rid::new(PageId(r), 0))
                    .unwrap();
                assert_eq!(removed, model.remove(&(k, r)));
            }
            Op::Seek(k) => {
                let mut cur = tree.seek(&[Value::Int(k)]).unwrap();
                let got = cur.next_entry().unwrap().map(|(key, rid)| {
                    (
                        decode_key(key).unwrap()[0].as_int().unwrap(),
                        rid.page.raw(),
                    )
                });
                let want = model.range((k, 0)..).next().copied();
                assert_eq!(got, want, "seek({k}) diverged from model");
            }
        }
    }
}

fn assert_matches_model(tree: &BTree, model: &BTreeSet<(i64, u32)>) {
    let got = tree_entries(tree);
    let want: Vec<(i64, Rid)> = model
        .iter()
        .map(|&(k, r)| (k, Rid::new(PageId(r), 0)))
        .collect();
    assert_eq!(got, want);
}

props! {
    config: Config::with_cases(48);

    fn matches_ordered_set_model(ops in vec_of(op_strategy(), 1..300)) {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        let mut model: BTreeSet<(i64, u32)> = BTreeSet::new();
        run_ops(&mut tree, &mut model, ops);
        assert_matches_model(&tree, &model);
        assert_eq!(tree.entry_count() as usize, model.len());
    }

    fn matches_model_on_presplit_tree(ops in vec_of(op_strategy(), 1..200)) {
        // Same model test, but starting from a tree big enough to have
        // split (multi-level), so separator-boundary behaviour is
        // exercised — a descent bug here once survived the small-tree
        // variant above.
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        let mut model: BTreeSet<(i64, u32)> = BTreeSet::new();
        for i in 0..1500i64 {
            let (k, r) = (i % 200, (i / 200) as u32 + 100);
            tree.insert(&[Value::Int(k)], Rid::new(PageId(r), 0)).unwrap();
            model.insert((k, r));
        }
        assert!(tree.height() >= 2, "pre-population must split");
        run_ops(&mut tree, &mut model, ops);
        assert_matches_model(&tree, &model);
    }

    fn bulk_load_matches_model(keys in btree_set_of((0i64..100_000, 0u32..4), 0..2000)) {
        let entries: Vec<(Vec<Value>, Rid)> = keys
            .iter()
            .map(|&(k, r)| (vec![Value::Int(k)], Rid::new(PageId(r), 0)))
            .collect();
        let tree = BTree::bulk_load(Arc::new(Pager::new()), entries).unwrap();
        let got = tree_entries(&tree);
        let want: Vec<(i64, Rid)> = keys
            .iter()
            .map(|&(k, r)| (k, Rid::new(PageId(r), 0)))
            .collect();
        assert_eq!(got, want);
    }

    fn durable_tree_round_trips_through_commit_and_reopen(
        ops in vec_of(op_strategy(), 1..200),
    ) {
        // Tiny cache on odd-length scripts: dirty pages pin, clean ones
        // evict, and the post-reopen verification must refetch from the
        // file backend.
        let cache_pages = if ops.len() % 2 == 0 { 0 } else { 8 };
        let opts = DurableOptions {
            cache_pages,
            group_commit: 1,
            checkpoint_wal_bytes: 0,
        };
        let vfs = MemVfs::new();
        let mut model: BTreeSet<(i64, u32)> = BTreeSet::new();
        let parts = {
            let open = Pager::open_durable(Arc::new(vfs.clone()), opts.clone()).unwrap();
            let pager = Arc::new(open.pager);
            let mut tree = BTree::create(Arc::clone(&pager)).unwrap();
            // Commit mid-script too, so reopen replays a WAL whose tail
            // rewrites pages an earlier checkpoint already wrote back.
            let mid = ops.len() / 2;
            run_ops(&mut tree, &mut model, &ops[..mid]);
            pager.commit(b"mid").unwrap();
            pager.checkpoint().unwrap();
            run_ops(&mut tree, &mut model, &ops[mid..]);
            pager.commit(b"end").unwrap();
            if ops.len() % 3 == 0 {
                pager.checkpoint().unwrap();
            }
            (
                tree.root(),
                tree.height(),
                tree.pages().to_vec(),
                tree.leaf_count(),
                tree.entry_count(),
            )
        };

        let open = Pager::open_durable(Arc::new(vfs), opts).unwrap();
        assert_eq!(open.app_deltas.last().unwrap_or(&open.app_image), b"end");
        let (root, height, pages, leaves, entries) = parts;
        let mut tree =
            BTree::from_parts(Arc::new(open.pager), root, height, pages, leaves, entries);
        assert_matches_model(&tree, &model);
        assert_eq!(tree.entry_count() as usize, model.len());
        // Seeks against the recovered tree still match the model.
        run_ops(
            &mut tree,
            &mut model,
            &[Op::Seek(0), Op::Seek(100), Op::Seek(219)],
        );
    }

    fn composite_keys_scan_in_tuple_order(
        pairs in btree_set_of((0i64..50, 0i64..50), 0..500),
    ) {
        let entries: Vec<(Vec<Value>, Rid)> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                (vec![Value::Int(a), Value::Int(b)], Rid::new(PageId(i as u32), 0))
            })
            .collect();
        let mut sorted = entries.clone();
        sorted.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.cmp(&y.1)));
        let tree = BTree::bulk_load(Arc::new(Pager::new()), sorted).unwrap();
        let mut cur = tree.scan_all().unwrap();
        let mut prev: Option<Vec<Value>> = None;
        let mut n = 0;
        while let Some((k, _)) = cur.next_entry().unwrap() {
            let vals = decode_key(k).unwrap();
            if let Some(p) = &prev {
                assert!(p <= &vals, "scan out of order");
            }
            prev = Some(vals);
            n += 1;
        }
        assert_eq!(n, pairs.len());
    }
}

// --- Byte-key index build -----------------------------------------------

/// Key columns over rows `(INT, STR, INT)`: one `INT`, and composite
/// keys with the `STR` column first and second.
const KEYS: [&[usize]; 4] = [&[0], &[0, 1], &[1, 2], &[2, 0, 1]];

/// A heap of `rows` on a pager of its own, so two identical heaps give
/// their trees identical page ids.
fn heap_of(rows: &[(i64, String, i64)]) -> HeapFile {
    let mut heap = HeapFile::create(Arc::new(Pager::new()));
    let mut bytes = Vec::new();
    for (a, s, b) in rows {
        bytes.clear();
        encode_row(
            &[Value::Int(*a), Value::from(s.as_str()), Value::Int(*b)],
            &mut bytes,
        );
        heap.insert(&bytes).unwrap();
    }
    heap
}

/// The build over decoded values: scan, decode each key, sort by
/// `(values, rid)`, bulk load.
fn value_build(heap: &HeapFile, cols: &[usize]) -> BTree {
    let mut entries: Vec<(Vec<Value>, Rid)> = Vec::new();
    let mut scan = heap.scan();
    while let Some((rid, row)) = scan.next_row().unwrap() {
        entries.push((cols.iter().map(|&c| row.value(c).unwrap()).collect(), rid));
    }
    entries.sort();
    BTree::bulk_load(heap.pager().clone(), entries).unwrap()
}

props! {
    config: Config::with_cases(16);

    fn byte_key_build_matches_value_build(
        rows in vec_of(
            (
                one_of![4 => -3i64..4, 1 => Just(i64::MIN), 1 => Just(i64::MAX)],
                string_of("ab\0", 0..4),
                -2i64..3,
            ),
            0..1200,
        ),
        key in 0usize..4,
    ) {
        let cols = KEYS[*key];
        let (by_value, by_bytes) = (heap_of(rows), heap_of(rows));
        let before = (by_value.pager().stats(), by_bytes.pager().stats());
        let want = value_build(&by_value, cols);
        let got = BTree::build_from_heap(&by_bytes, cols).unwrap();
        assert_eq!(
            by_bytes.pager().stats().delta(before.1),
            by_value.pager().stats().delta(before.0),
            "build I/O"
        );
        assert_eq!(
            (got.leaf_count(), got.height(), got.page_count(), got.entry_count()),
            (want.leaf_count(), want.height(), want.page_count(), want.entry_count()),
        );
        let (mut a, mut b) = (got.scan_all().unwrap(), want.scan_all().unwrap());
        while let Some((key, rid)) = a.next_entry().unwrap() {
            assert_eq!(Some((key, rid)), b.next_entry().unwrap());
        }
        assert!(b.next_entry().unwrap().is_none());
        for &p in got.pages() {
            let (x, y) = (by_bytes.pager().read(p).unwrap(), by_value.pager().read(p).unwrap());
            assert!(x[..] == y[..], "page {p:?} differs");
        }
    }
}

/// The loader's I/O, shape and page bytes on fixed inputs, recorded from
/// the `Vec<Value>`-keyed loader the byte-key one replaced: `CREATE
/// INDEX`'s measured transition cost and the tree it leaves must not
/// move with the loader's implementation.
#[test]
fn bulk_load_io_and_pages_are_pinned() {
    let pinned = [
        (false, (46, 94, 48), (47, 2, 48), 0xba97_31c0_1ec1_d16f_u64),
        (true, (65, 132, 67), (66, 2, 67), 0x4c53_4736_063b_1c25),
    ];
    for (composite, io_want, shape_want, crc_want) in pinned {
        let mut entries: Vec<(Vec<Value>, Rid)> = (0..20_000i64)
            .map(|i| {
                let mut key = vec![Value::Int((i * 7919) % 5_000 - 2_500)];
                if composite {
                    key.push(Value::from(format!("s\0{}", i % 13).as_str()));
                }
                (key, Rid::new(PageId((i / 200) as u32), (i % 200) as u16))
            })
            .collect();
        entries.sort();
        let pager = Arc::new(Pager::new());
        let before = pager.stats();
        let tree = BTree::bulk_load(pager.clone(), entries).unwrap();
        let io = pager.stats().delta(before);
        let mut bytes = Vec::new();
        for &p in tree.pages() {
            bytes.extend_from_slice(&pager.read(p).unwrap()[..]);
        }
        assert_eq!(
            (io.reads, io.writes, io.allocs),
            io_want,
            "composite {composite}"
        );
        assert_eq!(
            (tree.leaf_count(), tree.height(), tree.page_count()),
            shape_want,
            "composite {composite}"
        );
        assert_eq!(crc64(&bytes), crc_want, "composite {composite}");
    }
}

// --- Corruption negatives ----------------------------------------------

type Parts = (PageId, u32, Vec<PageId>, u64, u64);

/// A checkpointed multi-level tree on a `MemVfs`, ready to be damaged.
fn checkpointed_tree(vfs: &MemVfs) -> Parts {
    let opts = DurableOptions {
        // Evict everything evictable so post-reopen reads must hit the
        // (damaged) file backend rather than a warm cache.
        cache_pages: 1,
        group_commit: 1,
        checkpoint_wal_bytes: 0,
    };
    let open = Pager::open_durable(Arc::new(vfs.clone()), opts).unwrap();
    let pager = Arc::new(open.pager);
    let mut tree = BTree::create(Arc::clone(&pager)).unwrap();
    for i in 0..1500i64 {
        tree.insert(
            &[Value::Int(i % 200)],
            Rid::new(PageId((i / 200) as u32), 0),
        )
        .unwrap();
    }
    assert!(tree.height() >= 2);
    pager.commit(b"tree").unwrap();
    pager.checkpoint().unwrap();
    (
        tree.root(),
        tree.height(),
        tree.pages().to_vec(),
        tree.leaf_count(),
        tree.entry_count(),
    )
}

/// Reopen over (possibly damaged) bytes and fully scan the tree;
/// `Ok(n)` is the entry count, `Err` is the clean failure under test.
fn reopen_and_scan(vfs: &MemVfs, parts: &Parts) -> cdpd_types::Result<usize> {
    let opts = DurableOptions {
        cache_pages: 1,
        group_commit: 1,
        checkpoint_wal_bytes: 0,
    };
    let open = Pager::open_durable(Arc::new(vfs.clone()), opts)?;
    let (root, height, pages, leaves, entries) = parts.clone();
    let tree = BTree::from_parts(Arc::new(open.pager), root, height, pages, leaves, entries);
    let mut cur = tree.scan_all()?;
    let mut n = 0;
    while cur.next_entry()?.is_some() {
        n += 1;
    }
    Ok(n)
}

/// A bit flip in any committed data page is detected by the page
/// checksum: reads fail cleanly instead of decoding garbage.
#[test]
fn torn_or_flipped_data_pages_fail_reads_cleanly() {
    let vfs = MemVfs::new();
    let parts = checkpointed_tree(&vfs);
    assert_eq!(reopen_and_scan(&vfs, &parts).unwrap(), 1500);

    // Flip one byte in every page so the scan cannot dodge the damage.
    let mut data = vfs.snapshot("data").unwrap();
    for page in data.chunks_mut(PAGE_SIZE) {
        page[page.len() / 3] ^= 0x40;
    }
    vfs.overwrite("data", data);
    let err = reopen_and_scan(&vfs, &parts).expect_err("corruption must not decode");
    assert!(
        err.to_string().contains("checksum") || err.to_string().contains("corrupt"),
        "unexpected error shape: {err}"
    );

    // A torn (short) data file fails cleanly too.
    let vfs = MemVfs::new();
    let parts = checkpointed_tree(&vfs);
    let data = vfs.snapshot("data").unwrap();
    vfs.overwrite("data", data[..data.len() / 2].to_vec());
    reopen_and_scan(&vfs, &parts).expect_err("torn data file must not decode");
}

/// Damage to the checksum file itself is just as fatal — a stale or
/// truncated `sums` must never vouch for the wrong bytes.
#[test]
fn corrupt_checksum_file_fails_cleanly() {
    let vfs = MemVfs::new();
    let parts = checkpointed_tree(&vfs);

    let sums = vfs.snapshot("sums").unwrap();
    let mut bad = sums.clone();
    for b in bad.iter_mut() {
        *b ^= 0x11;
    }
    vfs.overwrite("sums", bad);
    reopen_and_scan(&vfs, &parts).expect_err("mismatched checksums must not verify");

    vfs.overwrite("sums", sums[..sums.len() / 2].to_vec());
    reopen_and_scan(&vfs, &parts).expect_err("truncated checksum file must not verify");
}
