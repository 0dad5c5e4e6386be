//! Property tests: the paged B+-tree must behave exactly like an
//! in-memory ordered map over `(values, rid)` keys, under arbitrary
//! interleavings of inserts and deletes, and seeks must match the
//! model's range queries.
//!
//! The durable variants run the same model against a file-backed pager:
//! mutate → commit → checkpoint → reopen must reattach the identical
//! tree (with both unbounded and tiny page caches, so recovery reads go
//! through eviction + backend refetch), and corrupted data or checksum
//! files must surface as clean [`Err`]s — never as wrong answers or UB.

use cdpd_storage::codec::decode_key;
use cdpd_storage::{BTree, DurableOptions, MemVfs, Pager, PAGE_SIZE};
use cdpd_testkit::prop::{btree_set_of, vec_of, Config, Strategy};
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
