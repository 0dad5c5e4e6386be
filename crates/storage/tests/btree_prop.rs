//! Property tests: the paged B+-tree must behave exactly like an
//! in-memory ordered map over `(values, rid)` keys, under arbitrary
//! interleavings of inserts and deletes, and seeks must match the
//! model's range queries. `CREATE INDEX`'s byte-key build
//! ([`BTree::build_from_heap`]) must produce, page for page and I/O for
//! I/O, the tree a build over decoded `(values, rid)` entries produces.
//! Inserts and deletes, which edit a leaf's bytes in place, must match
//! op for op the decode → edit → encode path they replaced (`mod
//! reference`): same answer, pager calls, tree shape and page bytes.
//! The arena build must match the build that kept one key vector per
//! row (also in `mod reference`) the same way, over heaps with deleted,
//! rewritten and moved rows.
//!
//! The durable variants run the same model against a file-backed pager:
//! mutate → commit → checkpoint → reopen must reattach the identical
//! tree (with both unbounded and tiny page caches, so recovery reads go
//! through eviction + backend refetch), and corrupted data or checksum
//! files must surface as clean [`Err`]s — never as wrong answers or UB.

use cdpd_storage::codec::{decode_key, decode_rid, encode_row, RID_LEN};
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

// --- In-place leaf edits against the decode → edit → encode path --------

/// The entry insert and delete that decoded a whole node into owned
/// entries, changed one entry and encoded a fresh page image, kept as
/// the oracle for the in-place leaf edits that replaced them: same
/// pager calls, same page images, same tree shape. Also the index build
/// that gave every row's key a vector of its own, the oracle for the
/// arena build that replaced it.
mod reference {
    use cdpd_storage::codec::{encode_key, encode_rid, RID_LEN};
    use cdpd_storage::{BTree, HeapFile, Pager, PAGE_SIZE};
    use cdpd_types::{Error, PageId, Result, Rid, Value};
    use std::sync::Arc;

    /// `CREATE INDEX`'s build over one `Vec<u8>` key per row: scan,
    /// encode `key ++ rid`, sort the vectors, bulk load.
    pub fn build_from_heap(heap: &HeapFile, columns: &[usize]) -> Result<BTree> {
        let mut keys = Vec::with_capacity(heap.row_count() as usize);
        let mut scan = heap.scan();
        while let Some((rid, row)) = scan.next_row()? {
            let mut key = Vec::with_capacity(9 * columns.len() + RID_LEN);
            for &col in columns {
                row.encode_key_column(col, &mut key)?;
            }
            encode_rid(rid, &mut key);
            keys.push(key);
        }
        keys.sort_unstable();
        BTree::bulk_load_keys(heap.pager().clone(), keys)
    }

    const LEAF: u8 = 1;
    const INTERNAL: u8 = 2;
    const LEAF_HDR: usize = 7;
    const INT_HDR: usize = 7;

    fn rd_u16(buf: &[u8], off: usize) -> u16 {
        u16::from_le_bytes([buf[off], buf[off + 1]])
    }

    fn rd_u32(buf: &[u8], off: usize) -> u32 {
        u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
    }

    enum OwnedNode {
        Leaf {
            entries: Vec<Vec<u8>>,
            next: Option<PageId>,
        },
        Internal {
            keys: Vec<Vec<u8>>,
            children: Vec<PageId>,
        },
    }

    impl OwnedNode {
        fn decode(page: &[u8; PAGE_SIZE]) -> Result<OwnedNode> {
            match page[0] {
                LEAF => {
                    let count = rd_u16(page, 1) as usize;
                    let next = match rd_u32(page, 3) {
                        0 => None,
                        n => Some(PageId(n - 1)),
                    };
                    let mut entries = Vec::with_capacity(count);
                    let mut off = LEAF_HDR;
                    for _ in 0..count {
                        let klen = rd_u16(page, off) as usize;
                        off += 2;
                        entries.push(page[off..off + klen].to_vec());
                        off += klen;
                    }
                    Ok(OwnedNode::Leaf { entries, next })
                }
                INTERNAL => {
                    let count = rd_u16(page, 1) as usize;
                    let mut children = Vec::with_capacity(count + 1);
                    children.push(PageId(rd_u32(page, 3)));
                    let mut keys = Vec::with_capacity(count);
                    let mut off = INT_HDR;
                    for _ in 0..count {
                        let klen = rd_u16(page, off) as usize;
                        off += 2;
                        keys.push(page[off..off + klen].to_vec());
                        off += klen;
                        children.push(PageId(rd_u32(page, off)));
                        off += 4;
                    }
                    Ok(OwnedNode::Internal { keys, children })
                }
                t => Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
            }
        }

        fn encode(&self) -> [u8; PAGE_SIZE] {
            let mut buf = [0u8; PAGE_SIZE];
            match self {
                OwnedNode::Leaf { entries, next } => {
                    buf[0] = LEAF;
                    buf[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                    let next_enc = next.map_or(0, |p| p.raw() + 1);
                    buf[3..7].copy_from_slice(&next_enc.to_le_bytes());
                    let mut off = LEAF_HDR;
                    for e in entries {
                        buf[off..off + 2].copy_from_slice(&(e.len() as u16).to_le_bytes());
                        off += 2;
                        buf[off..off + e.len()].copy_from_slice(e);
                        off += e.len();
                    }
                }
                OwnedNode::Internal { keys, children } => {
                    buf[0] = INTERNAL;
                    buf[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                    buf[3..7].copy_from_slice(&children[0].raw().to_le_bytes());
                    let mut off = INT_HDR;
                    for (k, c) in keys.iter().zip(&children[1..]) {
                        buf[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                        off += 2;
                        buf[off..off + k.len()].copy_from_slice(k);
                        off += k.len();
                        buf[off..off + 4].copy_from_slice(&c.raw().to_le_bytes());
                        off += 4;
                    }
                }
            }
            buf
        }

        fn encoded_size(&self) -> usize {
            match self {
                OwnedNode::Leaf { entries, .. } => {
                    LEAF_HDR + entries.iter().map(|e| 2 + e.len()).sum::<usize>()
                }
                OwnedNode::Internal { keys, .. } => {
                    INT_HDR + keys.iter().map(|k| 2 + k.len() + 4).sum::<usize>()
                }
            }
        }
    }

    fn full_key(values: &[Value], rid: Rid) -> Vec<u8> {
        let mut key = encode_key(values);
        encode_rid(rid, &mut key);
        key
    }

    fn descend_index(page: &[u8; PAGE_SIZE], probe: &[u8]) -> usize {
        let count = rd_u16(page, 1) as usize;
        let mut off = INT_HDR;
        let mut idx = 0;
        for _ in 0..count {
            let klen = rd_u16(page, off) as usize;
            let key = &page[off + 2..off + 2 + klen];
            if key <= probe {
                idx += 1;
            } else {
                break;
            }
            off += 2 + klen + 4;
        }
        idx
    }

    fn child_at(page: &[u8; PAGE_SIZE], idx: usize) -> PageId {
        if idx == 0 {
            return PageId(rd_u32(page, 3));
        }
        let count = rd_u16(page, 1) as usize;
        let mut off = INT_HDR;
        for i in 0..count {
            let klen = rd_u16(page, off) as usize;
            off += 2 + klen;
            if i + 1 == idx {
                return PageId(rd_u32(page, off));
            }
            off += 4;
        }
        unreachable!("child index out of range")
    }

    /// A tree's shape, mutated by the reference insert and delete.
    pub struct RefTree {
        pub pager: Arc<Pager>,
        pub root: PageId,
        pub height: u32,
        pub pages: Vec<PageId>,
        pub leaf_count: u64,
        pub entry_count: u64,
    }

    impl RefTree {
        /// The shape of `tree`, over `pager` (a page-for-page copy of
        /// the tree's own pager).
        pub fn adopt(pager: Arc<Pager>, tree: &BTree) -> RefTree {
            RefTree {
                pager,
                root: tree.root(),
                height: tree.height(),
                pages: tree.pages().to_vec(),
                leaf_count: tree.leaf_count(),
                entry_count: tree.entry_count(),
            }
        }

        pub fn insert(&mut self, values: &[Value], rid: Rid) -> Result<()> {
            let key = full_key(values, rid);
            if 2 + key.len() + LEAF_HDR > PAGE_SIZE {
                return Err(Error::TooLarge(format!("index key of {} bytes", key.len())));
            }
            let mut path: Vec<(PageId, usize)> = Vec::new();
            let mut pid = self.root;
            loop {
                let page = self.pager.read(pid)?;
                match page[0] {
                    LEAF => break,
                    INTERNAL => {
                        let idx = descend_index(&page, &key);
                        path.push((pid, idx));
                        pid = child_at(&page, idx);
                    }
                    t => return Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
                }
            }
            let page = self.pager.read(pid)?;
            let mut node = OwnedNode::decode(&page)?;
            let OwnedNode::Leaf { entries, next: _ } = &mut node else {
                return Err(Error::Corrupt("descent did not reach a leaf".into()));
            };
            let pos = entries.partition_point(|e| e.as_slice() < key.as_slice());
            if entries.get(pos).is_some_and(|e| *e == key) {
                return Err(Error::AlreadyExists("duplicate (key, rid) in index".into()));
            }
            entries.insert(pos, key);
            self.entry_count += 1;
            if node.encoded_size() <= PAGE_SIZE {
                self.pager.write(pid, Arc::new(node.encode()))?;
                return Ok(());
            }
            let OwnedNode::Leaf { entries, next } = node else {
                unreachable!()
            };
            let mid = entries.len() / 2;
            let mut left_entries = entries;
            let right_entries = left_entries.split_off(mid);
            let sep = right_entries[0].clone();
            let right_pid = self.pager.allocate();
            self.pages.push(right_pid);
            self.leaf_count += 1;
            let right = OwnedNode::Leaf {
                entries: right_entries,
                next,
            };
            let left = OwnedNode::Leaf {
                entries: left_entries,
                next: Some(right_pid),
            };
            self.pager.write(right_pid, Arc::new(right.encode()))?;
            self.pager.write(pid, Arc::new(left.encode()))?;
            self.insert_separator(path, sep, right_pid)
        }

        fn insert_separator(
            &mut self,
            mut path: Vec<(PageId, usize)>,
            mut sep: Vec<u8>,
            mut right: PageId,
        ) -> Result<()> {
            while let Some((pid, idx)) = path.pop() {
                let page = self.pager.read(pid)?;
                let mut node = OwnedNode::decode(&page)?;
                let OwnedNode::Internal { keys, children } = &mut node else {
                    return Err(Error::Corrupt("path node is not internal".into()));
                };
                keys.insert(idx, sep);
                children.insert(idx + 1, right);
                if node.encoded_size() <= PAGE_SIZE {
                    self.pager.write(pid, Arc::new(node.encode()))?;
                    return Ok(());
                }
                let OwnedNode::Internal { keys, children } = node else {
                    unreachable!()
                };
                let mid = keys.len() / 2;
                let mut lk = keys;
                let rk = lk.split_off(mid + 1);
                let up = lk.pop().expect("mid separator exists");
                let mut lc = children;
                let rc = lc.split_off(mid + 1);
                let right_pid = self.pager.allocate();
                self.pages.push(right_pid);
                let right_node = OwnedNode::Internal {
                    keys: rk,
                    children: rc,
                };
                self.pager.write(right_pid, Arc::new(right_node.encode()))?;
                let left_node = OwnedNode::Internal {
                    keys: lk,
                    children: lc,
                };
                self.pager.write(pid, Arc::new(left_node.encode()))?;
                sep = up;
                right = right_pid;
            }
            let new_root = self.pager.allocate();
            self.pages.push(new_root);
            let node = OwnedNode::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            self.pager.write(new_root, Arc::new(node.encode()))?;
            self.root = new_root;
            self.height += 1;
            Ok(())
        }

        pub fn delete(&mut self, values: &[Value], rid: Rid) -> Result<bool> {
            let key = full_key(values, rid);
            let mut pid = self.root;
            loop {
                let page = self.pager.read(pid)?;
                match page[0] {
                    LEAF => {
                        let mut node = OwnedNode::decode(&page)?;
                        let OwnedNode::Leaf { entries, .. } = &mut node else {
                            unreachable!()
                        };
                        let pos = entries.partition_point(|e| e.as_slice() < key.as_slice());
                        if entries.get(pos).is_some_and(|e| *e == key) {
                            entries.remove(pos);
                            self.entry_count -= 1;
                            self.pager.write(pid, Arc::new(node.encode()))?;
                            return Ok(true);
                        }
                        return Ok(false);
                    }
                    INTERNAL => {
                        let idx = descend_index(&page, &key);
                        pid = child_at(&page, idx);
                    }
                    t => return Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
                }
            }
        }

        /// The full keys of leaf `n` (counted along the leaf chain,
        /// modulo the leaf count), in order.
        pub fn leaf_keys(&self, n: usize) -> Vec<Vec<u8>> {
            let mut pid = self.root;
            let mut page = self.pager.read(pid).unwrap();
            while page[0] == INTERNAL {
                pid = child_at(&page, 0);
                page = self.pager.read(pid).unwrap();
            }
            for _ in 0..n % self.leaf_count as usize {
                let next = rd_u32(&page[..], 3);
                page = self.pager.read(PageId(next - 1)).unwrap();
            }
            let OwnedNode::Leaf { entries, .. } = OwnedNode::decode(&page).unwrap() else {
                unreachable!("the leaf chain holds leaves")
            };
            entries
        }
    }
}

/// Three key shapes: `INT`; composite `(INT, STR)`; and one `STR` of
/// 0.6–1.2 KB, so a node holds 6–13 entries and inserts split leaves
/// and internal nodes often. The `STR` band stays within a factor of
/// two: a split halves a node by entry count, and keys more skewed than
/// that can leave one half larger than a page.
fn shaped_key(shape: u8, k: u16) -> Vec<Value> {
    match shape {
        0 => vec![Value::Int(i64::from(k) - 200)],
        1 => vec![
            Value::Int(i64::from(k % 16) - 8),
            Value::from(format!("{}\0{}", k / 16, "y".repeat(usize::from(k) % 50)).as_str()),
        ],
        _ => vec![Value::from(
            format!("{k}\0{}", "z".repeat(600 + usize::from(k) * 131 % 600)).as_str(),
        )],
    }
}

#[derive(Clone, Debug)]
enum EntryOp {
    /// Insert `(shaped_key(k), rid r)`.
    Insert(u16, u32),
    /// Delete `(shaped_key(k), rid r)`, present or not.
    Delete(u16, u32),
    /// Re-insert entry `j` of leaf `i`: `AlreadyExists`, no write.
    InsertPresent(usize, usize),
    /// Delete entry `j` of leaf `i`; `j = 0` on a non-leftmost leaf is
    /// the key its parent separator equals.
    DeletePresent(usize, usize),
    /// Delete every entry of leaf `i`, leaving it empty in the chain.
    DrainLeaf(usize),
}

fn entry_op_strategy() -> impl Strategy<Value = EntryOp> {
    one_of![
        6 => (0u16..400, 0u32..3).prop_map(|(k, r)| EntryOp::Insert(k, r)),
        2 => (0u16..400, 0u32..3).prop_map(|(k, r)| EntryOp::Delete(k, r)),
        1 => (0usize..64, 0usize..64).prop_map(|(i, j)| EntryOp::InsertPresent(i, j)),
        2 => (0usize..64, 0usize..64).prop_map(|(i, j)| EntryOp::DeletePresent(i, j)),
        2 => (0usize..64).prop_map(|i| EntryOp::DeletePresent(i, 0)),
        1 => (0usize..64).prop_map(EntryOp::DrainLeaf),
    ]
}

/// A full key back into the `(values, rid)` the public API takes.
fn split_key(key: &[u8]) -> (Vec<Value>, Rid) {
    let (values, rid) = key.split_at(key.len() - RID_LEN);
    (decode_key(values).unwrap(), decode_rid(rid).unwrap())
}

/// Apply one insert or delete to both trees and require the same
/// answer, the same pager calls, the same shape and the same bytes in
/// every page.
fn apply_both(
    tree: &mut BTree,
    reference: &mut reference::RefTree,
    insert: bool,
    (values, rid): &(Vec<Value>, Rid),
) {
    let (got_pager, want_pager) = (tree.pager().clone(), reference.pager.clone());
    let before = (got_pager.stats(), want_pager.stats());
    let (got, want) = if insert {
        let got = tree.insert(values, *rid);
        (
            format!("{got:?}"),
            format!("{:?}", reference.insert(values, *rid)),
        )
    } else {
        let got = tree.delete(values, *rid);
        (
            format!("{got:?}"),
            format!("{:?}", reference.delete(values, *rid)),
        )
    };
    let op = if insert { "insert" } else { "delete" };
    assert_eq!(got, want, "{op} {values:?} {rid:?}: result");
    assert_eq!(
        got_pager.stats().delta(before.0),
        want_pager.stats().delta(before.1),
        "{op} {values:?} {rid:?}: pager reads, writes and allocations"
    );
    assert_eq!(
        (
            tree.root(),
            tree.height(),
            tree.pages(),
            tree.leaf_count(),
            tree.entry_count()
        ),
        (
            reference.root,
            reference.height,
            reference.pages.as_slice(),
            reference.leaf_count,
            reference.entry_count
        ),
        "{op} {values:?} {rid:?}: tree shape"
    );
    for &p in tree.pages() {
        let (a, b) = (got_pager.read(p).unwrap(), want_pager.read(p).unwrap());
        assert_eq!(crc64(&a[..]), crc64(&b[..]), "{op}: page {p:?} bytes");
    }
}

props! {
    config: Config::with_cases(48);

    fn in_place_edits_match_reference(
        shape in 0u8..3,
        preload in btree_set_of((0u16..400, 0u32..3), 0..160),
        ops in vec_of(entry_op_strategy(), 1..200),
    ) {
        let entries: Vec<(Vec<Value>, Rid)> = preload
            .iter()
            .map(|&(k, r)| (shaped_key(*shape, k), Rid::new(PageId(r), 0)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut tree = BTree::bulk_load(Arc::new(Pager::new()), entries.clone()).unwrap();
        let copy = Arc::new(Pager::new());
        BTree::bulk_load(copy.clone(), entries).unwrap();
        let mut reference = reference::RefTree::adopt(copy, &tree);
        for op in ops {
            match *op {
                EntryOp::Insert(k, r) | EntryOp::Delete(k, r) => {
                    let entry = (shaped_key(*shape, k), Rid::new(PageId(r), 0));
                    let insert = matches!(op, EntryOp::Insert(..));
                    apply_both(&mut tree, &mut reference, insert, &entry);
                }
                EntryOp::InsertPresent(i, j) | EntryOp::DeletePresent(i, j) => {
                    let keys = reference.leaf_keys(i);
                    if let Some(key) = keys.get(j % keys.len().max(1)) {
                        let insert = matches!(op, EntryOp::InsertPresent(..));
                        apply_both(&mut tree, &mut reference, insert, &split_key(key));
                    }
                }
                EntryOp::DrainLeaf(i) => {
                    for key in reference.leaf_keys(i) {
                        apply_both(&mut tree, &mut reference, false, &split_key(&key));
                    }
                }
            }
        }
    }
}

// --- Arena index build against the per-row-key build ---------------------

/// One change to a heap of `(INT, STR)` rows. Row indices pick among
/// the live rows, modulo their number.
#[derive(Clone, Debug)]
enum HeapOp {
    /// Append a row.
    Insert(i64, String),
    /// Delete `len` consecutive live rows from the `i`-th on: long runs
    /// empty whole pages.
    DeleteRun(usize, usize),
    /// Rewrite the `i`-th live row: in place when it does not grow,
    /// else it moves to the end of the heap.
    Rewrite(usize, i64, String),
}

fn heap_row() -> impl Strategy<Value = (i64, String)> {
    (
        one_of![4 => -3i64..4, 1 => Just(i64::MIN), 1 => Just(i64::MAX)],
        string_of("ab\0z", 0..24),
    )
}

fn heap_op_strategy() -> impl Strategy<Value = HeapOp> {
    one_of![
        3 => heap_row().prop_map(|(a, s)| HeapOp::Insert(a, s)),
        2 => (0usize..2048, 1usize..8).prop_map(|(i, n)| HeapOp::DeleteRun(i, n)),
        1 => (0usize..2048, 200usize..700).prop_map(|(i, n)| HeapOp::DeleteRun(i, n)),
        3 => (0usize..2048, heap_row()).prop_map(|(i, (a, s))| HeapOp::Rewrite(i, a, s)),
    ]
}

/// Load `rows`, then apply `ops`, on a pager of its own.
fn heap_after(rows: &[(i64, String)], ops: &[HeapOp]) -> HeapFile {
    let encode = |a: i64, s: &str| {
        let mut bytes = Vec::new();
        encode_row(&[Value::Int(a), Value::from(s)], &mut bytes);
        bytes
    };
    let mut heap = HeapFile::create(Arc::new(Pager::new()));
    let mut live: Vec<Rid> = rows
        .iter()
        .map(|(a, s)| heap.insert(&encode(*a, s)).unwrap())
        .collect();
    for op in ops {
        match op {
            HeapOp::Insert(a, s) => live.push(heap.insert(&encode(*a, s)).unwrap()),
            HeapOp::DeleteRun(i, n) if !live.is_empty() => {
                let from = i % live.len();
                let to = live.len().min(from + n);
                for rid in live.drain(from..to) {
                    assert!(heap.delete(rid).unwrap());
                }
            }
            HeapOp::Rewrite(i, a, s) if !live.is_empty() => {
                let at = i % live.len();
                live[at] = heap.update(live[at], &encode(*a, s)).unwrap();
            }
            _ => {}
        }
    }
    heap
}

/// Key columns over `(INT, STR)` rows: `INT`, composite `(INT, STR)`
/// and `STR`.
const HEAP_KEYS: [&[usize]; 3] = [&[0], &[0, 1], &[1]];

props! {
    config: Config::with_cases(16);

    fn arena_build_matches_reference(
        rows in vec_of(heap_row(), 0..1500),
        ops in vec_of(heap_op_strategy(), 0..40),
        key in 0usize..3,
    ) {
        let cols = HEAP_KEYS[*key];
        let (ours, theirs) = (heap_after(rows, ops), heap_after(rows, ops));
        let (got_pager, want_pager) = (ours.pager().clone(), theirs.pager().clone());
        let before = (got_pager.stats(), want_pager.stats());
        let got = BTree::build_from_heap(&ours, cols);
        let want = reference::build_from_heap(&theirs, cols);
        assert_eq!(
            got_pager.stats().delta(before.0),
            want_pager.stats().delta(before.1),
            "build: pager reads, writes and allocations"
        );
        let (got, want) = match (got, want) {
            (Ok(got), Ok(want)) => (got, want),
            (got, want) => panic!(
                "build results differ: {:?} vs {:?}",
                got.err(),
                want.err()
            ),
        };
        assert_eq!(
            (got.root(), got.height(), got.pages(), got.leaf_count(), got.entry_count()),
            (want.root(), want.height(), want.pages(), want.leaf_count(), want.entry_count()),
            "tree shape"
        );
        assert_eq!(got.entry_count(), ours.row_count());
        for &p in got.pages() {
            let (a, b) = (got_pager.read(p).unwrap(), want_pager.read(p).unwrap());
            assert_eq!(crc64(&a[..]), crc64(&b[..]), "page {p:?} bytes");
        }
    }
}
