use crate::codec::{decode_rid, encode_key, encode_key_value, encode_rid, RID_LEN};
use crate::heap::HeapFile;
use crate::pager::{Page, Pager, PAGE_SIZE};
use cdpd_types::{Error, PageId, Result, Rid, Value};
use std::sync::Arc;

/// A paged B+-tree index over memcomparable keys.
///
/// Entry keys are `encode_key(values) ++ encode_rid(rid)`: appending the
/// record id makes every stored key unique, so duplicate *values* never
/// straddle a node boundary ambiguously and a prefix seek (e.g. probing
/// a composite index `I(a,b)` with just `a = 7`) lands on the first
/// matching entry with no duplicate-handling special cases.
///
/// Like the heap, every read operation takes `&self` over the
/// lock-striped pager — concurrent seeks and scans on one tree never
/// block each other — while structural mutation (`insert`/`delete`)
/// requires `&mut self`.
///
/// Supported operations: point/prefix [`BTree::seek`], full leftmost
/// scans ([`BTree::scan_all`], used by index-only plans), incremental
/// [`BTree::insert`] with node splits, [`BTree::delete`] (tombstone-free
/// removal, no rebalancing — like PostgreSQL, underfull nodes are
/// tolerated and reclaimed only by a rebuild), and sorted
/// [`BTree::bulk_load`] used by `CREATE INDEX`.
///
/// Every node access goes through the shared [`Pager`], so seeks cost
/// `height` logical reads, full leaf scans cost `leaf_count` reads, and
/// bulk loads cost one write per built page — exactly the accounting the
/// cost model predicts.
pub struct BTree {
    pager: Arc<Pager>,
    root: PageId,
    height: u32,
    pages: Vec<PageId>,
    leaf_count: u64,
    entry_count: u64,
}

const LEAF: u8 = 1;
const INTERNAL: u8 = 2;
const LEAF_HDR: usize = 7; // tag + count u16 + next u32
const INT_HDR: usize = 7; // tag + count u16 + child0 u32
/// Bulk-load fill fraction: leaves are packed to ~90% so a freshly built
/// index absorbs some inserts before splitting, like real systems.
const FILL_NUM: usize = 9;
const FILL_DEN: usize = 10;

fn rd_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn rd_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]])
}

/// A decoded node, used on mutation paths only; read paths walk page
/// bytes directly to stay allocation-free.
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
}

/// Full entry key: memcomparable values followed by the rid.
fn full_key(values: &[Value], rid: Rid) -> Vec<u8> {
    let mut key = Vec::with_capacity(9 * values.len() + RID_LEN);
    for v in values {
        encode_key_value(v, &mut key);
    }
    encode_rid(rid, &mut key);
    key
}

/// The 8 bytes of `key` from byte `from` on, zero-padded, as a
/// big-endian integer. Among keys that agree on their first `from`
/// bytes it never orders two keys against their byte order, so a sort
/// can compare it first and compare the full keys only when it ties.
fn sort_window(key: &[u8], from: usize) -> u64 {
    let rest = key.get(from..).unwrap_or_default();
    let mut head = [0u8; 8];
    let n = rest.len().min(8);
    head[..n].copy_from_slice(&rest[..n]);
    u64::from_be_bytes(head)
}

/// Where `key` sits in a leaf, found by walking its entries: the byte
/// offset of the first entry ≥ `key`, whether that entry is `key`
/// itself, and the end of the used bytes.
fn leaf_slot(page: &[u8; PAGE_SIZE], key: &[u8]) -> (usize, bool, usize) {
    let count = rd_u16(page, 1) as usize;
    let mut off = LEAF_HDR;
    let mut slot = None;
    for _ in 0..count {
        let klen = rd_u16(page, off) as usize;
        if slot.is_none() {
            let entry = &page[off + 2..off + 2 + klen];
            if entry >= key {
                slot = Some((off, entry == key));
            }
        }
        off += 2 + klen;
    }
    let (at, found) = slot.unwrap_or((off, false));
    (at, found, off)
}

impl BTree {
    /// Create an empty tree (a single empty leaf) on `pager`.
    pub fn create(pager: Arc<Pager>) -> Result<BTree> {
        let root = pager.allocate();
        let leaf = OwnedNode::Leaf {
            entries: Vec::new(),
            next: None,
        };
        pager.write(root, Arc::new(leaf.encode()))?;
        Ok(BTree {
            pager,
            root,
            height: 1,
            pages: vec![root],
            leaf_count: 1,
            entry_count: 0,
        })
    }

    /// `CREATE INDEX`'s scan → sort → load: index `heap` on the row
    /// columns `columns` (in key order). One pass of
    /// [`HeapFile::for_each_row`] encodes each row's `key ++ rid`
    /// straight from the row bytes into one shared byte arena, sized up
    /// front for `INT` keys. The `(start, end)` spans of those keys are
    /// sorted by their bytes (the in-memory stand-in for an external
    /// sort), comparing first the 8 bytes after the prefix every key
    /// shares, kept beside each span, and the arena's bytes only where
    /// those tie; [`BTree::bulk_load_keys`] packs the slices. Keys are
    /// unique through their rid, so the order is the byte order of the
    /// keys themselves, and nothing is allocated per row. The tree
    /// shares the heap's pager.
    pub fn build_from_heap(heap: &HeapFile, columns: &[usize]) -> Result<BTree> {
        let rows = heap.row_count() as usize;
        let mut arena = Vec::with_capacity(rows * (9 * columns.len() + RID_LEN));
        let mut spans: Vec<(u64, u32, u32)> = Vec::with_capacity(rows);
        let offset = |len: usize| {
            u32::try_from(len).map_err(|_| Error::TooLarge(format!("{len} bytes of index keys")))
        };
        heap.for_each_row(|rid, row| {
            let start = offset(arena.len())?;
            for &col in columns {
                row.encode_key_column(col, &mut arena)?;
            }
            encode_rid(rid, &mut arena);
            spans.push((0, start, offset(arena.len())?));
            Ok(())
        })?;
        let key = |&(_, start, end): &(u64, u32, u32)| &arena[start as usize..end as usize];
        // Bytes every key shares cannot order two of them: the sort
        // compares the 8 bytes after those first.
        let shared = spans.first().map_or(0, |first| {
            let first = key(first);
            spans.iter().fold(first.len(), |shared, span| {
                let other = key(span);
                first[..shared]
                    .iter()
                    .zip(other)
                    .take_while(|(a, b)| a == b)
                    .count()
            })
        });
        for span in &mut spans {
            span.0 = sort_window(key(span), shared);
        }
        spans.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| key(a).cmp(key(b))));
        BTree::bulk_load_keys(heap.pager().clone(), spans.iter().map(key))
    }

    /// Build a tree from entries **sorted by `(values, rid)`**: the
    /// [`Value`] form of [`BTree::bulk_load_keys`], which it encodes
    /// each entry for.
    ///
    /// # Errors
    /// As [`BTree::bulk_load_keys`].
    pub fn bulk_load<I>(pager: Arc<Pager>, entries: I) -> Result<BTree>
    where
        I: IntoIterator<Item = (Vec<Value>, Rid)>,
    {
        BTree::bulk_load_keys(pager, entries.into_iter().map(|(v, rid)| full_key(&v, rid)))
    }

    /// Build a tree from full entry keys (`encode_key(values) ++
    /// encode_rid(rid)`) **in strictly ascending byte order** — the
    /// order a plain byte sort gives, and, because the key codec is
    /// memcomparable, the `(values, rid)` order.
    ///
    /// Leaves are packed left to right at ~90% fill, each written
    /// straight into its page image, then internal levels are built
    /// bottom-up. Every new leaf is chained by reading its predecessor
    /// and writing it back with the link, so the build costs one write
    /// per built page plus one read and one write per leaf link: the
    /// transition I/O `CREATE INDEX` measures.
    ///
    /// # Errors
    /// Returns [`Error::InvalidArgument`] if the keys are not strictly
    /// ascending, and [`Error::TooLarge`] for a key no page can hold.
    pub fn bulk_load_keys<I>(pager: Arc<Pager>, keys: I) -> Result<BTree>
    where
        I: IntoIterator,
        I::Item: AsRef<[u8]>,
    {
        let _span = cdpd_obs::span!("btree.bulk_load");
        let budget = PAGE_SIZE * FILL_NUM / FILL_DEN;
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut image = [0u8; PAGE_SIZE];
        let mut used = LEAF_HDR;
        let mut in_leaf = 0u16;
        let mut entry_count = 0u64;
        let mut prev: Option<I::Item> = None;

        // Write the packed image as a new leaf and link its predecessor.
        let flush = |image: &mut [u8; PAGE_SIZE],
                     in_leaf: u16,
                     leaves: &mut Vec<(Vec<u8>, PageId)>|
         -> Result<()> {
            let pid = pager.allocate();
            if let Some(&(_, prev_pid)) = leaves.last() {
                let mut prev = *pager.read(prev_pid)?;
                prev[3..7].copy_from_slice(&(pid.raw() + 1).to_le_bytes());
                pager.write(prev_pid, Arc::new(prev))?;
            }
            image[0] = LEAF;
            image[1..3].copy_from_slice(&in_leaf.to_le_bytes());
            let first_len = rd_u16(&image[..], LEAF_HDR) as usize;
            let first = image[LEAF_HDR + 2..LEAF_HDR + 2 + first_len].to_vec();
            pager.write(pid, Arc::new(std::mem::replace(image, [0u8; PAGE_SIZE])))?;
            leaves.push((first, pid));
            Ok(())
        };

        for item in keys {
            let key = item.as_ref();
            if LEAF_HDR + 2 + key.len() > PAGE_SIZE {
                return Err(Error::TooLarge(format!("index key of {} bytes", key.len())));
            }
            if prev.as_ref().is_some_and(|prev| prev.as_ref() >= key) {
                return Err(Error::InvalidArgument(
                    "bulk_load input must be strictly sorted by (values, rid)".into(),
                ));
            }
            if used + 2 + key.len() > budget && in_leaf > 0 {
                flush(&mut image, in_leaf, &mut leaves)?;
                used = LEAF_HDR;
                in_leaf = 0;
            }
            image[used..used + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
            image[used + 2..used + 2 + key.len()].copy_from_slice(key);
            used += 2 + key.len();
            in_leaf += 1;
            entry_count += 1;
            prev = Some(item);
        }
        if in_leaf > 0 {
            flush(&mut image, in_leaf, &mut leaves)?;
        }
        let leaf_count = leaves.len() as u64;

        if leaves.is_empty() {
            return BTree::create(pager);
        }
        let mut pages: Vec<PageId> = leaves.iter().map(|&(_, pid)| pid).collect();

        // Build internal levels bottom-up until one node remains.
        let mut height = 1u32;
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut keys: Vec<Vec<u8>> = Vec::new();
            let mut children: Vec<PageId> = vec![level[0].1];
            let mut first_key = level[0].0.clone();
            let mut size = INT_HDR;
            for (sep, pid) in level.into_iter().skip(1) {
                if size + 2 + sep.len() + 4 > budget && !keys.is_empty() {
                    let node = OwnedNode::Internal {
                        keys: std::mem::take(&mut keys),
                        children: std::mem::replace(&mut children, vec![pid]),
                    };
                    let ipid = pager.allocate();
                    pager.write(ipid, Arc::new(node.encode()))?;
                    pages.push(ipid);
                    next_level.push((std::mem::replace(&mut first_key, sep), ipid));
                    size = INT_HDR;
                } else {
                    size += 2 + sep.len() + 4;
                    keys.push(sep);
                    children.push(pid);
                }
            }
            let node = OwnedNode::Internal { keys, children };
            let ipid = pager.allocate();
            pager.write(ipid, Arc::new(node.encode()))?;
            pages.push(ipid);
            next_level.push((first_key, ipid));
            level = next_level;
            height += 1;
        }

        cdpd_obs::counter!("storage.btree.bulk_loads").inc();
        cdpd_obs::counter!("storage.btree.bulk_load_pages").add(pages.len() as u64);
        Ok(BTree {
            pager,
            root: level[0].1,
            height,
            pages,
            leaf_count,
            entry_count,
        })
    }

    /// Insert `(values, rid)`.
    ///
    /// A leaf with room is edited in place: the entries from the key's
    /// position on shift right by one entry and the count goes up, the
    /// bytes a decode → insert → encode would produce. That costs
    /// `height + 1` reads (the descent reads the leaf, and the edit
    /// reads it again) and one write — `CostModel::index_entry_op`'s
    /// `height + 2`. A full leaf is decoded and split instead: each
    /// split adds a write for the node it creates (a right sibling, or
    /// a new root), and a read and a write for each parent the
    /// separator reaches.
    ///
    /// # Errors
    /// Returns [`Error::AlreadyExists`], with no write, if the exact
    /// `(values, rid)` pair is already present.
    pub fn insert(&mut self, values: &[Value], rid: Rid) -> Result<()> {
        let key = full_key(values, rid);
        if 2 + key.len() + LEAF_HDR > PAGE_SIZE {
            return Err(Error::TooLarge(format!("index key of {} bytes", key.len())));
        }
        // Descend, remembering the path of (page, child index taken).
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let mut pid = self.root;
        loop {
            let page = self.pager.read(pid)?;
            match page[0] {
                LEAF => break,
                INTERNAL => {
                    let idx = Self::descend_index(&page, &key);
                    path.push((pid, idx));
                    pid = Self::child_at(&page, idx);
                }
                t => return Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
            }
        }

        // Insert into the leaf.
        let mut page = self.pager.read(pid)?;
        if page[0] != LEAF {
            return Err(Error::Corrupt("descent did not reach a leaf".into()));
        }
        let (at, found, used) = leaf_slot(&page, &key);
        if found {
            return Err(Error::AlreadyExists("duplicate (key, rid) in index".into()));
        }
        self.entry_count += 1;
        let len = 2 + key.len();
        if used + len <= PAGE_SIZE {
            let buf = Arc::make_mut(&mut page);
            buf.copy_within(at..used, at + len);
            buf[at..at + 2].copy_from_slice(&(key.len() as u16).to_le_bytes());
            buf[at + 2..at + len].copy_from_slice(&key);
            let count = rd_u16(buf, 1) + 1;
            buf[1..3].copy_from_slice(&count.to_le_bytes());
            return self.pager.write(pid, page);
        }

        // Split the leaf: left keeps the first half, right gets the rest.
        let OwnedNode::Leaf { mut entries, next } = OwnedNode::decode(&page)? else {
            unreachable!("tag checked above")
        };
        let pos = entries.partition_point(|e| e.as_slice() < key.as_slice());
        entries.insert(pos, key);
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

    /// Propagate a split: insert `(sep, right)` into the parent chain.
    fn insert_separator(
        &mut self,
        mut path: Vec<(PageId, usize)>,
        mut sep: Vec<u8>,
        mut right: PageId,
    ) -> Result<()> {
        while let Some((pid, idx)) = path.pop() {
            let page = self.pager.read(pid)?;
            let OwnedNode::Internal {
                mut keys,
                mut children,
            } = OwnedNode::decode(&page)?
            else {
                return Err(Error::Corrupt("path node is not internal".into()));
            };
            keys.insert(idx, sep);
            children.insert(idx + 1, right);
            if INT_HDR + keys.iter().map(|k| 2 + k.len() + 4).sum::<usize>() <= PAGE_SIZE {
                let node = OwnedNode::Internal { keys, children };
                self.pager.write(pid, Arc::new(node.encode()))?;
                return Ok(());
            }
            let mid = keys.len() / 2;
            // keys[mid] moves up; left keeps [..mid], right gets [mid+1..].
            let mut lk = keys;
            let rk = lk.split_off(mid + 1);
            let up = lk.pop().expect("mid separator exists");
            let mut lc = children;
            let rc = lc.split_off(mid + 1);
            let right_pid = self.pager.allocate();
            self.pages.push(right_pid);
            self.pager.write(
                right_pid,
                Arc::new(
                    OwnedNode::Internal {
                        keys: rk,
                        children: rc,
                    }
                    .encode(),
                ),
            )?;
            self.pager.write(
                pid,
                Arc::new(
                    OwnedNode::Internal {
                        keys: lk,
                        children: lc,
                    }
                    .encode(),
                ),
            )?;
            sep = up;
            right = right_pid;
        }
        // Root split: grow the tree.
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

    /// Remove `(values, rid)`. Returns true if it was present.
    ///
    /// The leaf is edited in place: the entries after the key shift left
    /// by one entry, the count goes down and the vacated tail bytes are
    /// zeroed, the bytes a decode → remove → encode would produce. That
    /// costs `height` reads and one write, or no write when the key is
    /// absent. Nodes are never merged; an empty leaf stays in the chain
    /// (documented trade-off — rebuilds reclaim space).
    pub fn delete(&mut self, values: &[Value], rid: Rid) -> Result<bool> {
        let key = full_key(values, rid);
        let mut pid = self.root;
        loop {
            let mut page = self.pager.read(pid)?;
            match page[0] {
                LEAF => {
                    let (at, found, used) = leaf_slot(&page, &key);
                    if !found {
                        return Ok(false);
                    }
                    let len = 2 + key.len();
                    let buf = Arc::make_mut(&mut page);
                    buf.copy_within(at + len..used, at);
                    buf[used - len..used].fill(0);
                    let count = rd_u16(buf, 1) - 1;
                    buf[1..3].copy_from_slice(&count.to_le_bytes());
                    self.entry_count -= 1;
                    self.pager.write(pid, page)?;
                    return Ok(true);
                }
                INTERNAL => {
                    let idx = Self::descend_index(&page, &key);
                    pid = Self::child_at(&page, idx);
                }
                t => return Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
            }
        }
    }

    /// Child index to follow for `probe`: `partition_point(sep ≤ probe)`.
    ///
    /// Separators are the *first key of their right sibling* (both in
    /// splits and bulk load), so a key equal to a separator lives in the
    /// RIGHT subtree — descent must treat `sep == probe` as "go right".
    /// (Using `sep < probe` here once sent separator-equal keys left:
    /// deletes of a node's first key silently missed, leaving stale
    /// index entries after updates. Regression-tested below.)
    ///
    /// This rule is also correct for prefix seeks: every subtree left of
    /// the chosen child has all keys < its separator ≤ probe, so the
    /// first entry ≥ probe cannot be there.
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
        debug_assert!(idx <= count);
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

    /// Cursor positioned at the first entry whose key is ≥ the
    /// memcomparable encoding of `prefix_values`.
    ///
    /// Because entry keys carry a rid suffix, probing with a full value
    /// tuple positions *before* any entry with those exact values, and
    /// probing with a tuple prefix positions at the first entry whose
    /// leading columns are ≥ the prefix.
    pub fn seek(&self, prefix_values: &[Value]) -> Result<BTreeCursor<'_>> {
        self.seek_raw(&encode_key(prefix_values))
    }

    /// Cursor at the very first entry.
    pub fn scan_all(&self) -> Result<BTreeCursor<'_>> {
        self.seek_raw(&[])
    }

    /// The last entry of the tree as `(value_key_bytes, rid)`, found by
    /// descending the rightmost spine in `height` reads. `None` when
    /// the tree is empty. (There is no backward cursor; this exists for
    /// O(height) `MAX(col)` evaluation.)
    pub fn last_entry(&self) -> Result<Option<(Vec<u8>, Rid)>> {
        let mut pid = self.root;
        loop {
            let page = self.pager.read(pid)?;
            match page[0] {
                LEAF => {
                    let count = rd_u16(&*page, 1) as usize;
                    if count == 0 {
                        return Ok(None);
                    }
                    // Walk to the last entry.
                    let mut off = LEAF_HDR;
                    let mut last: Option<(usize, usize)> = None;
                    for _ in 0..count {
                        let klen = rd_u16(&*page, off) as usize;
                        last = Some((off + 2, klen));
                        off += 2 + klen;
                    }
                    let (start, klen) = last.expect("count > 0");
                    let key = &page[start..start + klen];
                    if klen < RID_LEN {
                        return Err(Error::Corrupt("index key shorter than rid".into()));
                    }
                    let (vals, ridb) = key.split_at(klen - RID_LEN);
                    return Ok(Some((vals.to_vec(), decode_rid(ridb)?)));
                }
                INTERNAL => {
                    let count = rd_u16(&*page, 1) as usize;
                    pid = Self::child_at(&page, count);
                }
                t => return Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
            }
        }
    }

    fn seek_raw(&self, probe: &[u8]) -> Result<BTreeCursor<'_>> {
        let mut pid = self.root;
        loop {
            let page = self.pager.read(pid)?;
            match page[0] {
                LEAF => {
                    let mut cursor = BTreeCursor {
                        tree: self,
                        page,
                        idx: 0,
                        off: LEAF_HDR,
                    };
                    cursor.skip_below(probe)?;
                    return Ok(cursor);
                }
                INTERNAL => {
                    let idx = Self::descend_index(&page, probe);
                    pid = Self::child_at(&page, idx);
                }
                t => return Err(Error::Corrupt(format!("unknown btree node tag {t}"))),
            }
        }
    }

    /// Number of entries.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Number of pages owned by this tree (= index size for SIZE()).
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Consume the tree and return every page it owned, for the caller
    /// to return to the pager's free list (`DROP INDEX`).
    pub fn into_pages(self) -> Vec<PageId> {
        self.pages
    }

    /// The tree's pages in allocation order (for catalog persistence).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// The root page id (for catalog persistence).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Reattach a tree persisted by a durable pager, from exactly the
    /// shape its accessors ([`BTree::root`], [`BTree::height`],
    /// [`BTree::pages`], [`BTree::leaf_count`], [`BTree::entry_count`])
    /// reported at commit time; the node contents come from the pager.
    pub fn from_parts(
        pager: Arc<Pager>,
        root: PageId,
        height: u32,
        pages: Vec<PageId>,
        leaf_count: u64,
        entry_count: u64,
    ) -> BTree {
        BTree {
            pager,
            root,
            height,
            pages,
            leaf_count,
            entry_count,
        }
    }

    /// Number of leaf pages (= full index-only scan cost in reads).
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Number of levels (root to leaf inclusive).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }
}

/// Streaming cursor over B+-tree entries in key order.
///
/// Yields `(value_key, rid)` pairs where `value_key` is the
/// memcomparable encoding of the indexed values (the rid suffix is
/// already split off). Crossing a leaf boundary costs one logical read.
pub struct BTreeCursor<'t> {
    tree: &'t BTree,
    page: Page,
    idx: u16,
    off: usize,
}

impl BTreeCursor<'_> {
    /// Advance within the starting leaf past entries `< probe`.
    fn skip_below(&mut self, probe: &[u8]) -> Result<()> {
        loop {
            let count = rd_u16(&*self.page, 1);
            if self.idx >= count {
                if !self.advance_leaf()? {
                    return Ok(());
                }
                continue;
            }
            let klen = rd_u16(&*self.page, self.off) as usize;
            let key = &self.page[self.off + 2..self.off + 2 + klen];
            if key < probe {
                self.idx += 1;
                self.off += 2 + klen;
            } else {
                return Ok(());
            }
        }
    }

    fn advance_leaf(&mut self) -> Result<bool> {
        let next = rd_u32(&*self.page, 3);
        if next == 0 {
            return Ok(false);
        }
        self.page = self.tree.pager.read(PageId(next - 1))?;
        self.idx = 0;
        self.off = LEAF_HDR;
        Ok(true)
    }

    /// Next entry as `(value_key_bytes, rid)`, or `None` at end of tree.
    #[allow(clippy::should_implement_trait)]
    pub fn next_entry(&mut self) -> Result<Option<(&[u8], Rid)>> {
        loop {
            let count = rd_u16(&*self.page, 1);
            if self.idx < count {
                let klen = rd_u16(&*self.page, self.off) as usize;
                let start = self.off + 2;
                self.idx += 1;
                self.off += 2 + klen;
                // Borrow the key out of the pinned page.
                let key = &self.page[start..start + klen];
                if klen < RID_LEN {
                    return Err(Error::Corrupt("index key shorter than rid".into()));
                }
                let (vals, ridb) = key.split_at(klen - RID_LEN);
                let rid = decode_rid(ridb)?;
                return Ok(Some((vals, rid)));
            }
            if !self.advance_leaf()? {
                return Ok(None);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(i: i64) -> Vec<Value> {
        vec![Value::Int(i)]
    }

    fn rid(n: u32) -> Rid {
        Rid::new(PageId(n), 0)
    }

    fn collect_all(tree: &BTree) -> Vec<(Vec<Value>, Rid)> {
        let mut out = Vec::new();
        let mut cur = tree.scan_all().unwrap();
        while let Some((k, r)) = cur.next_entry().unwrap() {
            out.push((crate::codec::decode_key(k).unwrap(), r));
        }
        out
    }

    #[test]
    fn empty_tree() {
        let tree = BTree::create(Arc::new(Pager::new())).unwrap();
        assert_eq!(tree.entry_count(), 0);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.page_count(), 1);
        assert!(collect_all(&tree).is_empty());
    }

    #[test]
    fn insert_and_scan_in_order() {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        for i in [5i64, 1, 9, 3, 7] {
            tree.insert(&iv(i), rid(i as u32)).unwrap();
        }
        let got: Vec<i64> = collect_all(&tree)
            .into_iter()
            .map(|(v, _)| v[0].as_int().unwrap())
            .collect();
        assert_eq!(got, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn duplicate_values_distinct_rids_allowed() {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        tree.insert(&iv(4), rid(1)).unwrap();
        tree.insert(&iv(4), rid(2)).unwrap();
        assert!(
            tree.insert(&iv(4), rid(2)).is_err(),
            "same (key,rid) rejected"
        );
        assert_eq!(tree.entry_count(), 2);
    }

    #[test]
    fn splits_grow_height() {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        for i in 0..5000i64 {
            tree.insert(&iv(i), rid(i as u32)).unwrap();
        }
        assert!(tree.height() >= 2, "5000 entries must split");
        assert_eq!(tree.entry_count(), 5000);
        let got = collect_all(&tree);
        assert_eq!(got.len(), 5000);
        for (i, (v, _)) in got.iter().enumerate() {
            assert_eq!(v[0].as_int().unwrap(), i as i64);
        }
    }

    #[test]
    fn seek_finds_first_matching_entry() {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        for i in (0..100i64).step_by(2) {
            tree.insert(&iv(i), rid(i as u32)).unwrap();
        }
        // Exact hit.
        let mut c = tree.seek(&iv(40)).unwrap();
        let (k, _) = c.next_entry().unwrap().unwrap();
        assert_eq!(
            crate::codec::decode_key(k).unwrap()[0].as_int().unwrap(),
            40
        );
        // Between keys: lands on next.
        let mut c = tree.seek(&iv(41)).unwrap();
        let (k, _) = c.next_entry().unwrap().unwrap();
        assert_eq!(
            crate::codec::decode_key(k).unwrap()[0].as_int().unwrap(),
            42
        );
        // Past the end.
        let mut c = tree.seek(&iv(1000)).unwrap();
        assert!(c.next_entry().unwrap().is_none());
    }

    #[test]
    fn composite_prefix_seek() {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        let mut n = 0;
        for a in 0..50i64 {
            for b in 0..4i64 {
                tree.insert(&[Value::Int(a), Value::Int(b)], rid(n))
                    .unwrap();
                n += 1;
            }
        }
        // Probe with the leading column only.
        let probe = encode_key(&iv(7));
        let mut c = tree.seek(&iv(7)).unwrap();
        let mut hits = 0;
        while let Some((k, _)) = c.next_entry().unwrap() {
            if !k.starts_with(&probe) {
                break;
            }
            hits += 1;
        }
        assert_eq!(hits, 4);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let pager1 = Arc::new(Pager::new());
        let entries: Vec<(Vec<Value>, Rid)> =
            (0..3000i64).map(|i| (iv(i), rid(i as u32))).collect();
        let bulk = BTree::bulk_load(pager1, entries.clone()).unwrap();
        let mut incr = BTree::create(Arc::new(Pager::new())).unwrap();
        for (v, r) in &entries {
            incr.insert(v, *r).unwrap();
        }
        assert_eq!(collect_all(&bulk), collect_all(&incr));
        assert_eq!(bulk.entry_count(), 3000);
        assert!(
            bulk.page_count() <= incr.page_count(),
            "bulk load should pack at least as densely"
        );
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let entries = vec![(iv(5), rid(0)), (iv(3), rid(1))];
        assert!(BTree::bulk_load(Arc::new(Pager::new()), entries).is_err());
    }

    #[test]
    fn bulk_load_empty() {
        let tree = BTree::bulk_load(Arc::new(Pager::new()), Vec::new()).unwrap();
        assert_eq!(tree.entry_count(), 0);
        assert!(collect_all(&tree).is_empty());
    }

    #[test]
    fn delete_removes_entry() {
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        for i in 0..500i64 {
            tree.insert(&iv(i), rid(i as u32)).unwrap();
        }
        assert!(tree.delete(&iv(250), rid(250)).unwrap());
        assert!(!tree.delete(&iv(250), rid(250)).unwrap());
        assert!(!tree.delete(&iv(9999), rid(0)).unwrap());
        assert_eq!(tree.entry_count(), 499);
        let got = collect_all(&tree);
        assert_eq!(got.len(), 499);
        assert!(got.iter().all(|(v, _)| v[0].as_int().unwrap() != 250));
    }

    #[test]
    fn last_entry_is_max() {
        let tree = BTree::create(Arc::new(Pager::new())).unwrap();
        assert!(tree.last_entry().unwrap().is_none(), "empty tree");
        let entries: Vec<(Vec<Value>, Rid)> =
            (0..20_000i64).map(|i| (iv(i), rid(i as u32))).collect();
        let tree = BTree::bulk_load(Arc::new(Pager::new()), entries).unwrap();
        let (k, r) = tree.last_entry().unwrap().unwrap();
        assert_eq!(
            crate::codec::decode_key(&k).unwrap()[0].as_int().unwrap(),
            19_999
        );
        assert_eq!(r, rid(19_999));
        // Costs height reads.
        let pager = tree.pager().clone();
        let before = pager.stats();
        tree.last_entry().unwrap().unwrap();
        assert_eq!(pager.stats().delta(before).reads, tree.height() as u64);
    }

    #[test]
    fn delete_separator_keys_after_splits() {
        // Regression: keys that became separators during splits (the
        // first key of each right node) must remain reachable for
        // delete. Insert enough to split several times, then delete
        // EVERYTHING and verify the tree is empty.
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        let n = 3000i64;
        for i in 0..n {
            tree.insert(&iv(i), rid(i as u32)).unwrap();
        }
        assert!(tree.height() >= 2, "must have split");
        for i in 0..n {
            assert!(
                tree.delete(&iv(i), rid(i as u32)).unwrap(),
                "key {i} must be deletable"
            );
        }
        assert_eq!(tree.entry_count(), 0);
        assert!(collect_all(&tree).is_empty());
    }

    #[test]
    fn update_cycle_leaves_no_stale_entries() {
        // Regression for the exact corruption an UPDATE-heavy workload
        // produced: delete + reinsert entries across separator
        // boundaries, then verify seek counts match ground truth.
        let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
        let n = 2500i64;
        for i in 0..n {
            tree.insert(&iv(i % 500), rid(i as u32)).unwrap();
        }
        // "Update" every entry: move it to a new key, like index
        // maintenance does.
        for i in 0..n {
            assert!(
                tree.delete(&iv(i % 500), rid(i as u32)).unwrap(),
                "entry {i}"
            );
            tree.insert(&iv((i % 500) + 1000), rid(i as u32)).unwrap();
        }
        assert_eq!(tree.entry_count() as i64, n);
        // Every old key must be gone; every new key must count 5.
        for k in 0..500i64 {
            let probe = encode_key(&iv(k));
            let mut c = tree.seek(&iv(k)).unwrap();
            if let Some((key, _)) = c.next_entry().unwrap() {
                assert!(!key.starts_with(&probe), "stale entry at {k}");
            }
            let probe_new = encode_key(&iv(k + 1000));
            let mut c = tree.seek(&iv(k + 1000)).unwrap();
            let mut hits = 0;
            while let Some((key, _)) = c.next_entry().unwrap() {
                if !key.starts_with(&probe_new) {
                    break;
                }
                hits += 1;
            }
            assert_eq!(hits, 5, "key {}", k + 1000);
        }
    }

    #[test]
    fn seek_costs_height_reads() {
        let pager = Arc::new(Pager::new());
        let entries: Vec<(Vec<Value>, Rid)> =
            (0..20_000i64).map(|i| (iv(i), rid(i as u32))).collect();
        let tree = BTree::bulk_load(pager.clone(), entries).unwrap();
        assert!(tree.height() >= 2);
        let before = pager.stats();
        let mut c = tree.seek(&iv(10_000)).unwrap();
        c.next_entry().unwrap().unwrap();
        let reads = pager.stats().delta(before).reads;
        assert_eq!(
            reads,
            tree.height() as u64,
            "descent reads one page per level"
        );
    }

    #[test]
    fn entry_ops_cost_pinned_reads_and_writes() {
        // 300-byte keys: ~23 entries a node, so a few thousand entries
        // reach height 3, and a bulk-loaded leaf has room for three more.
        let key = |i: i64| vec![Value::from(format!("{i:0>300}").as_str())];
        for (n, height) in [(10i64, 1u64), (100, 2), (2_000, 3)] {
            let pager = Arc::new(Pager::new());
            let entries = (0..n).map(|i| (key(2 * i), rid(0)));
            let mut tree = BTree::bulk_load(pager.clone(), entries).unwrap();
            assert_eq!(tree.height() as u64, height);
            let pages = tree.page_count();
            let mut io = |op: &mut dyn FnMut(&mut BTree)| {
                let before = pager.stats();
                op(&mut tree);
                let d = pager.stats().delta(before);
                (d.reads, d.writes, d.allocs)
            };
            let (mid, absent) = (key(n | 1), key(2 * n + 1));
            let insert = io(&mut |t| t.insert(&mid, rid(0)).unwrap());
            let duplicate = io(&mut |t| assert!(t.insert(&mid, rid(0)).is_err()));
            let delete = io(&mut |t| assert!(t.delete(&mid, rid(0)).unwrap()));
            let missing = io(&mut |t| assert!(!t.delete(&absent, rid(0)).unwrap()));
            assert_eq!(insert, (height + 1, 1, 0), "insert at height {height}");
            assert_eq!(
                duplicate,
                (height + 1, 0, 0),
                "duplicate at height {height}"
            );
            assert_eq!(delete, (height, 1, 0), "delete at height {height}");
            assert_eq!(missing, (height, 0, 0), "absent delete at height {height}");
            assert_eq!(tree.page_count(), pages, "no op may split");
            assert_eq!(tree.entry_count(), n as u64);
        }
    }

    #[test]
    fn full_scan_costs_leaf_pages() {
        let pager = Arc::new(Pager::new());
        let entries: Vec<(Vec<Value>, Rid)> =
            (0..20_000i64).map(|i| (iv(i), rid(i as u32))).collect();
        let tree = BTree::bulk_load(pager.clone(), entries).unwrap();
        let before = pager.stats();
        let mut c = tree.scan_all().unwrap();
        let mut n = 0u64;
        while c.next_entry().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 20_000);
        let reads = pager.stats().delta(before).reads;
        // Descent (height) + remaining leaves.
        assert!(reads < tree.page_count() + tree.height() as u64);
        assert!(reads as f64 > tree.page_count() as f64 * 0.7);
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        for seed in 0..3u64 {
            let mut tree = BTree::create(Arc::new(Pager::new())).unwrap();
            let mut xs: Vec<i64> = (0..2000).collect();
            // Cheap deterministic shuffle.
            for i in 0..xs.len() {
                let j = ((i as u64 * 2654435761 + seed * 97) % xs.len() as u64) as usize;
                xs.swap(i, j);
            }
            for &i in &xs {
                tree.insert(&iv(i), rid(i as u32)).unwrap();
            }
            let got: Vec<i64> = collect_all(&tree)
                .into_iter()
                .map(|(v, _)| v[0].as_int().unwrap())
                .collect();
            assert_eq!(got, (0..2000).collect::<Vec<_>>());
        }
    }
}
