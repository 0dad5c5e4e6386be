use crate::cost::IndexShape;
use crate::planner::IndexInfo;
use cdpd_storage::{codec, BTree, HeapFile, TreeMark};
use cdpd_types::{ColumnId, Result, Rid, Schema, TableId, Value};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A logical index description: the unit the design advisor reasons
/// about. Two specs are the same index iff table and key columns (in
/// order) match; the canonical [`IndexSpec::name`] encodes both.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IndexSpec {
    /// Indexed table.
    pub table: String,
    /// Key columns in key order.
    pub columns: Vec<String>,
}

impl IndexSpec {
    /// Build a spec.
    pub fn new(table: impl Into<String>, columns: &[&str]) -> IndexSpec {
        IndexSpec {
            table: table.into(),
            columns: columns.iter().map(|c| (*c).to_owned()).collect(),
        }
    }

    /// Canonical catalog name, e.g. `ix_t_a_b` for `I(a,b)` on `t`.
    pub fn name(&self) -> String {
        let mut s = format!("ix_{}", self.table);
        for c in &self.columns {
            s.push('_');
            s.push_str(c);
        }
        s
    }

    /// Paper-style display, e.g. `I(a,b)`.
    pub fn display_short(&self) -> String {
        format!("I({})", self.columns.join(","))
    }

    /// Append the spec in the record codec: the table, then the key
    /// columns behind a `u16` count. The catalog and the online
    /// advisor's saved state both persist specs this way.
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_str(out, &self.table);
        let n = u16::try_from(self.columns.len()).expect("an index has at most u16::MAX columns");
        codec::put_u16(out, n);
        for c in &self.columns {
            codec::put_str(out, c);
        }
    }

    /// Inverse of [`IndexSpec::encode`].
    ///
    /// # Errors
    /// [`cdpd_types::Error::Corrupt`] on a truncated or malformed spec.
    pub fn decode(r: &mut codec::Reader<'_>) -> Result<IndexSpec> {
        let table = r.str()?;
        let n = r.u16()? as usize;
        let columns = r.items(n, codec::Reader::str)?;
        Ok(IndexSpec { table, columns })
    }
}

impl fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_short())
    }
}

/// A materialized index: its spec, the planner's view of it, and its
/// B+-tree.
pub(crate) struct IndexEntry {
    pub(crate) spec: IndexSpec,
    /// Canonical name, key columns resolved to column ids, and the
    /// tree's shape. Built once at install; the shape is kept current
    /// by `Database::edit_index`, the one place the tree changes.
    pub(crate) info: IndexInfo,
    pub(crate) btree: BTree,
}

impl IndexEntry {
    /// An entry for `btree`, the index `spec` keyed on `columns`.
    pub(crate) fn new(spec: IndexSpec, columns: Vec<ColumnId>, btree: BTree) -> IndexEntry {
        let info = IndexInfo {
            name: spec.name(),
            columns,
            shape: Self::shape_of(&btree),
        };
        IndexEntry { spec, info, btree }
    }

    /// The shape of a live B+-tree.
    pub(crate) fn shape_of(btree: &BTree) -> IndexShape {
        IndexShape {
            leaf_pages: btree.leaf_count(),
            height: btree.height(),
            total_pages: btree.page_count(),
        }
    }
}

/// One row-level change appended to every active build log by a DML
/// statement that runs while an online index build is scanning. An
/// `UPDATE` logs a `Delete` of the old image followed by an `Insert`
/// of the new one (at the row's possibly-moved rid); a statement that
/// fails then logs what its undo puts back (`Database::log_undone`).
pub(crate) enum RowDelta {
    /// Row `rid` now holds these values.
    Insert(Vec<Value>, Rid),
    /// Row `rid` no longer holds these values.
    Delete(Vec<Value>, Rid),
}

/// The side channel an online index build registers before its
/// lock-free scan: DML statements append their row deltas (under the
/// table write lock), and the build drains the log into the freshly
/// bulk-loaded tree at install time — so the installed index is
/// exactly what a build at the install point would have produced.
pub(crate) type BuildLog = Arc<Mutex<Vec<RowDelta>>>;

/// An immutable view of one table as of a catalog epoch: what readers
/// (and online index builds) pin with one `Arc` clone. The heap handle
/// shares the pager but freezes the page chain; schema and statistics
/// are the same shared `Arc`s the live entry holds. Writers bump the
/// entry's epoch and drop the cached snapshot, so a pinned snapshot is
/// never mutated — the next pin builds a successor.
#[derive(Clone)]
pub struct TableSnapshot {
    /// Epoch this snapshot was taken at (monotone per table, bumped by
    /// every mutating statement).
    pub epoch: u64,
    /// The table's schema.
    pub schema: Arc<Schema>,
    /// Frozen heap handle: page chain and row count as of the epoch.
    pub heap: HeapFile,
    /// Statistics as of the epoch, if `ANALYZE` has run.
    pub stats: Option<Arc<crate::stats::TableStats>>,
    /// Specs of the indexes materialized at the epoch, in name order.
    pub index_specs: Vec<IndexSpec>,
}

/// What the last durable commit recorded of one table, so the next
/// commit frame carries only what its statements changed
/// (`persist::encode_table`). Marks advance only once the commit is
/// acknowledged; a failed commit leaves them, and the next frame then
/// carries both statements' changes.
#[derive(Default)]
pub(crate) struct CommitMark {
    /// Whether any commit has carried the table; until one has, the
    /// next frame carries it whole.
    pub(crate) committed: bool,
    /// A mutator has taken the table's write lock since that commit
    /// (`Database::write_entry`), whether or not its statement
    /// succeeded: a failed DML statement is undone but leaves its pages
    /// dirty, and a failed DDL step may already have dropped an index.
    /// A committed table with this clear contributes nothing.
    pub(crate) touched: bool,
    /// Length of the heap's page chain at that commit (chains only grow).
    pub(crate) heap_pages: usize,
    /// Length of each recorded index's page list, by canonical name
    /// (page lists only grow). An index not listed is carried whole.
    pub(crate) index_pages: std::collections::BTreeMap<String, usize>,
    /// Recorded indexes dropped since.
    pub(crate) dropped: Vec<String>,
    /// `stats` was replaced since (by `ANALYZE` or a refresh).
    pub(crate) stats_replaced: bool,
}

/// A table in the catalog. Schema and statistics are behind `Arc` so a
/// statement (or a what-if snapshot) can share them without copying;
/// statistics are replaced wholesale on refresh, never mutated, so a
/// held `Arc` is a stable snapshot.
pub(crate) struct TableEntry {
    #[allow(dead_code)]
    pub(crate) id: TableId,
    pub(crate) schema: std::sync::Arc<Schema>,
    pub(crate) heap: HeapFile,
    pub(crate) stats: Option<std::sync::Arc<crate::stats::TableStats>>,
    /// Retained analyze state, folded forward under DML so statistics
    /// refresh without re-scanning (seeded by `ANALYZE`).
    pub(crate) maintainer: Option<crate::stats::StatsMaintainer>,
    /// Indexes keyed by canonical name, iterated in name order so
    /// planning is deterministic.
    pub(crate) indexes: std::collections::BTreeMap<String, IndexEntry>,
    /// Catalog epoch: bumped by every mutating statement on this
    /// table. Per-process (not persisted); recovery restarts at 0.
    pub(crate) epoch: u64,
    /// Cached snapshot of the current epoch, built lazily on pin and
    /// invalidated (dropped) by every mutation.
    pub(crate) version: Option<Arc<TableSnapshot>>,
    /// Logs of the online index builds currently scanning this table;
    /// every mutating statement appends its row deltas to each.
    pub(crate) build_logs: Vec<BuildLog>,
    /// What the last durable commit recorded. Behind a mutex so the
    /// commit path advances it through the shared table lock (it never
    /// waits on, or stalls, the table's readers); mutators holding the
    /// write lock reach it lock-free via `get_mut`.
    pub(crate) mark: Mutex<CommitMark>,
    /// Each index's tree state as the running statement found it, in
    /// name order; kept between statements so marking allocates nothing.
    pub(crate) tree_marks: Vec<TreeMark>,
}

impl TableEntry {
    /// Fresh entry with no rows, stats, or indexes.
    pub(crate) fn new(id: TableId, schema: Schema, pager: Arc<cdpd_storage::Pager>) -> TableEntry {
        TableEntry {
            id,
            schema: Arc::new(schema),
            heap: HeapFile::create(pager),
            stats: None,
            maintainer: None,
            indexes: std::collections::BTreeMap::new(),
            epoch: 0,
            version: None,
            build_logs: Vec::new(),
            mark: Mutex::default(),
            tree_marks: Vec::new(),
        }
    }

    /// Note a mutation: advance the epoch and drop the cached snapshot
    /// so the next pin sees the new state. Callers hold the table
    /// write lock.
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.version = None;
    }

    /// The current epoch's snapshot, building and caching it if the
    /// last mutation invalidated it. Callers hold the table write
    /// lock (reader pinning goes through `Database::pin`, which
    /// escalates to the write lock only on a cache miss).
    pub(crate) fn snapshot(&mut self) -> Arc<TableSnapshot> {
        if let Some(v) = &self.version {
            return v.clone();
        }
        let snap = Arc::new(TableSnapshot {
            epoch: self.epoch,
            schema: self.schema.clone(),
            heap: self.heap.clone(),
            stats: self.stats.clone(),
            index_specs: self.indexes.values().map(|e| e.spec.clone()).collect(),
        });
        self.version = Some(snap.clone());
        snap
    }

    /// Note for the next commit frame that `stats` was replaced.
    pub(crate) fn note_stats_replaced(&mut self) {
        self.mark
            .get_mut()
            .expect("commit mark poisoned")
            .stats_replaced = true;
    }

    /// Note for the next commit frame that index `name` was dropped —
    /// if a commit ever recorded it (a never-committed index, like any
    /// index of an in-memory database, just vanishes).
    pub(crate) fn note_index_dropped(&mut self, name: &str) {
        let mark = self.mark.get_mut().expect("commit mark poisoned");
        if mark.index_pages.remove(name).is_some() {
            mark.dropped.push(name.to_owned());
        }
    }

    /// Append one row delta to every active build log. Called by DML
    /// under the table write lock; a no-op when no build is scanning.
    pub(crate) fn log_delta(&self, make: impl Fn() -> RowDelta) {
        for log in &self.build_logs {
            log.lock().expect("build log poisoned").push(make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names() {
        let ab = IndexSpec::new("t", &["a", "b"]);
        assert_eq!(ab.name(), "ix_t_a_b");
        assert_eq!(ab.display_short(), "I(a,b)");
        assert_eq!(ab.to_string(), "I(a,b)");
    }

    #[test]
    fn column_order_distinguishes_specs() {
        let ab = IndexSpec::new("t", &["a", "b"]);
        let ba = IndexSpec::new("t", &["b", "a"]);
        assert_ne!(ab, ba);
        assert_ne!(ab.name(), ba.name());
    }
}
