use crate::catalog::{BuildLog, IndexEntry, IndexSpec, RowDelta, TableEntry, TableSnapshot};
use crate::cost::IndexShape;
use crate::exec;
use crate::planner::{IndexInfo, PathKind, Plan, Planner};
use crate::stats::{StatsMaintainer, StatsRefresh, TableStats};
use cdpd_sql::{Dml, SelectStmt, Statement};
use cdpd_storage::{codec, BTree, HeapFile, HeapMark, IoStats, Pager, ThreadIoScope, UndoScope};
use cdpd_types::{ColumnId, Error, Result, Rid, Schema, TableId, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Result of one executed query: output plus measured cost.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Matching row count. For aggregate queries this is the number of
    /// rows aggregated (not the single logical result row); for writes
    /// it is the number of rows affected.
    pub count: u64,
    /// Materialized rows, when requested.
    pub rows: Option<Vec<Vec<Value>>>,
    /// Aggregate result, for aggregate projections.
    pub aggregate: Option<Value>,
    /// Logical I/O measured during execution.
    pub io: IoStats,
    /// Planner estimate for the executed plan.
    pub est_cost: cdpd_types::Cost,
    /// One-line plan description.
    pub plan: String,
    /// Access path of the executed statement: a query's
    /// [`Plan::kind`], [`PathKind::Write`] for an `UPDATE` or `DELETE`,
    /// [`PathKind::Other`] for anything else.
    pub path: PathKind,
    /// Whether the statement read through an index: a query's plan, or
    /// the plan that located a write's rows, is not a heap scan.
    pub index_backed: bool,
}

/// Result of a DDL operation (or a whole design change).
#[derive(Clone, Debug, Default)]
pub struct DdlReport {
    /// Logical I/O the operation cost — the *measured* `TRANS`.
    pub io: IoStats,
    /// Indexes created, by canonical name.
    pub created: Vec<String>,
    /// Indexes dropped, by canonical name.
    pub dropped: Vec<String>,
}

/// An embedded single-node database: catalog + storage + executor.
///
/// One shared [`Pager`] holds every table and index, so
/// [`Pager::stats`] is the single I/O ledger the experiments read.
/// `DROP INDEX` returns the tree's pages to the pager's free list, so
/// a long replay that builds and drops indexes at every design change
/// stays at a bounded footprint.
///
/// # Concurrency model
///
/// Every public method — reads *and* mutations — takes `&self`, so one
/// `Arc<Database>` serves any number of sessions concurrently. The
/// engine provides **statement-granularity serializability**:
///
/// * The catalog is `RwLock`-striped (`RwLock<BTreeMap>` of
///   `Arc<RwLock<TableEntry>>`). A read statement holds its table's
///   read lock for its whole duration; a mutating statement holds the
///   write lock. Statements on one table therefore never interleave
///   mid-statement, and statements on different tables commute — the
///   observable history of any concurrent run equals *some* serial
///   interleaving (property-tested in `tests/concurrent_writers.rs`).
/// * Each `TableEntry` is **epoch-versioned**: every mutating
///   statement bumps the table's epoch and invalidates its cached
///   `TableSnapshot`; `Database::pin` hands out the current epoch's
///   snapshot as one `Arc` clone. Pinned snapshots are immutable —
///   successors are installed under the table write lock, never edits.
/// * **Online index builds.** Every change to a table's index set —
///   [`Database::create_index`], [`Database::drop_index`],
///   [`Database::apply_configuration_with`] and SQL `CREATE`/`DROP
///   INDEX` — goes through one routine, `Database::change_indexes`. It
///   drops, then pins one snapshot, registers one build log, and
///   scans/sorts/bulk-loads every new index with *no lock held* — DML
///   from other sessions interleaves freely, appending row deltas to
///   the log under the table write lock. At install it drains the log
///   into the new trees through the same per-row edit DML uses
///   (idempotently: tolerant deletes, duplicate-skipping inserts) and
///   publishes them atomically, so each installed index is exactly what
///   a blocking build at the install point would have produced.
/// * **Atomic statements.** A DML statement — an `insert_many` call
///   included — runs inside one pager [`UndoScope`]: if it fails, the
///   pager puts back every page it changed and the table's in-memory
///   state returns to its marks (`Database::statement`).
/// * On a durable database, a **commit phase lock** orders mutation
///   against WAL commits: statement mutation holds it shared,
///   [`Pager::commit`] runs under it exclusively — so a commit only
///   ever snapshots *complete* statements and the kill-at-any-point
///   recovery property (`tests/recovery_prop.rs`) survives racing
///   writers.
///
/// Per-statement I/O is measured with a [`ThreadIoScope`] (not a
/// global-counter delta), so [`QueryResult::io`] stays exact under any
/// interleaving and concurrent per-statement costs sum bit-identically
/// to a serial run.
pub struct Database {
    pub(crate) pager: Arc<Pager>,
    pub(crate) tables: RwLock<BTreeMap<String, Arc<RwLock<TableEntry>>>>,
    pub(crate) next_table_id: AtomicU32,
    /// Opaque application state (the advisory layer's warm state),
    /// persisted with the catalog.
    pub(crate) app_state: RwLock<Vec<u8>>,
    /// `app_state` was replaced since the last durable commit, so the
    /// next commit frame carries it. Set under the shared commit phase
    /// and read under the exclusive one, which is what orders it.
    pub(crate) app_state_dirty: AtomicBool,
    /// Commit phase lock: mutating statements hold it shared for their
    /// mutation, `commit_if_durable` holds it exclusively — a durable
    /// commit never captures a half-applied statement.
    pub(crate) write_phase: RwLock<()>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty in-memory database (no durability; mutations are lost
    /// on drop). Use [`Database::open`] for a durable one.
    pub fn new() -> Database {
        Self::with_pager(Arc::new(Pager::new()))
    }

    /// An empty catalog over `pager`.
    pub(crate) fn with_pager(pager: Arc<Pager>) -> Database {
        Database {
            pager,
            tables: RwLock::new(BTreeMap::new()),
            next_table_id: AtomicU32::new(0),
            app_state: RwLock::new(Vec::new()),
            app_state_dirty: AtomicBool::new(false),
            write_phase: RwLock::new(()),
        }
    }

    /// Open (creating if absent) a durable database rooted at directory
    /// `dir`, recovering to the newest committed state: the write-ahead
    /// log is replayed past the last checkpoint, the catalog is rebuilt
    /// from the checkpoint's image plus the replayed commits' deltas,
    /// and every table, index, and statistics object is re-attached
    /// exactly as the last successful commit left it.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        let vfs = cdpd_storage::DiskVfs::new(dir.as_ref())?;
        Self::open_with_vfs(Arc::new(vfs), cdpd_storage::DurableOptions::default())
    }

    /// [`Database::open`] over an explicit VFS (e.g. [`cdpd_storage::MemVfs`]
    /// for tests, or a fault-injecting wrapper) with tuning knobs.
    pub fn open_with_vfs(
        vfs: Arc<dyn cdpd_storage::Vfs>,
        opts: cdpd_storage::DurableOptions,
    ) -> Result<Database> {
        let opened = Pager::open_durable(vfs, opts)?;
        crate::persist::decode_catalog(
            &opened.app_image,
            &opened.app_deltas,
            Arc::new(opened.pager),
        )
    }

    /// Whether this database persists commits (opened via
    /// [`Database::open`] rather than [`Database::new`]).
    pub fn is_durable(&self) -> bool {
        self.pager.is_durable()
    }

    /// Sequence number of the newest committed transaction (0 when
    /// nothing has committed, or for an in-memory database).
    pub fn committed_seq(&self) -> u64 {
        self.pager.committed_seq()
    }

    /// Flush dirty pages to the data file, write the catalog's image
    /// into the checkpoint header, and truncate the write-ahead log. A
    /// no-op for in-memory databases. Safe to call at any time: it
    /// holds the commit phase exclusively and first commits whatever
    /// statements have completed but not yet committed, so the image it
    /// writes is exactly the committed state. Recovery time after a
    /// crash is proportional to the WAL written since the last
    /// checkpoint.
    pub fn checkpoint(&self) -> Result<()> {
        if !self.pager.is_durable() {
            return Ok(());
        }
        let _phase = self.write_phase.write().expect("phase lock poisoned");
        let (delta, carried) = crate::persist::encode(self, false);
        if !carried.is_empty() || self.app_state_dirty.load(Ordering::Relaxed) {
            self.commit_record(&delta, &carried)?;
        }
        // Nothing logged since the last checkpoint — which that commit
        // may itself just have taken: the header is current.
        if self.pager.wal_bytes() == 0 {
            return Ok(());
        }
        self.pager.checkpoint_with(&|| crate::persist::image(self))
    }

    /// Replace the opaque application-state blob persisted alongside
    /// the catalog (the advisory layer's warm state), and commit.
    pub fn set_app_state(&self, state: Vec<u8>) -> Result<()> {
        {
            let _phase = self.mutation_phase();
            *self.app_state.write().expect("app state poisoned") = state;
            self.app_state_dirty.store(true, Ordering::Relaxed);
        }
        self.commit_if_durable()
    }

    /// The application-state blob from the newest commit (empty if
    /// never set).
    pub fn app_state(&self) -> Vec<u8> {
        self.app_state.read().expect("app state poisoned").clone()
    }

    /// Shared commit-phase guard: held for the duration of every
    /// statement's mutation so a durable commit (which holds the phase
    /// exclusively) never snapshots a half-applied statement. Acquired
    /// *before* any table lock — the one lock-order rule writers
    /// follow.
    fn mutation_phase(&self) -> RwLockReadGuard<'_, ()> {
        self.write_phase.read().expect("phase lock poisoned")
    }

    /// Commit the current state durably: append every page mutated
    /// since the last commit, plus the catalog *delta* — what the
    /// statements since then changed (see [`crate::persist`]) — to the
    /// WAL as one transaction. In-memory databases return `Ok`
    /// untouched. Called by every public mutator on successful
    /// completion, after all table guards are released.
    ///
    /// Holds the commit phase exclusively: no statement is mid-mutation
    /// while the dirty-page set and the catalog are captured, so what a
    /// racing writer committed is always a set of whole statements — a
    /// serial prefix, which is what the recovery property requires.
    fn commit_if_durable(&self) -> Result<()> {
        if !self.pager.is_durable() {
            return Ok(());
        }
        let _phase = self.write_phase.write().expect("phase lock poisoned");
        let (delta, carried) = crate::persist::encode(self, false);
        self.commit_record(&delta, &carried)
    }

    /// Commit `delta`, the record `persist::encode` just produced, with
    /// the commit phase held exclusively. The commit marks advance only
    /// once the pager acknowledges: after an `Err` the next commit's
    /// delta carries these changes again (harmlessly, should this frame
    /// have reached the log after all — records fold idempotently). The
    /// catalog image is built only if the pager's auto-checkpoint asks
    /// for it, by which point the in-memory catalog *is* the committed
    /// state.
    fn commit_record(&self, delta: &[u8], carried: &crate::persist::Carried) -> Result<()> {
        self.pager
            .commit_with(delta, &|| crate::persist::image(self))?;
        crate::persist::advance_marks(self, carried);
        Ok(())
    }

    /// The shared pager (I/O ledger).
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }

    /// Total pages ever allocated (live + free-listed).
    pub fn page_count(&self) -> u64 {
        self.pager.page_count()
    }

    fn table(&self, name: &str) -> Result<Arc<RwLock<TableEntry>>> {
        self.tables
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    fn read_entry(entry: &RwLock<TableEntry>) -> RwLockReadGuard<'_, TableEntry> {
        entry.read().expect("table lock poisoned")
    }

    /// `f` of `table`'s entry, under the table's read lock.
    fn read<T>(&self, table: &str, f: impl FnOnce(&TableEntry) -> T) -> Result<T> {
        self.table(table).map(|entry| f(&Self::read_entry(&entry)))
    }

    /// The table write lock, for a mutator: the table is marked touched
    /// as the lock is taken, so the next commit frame carries its shape
    /// on every exit path — including a statement that fails after it
    /// has changed the heap or an index.
    fn write_entry(entry: &RwLock<TableEntry>) -> RwLockWriteGuard<'_, TableEntry> {
        let mut guard = entry.write().expect("table lock poisoned");
        guard.mark.get_mut().expect("commit mark poisoned").touched = true;
        guard
    }

    /// Create a table.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        {
            let _phase = self.mutation_phase();
            let mut tables = self.tables.write().expect("catalog lock poisoned");
            if tables.contains_key(name) {
                return Err(Error::AlreadyExists(format!("table {name}")));
            }
            let id = TableId(self.next_table_id.fetch_add(1, Ordering::Relaxed));
            tables.insert(
                name.to_owned(),
                Arc::new(RwLock::new(TableEntry::new(id, schema, self.pager.clone()))),
            );
        }
        self.commit_if_durable()
    }

    /// Pin the current epoch of `table`: an immutable
    /// [`TableSnapshot`] shared as one `Arc` clone. Writers install
    /// successor versions under the per-table write lock (bumping the
    /// epoch); a held pin is never mutated. Repeated pins between
    /// mutations return the same cached `Arc`.
    pub fn pin(&self, table: &str) -> Result<Arc<TableSnapshot>> {
        let entry = self.table(table)?;
        if let Some(v) = Self::read_entry(&entry).version.clone() {
            return Ok(v);
        }
        // Cache miss: the last statement was a mutation. Escalate to
        // the write lock just long enough to rebuild the snapshot.
        // (Not `write_entry`: caching a snapshot changes nothing a
        // commit records.)
        let snap = entry.write().expect("table lock poisoned").snapshot();
        Ok(snap)
    }

    /// The schema of `table` (shared, cheap to clone).
    pub fn schema(&self, table: &str) -> Result<Arc<Schema>> {
        self.read(table, |e| e.schema.clone())
    }

    /// Statistics for `table`, if `ANALYZE` has run (shared, cheap to
    /// clone).
    pub fn stats(&self, table: &str) -> Result<Option<Arc<TableStats>>> {
        self.read(table, |e| e.stats.clone())
    }

    /// Insert one row, maintaining all indexes.
    pub fn insert(&self, table: &str, values: &[Value]) -> Result<Rid> {
        let (_, rid) = self.insert_rows(table, [values])?;
        Ok(rid.expect("one row inserted"))
    }

    /// Bulk-insert rows (convenience for loaders), atomically per call:
    /// a refused row leaves none of the batch behind. The call holds
    /// the table's write lock for the whole batch. On a durable
    /// database the batch is one commit — one WAL transaction — so bulk
    /// loads do not pay a per-row serialization.
    pub fn insert_many<'r, I>(&self, table: &str, rows: I) -> Result<u64>
    where
        I: IntoIterator<Item = &'r [Value]>,
        I::IntoIter: Clone,
    {
        Ok(self.insert_rows(table, rows)?.0)
    }

    /// Insert `rows` as one [`Database::statement`]; once every page edit
    /// has succeeded, fold them into the statistics. Returns the row
    /// count and the last row's rid.
    fn insert_rows<'r, I>(&self, table: &str, rows: I) -> Result<(u64, Option<Rid>)>
    where
        I: IntoIterator<Item = &'r [Value]>,
        I::IntoIter: Clone,
    {
        let rows = rows.into_iter();
        self.statement(table, |entry, _| {
            let (mut n, mut last, mut bytes) = (0, None, vec![]);
            for values in rows.clone() {
                if !entry.schema.validates(values) {
                    let msg = format!("row does not match schema of {table}");
                    return Err(Error::TypeMismatch(msg));
                }
                Self::check_keys(entry, values)?;
                bytes.clear();
                codec::encode_row(values, &mut bytes);
                let rid = entry.heap.insert(&bytes)?;
                for index in entry.indexes.values_mut() {
                    Self::edit_index(index, None, Some((values, rid)))?;
                }
                entry.log_delta(|| RowDelta::Insert(values.to_vec(), rid));
                (n, last) = (n + 1, Some(rid));
            }
            if let Some(m) = entry.maintainer.as_mut() {
                rows.for_each(|values| m.add_row(values));
            }
            Ok((n > 0, (n, last)))
        })
    }

    /// Run `edit` as one statement on `table`, then commit: under the
    /// commit phase and the table's write lock, in one [`UndoScope`].
    /// If `edit` fails, the online builds on the table hear of it
    /// (`Database::log_undone`), the pager undoes its pages and the heap
    /// and the trees, with their planner views, return to their marks —
    /// before the phase guard drops. The epoch moves when `edit` says so.
    fn statement<T>(
        &self,
        table: &str,
        edit: impl FnOnce(&mut TableEntry, &UndoScope<'_>) -> Result<(bool, T)>,
    ) -> Result<T> {
        let done = {
            let _phase = self.mutation_phase();
            let entry = self.table(table)?;
            let e = &mut *Self::write_entry(&entry);
            let undo = self.pager.undo_scope();
            let heap = e.heap.mark();
            e.tree_marks.clear();
            e.tree_marks
                .extend(e.indexes.values().map(|index| index.btree.mark()));
            let (changed, done) = edit(e, &undo).or_else(|err| {
                let logged = Self::log_undone(e, &undo, heap);
                e.heap.roll_back(heap);
                for (index, &tree) in e.indexes.values_mut().zip(&e.tree_marks) {
                    index.btree.roll_back(tree);
                    index.info.shape = IndexEntry::shape_of(&index.btree);
                }
                logged.and(Err(err))
            })?;
            undo.commit();
            if changed {
                e.bump_epoch();
            }
            done
        };
        self.commit_if_durable()?;
        Ok(done)
    }

    /// Log, for the online builds scanning `entry`, that `undo` is about
    /// to undo a failed statement begun at `heap`, whose row changes so
    /// far are logged. A build may have read a page midway, when each
    /// slot held its row before, no row or its row now (a statement frees
    /// a slot at most once, then fills it at most once). So each row a
    /// changed page holds now is logged deleted, then each before inserted.
    fn log_undone(entry: &TableEntry, undo: &UndoScope<'_>, heap: HeapMark) -> Result<()> {
        if entry.build_logs.is_empty() {
            return Ok(());
        }
        let mut values = Vec::new();
        HeapFile::for_each_changed_row(&entry.heap, undo, heap, |before, rid, row| {
            codec::decode_row_into(row.bytes(), &mut values)?;
            entry.log_delta(|| match before {
                false => RowDelta::Delete(values.clone(), rid),
                true => RowDelta::Insert(values.clone(), rid),
            });
            Ok(())
        })
    }

    /// Full-scan `table` and rebuild its statistics. The scan's
    /// accumulated state is retained as a stats maintainer so later
    /// DML can be folded in and [`Database::refresh_stats`] can rebuild
    /// statistics without another scan.
    pub fn analyze(&self, table: &str) -> Result<Arc<TableStats>> {
        self.statement(table, |entry, _| {
            let _span = cdpd_obs::span!("engine.analyze", table = table);
            let mut maintainer = StatsMaintainer::new(entry.schema.len(), entry.heap.row_count());
            let mut values = Vec::with_capacity(entry.schema.len());
            entry.heap.for_each_row(|_, view| {
                codec::decode_row_into(view.bytes(), &mut values)?;
                maintainer.add_row(&values);
                Ok(())
            })?;
            maintainer.take_refresh(); // the scan itself is not pending DML
            let stats = Arc::new(maintainer.snapshot(entry.heap.page_count()));
            entry.stats = Some(stats.clone());
            entry.maintainer = Some(maintainer);
            entry.note_stats_replaced();
            Ok((true, stats))
        })
    }

    /// Rebuild `table`'s statistics from the retained analyze state —
    /// O(sample) histogram rebuilds, no heap scan — and report what
    /// changed since the last refresh (or analyze). A no-op (empty)
    /// refresh is returned when no DML has touched the table.
    ///
    /// # Errors
    /// The table must exist and have been `ANALYZE`d at least once.
    pub fn refresh_stats(&self, table: &str) -> Result<StatsRefresh> {
        // A clean table answers under the read lock, with no commit: the
        // advisor asks before every window seal, and a write lock would
        // stall the readers in flight.
        let clean = |e: &TableEntry| e.maintainer.as_ref().is_some_and(|m| !m.is_dirty());
        if self.read(table, clean)? {
            return Ok(StatsRefresh::default());
        }
        self.statement(table, |entry, _| {
            let Some(maintainer) = entry.maintainer.as_mut() else {
                let msg = format!("table {table} has no statistics; run analyze()");
                return Err(Error::InvalidArgument(msg));
            };
            if !maintainer.is_dirty() {
                return Ok((false, StatsRefresh::default()));
            }
            let _span = cdpd_obs::span!("engine.refresh_stats", table = table);
            cdpd_obs::counter!("engine.stats.refreshes").inc();
            let refresh = maintainer.take_refresh();
            entry.stats = Some(Arc::new(maintainer.snapshot(entry.heap.page_count())));
            entry.note_stats_replaced();
            Ok((true, refresh))
        })
    }

    /// The materialized index specs on `table`, in name order.
    pub fn index_specs(&self, table: &str) -> Result<Vec<IndexSpec>> {
        self.read(table, |e| {
            e.indexes.values().map(|i| i.spec.clone()).collect()
        })
    }

    /// Materialized shapes of `table`'s built indexes, exactly as the
    /// executor's planner sees them: `(spec, shape)` per index, shapes
    /// read from the live B-trees rather than estimated from
    /// statistics. This is the bridge the calibration layer uses to run
    /// the what-if planner against the real catalog (see
    /// [`crate::WhatIfEngine::snapshot_live`]).
    pub fn index_shapes(&self, table: &str) -> Result<Vec<(IndexSpec, IndexShape)>> {
        let shape = |i: &IndexEntry| (i.spec.clone(), i.info.shape);
        self.read(table, |e| e.indexes.values().map(shape).collect())
    }

    /// Each of `table`'s index trees' [`BTree::key_width`], in name
    /// order: for tests that compare two databases tree by tree.
    #[doc(hidden)]
    pub fn index_key_widths(&self, table: &str) -> Result<Vec<Option<usize>>> {
        self.read(table, |e| {
            e.indexes.values().map(|i| i.btree.key_width()).collect()
        })
    }

    /// Whether `spec` is materialized.
    pub fn has_index(&self, spec: &IndexSpec) -> bool {
        self.read(&spec.table, |e| e.indexes.contains_key(&spec.name()))
            .unwrap_or(false)
    }

    /// Scan → sort → bulk-load one index over a pinned snapshot's heap,
    /// without touching the catalog. Runs lock-free against the frozen
    /// page chain (pager pages are copy-on-write), so any number of
    /// builds — and foreground DML on the live entry — proceed
    /// concurrently. Returns the index and the build's measured I/O
    /// (scoped to this thread).
    fn build_index(snap: &TableSnapshot, spec: &IndexSpec) -> Result<(IndexEntry, IoStats)> {
        let _span = cdpd_obs::span!("ddl.create_index", index = spec.name());
        let scope = ThreadIoScope::start();
        let columns: Vec<ColumnId> = spec
            .columns
            .iter()
            .map(|c| {
                snap.schema
                    .column_id(c)
                    .ok_or_else(|| Error::NotFound(format!("column {c}")))
            })
            .collect::<Result<Vec<_>>>()?;
        let positions: Vec<usize> = columns.iter().map(|c| c.index()).collect();
        let btree = BTree::build_from_heap(&snap.heap, &positions)?;
        Ok((IndexEntry::new(spec.clone(), columns, btree), scope.delta()))
    }

    /// Move one row's entry in `index` from `old` to `new`, each a
    /// `(row values, rid)` and either absent: the one place a row's
    /// values become an index key. The tree is left alone when the rid
    /// and the key columns are unchanged. Deleting an absent entry is
    /// no error; inserting a present one is [`Error::AlreadyExists`],
    /// with no change. The planner's view of the tree's shape follows
    /// every edit that succeeds; a statement that fails midway rolls the
    /// view back with the tree (`Database::statement`), and a failed
    /// catch-up frees the whole tree.
    fn edit_index<'v>(
        index: &mut IndexEntry,
        old: Option<(&'v [Value], Rid)>,
        new: Option<(&'v [Value], Rid)>,
    ) -> Result<()> {
        let columns = &index.info.columns;
        if let (Some((was, from)), Some((now, to))) = (old, new) {
            if from == to && columns.iter().all(|c| was[c.index()] == now[c.index()]) {
                return Ok(());
            }
        }
        let key = |values: &'v [Value]| columns.iter().map(|c| &values[c.index()]);
        if let Some((values, rid)) = old {
            index.btree.delete(key(values), rid)?;
        }
        if let Some((values, rid)) = new {
            index.btree.insert(key(values), rid)?;
        }
        index.info.shape = IndexEntry::shape_of(&index.btree);
        Ok(())
    }

    /// Refuse, before a statement changes anything, a row whose key in
    /// one of `entry`'s indexes is over the B+-tree's cap.
    fn check_keys(entry: &TableEntry, values: &[Value]) -> Result<()> {
        entry.indexes.values().try_for_each(|index| {
            BTree::check_key(index.info.columns.iter().map(|c| &values[c.index()]))
        })
    }

    /// Replay the row deltas DML logged while an online build was
    /// scanning into the freshly bulk-loaded index, in chronological
    /// order. The scan may or may not have seen the row a delta
    /// describes, so an insert of an already-present `(key, rid)` and a
    /// delete of an absent one are both fine — which makes the
    /// installed tree exactly what a build at the install point would
    /// have produced.
    fn catch_up(index: &mut IndexEntry, deltas: &[RowDelta]) -> Result<()> {
        let _span = cdpd_obs::span!("ddl.create_index", index = index.spec.name());
        for delta in deltas {
            let edit = match delta {
                RowDelta::Insert(values, rid) => {
                    Self::edit_index(index, None, Some((values, *rid)))
                }
                RowDelta::Delete(values, rid) => {
                    Self::edit_index(index, Some((values, *rid)), None)
                }
            };
            match edit {
                Ok(()) | Err(Error::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Refuse to build an index `e` already holds, or one `builds` names
    /// twice.
    fn check_free(e: &TableEntry, builds: &[&IndexSpec]) -> Result<()> {
        for (i, spec) in builds.iter().enumerate() {
            if e.indexes.contains_key(&spec.name()) || builds[..i].contains(spec) {
                return Err(Error::AlreadyExists(format!("index {}", spec.name())));
            }
        }
        Ok(())
    }

    /// Every change to `table`'s index set: `CREATE INDEX`, `DROP
    /// INDEX` and design changes. The report's `io` is the measured
    /// transition cost.
    ///
    /// 1. Drops `drops`, each under the table write lock; a tree's pages
    ///    return to the free list, and a touch of page 0 accounts the
    ///    catalog write.
    /// 2. Registers one build log for concurrent DML to feed and pins
    ///    one snapshot, under the phase and table write lock.
    /// 3. Builds `builds` from that snapshot with **no lock held**, up
    ///    to `threads` at once ([`crate::par::parallel_map`]; inline,
    ///    index by index, at one thread or for one build). Sessions
    ///    keep reading and writing the table, their row deltas
    ///    accumulating in the log.
    /// 4. Retakes the locks, unregisters the log and catches every new
    ///    tree up from it.
    /// 5. Installs the indexes in `builds` order and bumps the epoch
    ///    once.
    ///
    /// A build, a name or a catch-up that fails installs nothing and
    /// returns the built trees' pages.
    fn change_indexes(
        &self,
        table: &str,
        drops: &[&IndexSpec],
        builds: &[&IndexSpec],
        threads: usize,
    ) -> Result<DdlReport> {
        let entry = self.table(table)?;
        let mut report = DdlReport::default();
        for spec in drops {
            let _span = cdpd_obs::span!("ddl.drop_index", index = spec.name());
            let scope = ThreadIoScope::start();
            let _phase = self.mutation_phase();
            let e = &mut *Self::write_entry(&entry);
            let name = spec.name();
            let Some(dropped) = e.indexes.remove(&name) else {
                return Err(Error::NotFound(format!("index {name}")));
            };
            e.note_index_dropped(&name);
            e.bump_epoch();
            self.pager.free(&dropped.btree.into_pages());
            if self.pager.page_count() > 0 {
                self.pager.update(cdpd_types::PageId(0), |_| ())?;
            }
            report.io += scope.delta();
            report.dropped.push(name);
        }
        if builds.is_empty() {
            return Ok(report);
        }
        let (log, snap) = {
            let _phase = self.mutation_phase();
            let e = &mut *Self::write_entry(&entry);
            Self::check_free(e, builds)?;
            let log = BuildLog::default();
            e.build_logs.push(log.clone());
            (log, e.snapshot())
        };
        // A failed build must not lose the trees the others built.
        let built = crate::par::parallel_map(builds.len(), threads, |i| {
            Ok(Self::build_index(&snap, builds[i]))
        })?;
        let _phase = self.mutation_phase();
        let e = &mut *Self::write_entry(&entry);
        e.build_logs.retain(|l| !Arc::ptr_eq(l, &log));
        let deltas = std::mem::take(&mut *log.lock().expect("build log poisoned"));
        let mut indexes = Vec::with_capacity(builds.len());
        let mut built_all = Ok(());
        for result in built {
            match result {
                Ok(index) => indexes.push(index),
                Err(err) if built_all.is_ok() => built_all = Err(err),
                Err(_) => {}
            }
        }
        let scope = ThreadIoScope::start();
        let caught_up = built_all
            .and_then(|()| Self::check_free(e, builds))
            .and_then(|()| {
                indexes
                    .iter_mut()
                    .try_for_each(|(index, _)| Self::catch_up(index, &deltas))
            });
        if let Err(err) = caught_up {
            for (index, _) in indexes {
                self.pager.free(&index.btree.into_pages());
            }
            return Err(err);
        }
        report.io += scope.delta();
        for (index, io) in indexes {
            report.io += io;
            report.created.push(index.spec.name());
            e.indexes.insert(index.spec.name(), index);
        }
        e.bump_epoch();
        Ok(report)
    }

    /// `CREATE INDEX`: an *online* scan → sort → bulk load through
    /// `Database::change_indexes` — concurrent sessions keep reading
    /// and writing the table while it builds. The report's `io` is the
    /// measured transition cost of this build (scan + load + catch-up).
    pub fn create_index(&self, spec: &IndexSpec) -> Result<DdlReport> {
        let report = self.change_indexes(&spec.table, &[], &[spec], 1)?;
        self.commit_if_durable()?;
        Ok(report)
    }

    /// `DROP INDEX`. Cost model: one catalog write; the tree's pages
    /// return to the free list for reuse by later builds.
    pub fn drop_index(&self, spec: &IndexSpec) -> Result<DdlReport> {
        let report = self.change_indexes(&spec.table, &[spec], &[], 1)?;
        self.commit_if_durable()?;
        Ok(report)
    }

    /// Morph `table`'s index set into exactly `target`: drop what is no
    /// longer wanted, build what is missing. Returns the combined
    /// measured transition cost — the real-world `TRANS(C_i, C_j)`.
    ///
    /// Builds run one at a time; use
    /// [`Database::apply_configuration_with`] to build missing indexes
    /// concurrently.
    pub fn apply_configuration(&self, table: &str, target: &[IndexSpec]) -> Result<DdlReport> {
        self.apply_configuration_with(table, target, 1)
    }

    /// [`Database::apply_configuration`] with up to `threads` concurrent
    /// index builds, through `Database::change_indexes`.
    ///
    /// Drops are applied first, one at a time (each is one catalog
    /// touch). Missing indexes are then built from one pinned snapshot:
    /// every build needs only a shared read view of the heap, so worker
    /// threads scan and bulk-load in parallel against the lock-striped
    /// pager, and the finished trees are installed together in
    /// `target` order. The report is deterministic regardless of
    /// `threads`: `created`/`dropped` orders follow `target`/name
    /// order, and each build's I/O is measured on its own thread
    /// ([`ThreadIoScope`]) so the summed transition cost is
    /// bit-identical to a one-thread application.
    pub fn apply_configuration_with(
        &self,
        table: &str,
        target: &[IndexSpec],
        threads: usize,
    ) -> Result<DdlReport> {
        if let Some(spec) = target.iter().find(|s| s.table != table) {
            return Err(Error::InvalidArgument(format!(
                "configuration index {} is not on table {table}",
                spec.name()
            )));
        }
        let current = self.index_specs(table)?;
        let drops: Vec<&IndexSpec> = current.iter().filter(|s| !target.contains(s)).collect();
        let builds: Vec<&IndexSpec> = target.iter().filter(|s| !current.contains(s)).collect();
        let report = self.change_indexes(table, &drops, &builds, threads)?;
        // One commit for the whole design change: drops and builds land
        // as a single WAL transaction.
        self.commit_if_durable()?;
        Ok(report)
    }

    /// Run `f` with a planner over `entry`'s statistics and the
    /// planner views of its materialized indexes; without statistics,
    /// the `run analyze()` error. One `Vec` of references, whatever the
    /// number of indexes.
    fn with_planner<T>(
        entry: &TableEntry,
        table: &str,
        f: impl FnOnce(&Planner<'_, &IndexInfo>) -> Result<T>,
    ) -> Result<T> {
        let stats = entry.stats.as_deref().ok_or_else(|| {
            Error::InvalidArgument(format!("table {table} has no statistics; run analyze()"))
        })?;
        debug_assert!(entry
            .indexes
            .values()
            .all(|e| e.info.shape == IndexEntry::shape_of(&e.btree)));
        let infos: Vec<&IndexInfo> = entry.indexes.values().map(|e| &e.info).collect();
        f(&Planner::new(&entry.schema, stats, &infos))
    }

    /// Execute a query on the shareable read surface: `&self`, so any
    /// number of threads may call this concurrently (each statement
    /// read-locks its table entry and measures its own I/O via a
    /// [`ThreadIoScope`]). `materialize` selects between returning rows
    /// and counting matches.
    pub fn execute_select(&self, stmt: &SelectStmt, materialize: bool) -> Result<QueryResult> {
        let entry = self.table(&stmt.table)?;
        let entry = &*Self::read_entry(&entry);
        Self::with_planner(entry, &stmt.table, |planner| {
            let planned = planner.plan(stmt)?;
            let scope = ThreadIoScope::start();
            let out = exec::execute(entry, planner, &planned, materialize)?;
            Ok(QueryResult {
                count: out.count,
                rows: out.rows,
                aggregate: out.aggregate,
                io: scope.delta(),
                est_cost: planned.est_cost,
                plan: planned.describe(),
                path: planned.plan.kind(),
                index_backed: planned.plan != Plan::SeqScan,
            })
        })
    }

    /// Execute a query, materializing result rows.
    pub fn query(&self, stmt: &SelectStmt) -> Result<QueryResult> {
        self.execute_select(stmt, true)
    }

    /// Execute a query counting matches only (workload replay: all cost,
    /// no result materialization).
    pub fn query_count(&self, stmt: &SelectStmt) -> Result<QueryResult> {
        self.execute_select(stmt, false)
    }

    /// Plan a query without executing it.
    pub fn explain(&self, stmt: &SelectStmt) -> Result<String> {
        self.read(&stmt.table, |entry| {
            Self::with_planner(entry, &stmt.table, |planner| {
                Ok(planner.plan(stmt)?.describe())
            })
        })?
    }

    /// Execute a workload statement (query, update, or delete).
    ///
    /// Queries run in counting mode (no result materialization) since
    /// this is the workload-replay entry point; use [`Database::query`]
    /// for materialized results.
    pub fn execute_dml(&self, stmt: &Dml) -> Result<QueryResult> {
        match stmt {
            Dml::Select(s) => self.query_count(s),
            write => self.run_write(write),
        }
    }

    /// `UPDATE` or `DELETE` as one [`Database::statement`]: locate every
    /// affected row through the cost-based access path — all of them
    /// before the first change, so no Halloween hazard — then change
    /// them ([`Database::write_rows`]).
    fn run_write(&self, dml: &Dml) -> Result<QueryResult> {
        let scope = ThreadIoScope::start();
        let (count, planned) = self.statement(dml.table(), |entry, undo| {
            let (rids, planned) = Self::with_planner(entry, dml.table(), |planner| {
                let planned = planner.plan_write(dml)?;
                Ok((exec::collect_rids(entry, planner, &planned.find)?, planned))
            })?;
            Self::write_rows(entry, undo, &rids, dml)?;
            Ok((!rids.is_empty(), (rids.len() as u64, planned)))
        })?;
        Ok(QueryResult {
            count,
            rows: None,
            aggregate: None,
            io: scope.delta(),
            est_cost: planned.est_total,
            plan: planned.describe(),
            path: PathKind::Write,
            index_backed: planned.find.plan != Plan::SeqScan,
        })
    }

    /// Change the rows `rids` in one pass: each row's new image — the
    /// `UPDATE`'s assignments applied, none for a `DELETE` — goes to the
    /// heap, to every index and to the build logs. Only once the last
    /// page edit has succeeded does each row reach the statistics, its
    /// old image read again from its page's pre-image in `undo`.
    fn write_rows(
        entry: &mut TableEntry,
        undo: &UndoScope<'_>,
        rids: &[Rid],
        dml: &Dml,
    ) -> Result<()> {
        let schema = entry.schema.clone();
        let column = |name: &str| schema.column_id(name).expect("validated by plan_write");
        let set: Option<Vec<_>> = match dml {
            Dml::Update(stmt) => Some(stmt.set.iter().map(|(n, v)| (column(n), v)).collect()),
            _ => None,
        };
        // The new image, for an UPDATE.
        let assign = |old: &Vec<Value>, new: &mut Vec<Value>| {
            if let Some(set) = &set {
                new.clone_from(old);
                for &(col, value) in set {
                    new[col.index()] = value.clone();
                }
            }
        };
        let (mut old, mut new, mut bytes) = (vec![], vec![], vec![]);
        for &rid in rids {
            codec::decode_row_into(entry.heap.pin(rid)?.view().bytes(), &mut old)?;
            let to = if set.is_some() {
                assign(&old, &mut new);
                Self::check_keys(entry, &new)?;
                bytes.clear();
                codec::encode_row(&new, &mut bytes);
                Some(entry.heap.update(rid, &bytes)?)
            } else {
                entry.heap.delete(rid).map(|_| None)?
            };
            for index in entry.indexes.values_mut() {
                Self::edit_index(index, Some((&old, rid)), to.map(|to| (&new[..], to)))?;
            }
            entry.log_delta(|| RowDelta::Delete(old.clone(), rid));
            if let Some(to) = to {
                entry.log_delta(|| RowDelta::Insert(new.clone(), to));
            }
        }
        let Some(m) = entry.maintainer.as_mut() else {
            return Ok(());
        };
        for &rid in rids {
            codec::decode_row_into(HeapFile::pin_before(undo, rid)?.view().bytes(), &mut old)?;
            assign(&old, &mut new);
            match &set {
                Some(_) => m.update_row(&old, &new),
                None => m.delete_row(&old),
            }
        }
        Ok(())
    }

    /// Parse and execute a `;`-separated SQL script, returning one
    /// result per statement. Each statement is atomic; the script is
    /// not: execution stops at the first error, which that statement
    /// leaves undone and the ones before it applied. Errors are tagged
    /// with the zero-based statement index (`parse` errors by the `;`
    /// count before the failing offset), so a failure in a
    /// multi-statement script is attributable even when scripts are
    /// replayed out of band.
    pub fn execute_script(&self, sql: &str) -> Result<Vec<QueryResult>> {
        let stmts = cdpd_sql::parse_many(sql).map_err(|e| {
            if let Error::Parse { offset, .. } = e {
                let index = sql[..offset.min(sql.len())].matches(';').count();
                e.map_message(|m| format!("statement {index}: {m}"))
            } else {
                e
            }
        })?;
        stmts
            .into_iter()
            .enumerate()
            .map(|(i, stmt)| {
                self.execute_statement(stmt)
                    .map_err(|e| e.map_message(|m| format!("statement {i}: {m}")))
            })
            .collect()
    }

    /// Parse and execute one SQL statement.
    pub fn execute_sql(&self, sql: &str) -> Result<QueryResult> {
        self.execute_statement(cdpd_sql::parse(sql)?)
    }

    /// Execute one already-parsed statement. Queries run in counting
    /// mode; see [`Database::query`] for materialized results.
    pub fn execute_statement(&self, stmt: Statement) -> Result<QueryResult> {
        match stmt {
            Statement::Select(stmt) => self.query(&stmt),
            Statement::Update(stmt) => self.run_write(&Dml::Update(stmt)),
            Statement::Delete(stmt) => self.run_write(&Dml::Delete(stmt)),
            Statement::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| cdpd_types::ColumnDef::new(n, t))
                        .collect(),
                );
                self.create_table(&name, schema)?;
                Ok(Self::ddl_result(IoStats::default(), "Ddl".into()))
            }
            // Index names are canonicalized from table + columns
            // (`ix_<table>_<cols>`); the name in CREATE INDEX is
            // advisory and the canonical name is reported back in the
            // plan string. DROP INDEX takes the canonical name.
            Statement::CreateIndex { table, columns, .. } => {
                let spec = IndexSpec { table, columns };
                let report = self.create_index(&spec)?;
                let plan = format!("CreateIndex({})", report.created.join(","));
                Ok(Self::ddl_result(report.io, plan))
            }
            Statement::DropIndex { name } => {
                let spec = self
                    .tables
                    .read()
                    .expect("catalog lock poisoned")
                    .values()
                    .find_map(|t| {
                        Self::read_entry(t)
                            .indexes
                            .get(&name)
                            .map(|e| e.spec.clone())
                    })
                    .ok_or_else(|| Error::NotFound(format!("index {name}")))?;
                let report = self.drop_index(&spec)?;
                let plan = format!("DropIndex({})", report.dropped.join(","));
                Ok(Self::ddl_result(report.io, plan))
            }
            Statement::Insert { table, values } => {
                self.insert(&table, &values)?;
                Ok(Self::ddl_result(IoStats::default(), "Ddl".into()))
            }
        }
    }

    fn ddl_result(io: IoStats, plan: String) -> QueryResult {
        QueryResult {
            count: 0,
            rows: None,
            aggregate: None,
            io,
            est_cost: cdpd_types::Cost::ZERO,
            plan,
            path: PathKind::Other,
            index_backed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_types::ColumnDef;

    fn abcd_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ])
    }

    /// A small deterministic table in the paper's shape.
    fn load_db(rows: i64, modulus: i64) -> Database {
        let db = Database::new();
        db.create_table("t", abcd_schema()).unwrap();
        for i in 0..rows {
            let v = (i * 2654435761) % modulus;
            db.insert(
                "t",
                &[
                    Value::Int(v),
                    Value::Int((v * 7 + 1) % modulus),
                    Value::Int((v * 13 + 2) % modulus),
                    Value::Int((v * 31 + 3) % modulus),
                ],
            )
            .unwrap();
        }
        db.analyze("t").unwrap();
        db
    }

    #[test]
    fn create_insert_query_roundtrip() {
        let db = Database::new();
        db.create_table("t", abcd_schema()).unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 2, 3, 4)").unwrap();
        db.insert(
            "t",
            &[Value::Int(5), Value::Int(6), Value::Int(7), Value::Int(8)],
        )
        .unwrap();
        db.analyze("t").unwrap();
        let r = db.execute_sql("SELECT b FROM t WHERE a = 5").unwrap();
        assert_eq!(r.count, 1);
        assert_eq!(r.rows, Some(vec![vec![Value::Int(6)]]));
    }

    #[test]
    fn rejects_bad_rows_and_missing_objects() {
        let db = Database::new();
        db.create_table("t", abcd_schema()).unwrap();
        assert!(db.create_table("t", abcd_schema()).is_err());
        assert!(db.insert("t", &[Value::Int(1)]).is_err());
        assert!(db.insert("missing", &[]).is_err());
        assert!(db.query(&SelectStmt::point("missing", "a", 1)).is_err());
        // Query before analyze is an explicit error.
        assert!(db.query(&SelectStmt::point("t", "a", 1)).is_err());
    }

    #[test]
    fn index_changes_plan_and_cost() {
        let db = load_db(20_000, 5_000);
        let q = SelectStmt::point("t", "a", 1234);
        let scan = db.query_count(&q).unwrap();
        assert!(scan.plan.starts_with("SeqScan"), "{}", scan.plan);

        let spec = IndexSpec::new("t", &["a"]);
        let report = db.create_index(&spec).unwrap();
        assert!(report.io.reads > 0 && report.io.writes > 0);

        let seek = db.query_count(&q).unwrap();
        assert!(seek.plan.contains("IndexSeek"), "{}", seek.plan);
        assert!(
            seek.io.reads * 10 < scan.io.reads,
            "seek {} vs scan {}",
            seek.io.reads,
            scan.io.reads
        );
        // Same answer both ways.
        assert_eq!(seek.count, scan.count);
    }

    #[test]
    fn query_results_match_between_plans() {
        let db = load_db(5_000, 500);
        let q = SelectStmt::point("t", "b", 123);
        let baseline = db.query(&q).unwrap();
        db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
        let via_seek = db.query(&q).unwrap();
        db.create_index(&IndexSpec::new("t", &["a", "b"])).unwrap();
        let mut base_rows = baseline.rows.clone().unwrap();
        let mut seek_rows = via_seek.rows.clone().unwrap();
        base_rows.sort();
        seek_rows.sort();
        assert_eq!(base_rows, seek_rows);
        assert_eq!(baseline.count, via_seek.count);
    }

    #[test]
    fn index_maintenance_on_insert() {
        let db = load_db(1_000, 100);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.insert(
            "t",
            &[
                Value::Int(424242),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
            ],
        )
        .unwrap();
        // Stats are stale (424242 unseen), but execution must find it.
        let r = db.query(&SelectStmt::point("t", "a", 424242)).unwrap();
        assert_eq!(r.count, 1);
        assert!(r.plan.contains("IndexSeek"), "{}", r.plan);
    }

    #[test]
    fn apply_configuration_diffs() {
        let db = load_db(2_000, 500);
        let a = IndexSpec::new("t", &["a"]);
        let cd = IndexSpec::new("t", &["c", "d"]);
        let b = IndexSpec::new("t", &["b"]);
        db.apply_configuration("t", &[a.clone(), cd.clone()])
            .unwrap();
        assert!(db.has_index(&a) && db.has_index(&cd));

        let report = db
            .apply_configuration("t", &[a.clone(), b.clone()])
            .unwrap();
        assert_eq!(report.dropped, vec![cd.name()]);
        assert_eq!(report.created, vec![b.name()]);
        assert!(db.has_index(&b) && !db.has_index(&cd));

        // No-op transition costs nothing.
        let report = db
            .apply_configuration("t", &[a.clone(), b.clone()])
            .unwrap();
        assert_eq!(report.io.total(), 0);
        assert!(report.created.is_empty() && report.dropped.is_empty());
    }

    #[test]
    fn drop_index_is_cheap_create_is_not() {
        let db = load_db(10_000, 1_000);
        let spec = IndexSpec::new("t", &["a"]);
        let create = db.create_index(&spec).unwrap();
        let drop = db.drop_index(&spec).unwrap();
        assert!(drop.io.total() * 10 < create.io.total());
        assert!(drop.io.total() <= 2, "drop is a catalog touch");
        assert!(db.create_index(&spec).is_ok(), "can recreate after drop");
        assert!(db.drop_index(&IndexSpec::new("t", &["z"])).is_err());
    }

    #[test]
    fn repeated_design_changes_reuse_pages() {
        let db = load_db(5_000, 1_000);
        let a = IndexSpec::new("t", &["a"]);
        let b = IndexSpec::new("t", &["b"]);
        db.create_index(&a).unwrap();
        let after_first = db.page_count();
        for _ in 0..5 {
            db.apply_configuration("t", std::slice::from_ref(&b))
                .unwrap();
            db.apply_configuration("t", std::slice::from_ref(&a))
                .unwrap();
        }
        // Ten rebuilds later the footprint must not have grown by more
        // than one transient index worth of pages.
        assert!(
            db.page_count() <= after_first + after_first / 3,
            "pages grew {} -> {}",
            after_first,
            db.page_count()
        );
        // Queries still work against the recycled pages.
        let r = db.query_count(&SelectStmt::point("t", "a", 7)).unwrap();
        assert!(r.plan.contains("IndexSeek"), "{}", r.plan);
    }

    #[test]
    fn estimates_track_measurements() {
        // The planner's estimated I/O and the executor's measured I/O
        // must agree within a small factor for every access path.
        let db = load_db(50_000, 10_000);
        db.create_index(&IndexSpec::new("t", &["a", "b"])).unwrap();
        db.create_index(&IndexSpec::new("t", &["c"])).unwrap();
        let queries = [
            SelectStmt::point("t", "a", 7),
            SelectStmt::point("t", "b", 7),
            SelectStmt::point("t", "c", 7),
            SelectStmt::point("t", "d", 7),
        ];
        for q in &queries {
            let r = db.query_count(q).unwrap();
            let est = r.est_cost.ios().max(1) as f64;
            let meas = (r.io.total().max(1)) as f64;
            let ratio = est.max(meas) / est.min(meas);
            assert!(
                ratio < 2.5,
                "estimate {est} vs measured {meas} (plan {}) for {q}",
                r.plan
            );
        }
    }

    #[test]
    fn update_executes_and_maintains_indexes() {
        let db = load_db(5_000, 500);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.create_index(&IndexSpec::new("t", &["b"])).unwrap();
        let before = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE a = 123")
            .unwrap()
            .count;
        assert!(before > 0);
        let upd = db
            .execute_sql("UPDATE t SET b = 999999 WHERE a = 123")
            .unwrap();
        assert_eq!(upd.count, before);
        assert!(upd.plan.starts_with("Update via IndexSeek"), "{}", upd.plan);
        // The b-index must now find the rows under the new value.
        let hit = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE b = 999999")
            .unwrap();
        assert!(hit.plan.contains("IndexSeek"), "{}", hit.plan);
        assert_eq!(hit.count, before);
        // And the a-index is unchanged (a untouched).
        let again = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE a = 123")
            .unwrap();
        assert_eq!(again.count, before);
    }

    #[test]
    fn delete_executes_and_maintains_indexes() {
        let db = load_db(5_000, 500);
        db.create_index(&IndexSpec::new("t", &["c"])).unwrap();
        let victims = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE c = 77")
            .unwrap()
            .count;
        assert!(victims > 0);
        let del = db.execute_sql("DELETE FROM t WHERE c = 77").unwrap();
        assert_eq!(del.count, victims);
        assert_eq!(
            db.execute_sql("SELECT COUNT(*) FROM t WHERE c = 77")
                .unwrap()
                .count,
            0
        );
        // Index and heap agree after the delete.
        let via_index = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE c >= 0")
            .unwrap();
        let db2 = load_db(5_000, 500);
        db2.execute_sql("DELETE FROM t WHERE c = 77").unwrap();
        let via_scan = db2
            .execute_sql("SELECT COUNT(*) FROM t WHERE c >= 0")
            .unwrap();
        assert_eq!(via_index.count, via_scan.count);
    }

    #[test]
    fn refresh_stats_folds_dml_without_rescan() {
        let db = load_db(5_000, 500);
        assert!(
            db.refresh_stats("t").unwrap().is_noop(),
            "fresh analyze leaves nothing pending"
        );
        assert!(db.refresh_stats("missing").is_err());

        // Inserts move the row count without a re-analyze.
        let before = db.stats("t").unwrap().unwrap().row_count;
        for i in 0..50 {
            db.insert(
                "t",
                &[
                    Value::Int(900_000 + i),
                    Value::Int(0),
                    Value::Int(0),
                    Value::Int(0),
                ],
            )
            .unwrap();
        }
        let r = db.refresh_stats("t").unwrap();
        assert!(r.rows_changed);
        assert_eq!(r.changed_columns.len(), 4);
        let stats = db.stats("t").unwrap().unwrap();
        assert_eq!(stats.row_count, before + 50);
        assert_eq!(stats.columns[0].max, Some(Value::Int(900_049)));

        // An update touching one column reports just that column.
        db.execute_sql("UPDATE t SET b = 777777 WHERE a = 123")
            .unwrap();
        let r = db.refresh_stats("t").unwrap();
        assert!(!r.rows_changed);
        assert_eq!(r.changed_columns, vec![ColumnId(1)]);
        assert_eq!(
            db.stats("t").unwrap().unwrap().columns[1].max,
            Some(Value::Int(777_777))
        );

        // Deletes shrink the exact row count.
        let victims = db.execute_sql("DELETE FROM t WHERE c = 77").unwrap().count;
        assert!(victims > 0);
        let r = db.refresh_stats("t").unwrap();
        assert!(r.rows_changed);
        assert_eq!(
            db.stats("t").unwrap().unwrap().row_count,
            before + 50 - victims
        );

        // Refreshed stats keep the planner sound: estimates still track
        // measurements after a refresh-only (no re-analyze) cycle.
        let q = SelectStmt::point("t", "a", 123);
        let res = db.query_count(&q).unwrap();
        let est = res.est_cost.ios().max(1) as f64;
        let meas = res.io.total().max(1) as f64;
        assert!(est.max(meas) / est.min(meas) < 3.0, "{est} vs {meas}");
    }

    #[test]
    fn refresh_matches_full_analyze_on_inserts() {
        // For insert-only deltas (no stale-distinct asymmetry) the
        // refreshed statistics must agree with a from-scratch analyze
        // on every exact field.
        let db = load_db(2_000, 500);
        for i in 0..100 {
            db.insert(
                "t",
                &[
                    Value::Int(i % 37),
                    Value::Int(i % 11),
                    Value::Int(i),
                    Value::Int(5),
                ],
            )
            .unwrap();
        }
        db.refresh_stats("t").unwrap();
        let refreshed = db.stats("t").unwrap().unwrap().clone();
        db.analyze("t").unwrap();
        let scanned = db.stats("t").unwrap().unwrap();
        assert_eq!(refreshed.row_count, scanned.row_count);
        assert_eq!(refreshed.heap_pages, scanned.heap_pages);
        assert!((refreshed.avg_row_width - scanned.avg_row_width).abs() < 1e-9);
        for (r, s) in refreshed.columns.iter().zip(&scanned.columns) {
            assert_eq!(r.distinct, s.distinct);
            assert_eq!(r.min, s.min);
            assert_eq!(r.max, s.max);
        }
    }

    #[test]
    fn execute_dml_routes_all_kinds() {
        let db = load_db(2_000, 100);
        let q = Dml::Select(SelectStmt::point("t", "a", 5));
        let qr = db.execute_dml(&q).unwrap();
        assert!(qr.rows.is_none(), "replay mode counts only");
        let u = match cdpd_sql::parse("UPDATE t SET d = 1 WHERE a = 5").unwrap() {
            Statement::Update(u) => Dml::Update(u),
            _ => unreachable!(),
        };
        assert_eq!(db.execute_dml(&u).unwrap().count, qr.count);
        let d = match cdpd_sql::parse("DELETE FROM t WHERE a = 5").unwrap() {
            Statement::Delete(d) => Dml::Delete(d),
            _ => unreachable!(),
        };
        assert_eq!(db.execute_dml(&d).unwrap().count, qr.count);
        assert_eq!(db.execute_dml(&q).unwrap().count, 0);
    }

    #[test]
    fn unpredicated_update_touches_every_row() {
        let db = load_db(1_000, 100);
        let r = db.execute_sql("UPDATE t SET a = 42").unwrap();
        assert_eq!(r.count, 1_000);
        assert_eq!(
            db.execute_sql("SELECT COUNT(*) FROM t WHERE a = 42")
                .unwrap()
                .count,
            1_000
        );
    }

    #[test]
    fn write_estimates_track_measurements() {
        let db = load_db(20_000, 4_000);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.create_index(&IndexSpec::new("t", &["b", "c"])).unwrap();
        let r = db.execute_sql("UPDATE t SET b = 7 WHERE a = 99").unwrap();
        let est = r.est_cost.ios().max(1) as f64;
        let meas = r.io.total().max(1) as f64;
        let ratio = est.max(meas) / est.min(meas);
        assert!(
            ratio < 3.0,
            "estimate {est} vs measured {meas} ({})",
            r.plan
        );
    }

    #[test]
    fn count_star_and_star_queries() {
        let db = load_db(2_000, 100);
        let r = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE a = 5")
            .unwrap();
        assert!(r.count > 0);
        assert!(r.rows.is_none());
        let r = db.execute_sql("SELECT * FROM t WHERE a = 5").unwrap();
        assert_eq!(r.rows.as_ref().unwrap().len(), r.count as usize);
        assert_eq!(r.rows.unwrap()[0].len(), 4);
    }

    #[test]
    fn execute_script_runs_statement_sequences() {
        let db = Database::new();
        let results = db
            .execute_script(
                "CREATE TABLE s (x INT, y INT);\n\
                 INSERT INTO s VALUES (1, 10);\n\
                 INSERT INTO s VALUES (2, 20);\n\
                 INSERT INTO s VALUES (3, 30);",
            )
            .unwrap();
        assert_eq!(results.len(), 4);
        db.analyze("s").unwrap();
        let results = db
            .execute_script("CREATE INDEX i_x ON s (x); SELECT SUM(y) FROM s WHERE x >= 2;")
            .unwrap();
        assert!(
            results[0].plan.contains("ix_s_x"),
            "canonical name reported"
        );
        assert_eq!(results[1].aggregate, Some(Value::Int(50)));
        // First error aborts, earlier statements stay applied (drop
        // uses the canonical name).
        let err = db
            .execute_script("DROP INDEX ix_s_x; DROP INDEX nope;")
            .unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        assert!(!db.has_index(&IndexSpec::new("s", &["x"])));
        // Execution errors name the zero-based failing statement.
        assert!(err.to_string().contains("statement 1:"), "{err}");
    }

    #[test]
    fn execute_script_errors_report_statement_index() {
        let db = Database::new();
        db.execute_script("CREATE TABLE s (x INT, y INT);").unwrap();
        db.analyze("s").unwrap();
        // Parse errors are attributed by the `;` count before the
        // failing offset — here the third statement (index 2).
        let err = db
            .execute_script(
                "INSERT INTO s VALUES (1, 10); INSERT INTO s VALUES (2, 20); SELEC x FROM s;",
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Parse { message, .. } if message.starts_with("statement 2:")),
            "{err}"
        );
        // Nothing ran: parsing fails the whole script up front.
        let count = db.execute_sql("SELECT x FROM s WHERE x >= 0").unwrap();
        assert_eq!(count.count, 0);
        // Type errors during execution carry their index too.
        let err = db
            .execute_script("INSERT INTO s VALUES (1, 10); INSERT INTO s VALUES (2);")
            .unwrap_err();
        assert!(
            matches!(&err, Error::TypeMismatch(m) if m.starts_with("statement 1:")),
            "{err}"
        );
    }

    #[test]
    fn aggregates_match_brute_force() {
        let db = load_db(5_000, 400);
        // Ground truth from materialized rows.
        let all_b = db.execute_sql("SELECT b FROM t WHERE a = 123").unwrap();
        let vals: Vec<i64> = all_b
            .rows
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert!(!vals.is_empty());

        let sum = db
            .execute_sql("SELECT SUM(b) FROM t WHERE a = 123")
            .unwrap();
        assert_eq!(sum.aggregate, Some(Value::Int(vals.iter().sum())));
        let min = db
            .execute_sql("SELECT MIN(b) FROM t WHERE a = 123")
            .unwrap();
        assert_eq!(min.aggregate, Some(Value::Int(*vals.iter().min().unwrap())));
        let max = db
            .execute_sql("SELECT MAX(b) FROM t WHERE a = 123")
            .unwrap();
        assert_eq!(max.aggregate, Some(Value::Int(*vals.iter().max().unwrap())));
        let avg = db
            .execute_sql("SELECT AVG(b) FROM t WHERE a = 123")
            .unwrap();
        assert_eq!(
            avg.aggregate,
            Some(Value::Int(vals.iter().sum::<i64>() / vals.len() as i64))
        );
        let count = db
            .execute_sql("SELECT COUNT(b) FROM t WHERE a = 123")
            .unwrap();
        assert_eq!(count.aggregate, Some(Value::Int(vals.len() as i64)));
    }

    #[test]
    fn unpredicated_min_max_use_index_extremum() {
        let db = load_db(20_000, 3_000);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        // Brute-force extremes via a scan on another column path.
        let all = db.execute_sql("SELECT a FROM t").unwrap();
        let vals: Vec<i64> = all
            .rows
            .unwrap()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        let (lo, hi) = (*vals.iter().min().unwrap(), *vals.iter().max().unwrap());

        let min = db.execute_sql("SELECT MIN(a) FROM t").unwrap();
        assert!(min.plan.contains("IndexExtremum"), "{}", min.plan);
        assert_eq!(min.aggregate, Some(Value::Int(lo)));
        assert!(
            min.io.total() < 10,
            "O(height) reads, got {}",
            min.io.total()
        );

        let max = db.execute_sql("SELECT MAX(a) FROM t").unwrap();
        assert!(max.plan.contains("IndexExtremum"), "{}", max.plan);
        assert_eq!(max.aggregate, Some(Value::Int(hi)));

        // With a predicate the extremum shortcut does not apply.
        let pred = db.execute_sql("SELECT MAX(a) FROM t WHERE b = 5").unwrap();
        assert!(!pred.plan.contains("IndexExtremum"), "{}", pred.plan);
    }

    #[test]
    fn order_by_and_limit() {
        let db = load_db(3_000, 500);
        let r = db
            .execute_sql("SELECT a FROM t WHERE b = 77 ORDER BY a")
            .unwrap();
        let got: Vec<i64> = r
            .rows
            .unwrap()
            .iter()
            .map(|x| x[0].as_int().unwrap())
            .collect();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "ascending order");
        assert!(got.len() > 2);

        let r = db
            .execute_sql("SELECT a FROM t WHERE b = 77 ORDER BY a DESC LIMIT 2")
            .unwrap();
        let desc: Vec<i64> = r
            .rows
            .unwrap()
            .iter()
            .map(|x| x[0].as_int().unwrap())
            .collect();
        assert_eq!(desc.len(), 2);
        assert_eq!(desc[0], *sorted.last().unwrap());
        assert!(desc[0] >= desc[1]);
        assert_eq!(r.count, 2, "count reflects the limit");

        // ORDER BY a column outside the projection: the helper column
        // must not leak into the output rows.
        let r = db
            .execute_sql("SELECT c FROM t WHERE b = 77 ORDER BY a")
            .unwrap();
        assert!(r.rows.unwrap().iter().all(|row| row.len() == 1));

        // An index on the order column makes the output index-ordered
        // without a sort (same answer either way).
        db.create_index(&IndexSpec::new("t", &["b", "a"])).unwrap();
        let r2 = db
            .execute_sql("SELECT a FROM t WHERE b = 77 ORDER BY a")
            .unwrap();
        let got2: Vec<i64> = r2
            .rows
            .unwrap()
            .iter()
            .map(|x| x[0].as_int().unwrap())
            .collect();
        assert_eq!(got2, sorted);
    }

    #[test]
    fn range_queries_execute_correctly() {
        let db = load_db(5_000, 1_000);
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        let scan = db
            .execute_sql("SELECT COUNT(*) FROM t WHERE a BETWEEN 100 AND 120 AND b >= 0")
            .unwrap();
        // Verify against a brute-force count via seq scan on column d
        // (no index): same predicate must give the same count.
        let db2 = load_db(5_000, 1_000);
        let brute = db2
            .execute_sql("SELECT COUNT(*) FROM t WHERE a BETWEEN 100 AND 120 AND b >= 0")
            .unwrap();
        assert_eq!(scan.count, brute.count);
        assert!(scan.count > 0);
    }

    /// Three short and three 2,750-byte keys in one leaf: a split by
    /// entry count alone leaves a right half larger than a page, and a
    /// panic there, under the table's write lock, would poison the lock
    /// for every session. The leaf splits to fit, other sessions keep
    /// being served, and a key over the cap is refused by INSERT,
    /// UPDATE and CREATE INDEX before a page moves.
    #[test]
    fn long_index_keys_split_and_over_cap_keys_are_refused() {
        let db = Database::new();
        db.execute_sql("CREATE TABLE t (a INT, s TEXT)").unwrap();
        db.execute_sql("CREATE INDEX i ON t (s)").unwrap();
        for i in 0..3 {
            db.execute_sql(&format!("INSERT INTO t VALUES ({i}, 'a{i}')"))
                .unwrap();
        }
        for i in 0..3 {
            let long = format!("z{i}{}", "x".repeat(2_748));
            db.execute_sql(&format!("INSERT INTO t VALUES ({i}, '{long}')"))
                .unwrap();
        }
        db.analyze("t").unwrap();
        let other_session =
            |sql: &str| std::thread::scope(|s| s.spawn(|| db.execute_sql(sql)).join().unwrap());
        assert_eq!(other_session("SELECT COUNT(*) FROM t").unwrap().count, 6);
        let pages = || (db.page_count(), db.pager().free_count());
        let before = pages();
        let over = "y".repeat(5_000);
        for sql in [
            format!("INSERT INTO t VALUES (9, '{over}')"),
            format!("UPDATE t SET s = '{over}' WHERE a = 1"),
        ] {
            let err = db.execute_sql(&sql).unwrap_err();
            assert!(matches!(err, Error::TooLarge(_)), "{err:?}");
        }
        assert_eq!(pages(), before, "a refused key changes no page");
        assert_eq!(other_session("SELECT COUNT(*) FROM t").unwrap().count, 6);
        assert_eq!(
            other_session("SELECT a FROM t WHERE s = 'a1'")
                .unwrap()
                .count,
            1
        );
        db.execute_sql("CREATE TABLE u (s TEXT)").unwrap();
        db.execute_sql(&format!("INSERT INTO u VALUES ('{over}')"))
            .unwrap();
        let before = pages();
        let err = db.execute_sql("CREATE INDEX j ON u (s)").unwrap_err();
        assert!(matches!(err, Error::TooLarge(_)), "{err:?}");
        assert_eq!(pages(), before, "a refused build allocates no page");
        assert!(!db.has_index(&IndexSpec::new("u", &["s"])));
    }

    /// Runs `statements` and then `check` on an in-memory database, and
    /// on a durable one with a reopen in between. `statements` end with
    /// a refused one; a committed statement after it carries whatever
    /// it left behind into the log.
    fn in_process_and_reopened(statements: impl Fn(&Database), check: impl Fn(&Database)) {
        let db = Database::new();
        statements(&db);
        check(&db);
        let vfs = cdpd_storage::MemVfs::new();
        let open = || {
            let vfs = Arc::new(vfs.clone());
            Database::open_with_vfs(vfs, cdpd_storage::DurableOptions::default()).unwrap()
        };
        let db = open();
        statements(&db);
        db.execute_sql("CREATE TABLE later (z INT)").unwrap();
        drop(db);
        check(&open());
    }

    #[test]
    fn over_wide_update_is_refused_before_it_deletes_the_row() {
        let statements = |db: &Database| {
            db.execute_sql("CREATE TABLE t (a INT, s TEXT)").unwrap();
            db.execute_sql("CREATE INDEX i ON t (a)").unwrap();
            let rows: Vec<Vec<Value>> = (0..2_000)
                .map(|i| vec![Value::Int(i), Value::Str(format!("r{i}"))])
                .collect();
            db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
            db.analyze("t").unwrap();
            let wide = "w".repeat(8_300);
            let err = db
                .execute_sql(&format!("UPDATE t SET s = '{wide}' WHERE a = 1"))
                .unwrap_err();
            assert!(matches!(err, Error::TooLarge(_)), "{err:?}");
        };
        in_process_and_reopened(statements, |db| {
            let count = |sql: &str| db.execute_sql(sql).unwrap().count;
            assert_eq!(count("SELECT COUNT(*) FROM t"), 2_000);
            assert_eq!(count("SELECT COUNT(*) FROM t WHERE a = 1"), 1);
            let row = db.execute_sql("SELECT s FROM t WHERE a = 1").unwrap();
            assert_eq!(row.rows, Some(vec![vec![Value::Str("r1".into())]]));
            assert_eq!(count("UPDATE t SET s = 'u' WHERE a = 1"), 1);
            assert_eq!(count("DELETE FROM t WHERE a = 1"), 1);
            assert_eq!(count("SELECT COUNT(*) FROM t"), 1_999);
        });
    }

    #[test]
    fn multi_row_update_refused_on_a_later_row_changes_no_row() {
        let long = "v".repeat(1_500);
        let statements = |db: &Database| {
            db.execute_sql("CREATE TABLE x (a INT, s TEXT, t TEXT)")
                .unwrap();
            db.execute_sql("CREATE INDEX i ON x (s, t)").unwrap();
            db.execute_sql("INSERT INTO x VALUES (1, 'p', 'q')")
                .unwrap();
            let wide = "w".repeat(3_000);
            db.execute_sql(&format!("INSERT INTO x VALUES (2, 'p', '{wide}')"))
                .unwrap();
            db.analyze("x").unwrap();
            let err = db
                .execute_sql(&format!("UPDATE x SET s = '{long}'"))
                .unwrap_err();
            assert!(matches!(err, Error::TooLarge(_)), "{err:?}");
        };
        in_process_and_reopened(statements, |db| {
            let count = |sql: &str| db.execute_sql(sql).unwrap().count;
            let moved = format!("SELECT COUNT(*) FROM x WHERE a = 1 AND s = '{long}'");
            assert_eq!(count(&moved), 0);
            assert_eq!(count("SELECT COUNT(*) FROM x WHERE s = 'p'"), 2);
            assert_eq!(count("SELECT COUNT(*) FROM x WHERE a = 1 AND s = 'p'"), 1);
        });
    }
}
