//! Catalog persistence: the byte codec behind [`Database::open`].
//!
//! The catalog is everything needed to interpret the pager's pages:
//! table schemas, heap/B+-tree *shapes* (page lists and counters — the
//! page *contents* travel in the WAL as page images), statistics,
//! retained analyze state, and an opaque application-state blob (the
//! advisory layer's warm state). It is persisted as **commit records**,
//! one per durable commit, and there is one record format:
//!
//! * A **delta** is the record a WAL commit frame carries: what the
//!   committed statements changed, measured against per-table *commit
//!   marks* ([`crate::catalog::CommitMark`], and the maintainer's own in
//!   `stats.rs`). A table no mutator has write-locked since its mark
//!   contributes nothing. A touched table — touched by a statement
//!   that succeeded *or failed midway*, since a failed statement's
//!   page writes ride the next commit all the same — contributes its scalar
//!   fields, the pages *appended* to its heap and index page lists
//!   (lists only grow), the values *appended* to each column's
//!   histogram sample and *newly inserted* into each distinct set
//!   (both only grow between `ANALYZE`s), its `TableStats` snapshot
//!   only if `ANALYZE` or a refresh replaced it, and the names of
//!   indexes dropped. `app_state` rides along only when
//!   `set_app_state` replaced it. Nothing is cloned or sorted; the
//!   cost of a commit is the size of what its statements changed, not
//!   the size of the catalog.
//! * An **image** is the same record measured against the *empty*
//!   catalog — every table whole, every list kept from 0 — so it is
//!   self-contained. Only the ping-pong checkpoint header needs one,
//!   and the pager asks for it lazily ([`image`] is the closure
//!   `Database` hands [`cdpd_storage::Pager::commit_with`] /
//!   [`cdpd_storage::Pager::checkpoint_with`]); a checkpoint is the
//!   only time the whole catalog is serialized.
//!
//! Both are written by [`encode`] and folded by [`apply`]. Recovery
//! ([`decode_catalog`]) starts from nothing, applies the header's image,
//! applies the delta of every WAL commit replayed past it in order, and
//! re-attaches every structure to the recovered pager with zero I/O —
//! marks set to exactly what was folded, so the first commit after
//! recovery is again a delta.
//!
//! Applying a record is **idempotent**, and applying a later delta that
//! re-covers an earlier one's changes is harmless (lists say "keep `n`,
//! then append", sets are unions, scalars are absolute, drops tolerate
//! absence). That is what keeps a *failed* commit safe: marks advance
//! only after [`cdpd_storage::Pager::commit_with`] acknowledges, so the
//! retry's delta covers both attempts' changes — even if the first
//! attempt's frame did reach the log.
//!
//! The encoding is versioned (magic + version in one token) and
//! *strict*: any truncation, trailing bytes, or length mismatch decodes
//! to [`Error::Corrupt`], never to a half-built catalog. Statistics are
//! persisted field-exactly — including the maintainer's sampling clock
//! and dirty flags — so a recovered database plans every statement
//! bit-identically to the uninterrupted run. The fields are written in
//! the shared record codec ([`cdpd_storage::codec`]'s `put_*` writers
//! and [`Reader`]), whose strictness this inherits.

use crate::catalog::{IndexEntry, IndexSpec, TableEntry};
use crate::stats::{StatsMaintainer, TableStats};
use crate::Database;
use cdpd_storage::codec::{
    put_bool, put_bytes, put_len, put_list, put_opt, put_str, put_u16, put_u32, put_u64, put_u8,
    Reader,
};
use cdpd_storage::{BTree, HeapFile, Pager};
use cdpd_types::{ColumnDef, ColumnId, Error, PageId, Result, Schema, TableId, ValueType};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

/// Commit record magic: format name + version in one token.
const MAGIC: &[u8; 8] = b"cdpdcat2";

/// A page list as "keep the first `keep`, then append the rest" — the
/// whole list when `keep` is 0.
fn put_page_patch(out: &mut Vec<u8>, keep: usize, pages: &[PageId]) {
    put_len(out, keep);
    put_list(out, &pages[keep..], |out, p| put_u32(out, p.0));
}

// ---------------------------------------------------------------------
// Commit records: encode
// ---------------------------------------------------------------------

/// The tables a commit record carried — whose marks advance once the
/// commit is acknowledged.
pub(crate) type Carried = Vec<Arc<RwLock<TableEntry>>>;

/// Serialize a commit record: against the commit marks (a delta, for a
/// WAL commit frame) or, with `whole`, against the empty catalog (an
/// image, for a checkpoint header). See the [module docs](self).
///
/// The caller holds the commit phase exclusively, so no statement is
/// mid-mutation; tables are only read-locked, and none is locked when
/// this returns.
pub(crate) fn encode(db: &Database, whole: bool) -> (Vec<u8>, Carried) {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, db.next_table_id.load(Ordering::Relaxed));
    let app_state = (whole || db.app_state_dirty.load(Ordering::Relaxed))
        .then(|| db.app_state.read().expect("app state poisoned"));
    put_opt(&mut out, app_state, |out, app| put_bytes(out, &app));
    let count_at = out.len();
    put_u32(&mut out, 0);
    let mut carried = Carried::new();
    for (name, entry) in db.tables.read().expect("catalog lock poisoned").iter() {
        let e = entry.read().expect("table lock poisoned");
        if encode_table(&mut out, name, &e, whole) {
            carried.push(entry.clone());
        }
    }
    out[count_at..count_at + 4].copy_from_slice(&(carried.len() as u32).to_le_bytes());
    (out, carried)
}

/// The self-contained image of the catalog as it stands.
pub(crate) fn image(db: &Database) -> Vec<u8> {
    encode(db, true).0
}

/// Append `e`'s part of a commit record, unless it is a delta and the
/// table has not changed since its mark. Returns whether it was
/// appended.
fn encode_table(out: &mut Vec<u8>, name: &str, e: &TableEntry, whole: bool) -> bool {
    let mark = e.mark.lock().expect("commit mark poisoned");
    if !whole && mark.committed && !mark.touched {
        return false;
    }
    // A table no commit has carried goes whole, like every table of an image.
    let whole = whole || !mark.committed;
    put_str(out, name);
    put_bool(out, whole);
    if whole {
        put_u32(out, e.id.0);
        put_u16(out, e.schema.len() as u16);
        for col in e.schema.columns() {
            put_str(out, &col.name);
            put_u8(out, type_tag(col.ty));
        }
    }
    put_page_patch(out, if whole { 0 } else { mark.heap_pages }, e.heap.pages());
    put_u64(out, e.heap.row_count());
    // Retained analyze state and the materialized snapshot. Both are
    // persisted: the snapshot may lag the maintainer (DML folded in but
    // not yet refreshed), and recovery must reproduce exactly that.
    put_opt(out, e.maintainer.as_ref(), |out, m| m.encode(whole, out));
    let stats = e.stats.as_ref().filter(|_| whole || mark.stats_replaced);
    put_opt(out, stats, |out, s| s.encode(out));
    let dropped: &[String] = if whole { &[] } else { &mark.dropped };
    put_list(out, dropped, |out, name| put_str(out, name));
    // Indexes, in canonical-name order (BTreeMap iteration). A few
    // dozen bytes each, so every index of a touched table is written
    // rather than tracking which of them the statements reached.
    put_len(out, e.indexes.len());
    for (name, ix) in &e.indexes {
        ix.spec.encode(out);
        put_u16(out, ix.info.columns.len() as u16);
        for c in &ix.info.columns {
            put_u16(out, c.0);
        }
        put_u32(out, ix.btree.root().0);
        put_u32(out, ix.btree.height());
        let keep = match mark.index_pages.get(name) {
            Some(&len) if !whole => len,
            _ => 0,
        };
        put_page_patch(out, keep, ix.btree.pages());
        put_u64(out, ix.btree.leaf_count());
        put_u64(out, ix.btree.entry_count());
    }
    true
}

/// The commit whose record carried these tables is durable (or, at
/// recovery, these are the tables just folded): what stands now is the
/// new mark.
pub(crate) fn advance_marks(db: &Database, carried: &Carried) {
    db.app_state_dirty.store(false, Ordering::Relaxed);
    for entry in carried {
        advance_mark(&entry.read().expect("table lock poisoned"));
    }
}

fn advance_mark(e: &TableEntry) {
    let mut mark = e.mark.lock().expect("commit mark poisoned");
    mark.committed = true;
    mark.touched = false;
    mark.heap_pages = e.heap.pages().len();
    for (name, ix) in &e.indexes {
        let len = ix.btree.pages().len();
        match mark.index_pages.get_mut(name) {
            Some(recorded) => *recorded = len,
            None => {
                mark.index_pages.insert(name.clone(), len);
            }
        }
    }
    mark.dropped.clear();
    mark.stats_replaced = false;
    if let Some(m) = &e.maintainer {
        m.advance_mark();
    }
}

// ---------------------------------------------------------------------
// Commit records: fold
// ---------------------------------------------------------------------

/// The catalog as plain data, while records are being folded into it.
#[derive(Default)]
struct CatalogState {
    next_table_id: u32,
    app_state: Vec<u8>,
    tables: BTreeMap<String, TableState>,
}

struct TableState {
    id: TableId,
    schema: Arc<Schema>,
    heap_pages: Vec<PageId>,
    row_count: u64,
    maintainer: Option<StatsMaintainer>,
    stats: Option<Arc<TableStats>>,
    indexes: BTreeMap<String, IndexState>,
}

struct IndexState {
    spec: IndexSpec,
    columns: Vec<ColumnId>,
    root: PageId,
    height: u32,
    pages: Vec<PageId>,
    leaf_count: u64,
    entry_count: u64,
}

/// Rebuild a [`Database`] from what recovery found — the checkpoint
/// header's image and the deltas of the WAL commits replayed past it,
/// oldest first — and the recovered pager. Pure metadata surgery: no
/// page I/O happens here. (An empty record is the pager's "no
/// metadata": the header of a database that has not checkpointed yet.)
pub(crate) fn decode_catalog(
    image: &[u8],
    deltas: &[Vec<u8>],
    pager: Arc<Pager>,
) -> Result<Database> {
    let mut state = CatalogState::default();
    let records = std::iter::once(image).chain(deltas.iter().map(Vec::as_slice));
    for record in records.filter(|r| !r.is_empty()) {
        apply(&mut state, record)?;
    }
    let db = Database::with_pager(pager.clone());
    db.next_table_id
        .store(state.next_table_id, Ordering::Relaxed);
    *db.app_state.write().expect("app state poisoned") = state.app_state;
    let mut tables = db.tables.write().expect("catalog lock poisoned");
    for (name, t) in state.tables {
        let indexes = t
            .indexes
            .into_iter()
            .map(|(name, ix)| {
                // An index on `INT` columns only has one key length;
                // the catalog does not record it.
                let all_int = ix
                    .columns
                    .iter()
                    .all(|c| t.schema.column(*c).map(|d| d.ty) == Some(ValueType::Int));
                let btree = BTree::from_parts(
                    pager.clone(),
                    ix.root,
                    ix.height,
                    ix.pages,
                    ix.leaf_count,
                    ix.entry_count,
                    all_int.then(|| BTree::int_key_width(ix.columns.len())),
                );
                (name, IndexEntry::new(ix.spec, ix.columns, btree))
            })
            .collect();
        // Epochs are per-process: a recovered catalog restarts at 0 with
        // no pinned snapshots or in-flight builds — and with its marks
        // at exactly what was folded.
        let entry = TableEntry {
            id: t.id,
            schema: t.schema,
            heap: HeapFile::from_parts(pager.clone(), t.heap_pages, t.row_count),
            stats: t.stats,
            maintainer: t.maintainer,
            indexes,
            epoch: 0,
            version: None,
            build_logs: Vec::new(),
            mark: Mutex::default(),
            tree_marks: Vec::new(),
        };
        advance_mark(&entry);
        tables.insert(name, Arc::new(RwLock::new(entry)));
    }
    drop(tables);
    Ok(db)
}

/// Fold one commit record into `state`.
fn apply(state: &mut CatalogState, record: &[u8]) -> Result<()> {
    let mut r = Reader::new(record, "catalog record");
    r.magic(MAGIC)?;
    state.next_table_id = r.u32()?;
    if let Some(app_state) = r.opt(Reader::bytes)? {
        state.app_state = app_state.to_vec();
    }
    for _ in 0..r.u32()? {
        apply_table(state, &mut r)?;
    }
    r.finish()
}

fn apply_table(state: &mut CatalogState, r: &mut Reader<'_>) -> Result<()> {
    let name = r.str()?;
    if r.bool()? {
        let id = TableId(r.u32()?);
        let n_cols = r.u16()? as usize;
        let cols = r.items(n_cols, |r| {
            Ok(ColumnDef::new(r.str()?, type_from_tag(r.u8()?)?))
        })?;
        let whole = TableState {
            id,
            schema: Arc::new(Schema::new(cols)),
            heap_pages: Vec::new(),
            row_count: 0,
            maintainer: None,
            stats: None,
            indexes: BTreeMap::new(),
        };
        state.tables.insert(name.clone(), whole);
    }
    let t = state
        .tables
        .get_mut(&name)
        .ok_or_else(|| Error::Corrupt(format!("delta for unknown table {name}")))?;
    patch_pages(&mut t.heap_pages, r)?;
    t.row_count = r.u64()?;
    if r.bool()? {
        StatsMaintainer::apply(&mut t.maintainer, r)?;
    }
    if let Some(stats) = r.opt(TableStats::decode)? {
        t.stats = Some(Arc::new(stats));
    }
    for _ in 0..r.u32()? {
        // Absent already if an earlier record covered the same drop.
        t.indexes.remove(&r.str()?);
    }
    for _ in 0..r.u32()? {
        let spec = IndexSpec::decode(r)?;
        let n_key_cols = r.u16()? as usize;
        let columns = r.items(n_key_cols, |r| r.u16().map(ColumnId))?;
        let root = PageId(r.u32()?);
        let height = r.u32()?;
        let name = spec.name();
        let mut pages = t.indexes.remove(&name).map_or_else(Vec::new, |ix| ix.pages);
        patch_pages(&mut pages, r)?;
        let ix = IndexState {
            spec,
            columns,
            root,
            height,
            pages,
            leaf_count: r.u64()?,
            entry_count: r.u64()?,
        };
        t.indexes.insert(name, ix);
    }
    Ok(())
}

/// Apply [`put_page_patch`]: keep a prefix of `pages`, append the rest.
fn patch_pages(pages: &mut Vec<PageId>, r: &mut Reader<'_>) -> Result<()> {
    let keep = r.u32()? as usize;
    if keep > pages.len() {
        return Err(Error::Corrupt(format!(
            "page-list patch keeps {keep} of {} pages",
            pages.len()
        )));
    }
    pages.truncate(keep);
    pages.extend(r.list(|r| r.u32().map(PageId))?);
    Ok(())
}

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Str => 1,
    }
}

fn type_from_tag(tag: u8) -> Result<ValueType> {
    match tag {
        0 => Ok(ValueType::Int),
        1 => Ok(ValueType::Str),
        t => Err(Error::Corrupt(format!("bad column type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_types::Value;

    #[test]
    fn bad_magic_is_corrupt() {
        let pager = Arc::new(Pager::new());
        match decode_catalog(b"notacat!rest", &[], pager) {
            Err(Error::Corrupt(_)) => {}
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("bad magic decoded"),
        }
    }

    /// Every proper prefix of an image — schema, statistics, maintainer,
    /// indexes and app state all present — and the image plus one byte
    /// are corrupt. (The empty record is the pager's "no metadata".)
    #[test]
    fn every_truncation_of_an_image_is_corrupt() {
        let db = Database::new();
        let schema = Schema::new(vec![ColumnDef::int("a"), ColumnDef::text("b")]);
        db.create_table("t", schema).unwrap();
        for i in 0..40 {
            db.insert("t", &[Value::Int(i), Value::Str(format!("s{i}"))])
                .unwrap();
        }
        db.analyze("t").unwrap();
        db.create_index(&IndexSpec::new("t", &["a"])).unwrap();
        db.set_app_state(b"app".to_vec()).unwrap();
        let record = image(&db);
        decode_catalog(&record, &[], db.pager.clone()).unwrap();
        for cut in 1..record.len() {
            match decode_catalog(&record[..cut], &[], db.pager.clone()) {
                Err(Error::Corrupt(_)) => {}
                Err(e) => panic!("cut {cut}: expected Corrupt, got {e}"),
                Ok(_) => panic!("cut {cut}: a truncated image decoded"),
            }
        }
        let mut long = record;
        long.push(0);
        assert!(matches!(
            decode_catalog(&long, &[], db.pager.clone()),
            Err(Error::Corrupt(_))
        ));
    }
}
