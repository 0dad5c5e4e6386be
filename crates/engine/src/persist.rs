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
//! bit-identically to the uninterrupted run.

use crate::catalog::{IndexEntry, IndexSpec, TableEntry};
use crate::stats::{StatsMaintainer, TableStats};
use crate::Database;
use cdpd_storage::{codec, BTree, HeapFile, Pager};
use cdpd_types::{ColumnDef, ColumnId, Error, PageId, Result, Schema, TableId, Value, ValueType};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

/// Commit record magic: format name + version in one token.
const MAGIC: &[u8; 8] = b"cdpdcat2";

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `f64` as IEEE-754 bits: exact round-trip, no formatting involved.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("blob too large"));
    out.extend_from_slice(bytes);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A value list, reusing the row codec (tagged, self-delimiting):
/// count, byte length, then the values — written in place, from
/// wherever the values live.
pub(crate) fn put_value_iter<'v>(
    out: &mut Vec<u8>,
    values: impl ExactSizeIterator<Item = &'v Value>,
) {
    put_u32(out, u32::try_from(values.len()).expect("too many values"));
    let len_at = out.len();
    put_u32(out, 0);
    for v in values {
        codec::encode_row(std::slice::from_ref(v), out);
    }
    let len = u32::try_from(out.len() - len_at - 4).expect("blob too large");
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

pub(crate) fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    put_value_iter(out, values.iter());
}

/// A page list as "keep the first `keep`, then append the rest" — the
/// whole list when `keep` is 0.
fn put_page_patch(out: &mut Vec<u8>, keep: usize, pages: &[PageId]) {
    put_u32(out, u32::try_from(keep).expect("page list too long"));
    put_u32(out, (pages.len() - keep) as u32);
    for p in &pages[keep..] {
        put_u32(out, p.0);
    }
}

pub(crate) fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_values(out, std::slice::from_ref(v));
        }
    }
}

// ---------------------------------------------------------------------
// Strict reader
// ---------------------------------------------------------------------

/// Cursor over a catalog blob. Every accessor fails with
/// [`Error::Corrupt`] on truncation; [`Reader::finish`] rejects
/// trailing bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Corrupt(format!(
                "catalog truncated: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("catalog string is not UTF-8".into()))
    }

    pub(crate) fn values(&mut self) -> Result<Vec<Value>> {
        let count = self.u32()? as usize;
        let bytes = self.bytes()?;
        let values = codec::decode_row(bytes)?;
        if values.len() != count {
            return Err(Error::Corrupt(format!(
                "value list decodes to {} values, header says {count}",
                values.len()
            )));
        }
        Ok(values)
    }

    pub(crate) fn opt_value(&mut self) -> Result<Option<Value>> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let mut vs = self.values()?;
                if vs.len() != 1 {
                    return Err(Error::Corrupt("optional value is not a singleton".into()));
                }
                Ok(vs.pop())
            }
            t => Err(Error::Corrupt(format!("bad option tag {t}"))),
        }
    }

    pub(crate) fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(Error::Corrupt(format!(
                "catalog has {} trailing bytes",
                self.buf.len()
            )))
        }
    }
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
    if whole || db.app_state_dirty.load(Ordering::Relaxed) {
        put_u8(&mut out, 1);
        put_bytes(&mut out, &db.app_state.read().expect("app state poisoned"));
    } else {
        put_u8(&mut out, 0);
    }
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
    put_u8(out, whole as u8);
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
    match &e.maintainer {
        None => put_u8(out, 0),
        Some(m) => {
            put_u8(out, 1);
            m.encode(whole, out);
        }
    }
    match &e.stats {
        Some(s) if whole || mark.stats_replaced => {
            put_u8(out, 1);
            s.encode(out);
        }
        _ => put_u8(out, 0),
    }
    let dropped: &[String] = if whole { &[] } else { &mark.dropped };
    put_u32(out, dropped.len() as u32);
    for name in dropped {
        put_str(out, name);
    }
    // Indexes, in canonical-name order (BTreeMap iteration). A few
    // dozen bytes each, so every index of a touched table is written
    // rather than tracking which of them the statements reached.
    put_u32(out, e.indexes.len() as u32);
    for (name, ix) in &e.indexes {
        put_str(out, &ix.spec.table);
        put_u16(out, ix.spec.columns.len() as u16);
        for c in &ix.spec.columns {
            put_str(out, c);
        }
        put_u16(out, ix.columns.len() as u16);
        for c in &ix.columns {
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
                let btree = BTree::from_parts(
                    pager.clone(),
                    ix.root,
                    ix.height,
                    ix.pages,
                    ix.leaf_count,
                    ix.entry_count,
                );
                let entry = IndexEntry {
                    spec: ix.spec,
                    columns: ix.columns,
                    btree,
                };
                (name, entry)
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
        };
        advance_mark(&entry);
        tables.insert(name, Arc::new(RwLock::new(entry)));
    }
    drop(tables);
    Ok(db)
}

/// Fold one commit record into `state`.
fn apply(state: &mut CatalogState, record: &[u8]) -> Result<()> {
    let mut r = Reader::new(record);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(Error::Corrupt("bad catalog magic".into()));
    }
    state.next_table_id = r.u32()?;
    match r.u8()? {
        0 => {}
        1 => state.app_state = r.bytes()?.to_vec(),
        t => return Err(Error::Corrupt(format!("bad app-state tag {t}"))),
    }
    for _ in 0..r.u32()? {
        apply_table(state, &mut r)?;
    }
    r.finish()
}

fn apply_table(state: &mut CatalogState, r: &mut Reader<'_>) -> Result<()> {
    let name = r.str()?;
    if r.u8()? != 0 {
        let id = TableId(r.u32()?);
        let n_cols = r.u16()? as usize;
        let mut cols = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let name = r.str()?;
            let ty = type_from_tag(r.u8()?)?;
            cols.push(ColumnDef::new(name, ty));
        }
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
    match r.u8()? {
        0 => {}
        1 => StatsMaintainer::apply(&mut t.maintainer, r)?,
        tag => return Err(Error::Corrupt(format!("bad maintainer tag {tag}"))),
    }
    match r.u8()? {
        0 => {}
        1 => t.stats = Some(Arc::new(TableStats::decode(r)?)),
        tag => return Err(Error::Corrupt(format!("bad stats tag {tag}"))),
    }
    for _ in 0..r.u32()? {
        // Absent already if an earlier record covered the same drop.
        t.indexes.remove(&r.str()?);
    }
    for _ in 0..r.u32()? {
        let table = r.str()?;
        let n_spec_cols = r.u16()? as usize;
        let mut spec_cols = Vec::with_capacity(n_spec_cols);
        for _ in 0..n_spec_cols {
            spec_cols.push(r.str()?);
        }
        let spec = IndexSpec {
            table,
            columns: spec_cols,
        };
        let n_key_cols = r.u16()? as usize;
        let mut columns = Vec::with_capacity(n_key_cols);
        for _ in 0..n_key_cols {
            columns.push(ColumnId(r.u16()?));
        }
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
    let n = r.u32()? as usize;
    pages.reserve(n.min(1 << 20));
    for _ in 0..n {
        pages.push(PageId(r.u32()?));
    }
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

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        let mut r = Reader::new(&out[..4]);
        assert!(r.u64().is_err());
        let mut r = Reader::new(&out);
        assert_eq!(r.u64().unwrap(), 7);
        r.finish().unwrap();
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        put_u8(&mut out, 1);
        let mut r = Reader::new(&out);
        r.u64().unwrap();
        assert!(matches!(r.finish(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn value_round_trips() {
        let vals = vec![
            Value::Int(-5),
            Value::Str("héllo".into()),
            Value::Int(i64::MAX),
        ];
        let mut out = Vec::new();
        put_values(&mut out, &vals);
        put_opt_value(&mut out, &Some(Value::Str("x".into())));
        put_opt_value(&mut out, &None);
        let mut r = Reader::new(&out);
        assert_eq!(r.values().unwrap(), vals);
        assert_eq!(r.opt_value().unwrap(), Some(Value::Str("x".into())));
        assert_eq!(r.opt_value().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let pager = Arc::new(Pager::new());
        match decode_catalog(b"notacat!rest", &[], pager) {
            Err(Error::Corrupt(_)) => {}
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("bad magic decoded"),
        }
    }
}
