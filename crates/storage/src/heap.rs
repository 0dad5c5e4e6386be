use crate::codec::RowView;
use crate::pager::{Page, Pager, UndoScope, PAGE_SIZE};
use crate::slotted;
use cdpd_types::{Error, PageId, Result, Rid};
use std::ops::Range;
use std::sync::Arc;

/// Unordered tuple storage: a chain of slotted pages on a shared pager.
///
/// Rows are stored in encoded form (see [`crate::codec::encode_row`]);
/// the heap itself is schema-agnostic. Inserts append to the last page
/// and allocate a new one when full, so a freshly loaded heap is dense —
/// its page count is the full-scan cost, exactly the quantity the cost
/// model's `EXEC` estimate for a sequential scan uses.
///
/// All read paths ([`HeapFile::for_each_row`], [`HeapFile::scan`],
/// [`HeapFile::fetch`]) take `&self` and go through the lock-striped
/// pager, so any number of threads may scan one heap concurrently
/// (pages are copy-on-write `Arc`s — a reader holds an immutable
/// snapshot of each page it touches); mutation stays `&mut self`, so
/// writers must hold an exclusive handle (the engine serializes them
/// under a per-table write lock).
///
/// The handle itself is `Clone`: a clone shares the pager and pins the
/// page chain *as of the clone* — the epoch-snapshot mechanism online
/// index builds scan against while the original keeps absorbing DML.
#[derive(Clone)]
pub struct HeapFile {
    pager: Arc<Pager>,
    pages: Vec<PageId>,
    row_count: u64,
}

impl HeapFile {
    /// Create an empty heap on `pager`.
    pub fn create(pager: Arc<Pager>) -> HeapFile {
        HeapFile {
            pager,
            pages: Vec::new(),
            row_count: 0,
        }
    }

    /// Reattach a heap persisted by a durable pager: `pages` (in chain
    /// order) and `row_count` come from the serialized catalog, the
    /// page contents from the pager itself. The caller must pass back
    /// exactly what [`HeapFile::pages`] / [`HeapFile::row_count`]
    /// reported at commit time.
    pub fn from_parts(pager: Arc<Pager>, pages: Vec<PageId>, row_count: u64) -> HeapFile {
        HeapFile {
            pager,
            pages,
            row_count,
        }
    }

    /// The heap's pages in chain order (for catalog persistence).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Refuse an encoded row too large for any page, as
    /// [`HeapFile::insert`] and [`HeapFile::update`] do before they
    /// change anything.
    fn check_row(row: &[u8]) -> Result<()> {
        if row.len() + 8 > PAGE_SIZE {
            return Err(Error::TooLarge(format!("row of {} bytes", row.len())));
        }
        Ok(())
    }

    /// Insert an encoded row, returning its record id.
    pub fn insert(&mut self, row: &[u8]) -> Result<Rid> {
        Self::check_row(row)?;
        if let Some(&last) = self.pages.last() {
            let slot = self.pager.update(last, |buf| slotted::insert(buf, row))?;
            if let Some(slot) = slot {
                self.row_count += 1;
                return Ok(Rid::new(last, slot));
            }
        }
        let page = self.pager.allocate();
        self.pages.push(page);
        let slot = self
            .pager
            .update(page, |buf| slotted::insert(buf, row))?
            .expect("row must fit in a fresh page");
        self.row_count += 1;
        Ok(Rid::new(page, slot))
    }

    /// Fetch one row by record id (one logical page read), borrowing
    /// it from its pinned page: no copy, no allocation.
    pub fn pin(&self, rid: Rid) -> Result<PinnedRow> {
        Self::pin_on(self.pager.read(rid.page)?, rid)
    }

    /// Row `rid` as it was when `undo` opened, read from its page's
    /// pre-image: no I/O. The statement must have changed that page.
    pub fn pin_before(undo: &UndoScope<'_>, rid: Rid) -> Result<PinnedRow> {
        let page = undo.pre_image(rid.page);
        let page = page.ok_or_else(|| Error::Corrupt(format!("no pre-image of {rid:?}")))?;
        Self::pin_on(page, rid)
    }

    fn pin_on(page: Page, rid: Rid) -> Result<PinnedRow> {
        let range = slotted::record_range(&page, rid.slot)
            .ok_or_else(|| Error::Corrupt(format!("no live record at {rid:?}")))?;
        Ok(PinnedRow { page, range })
    }

    /// Fetch one row by record id as an owned copy (one logical page
    /// read).
    pub fn fetch(&self, rid: Rid) -> Result<Vec<u8>> {
        Ok(self.pin(rid)?.view().bytes().to_vec())
    }

    /// Update a row. Overwrites in place when the new encoding fits in
    /// the old slot (rid unchanged); otherwise tombstones the old slot
    /// and reinserts, returning the row's new rid. Errors if `rid` does
    /// not name a live row, and leaves it alone if `row` is too large
    /// for any page.
    pub fn update(&mut self, rid: Rid, row: &[u8]) -> Result<Rid> {
        Self::check_row(row)?;
        let updated = self
            .pager
            .update(rid.page, |buf| slotted::update(buf, rid.slot, row))?;
        if updated {
            return Ok(rid);
        }
        if !self.delete(rid)? {
            return Err(Error::Corrupt(format!("no live record at {rid:?}")));
        }
        self.insert(row)
    }

    /// Delete one row. Returns true if it existed.
    pub fn delete(&mut self, rid: Rid) -> Result<bool> {
        let deleted = self
            .pager
            .update(rid.page, |buf| slotted::delete(buf, rid.slot))?;
        if deleted {
            self.row_count -= 1;
        }
        Ok(deleted)
    }

    /// Visit every live row in physical order: `visit(rid, row)` for
    /// each, stopping at the first error it returns. Each page is read
    /// once, in chain order, and its slot directory is walked in one
    /// loop that skips tombstones. The visitor is generic and inlined,
    /// so it compiles into the caller's crate and no per-row call
    /// crosses a crate boundary; the executor's sequential scan,
    /// `CREATE INDEX` and `ANALYZE` all walk the heap through it.
    ///
    /// ```ignore
    /// let mut sum = 0;
    /// heap.for_each_row(|_rid, row| {
    ///     sum += row.int(0)?;
    ///     Ok(())
    /// })?;
    /// ```
    #[inline]
    pub fn for_each_row<F>(&self, mut visit: F) -> Result<()>
    where
        F: FnMut(Rid, RowView<'_>) -> Result<()>,
    {
        for &pid in &self.pages {
            let page = self.pager.read(pid)?;
            let mut next = 0;
            while let Some((slot, range)) = slotted::next_live(&page, next) {
                visit(Rid::new(pid, slot), RowView::new(&page[range]))?;
                next = slot + 1;
            }
        }
        Ok(())
    }

    /// Visit the rows of each page of this heap that `undo` has changed
    /// or that joined the chain after `mark`: first those it holds now,
    /// as `visit(false, rid, row)`, then those it held when `undo`
    /// opened, as `visit(true, rid, row)` (a page that joined has none).
    pub fn for_each_changed_row<F>(
        &self,
        undo: &UndoScope<'_>,
        mark: HeapMark,
        mut visit: F,
    ) -> Result<()>
    where
        F: FnMut(bool, Rid, RowView<'_>) -> Result<()>,
    {
        for (i, &pid) in self.pages.iter().enumerate() {
            let before = undo.pre_image(pid);
            if before.is_some() || i >= mark.pages {
                walk_page(pid, &self.pager.read(pid)?, |rid, row| {
                    visit(false, rid, row)
                })?;
            }
            if let Some(before) = before {
                walk_page(pid, &before, |rid, row| visit(true, rid, row))?;
            }
        }
        Ok(())
    }

    /// Begin a full scan as a streaming cursor: the same rows and page
    /// reads as [`HeapFile::for_each_row`], one call per row. Production
    /// scans use the visitor; the cursor stays for callers that must
    /// pause between rows (tests, and the benchmark's heap-scan probe).
    ///
    /// ```ignore
    /// let mut scan = heap.scan();
    /// while let Some((rid, row)) = scan.next_row()? {
    ///     let v = row.int(0)?;
    /// }
    /// ```
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            heap: self,
            page_idx: 0,
            slot: 0,
            current: None,
        }
    }

    /// The heap's in-memory state, for [`HeapFile::roll_back`].
    pub fn mark(&self) -> HeapMark {
        HeapMark {
            pages: self.pages.len(),
            row_count: self.row_count,
        }
    }

    /// Return to `mark`, after an [`UndoScope`] has undone the pages a
    /// failed statement changed since. Page chains only grow under DML,
    /// so this drops the pages added since.
    pub fn roll_back(&mut self, mark: HeapMark) {
        self.pages.truncate(mark.pages);
        self.row_count = mark.row_count;
    }

    /// Number of live rows.
    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Number of pages (= sequential scan cost in logical reads).
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// The shared pager.
    pub fn pager(&self) -> &Arc<Pager> {
        &self.pager
    }
}

/// Visit every live row of heap page `pid`, whose image is `page`, in
/// slot order: one loop over the slot directory that skips tombstones.
/// [`HeapFile::for_each_row`] keeps its own copy of this loop: routed
/// through here, sequential scans measured slower.
#[inline]
fn walk_page<F>(pid: PageId, page: &Page, mut visit: F) -> Result<()>
where
    F: FnMut(Rid, RowView<'_>) -> Result<()>,
{
    let mut next = 0;
    while let Some((slot, range)) = slotted::next_live(page, next) {
        visit(Rid::new(pid, slot), RowView::new(&page[range]))?;
        next = slot + 1;
    }
    Ok(())
}

/// A [`HeapFile`]'s page-chain length and row count at one moment.
#[derive(Clone, Copy, Debug)]
pub struct HeapMark {
    pages: usize,
    row_count: u64,
}

/// One row of a heap page, kept readable by holding the page snapshot
/// it lives on (see [`HeapFile::pin`]).
pub struct PinnedRow {
    page: Page,
    range: Range<usize>,
}

impl PinnedRow {
    /// The row's encoded bytes.
    pub fn view(&self) -> RowView<'_> {
        RowView::new(&self.page[self.range.clone()])
    }
}

/// Streaming cursor over a heap's live rows in physical order.
///
/// Each page is read (and counted) exactly once per scan; rows are
/// exposed as zero-copy [`RowView`]s into the pinned page. It walks
/// each page with the same slot walker as [`HeapFile::for_each_row`],
/// which production scans use instead.
pub struct HeapScan<'h> {
    heap: &'h HeapFile,
    page_idx: usize,
    slot: u16,
    current: Option<Page>,
}

impl HeapScan<'_> {
    /// Advance to the next live row. Returns `None` at end of heap.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next_row(&mut self) -> Result<Option<(Rid, RowView<'_>)>> {
        loop {
            if let Some(page) = &self.current {
                if let Some((slot, range)) = slotted::next_live(page, self.slot) {
                    self.slot = slot + 1;
                    let rid = Rid::new(self.heap.pages[self.page_idx], slot);
                    // Slice through a fresh borrow of self.current: the
                    // view must live as long as &mut self's borrow.
                    let page = self.current.as_ref().expect("page pinned above");
                    return Ok(Some((rid, RowView::new(&page[range]))));
                }
                self.current = None;
                self.page_idx += 1;
            }
            let Some(&pid) = self.heap.pages.get(self.page_idx) else {
                return Ok(None);
            };
            self.current = Some(self.heap.pager.read(pid)?);
            self.slot = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_row, encode_row};
    use cdpd_types::Value;

    fn row_bytes(vals: &[i64]) -> Vec<u8> {
        let row: Vec<Value> = vals.iter().copied().map(Value::Int).collect();
        let mut out = Vec::new();
        encode_row(&row, &mut out);
        out
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        let rid = heap.insert(&row_bytes(&[1, 2, 3, 4])).unwrap();
        let bytes = heap.fetch(rid).unwrap();
        let row = decode_row(&bytes).unwrap();
        assert_eq!(
            row,
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn scan_sees_all_rows_in_order() {
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        for i in 0..1000 {
            heap.insert(&row_bytes(&[i, i * 2, 0, 0])).unwrap();
        }
        let mut scan = heap.scan();
        let mut seen = Vec::new();
        while let Some((_, view)) = scan.next_row().unwrap() {
            seen.push(view.int(0).unwrap());
        }
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn scan_costs_one_read_per_page() {
        let pager = Arc::new(Pager::new());
        let mut heap = HeapFile::create(pager.clone());
        for i in 0..1000i64 {
            heap.insert(&row_bytes(&[i, 0, 0, 0])).unwrap();
        }
        let pages = heap.page_count();
        assert!(pages > 1, "should span multiple pages");
        let before = pager.stats();
        let mut scan = heap.scan();
        while scan.next_row().unwrap().is_some() {}
        assert_eq!(pager.stats().delta(before).reads, pages);
    }

    #[test]
    fn delete_hides_row_from_scan_and_fetch() {
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        let r0 = heap.insert(&row_bytes(&[10, 0, 0, 0])).unwrap();
        let r1 = heap.insert(&row_bytes(&[20, 0, 0, 0])).unwrap();
        assert!(heap.delete(r0).unwrap());
        assert!(!heap.delete(r0).unwrap());
        assert!(heap.fetch(r0).is_err());
        assert_eq!(heap.row_count(), 1);
        let mut scan = heap.scan();
        let (rid, view) = scan.next_row().unwrap().unwrap();
        assert_eq!(rid, r1);
        assert_eq!(view.int(0).unwrap(), 20);
        assert!(scan.next_row().unwrap().is_none());
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        let rid = heap.insert(&row_bytes(&[1, 2, 3, 4])).unwrap();
        let new_rid = heap.update(rid, &row_bytes(&[9, 8, 7, 6])).unwrap();
        assert_eq!(rid, new_rid, "same-width row stays in place");
        let row = decode_row(&heap.fetch(rid).unwrap()).unwrap();
        assert_eq!(row[0], Value::Int(9));
        assert_eq!(heap.row_count(), 1);
    }

    #[test]
    fn update_growing_row_moves() {
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        let mut small = Vec::new();
        encode_row(&[Value::from("x")], &mut small);
        let rid = heap.insert(&small).unwrap();
        let mut big = Vec::new();
        encode_row(&[Value::from("a much longer string value")], &mut big);
        let new_rid = heap.update(rid, &big).unwrap();
        assert_ne!(rid, new_rid, "grown row must move");
        assert!(heap.fetch(rid).is_err(), "old rid is dead");
        let row = decode_row(&heap.fetch(new_rid).unwrap()).unwrap();
        assert_eq!(row[0], Value::from("a much longer string value"));
        assert_eq!(heap.row_count(), 1);
        // Updating a dead rid errors.
        assert!(heap.update(rid, &small).is_err());
    }

    #[test]
    fn rows_per_page_matches_paper_scale() {
        // 4 INT columns = 36 encoded bytes + 4 slot bytes = 40 per row;
        // the paper's ~200 rows/page arithmetic should hold.
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        for i in 0..1000i64 {
            heap.insert(&row_bytes(&[i, i, i, i])).unwrap();
        }
        let rows_per_page = 1000 / heap.page_count();
        assert!(
            (180..=210).contains(&rows_per_page),
            "rows/page = {rows_per_page}"
        );
    }

    #[test]
    fn oversized_row_rejected() {
        let mut heap = HeapFile::create(Arc::new(Pager::new()));
        let huge = vec![0u8; PAGE_SIZE];
        assert!(heap.insert(&huge).is_err());
    }
}
