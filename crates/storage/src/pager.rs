use crate::durable::{
    encode_header, encode_meta_head, recover_base, Durable, DurableOpen, DurableOptions,
    DurableStats, FILE_DATA, FILE_HDR, FILE_SUMS, FILE_WAL,
};
use crate::vfs::Vfs;
use crate::wal::WalWriter;
use cdpd_types::{Error, PageId, Result};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Size of a page in bytes. 8 KiB matches the SQL Server page size used
/// in the paper's experiments, so page-count arithmetic (≈200 rows per
/// heap page at 2.5 M rows ⇒ ≈12.5 k heap pages) lines up with the
/// magnitudes the paper's cost ratios imply.
pub const PAGE_SIZE: usize = 8192;

/// Number of lock stripes in the page table (power of two). Page `p`
/// lives in stripe `p mod SHARDS`, so sequentially allocated pages —
/// a heap chain, a bulk-loaded index — spread round-robin across
/// stripes and concurrent scans/seeks on different pages almost never
/// contend on the same lock.
pub const PAGER_SHARDS: usize = 16;
const SHARD_MASK: u32 = (PAGER_SHARDS as u32) - 1;
const SHARD_BITS: u32 = PAGER_SHARDS.trailing_zeros();

#[inline]
fn shard_of(id: PageId) -> usize {
    (id.raw() & SHARD_MASK) as usize
}

#[inline]
fn slot_of(id: PageId) -> usize {
    (id.raw() >> SHARD_BITS) as usize
}

#[inline]
fn id_of(shard: usize, slot: usize) -> PageId {
    PageId(((slot as u32) << SHARD_BITS) | shard as u32)
}

/// An immutable snapshot of one page's bytes.
///
/// Pages are shared via `Arc`, so "reading" a page is a refcount bump and
/// mutation is copy-on-write through [`Pager::update`]. This gives the
/// executor cheap, lock-free access to page contents while keeping the
/// pager the single point where I/O is counted.
pub type Page = Arc<[u8; PAGE_SIZE]>;

fn blank_page() -> Page {
    Arc::new([0u8; PAGE_SIZE])
}

/// Cumulative I/O counters, readable at any time.
///
/// `reads`/`writes` are *logical* page accesses — the quantity the
/// paper's cost model predicts and the quantity we report in the
/// Figure 3 reproduction. They are identical whether the pager is
/// in-memory or file-backed (cache misses, WAL appends, and writebacks
/// live in the separate *physical* ledger, [`DurableStats`]).
/// Subtracting two snapshots ([`IoStats::delta`]) scopes the counters
/// to one query or one index build — but only while a single thread is
/// driving the pager. Under concurrent execution use a
/// [`ThreadIoScope`], which counts exactly the accesses performed by
/// the current thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IoStats {
    /// Logical page reads.
    pub reads: u64,
    /// Logical page writes.
    pub writes: u64,
    /// Pages allocated.
    pub allocs: u64,
}

impl IoStats {
    /// Process-wide totals, summed over every pager instance, read from
    /// the `cdpd-obs` metrics registry (counters `storage.pager.reads`
    /// / `.writes` / `.allocs`). Per-instance [`Pager::stats`] remains
    /// the scoped view; this is the registry view of the same ledger.
    pub fn global() -> IoStats {
        let r = cdpd_obs::registry();
        IoStats {
            reads: r.counter_value("storage.pager.reads"),
            writes: r.counter_value("storage.pager.writes"),
            allocs: r.counter_value("storage.pager.allocs"),
        }
    }

    /// Counter increase from `earlier` to `self`.
    pub fn delta(self, earlier: IoStats) -> IoStats {
        IoStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
        }
    }

    /// Total page accesses (reads + writes).
    pub fn total(self) -> u64 {
        self.reads + self.writes
    }
}

impl std::ops::AddAssign for IoStats {
    fn add_assign(&mut self, other: IoStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.allocs += other.allocs;
    }
}

thread_local! {
    /// Per-thread logical-I/O ledger, incremented in lockstep with every
    /// pager's atomic counters. One statement executes entirely on one
    /// thread, so a [`ThreadIoScope`] around it measures exactly that
    /// statement's I/O even while sibling threads hammer the same pager.
    static THREAD_IO: Cell<IoStats> = const {
        Cell::new(IoStats {
            reads: 0,
            writes: 0,
            allocs: 0,
        })
    };
}

#[inline]
fn note_thread_io(reads: u64, writes: u64, allocs: u64) {
    THREAD_IO.with(|c| {
        let mut v = c.get();
        v.reads += reads;
        v.writes += writes;
        v.allocs += allocs;
        c.set(v);
    });
}

/// Measures the logical I/O performed **by the current thread** between
/// [`ThreadIoScope::start`] and [`ThreadIoScope::delta`].
///
/// This is the concurrency-safe replacement for diffing a pager's
/// global [`Pager::stats`] around a statement: global deltas conflate
/// the work of every concurrently executing thread, while the
/// thread-local ledger attributes each access to the thread that made
/// it. Per-pager atomics, the `cdpd-obs` tracked counters, and the
/// thread-local ledger are all incremented at the same call sites, so
/// summing per-thread deltas over a partition of the work reproduces
/// the global ledger exactly.
///
/// Scopes cover *all* pager instances touched by the thread; execution
/// paths that interleave two pagers within one scope see the sum.
#[derive(Clone, Copy, Debug)]
pub struct ThreadIoScope {
    start: IoStats,
}

impl ThreadIoScope {
    /// Begin measuring at the thread's current ledger position.
    pub fn start() -> ThreadIoScope {
        ThreadIoScope {
            start: THREAD_IO.with(Cell::get),
        }
    }

    /// I/O performed by this thread since [`ThreadIoScope::start`].
    pub fn delta(&self) -> IoStats {
        THREAD_IO.with(Cell::get).delta(self.start)
    }
}

/// The pages one thread's open [`UndoScope`] must put back or free.
struct UndoLog {
    /// Address of the pager the scope is open on; 0 when none is open.
    pager: usize,
    /// Pages the scope changed, each listed at its first change; their
    /// frames hold the pre-images.
    touched: Vec<PageId>,
    /// Pages the scope allocated, in allocation order.
    allocated: Vec<PageId>,
}

thread_local! {
    /// This thread's undo log. Its buffers outlive each scope, so a
    /// statement that fits the last one's capacity allocates nothing.
    static UNDO: RefCell<UndoLog> = const {
        RefCell::new(UndoLog {
            pager: 0,
            touched: Vec::new(),
            allocated: Vec::new(),
        })
    };
    /// Countdown to this thread's write hook (0: none), and the hook.
    static WRITE_HOOK: Cell<u64> = const { Cell::new(0) };
    static HOOK: Cell<Option<WriteHook>> = const { Cell::new(None) };
}

/// What [`at_nth_write`] runs.
type WriteHook = Box<dyn FnOnce() -> Result<()>>;

/// Run `hook` just before the `n`-th [`Pager::update`] or
/// [`Pager::write`] that this thread makes from now on, holding no
/// pager lock; if it returns an error, that write fails with it and
/// changes nothing (`n = 0` disarms). For tests that act at a chosen
/// point inside a statement.
#[doc(hidden)]
pub fn at_nth_write(n: u64, hook: impl FnOnce() -> Result<()> + 'static) {
    WRITE_HOOK.with(|c| c.set(n));
    HOOK.with(|h| h.set(Some(Box::new(hook))));
}

/// Fail the `n`-th [`Pager::update`] or [`Pager::write`] that this
/// thread makes from now on, before it changes anything (`0` disarms).
/// For tests of what a failed statement leaves behind.
#[doc(hidden)]
pub fn fail_nth_write(n: u64) {
    at_nth_write(n, || {
        Err(Error::Io(std::io::Error::other("injected write fault")))
    });
}

/// Count one write toward [`at_nth_write`]'s hook, running it at the
/// chosen write.
fn write_hook() -> Result<()> {
    if WRITE_HOOK.with(|c| c.replace(c.get().saturating_sub(1))) != 1 {
        return Ok(());
    }
    HOOK.with(Cell::take).map_or(Ok(()), |hook| hook())
}

/// A statement's undo scope: from [`Pager::undo_scope`] until
/// [`UndoScope::commit`], every page this thread changes keeps the
/// image it had when the scope opened, and every page it allocates is
/// listed. Dropping the scope uncommitted puts each of those images
/// back and frees those pages, so what the statement did to the pager
/// is undone whole. The pre-image is the frame's `Arc` — a refcount,
/// not a copy — though the page's next in-place change then copies it.
///
/// Only allocation is undone, never a free: the one caller frees pages
/// only in DDL, outside any scope.
pub struct UndoScope<'p> {
    pager: &'p Pager,
    keep: bool,
}

impl UndoScope<'_> {
    /// The image page `id` had when the scope opened, if the scope has
    /// changed it. Reading it is no I/O.
    pub fn pre_image(&self, id: PageId) -> Option<Page> {
        let shard = &self.pager.shards[shard_of(id)];
        let frames = shard.frames.read().expect("pager lock poisoned");
        match &frames.frames.get(slot_of(id))?.undo {
            Undo::Kept(page) => Some(page.clone()),
            Undo::Clear | Undo::Fresh => None,
        }
    }

    /// Keep every change the scope made.
    pub fn commit(mut self) {
        self.keep = true;
    }
}

impl Drop for UndoScope<'_> {
    fn drop(&mut self) {
        self.pager.close_undo_scope(!self.keep);
    }
}

/// One cache frame: the page image (absent when evicted to the file
/// backend), its durable-tier dirty bits, and a clock-LRU stamp.
///
/// `dirty_log` — modified since the last [`Pager::commit`]; the next
/// commit appends a frame for the page to the WAL and clears it. The
/// frame holds the byte ranges that differ from the page's *base*, the
/// image its previous frame logged (a full image when it has none: the
/// first log after open, after a checkpoint, or after a failed
/// append). The WAL writer keeps the base as the `Arc` the commit
/// logged, which is this frame's `page` until the next
/// [`Pager::update`] copies it, so a page not mutated since its commit
/// holds no second copy.
/// `dirty_page` — modified since the last [`Pager::checkpoint`]; the
/// next checkpoint writes the image back to the data file and clears
/// it. `dirty_log ⊆ dirty_page` always, and dirty frames are pinned
/// (never evicted), so an evicted frame can always be refetched from
/// the data file.
/// `undo` — what an open [`UndoScope`] knows of the page.
struct Frame {
    page: Option<Page>,
    dirty_log: bool,
    dirty_page: bool,
    stamp: AtomicU64,
    undo: Undo,
}

/// A frame's part in an open [`UndoScope`]. A frame is `Clear` unless
/// the scope has changed or allocated its page, so telling a page's
/// first change in the scope from a later one costs one match.
enum Undo {
    Clear,
    /// The scope allocated the page; undoing frees it.
    Fresh,
    /// The page as the scope found it.
    Kept(Page),
}

impl Frame {
    fn empty() -> Frame {
        Frame {
            page: None,
            dirty_log: false,
            dirty_page: false,
            stamp: AtomicU64::new(0),
            undo: Undo::Clear,
        }
    }
}

/// One stripe's frame array plus the slots whose dirty bits are set,
/// so commit and checkpoint visit the dirty frames and nothing else.
#[derive(Default)]
struct FrameTable {
    frames: Vec<Frame>,
    /// Slots with `dirty_log` set, each listed once.
    log_dirty: Vec<usize>,
    /// Slots with `dirty_page` set, each listed once.
    page_dirty: Vec<usize>,
}

impl FrameTable {
    /// The frame at `slot`, growing the array to reach it.
    fn frame_mut(&mut self, slot: usize) -> &mut Frame {
        if self.frames.len() <= slot {
            self.frames.resize_with(slot + 1, Frame::empty);
        }
        &mut self.frames[slot]
    }

    /// Set `dirty_log` on the frame at `slot`, listing it if it was clean.
    fn mark_log_dirty(&mut self, slot: usize) {
        if !std::mem::replace(&mut self.frames[slot].dirty_log, true) {
            self.log_dirty.push(slot);
        }
    }

    /// Set `dirty_page` on the frame at `slot`, listing it if it was clean.
    fn mark_page_dirty(&mut self, slot: usize) {
        if !std::mem::replace(&mut self.frames[slot].dirty_page, true) {
            self.page_dirty.push(slot);
        }
    }
}

/// One lock stripe of the page table: a slice of the frame array plus
/// the stripe's free list. Stripe `s` holds pages `s, s+16, s+32, …` at
/// slots `0, 1, 2, …`.
struct PageShard {
    frames: RwLock<FrameTable>,
    free: Mutex<Vec<PageId>>,
    /// Clock for LRU stamps (durable mode only).
    clock: AtomicU64,
    /// Resident (cached) frames in this stripe; maintained under the
    /// frame write lock.
    resident: AtomicUsize,
}

impl PageShard {
    fn new() -> PageShard {
        PageShard {
            frames: RwLock::new(FrameTable::default()),
            free: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }
}

/// The page store: allocates, reads, and writes fixed-size pages, and
/// counts every access.
///
/// All methods take `&self`. The page table is **lock-striped**:
/// [`PAGER_SHARDS`] stripes each guard `1/SHARDS` of the pages behind
/// their own `RwLock`, with per-stripe free lists, so concurrent reads
/// of different pages proceed in parallel (reads of pages in the same
/// stripe still share a read lock, which `RwLock` grants concurrently).
/// The I/O ledger is kept in atomics and stays *exact* under any
/// interleaving; a `Pager` can be shared (`Arc<Pager>`) between a
/// table's heap file and all of its indexes — mirroring one database
/// file holding many objects, with one ledger.
///
/// Page ids are dense (`0, 1, 2, …` in allocation order) regardless of
/// striping; [`Pager::free`] returns pages to their stripe's free list
/// and [`Pager::allocate`] reuses free pages (scanning stripes in index
/// order) before growing the table, so repeated index build/drop cycles
/// keep a bounded footprint.
///
/// # Storage backends
///
/// [`Pager::new`] is the in-memory pager every existing test and
/// experiment uses: all pages stay resident and nothing persists.
/// [`Pager::open_durable`] opens (or recovers) a **file-backed** pager
/// on a [`Vfs`]: the frame table becomes a cache in front of a
/// checksummed data file, mutations are redo-logged by
/// [`Pager::commit`] into a write-ahead log, and [`Pager::checkpoint`]
/// writes dirty pages back and truncates the log. The *logical* I/O
/// ledger is identical across backends; the durable tier keeps its own
/// physical ledger ([`Pager::durable_stats`]).
pub struct Pager {
    shards: [PageShard; PAGER_SHARDS],
    /// Next fresh page id; also the dense page count.
    next: AtomicU32,
    /// Total pages on all free lists (fast-path gate for reuse).
    free_len: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    allocs: AtomicU64,
    /// File-backed state; `None` for the in-memory pager.
    durable: Option<Durable>,
}

impl Default for Pager {
    fn default() -> Self {
        Self::new()
    }
}

impl Pager {
    /// An empty in-memory pager.
    pub fn new() -> Pager {
        Pager::build(None)
    }

    fn build(durable: Option<Durable>) -> Pager {
        Pager {
            shards: std::array::from_fn(|_| PageShard::new()),
            next: AtomicU32::new(0),
            free_len: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            durable,
        }
    }

    /// Open (or recover) a file-backed pager inside `vfs`.
    ///
    /// A blank namespace initializes a fresh database (and immediately
    /// makes an empty checkpoint header durable). Otherwise recovery
    /// runs: the newest valid ping-pong header is adopted, the WAL is
    /// scanned, every committed transaction newer than the header is
    /// replayed into the cache (its pages pinned dirty until the next
    /// checkpoint), and any torn tail past the last valid commit frame
    /// is truncated. Headers, WAL frames, and data pages are all
    /// checksummed, so torn or corrupted state is detected and reported
    /// as [`Error::Corrupt`] — never silently adopted.
    pub fn open_durable(vfs: Arc<dyn Vfs>, opts: DurableOptions) -> Result<DurableOpen> {
        let _span = cdpd_obs::span!("storage.recover");
        let base = recover_base(&*vfs)?;
        let fresh = base.is_none();
        let hdr0 = vfs.open(FILE_HDR[0])?;
        let hdr1 = vfs.open(FILE_HDR[1])?;
        let data = vfs.open(FILE_DATA)?;
        let sums = vfs.open(FILE_SUMS)?;
        let wal_file = vfs.open(FILE_WAL)?;

        let (mut next, mut free, app_image, hdr_seq, ckpt_no) = match base {
            Some(h) => (h.meta.next, h.meta.free, h.meta.app_meta, h.seq, h.ckpt_no),
            None => (0, vec![Vec::new(); PAGER_SHARDS], Vec::new(), 0, 0),
        };

        // Replay the committed WAL suffix on top of the header state.
        // Transactions at or below the header's sequence predate the
        // checkpoint that wrote it (the crash hit between header fsync
        // and WAL truncation) and are skipped.
        let mut seq = hdr_seq;
        let mut replayed = std::collections::HashSet::new();
        let mut app_deltas = Vec::new();
        let (valid_len, mut images) = crate::wal::scan(&*wal_file, |txn| {
            if txn.seq <= hdr_seq {
                return Ok(());
            }
            replayed.extend(txn.pages.iter().map(|id| id.raw()));
            let meta = crate::durable::decode_meta(&txn.meta)?;
            next = meta.next;
            free = meta.free;
            app_deltas.push(meta.app_meta);
            seq = txn.seq;
            Ok(())
        })?;

        if fresh {
            // Make the empty state durable so a later open can always
            // find a valid header once transactions start committing.
            let bytes = encode_header(0, 0, &encode_meta_head(next, free.iter(), 0), &[])?;
            hdr0.write_at(0, &bytes)?;
            hdr0.truncate(bytes.len() as u64)?;
            hdr0.sync()?;
        }

        let durable = Durable {
            data,
            sums,
            hdr: [hdr0, hdr1],
            wal: Mutex::new(WalWriter::new(wal_file, valid_len)?),
            opts,
            seq: AtomicU64::new(seq),
            ckpt_no: AtomicU64::new(ckpt_no),
            commit_serial: Mutex::new(()),
            free_uncommitted: AtomicBool::new(false),
            last_blob: Mutex::new(app_deltas.last().unwrap_or(&app_image).clone()),
            wal_appends: AtomicU64::new(0),
            wal_commits: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            writeback_pages: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            backend_fetches: AtomicU64::new(0),
        };
        let pager = Pager::build(Some(durable));
        pager.next.store(next, Ordering::Relaxed);
        let mut free_total = 0u64;
        for (shard, list) in pager.shards.iter().zip(free) {
            free_total += list.len() as u64;
            *shard.free.lock().expect("pager lock poisoned") = list;
        }
        pager.free_len.store(free_total, Ordering::Release);

        // Install replayed page images, pinned dirty: they are durable
        // in the WAL but not yet in the data file, so they must survive
        // in cache until the next checkpoint writes them back.
        for raw in replayed {
            let page = images
                .remove(&raw)
                .expect("the scan resolves every logged page");
            let id = PageId(raw);
            let shard = &pager.shards[shard_of(id)];
            let mut frames = shard.frames.write().expect("pager lock poisoned");
            let slot = slot_of(id);
            frames.frame_mut(slot).page = Some(page);
            frames.mark_page_dirty(slot);
            shard.resident.fetch_add(1, Ordering::Relaxed);
        }

        cdpd_obs::counter!("storage.recovery.opens").inc();
        cdpd_obs::counter!("storage.recovery.replayed_txns").add(app_deltas.len() as u64);
        Ok(DurableOpen {
            app_image,
            app_deltas,
            committed_seq: seq,
            pager,
        })
    }

    /// Whether this pager has a file backend.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Snapshot of the durable tier's physical ledger (all zeros for an
    /// in-memory pager).
    pub fn durable_stats(&self) -> DurableStats {
        match &self.durable {
            None => DurableStats::default(),
            Some(d) => DurableStats {
                wal_appends: d.wal_appends.load(Ordering::Relaxed),
                wal_commits: d.wal_commits.load(Ordering::Relaxed),
                wal_fsyncs: d.wal_fsyncs.load(Ordering::Relaxed),
                writeback_pages: d.writeback_pages.load(Ordering::Relaxed),
                checkpoints: d.checkpoints.load(Ordering::Relaxed),
                backend_fetches: d.backend_fetches.load(Ordering::Relaxed),
            },
        }
    }

    /// Sequence number of the newest committed transaction (0 for an
    /// in-memory pager or a fresh database).
    pub fn committed_seq(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.seq.load(Ordering::Relaxed))
    }

    /// Current WAL length in bytes (0 for an in-memory pager).
    pub fn wal_bytes(&self) -> u64 {
        self.durable
            .as_ref()
            .map_or(0, |d| d.wal.lock().expect("pager lock poisoned").len())
    }

    /// Pages currently resident in the cache (for an in-memory pager,
    /// every allocated page is resident).
    pub fn resident_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.resident.load(Ordering::Relaxed))
            .sum()
    }

    /// Allocate a zeroed page and return its id, reusing a freed page
    /// when one is available (stripes are scanned in index order, each
    /// stripe's list popped LIFO).
    pub fn allocate(&self) -> PageId {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        note_thread_io(0, 0, 1);
        cdpd_obs::tracked_counter!("storage.pager.allocs").inc();
        if self.free_len.load(Ordering::Acquire) > 0 {
            for shard in &self.shards {
                let popped = shard.free.lock().expect("pager lock poisoned").pop();
                if let Some(id) = popped {
                    self.free_len.fetch_sub(1, Ordering::Release);
                    // A recovered free-list page may predate any frame
                    // this process has materialized; `install` grows
                    // the table to reach it.
                    return self.install_fresh(id);
                }
            }
        }
        let raw = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(raw != u32::MAX, "page count exceeds u32");
        self.install_fresh(PageId(raw))
    }

    /// Install a blank page as `id`, just allocated, and list it in this
    /// thread's open undo scope.
    fn install_fresh(&self, id: PageId) -> PageId {
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        self.install(shard, &mut frames, slot, blank_page());
        if self.in_undo_scope() {
            frames.frames[slot].undo = Undo::Fresh;
            UNDO.with(|u| u.borrow_mut().allocated.push(id));
        }
        id
    }

    /// Open a statement's [`UndoScope`] on this thread.
    ///
    /// # Panics
    /// If this thread already has one open.
    pub fn undo_scope(&self) -> UndoScope<'_> {
        UNDO.with(|u| {
            let mut log = u.borrow_mut();
            assert_eq!(log.pager, 0, "an undo scope is already open on this thread");
            log.pager = self as *const Pager as usize;
        });
        UndoScope {
            pager: self,
            keep: false,
        }
    }

    /// Whether this thread has an undo scope open on this pager.
    fn in_undo_scope(&self) -> bool {
        UNDO.with(|u| u.borrow().pager == self as *const Pager as usize)
    }

    /// Inside this thread's undo scope, keep the frame at `slot` as the
    /// pre-image of page `id` at the scope's first change to it,
    /// fetching it first if it was evicted.
    fn keep_pre_image(
        &self,
        shard: &PageShard,
        frames: &mut FrameTable,
        slot: usize,
        id: PageId,
    ) -> Result<()> {
        if !matches!(frames.frame_mut(slot).undo, Undo::Clear) || !self.in_undo_scope() {
            return Ok(());
        }
        self.make_resident(shard, frames, slot, id)?;
        let frame = &mut frames.frames[slot];
        frame.undo = Undo::Kept(frame.page.clone().expect("frame resident"));
        UNDO.with(|u| u.borrow_mut().touched.push(id));
        Ok(())
    }

    /// End this thread's undo scope: put every kept pre-image back and
    /// free the allocated pages (`undo`), or just forget them. Runs from
    /// `Drop`, so it takes locks a panic may have poisoned.
    fn close_undo_scope(&self, undo: bool) {
        UNDO.with(|u| {
            let log = &mut *u.borrow_mut();
            log.pager = 0;
            for &id in log.touched.iter().chain(&log.allocated) {
                let shard = &self.shards[shard_of(id)];
                let mut frames = shard.frames.write().unwrap_or_else(PoisonError::into_inner);
                let frame = &mut frames.frames[slot_of(id)];
                if let Undo::Kept(pre) = std::mem::replace(&mut frame.undo, Undo::Clear) {
                    if undo {
                        frame.page = Some(pre);
                    }
                }
            }
            if undo {
                // Freed in reverse, pages taken from the free lists go
                // back in their order.
                log.allocated.reverse();
                self.free(&log.allocated);
            }
            log.touched.clear();
            log.allocated.clear();
        });
    }

    /// Put `page` into the frame at `slot` (growing the table to reach
    /// it), marking it dirty in durable mode and keeping the stripe's
    /// resident count exact.
    fn install(&self, shard: &PageShard, frames: &mut FrameTable, slot: usize, page: Page) {
        let frame = frames.frame_mut(slot);
        if frame.page.is_none() {
            shard.resident.fetch_add(1, Ordering::Relaxed);
        }
        frame.page = Some(page);
        if self.durable.is_some() {
            self.touch_dirty(shard, frames, slot);
        }
    }

    /// Durable mode: note that the resident frame at `slot` was just
    /// mutated — both dirty bits and a fresh LRU stamp.
    fn touch_dirty(&self, shard: &PageShard, frames: &mut FrameTable, slot: usize) {
        frames.mark_log_dirty(slot);
        frames.mark_page_dirty(slot);
        frames.frames[slot].stamp.store(
            shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
    }

    /// Return pages to the allocator (e.g. after `DROP INDEX`). The
    /// caller must guarantee nothing references them any more; the
    /// bytes are zeroed on reuse, not on free.
    pub fn free(&self, ids: &[PageId]) {
        let page_count = self.next.load(Ordering::Relaxed);
        for &id in ids {
            debug_assert!(id.raw() < page_count, "freeing unallocated page {id}");
            let mut free = self.shards[shard_of(id)]
                .free
                .lock()
                .expect("pager lock poisoned");
            debug_assert!(!free.contains(&id), "double free of page {id}");
            free.push(id);
            self.free_len.fetch_add(1, Ordering::Release);
        }
        if !ids.is_empty() {
            if let Some(d) = &self.durable {
                d.free_uncommitted.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Number of pages currently on the free lists.
    pub fn free_count(&self) -> u64 {
        self.free_len.load(Ordering::Acquire)
    }

    fn out_of_range(id: PageId) -> Error {
        Error::Corrupt(format!("page {id} out of range"))
    }

    /// Read a page (counted as one logical read).
    ///
    /// On a durable pager a cache miss fetches (and checksum-verifies)
    /// the page from the data file, counted in the physical ledger; the
    /// logical cost is one read either way.
    pub fn read(&self, id: PageId) -> Result<Page> {
        let shard = &self.shards[shard_of(id)];
        let cached = {
            let frames = shard.frames.read().expect("pager lock poisoned");
            frames.frames.get(slot_of(id)).and_then(|f| {
                let page = f.page.clone()?;
                if self.durable.is_some() {
                    f.stamp.store(
                        shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
                        Ordering::Relaxed,
                    );
                }
                Some(page)
            })
        };
        let page = match cached {
            Some(page) => {
                if id.raw() >= self.next.load(Ordering::Relaxed) {
                    return Err(Self::out_of_range(id));
                }
                page
            }
            None => {
                if id.raw() >= self.next.load(Ordering::Relaxed) {
                    return Err(Self::out_of_range(id));
                }
                let Some(d) = &self.durable else {
                    return Err(Self::out_of_range(id));
                };
                self.load_miss(d, id)?
            }
        };
        self.reads.fetch_add(1, Ordering::Relaxed);
        note_thread_io(1, 0, 0);
        cdpd_obs::tracked_counter!("storage.pager.reads").inc();
        Ok(page)
    }

    /// Fetch an evicted (or never-resident) page from the file backend
    /// and cache it clean, evicting a clean LRU frame if the stripe is
    /// over budget.
    fn load_miss(&self, d: &Durable, id: PageId) -> Result<Page> {
        let page = d.fetch(id)?;
        d.backend_fetches.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.backend.fetches").inc();
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if let Some(raced) = frames.frame_mut(slot).page.clone() {
            // Another thread cached it while we fetched.
            return Ok(raced);
        }
        Self::evict_over_budget(shard, &mut frames.frames, d.stripe_capacity(), 1);
        let frame = &mut frames.frames[slot];
        frame.page = Some(page.clone());
        frame.stamp.store(
            shard.clock.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        shard.resident.fetch_add(1, Ordering::Relaxed);
        Ok(page)
    }

    /// Drop clean least-recently-stamped frames until the stripe has
    /// room for `reserve` more residents within its budget. Dirty
    /// frames are pinned; if nothing is evictable the stripe
    /// temporarily exceeds its budget.
    fn evict_over_budget(shard: &PageShard, frames: &mut [Frame], capacity: usize, reserve: usize) {
        while shard.resident.load(Ordering::Relaxed) + reserve > capacity.max(1) {
            let victim = frames
                .iter_mut()
                .enumerate()
                .filter(|(_, f)| f.page.is_some() && !f.dirty_page && !f.dirty_log)
                .min_by_key(|(_, f)| f.stamp.load(Ordering::Relaxed))
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            frames[i].page = None;
            shard.resident.fetch_sub(1, Ordering::Relaxed);
            cdpd_obs::counter!("storage.pager.evictions").inc();
        }
    }

    /// Replace a page's contents (counted as one logical write).
    pub fn write(&self, id: PageId, page: Page) -> Result<()> {
        if id.raw() >= self.next.load(Ordering::Relaxed) {
            return Err(Self::out_of_range(id));
        }
        write_hook()?;
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if frames.frames.len() <= slot && self.durable.is_none() {
            return Err(Self::out_of_range(id));
        }
        self.keep_pre_image(shard, &mut frames, slot, id)?;
        self.install(shard, &mut frames, slot, page);
        self.writes.fetch_add(1, Ordering::Relaxed);
        note_thread_io(0, 1, 0);
        cdpd_obs::tracked_counter!("storage.pager.writes").inc();
        Ok(())
    }

    /// Read-modify-write a page in place (one read + one write).
    ///
    /// Copy-on-write: if the page is shared with readers the buffer is
    /// cloned before mutation, so outstanding [`Page`] handles never see
    /// torn updates.
    pub fn update<R>(&self, id: PageId, f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> Result<R> {
        if id.raw() >= self.next.load(Ordering::Relaxed) {
            return Err(Self::out_of_range(id));
        }
        write_hook()?;
        let shard = &self.shards[shard_of(id)];
        let mut frames = shard.frames.write().expect("pager lock poisoned");
        let slot = slot_of(id);
        if frames.frames.len() <= slot && self.durable.is_none() {
            return Err(Self::out_of_range(id));
        }
        self.make_resident(shard, &mut frames, slot, id)?;
        self.keep_pre_image(shard, &mut frames, slot, id)?;
        let frame = &mut frames.frames[slot];
        let buf = Arc::make_mut(frame.page.as_mut().expect("frame resident"));
        let r = f(buf);
        if self.durable.is_some() {
            self.touch_dirty(shard, &mut frames, slot);
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        note_thread_io(1, 1, 0);
        cdpd_obs::tracked_counter!("storage.pager.reads").inc();
        cdpd_obs::tracked_counter!("storage.pager.writes").inc();
        Ok(r)
    }

    /// Refetch the evicted page `id` into its frame at `slot` before it
    /// is mutated. The frame write lock is held across the fetch, which
    /// is fine for the single-writer workloads that mutate pages.
    fn make_resident(
        &self,
        shard: &PageShard,
        frames: &mut FrameTable,
        slot: usize,
        id: PageId,
    ) -> Result<()> {
        if frames.frame_mut(slot).page.is_some() {
            return Ok(());
        }
        let Some(d) = &self.durable else {
            return Err(Self::out_of_range(id));
        };
        let page = d.fetch(id)?;
        d.backend_fetches.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.backend.fetches").inc();
        frames.frames[slot].page = Some(page);
        shard.resident.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Commit every mutation since the last commit, with `app_meta` as
    /// the application's metadata: [`Pager::commit_with`] for a caller
    /// whose every commit is self-contained — the bytes are this
    /// commit's delta *and* the image any checkpoint up to the next
    /// commit writes ([`Pager::checkpoint`] remembers them).
    pub fn commit(&self, app_meta: &[u8]) -> Result<u64> {
        self.commit_inner(app_meta, &|| app_meta.to_vec(), true)
    }

    /// Commit every mutation since the last commit: append a frame per
    /// dirty page (what changed since the page's last logged image, see
    /// the `wal` module) plus a commit frame carrying the allocation state
    /// and `app_delta` — what this transaction changed of the
    /// application's metadata — to the WAL, fsyncing per the
    /// group-commit policy. Returns the commit's sequence number. No-op
    /// (returning 0) on an in-memory pager.
    ///
    /// The cost is that of what changed: only dirty frames are visited
    /// (clean stripes are not even write-locked) and `app_delta` is
    /// copied once, into the frame. `app_image` is called only if this
    /// commit pushes the log past
    /// [`DurableOptions::checkpoint_wal_bytes`] and the auto-checkpoint
    /// runs (see [`Pager::checkpoint_with`]); it must return a
    /// self-contained image of the application metadata *as of this
    /// commit*.
    ///
    /// On `Err` from the log append nothing was acknowledged and nothing
    /// is forgotten: the pages stay marked for the next commit, which
    /// logs them whole. (An
    /// `Err` from the auto-checkpoint leaves the commit itself durable —
    /// [`Pager::committed_seq`] has advanced.)
    ///
    /// Commits are serialized internally (racing callers queue on a
    /// commit mutex), and readers may run concurrently — but a commit
    /// snapshots *every* page dirtied since the last commit, so the
    /// caller must ensure no mutation is mid-flight when it commits
    /// (the engine holds its commit-phase lock exclusively here, and
    /// shared during statement mutation, for exactly this reason).
    pub fn commit_with(&self, app_delta: &[u8], app_image: &dyn Fn() -> Vec<u8>) -> Result<u64> {
        self.commit_inner(app_delta, app_image, false)
    }

    /// [`Pager::commit_with`]; `self_contained` says `app_delta` is also
    /// an image, to be remembered for [`Pager::checkpoint`].
    fn commit_inner(
        &self,
        app_delta: &[u8],
        app_image: &dyn Fn() -> Vec<u8>,
        self_contained: bool,
    ) -> Result<u64> {
        let Some(d) = &self.durable else {
            return Ok(0);
        };
        let _serial = d.commit_serial.lock().expect("pager lock poisoned");
        let _span = cdpd_obs::span!("storage.commit");
        let dirty = self.take_log_dirty();
        let freed = d.free_uncommitted.swap(false, Ordering::Relaxed);
        let seq = d.seq.load(Ordering::Relaxed) + 1;
        if let Err(e) = self.append_txn(d, seq, &dirty, app_delta) {
            for (id, _) in &dirty {
                let mut frames = self.shards[shard_of(*id)]
                    .frames
                    .write()
                    .expect("pager lock poisoned");
                frames.mark_log_dirty(slot_of(*id));
            }
            d.free_uncommitted.fetch_or(freed, Ordering::Relaxed);
            return Err(e);
        }
        d.seq.store(seq, Ordering::Relaxed);
        if self_contained {
            let mut last = d.last_blob.lock().expect("pager lock poisoned");
            last.clear();
            last.extend_from_slice(app_delta);
        }

        if d.opts.checkpoint_wal_bytes > 0 && self.wal_bytes() > d.opts.checkpoint_wal_bytes {
            self.checkpoint_with(app_image)?;
        }
        Ok(seq)
    }

    /// Clear `dirty_log` everywhere it is set and return those pages in
    /// id order. Stripes with nothing to log are only read-locked.
    fn take_log_dirty(&self) -> Vec<(PageId, Page)> {
        let mut dirty: Vec<(PageId, Page)> = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            let clean = shard
                .frames
                .read()
                .expect("pager lock poisoned")
                .log_dirty
                .is_empty();
            if clean {
                continue;
            }
            let mut table = shard.frames.write().expect("pager lock poisoned");
            let FrameTable {
                frames, log_dirty, ..
            } = &mut *table;
            for slot in log_dirty.drain(..) {
                let frame = &mut frames[slot];
                frame.dirty_log = false;
                let page = frame.page.clone().expect("dirty frame is pinned resident");
                dirty.push((id_of(s, slot), page));
            }
        }
        dirty.sort_by_key(|(id, _)| id.raw());
        dirty
    }

    /// Append one transaction — `dirty`'s page frames, then the commit
    /// frame — to the log.
    fn append_txn(
        &self,
        d: &Durable,
        seq: u64,
        dirty: &[(PageId, Page)],
        app_delta: &[u8],
    ) -> Result<()> {
        let head = self.encode_alloc_state(app_delta.len());
        let synced = d.wal.lock().expect("pager lock poisoned").append_txn(
            seq,
            dirty,
            &head,
            app_delta,
            d.opts.group_commit,
        )?;
        d.wal_appends
            .fetch_add(dirty.len() as u64, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.wal.appends").add(dirty.len() as u64);
        d.wal_commits.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.wal.commits").inc();
        if synced {
            d.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            cdpd_obs::tracked_counter!("storage.wal.fsyncs").inc();
        }
        Ok(())
    }

    /// The live allocation state, encoded as the head of a frame's or
    /// header's metadata (the application bytes, `app_len` of them,
    /// follow). Equal to the committed state whenever nothing is
    /// uncommitted, which is when commit and checkpoint read it.
    fn encode_alloc_state(&self, app_len: usize) -> Vec<u8> {
        encode_meta_head(
            self.next.load(Ordering::Relaxed),
            self.shards
                .iter()
                .map(|s| s.free.lock().expect("pager lock poisoned")),
            app_len,
        )
    }

    /// [`Pager::checkpoint_with`] for a caller that commits through
    /// [`Pager::commit`]: the image is the newest commit's bytes.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        self.checkpoint_with(&|| d.last_blob.lock().expect("pager lock poisoned").clone())
    }

    /// Flush every dirty page to the checksummed data file, make the
    /// committed state durable in a ping-pong header, and truncate the
    /// WAL. No-op on an in-memory pager.
    ///
    /// The header is the one place a self-contained image of the
    /// application metadata is stored — commit frames carry deltas —
    /// so `app_image` is asked for it here, once, after the write-back.
    /// It must describe the state as of the last commit; the caller
    /// guarantees (as for [`Pager::commit_with`]) that nothing is
    /// uncommitted or mid-flight.
    ///
    /// Only frames dirtied since the last checkpoint are visited, and a
    /// stripe with none (and within its cache budget) is only
    /// read-locked, so readers of clean stripes are not stalled.
    ///
    /// # Errors
    /// [`Error::InvalidArgument`] if uncommitted mutations exist —
    /// writing them back would bypass the write-ahead rule; commit
    /// first.
    pub fn checkpoint_with(&self, app_image: &dyn Fn() -> Vec<u8>) -> Result<()> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let _span = cdpd_obs::span!("storage.checkpoint");
        let started = std::time::Instant::now();

        // The write-ahead rule requires every page we are about to
        // write back to be durable in the log first: sync any
        // group-commit debt, and refuse if uncommitted mutations exist.
        let uncommitted = d.free_uncommitted.load(Ordering::Relaxed)
            || self.shards.iter().any(|shard| {
                let frames = shard.frames.read().expect("pager lock poisoned");
                !frames.log_dirty.is_empty()
            });
        if uncommitted {
            return Err(Error::InvalidArgument(
                "checkpoint with uncommitted pages — commit first".into(),
            ));
        }
        {
            let mut wal = d.wal.lock().expect("pager lock poisoned");
            wal.sync()?;
            d.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
            cdpd_obs::tracked_counter!("storage.wal.fsyncs").inc();
        }

        let mut written = 0u64;
        let capacity = d.stripe_capacity();
        for (s, shard) in self.shards.iter().enumerate() {
            let idle = shard
                .frames
                .read()
                .expect("pager lock poisoned")
                .page_dirty
                .is_empty()
                && shard.resident.load(Ordering::Relaxed) <= capacity;
            if idle {
                continue;
            }
            let mut table = shard.frames.write().expect("pager lock poisoned");
            let FrameTable {
                frames, page_dirty, ..
            } = &mut *table;
            // Bits are cleared only once the whole stripe is written:
            // an error leaves every frame listed for the next attempt.
            for &slot in page_dirty.iter() {
                let page = frames[slot]
                    .page
                    .as_ref()
                    .expect("dirty frame is pinned resident");
                d.write_back(id_of(s, slot), page)?;
            }
            written += page_dirty.len() as u64;
            for slot in page_dirty.drain(..) {
                frames[slot].dirty_page = false;
            }
            Self::evict_over_budget(shard, frames, capacity, 0);
        }
        d.data.sync()?;
        d.sums.sync()?;

        let ckpt_no = d.ckpt_no.load(Ordering::Relaxed) + 1;
        let seq = d.seq.load(Ordering::Relaxed);
        let image = app_image();
        let bytes = encode_header(ckpt_no, seq, &self.encode_alloc_state(image.len()), &image)?;
        let slot = (ckpt_no % 2) as usize;
        d.hdr[slot].write_at(0, &bytes)?;
        d.hdr[slot].truncate(bytes.len() as u64)?;
        d.hdr[slot].sync()?;
        d.ckpt_no.store(ckpt_no, Ordering::Relaxed);

        d.wal.lock().expect("pager lock poisoned").reset()?;

        d.writeback_pages.fetch_add(written, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.writeback.pages").add(written);
        d.checkpoints.fetch_add(1, Ordering::Relaxed);
        cdpd_obs::tracked_counter!("storage.checkpoint.completed").inc();
        cdpd_obs::histogram!("storage.checkpoint.nanos")
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Number of allocated pages (live + free-listed; ids are dense).
    pub fn page_count(&self) -> u64 {
        self.next.load(Ordering::Relaxed) as u64
    }

    /// Snapshot of the I/O counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn allocate_read_write_roundtrip() {
        let pager = Pager::new();
        let id = pager.allocate();
        let mut buf = [0u8; PAGE_SIZE];
        buf[0] = 0xAB;
        pager.write(id, Arc::new(buf)).unwrap();
        let page = pager.read(id).unwrap();
        assert_eq!(page[0], 0xAB);
    }

    #[test]
    fn counters_track_each_access() {
        let pager = Pager::new();
        let id = pager.allocate();
        let before = pager.stats();
        pager.read(id).unwrap();
        pager.read(id).unwrap();
        pager.update(id, |b| b[1] = 7).unwrap();
        let d = pager.stats().delta(before);
        assert_eq!(
            d,
            IoStats {
                reads: 3,
                writes: 1,
                allocs: 0
            }
        );
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn thread_scope_tracks_this_thread_only() {
        let pager = Arc::new(Pager::new());
        let id = pager.allocate();
        let scope = ThreadIoScope::start();
        pager.read(id).unwrap();
        pager.update(id, |b| b[0] = 1).unwrap();
        // A sibling thread's I/O must not leak into this scope.
        let sibling = pager.clone();
        std::thread::spawn(move || {
            for _ in 0..100 {
                sibling.read(id).unwrap();
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            scope.delta(),
            IoStats {
                reads: 2,
                writes: 1,
                allocs: 0
            }
        );
    }

    #[test]
    fn update_is_copy_on_write() {
        let pager = Pager::new();
        let id = pager.allocate();
        let held = pager.read(id).unwrap();
        pager.update(id, |b| b[0] = 9).unwrap();
        assert_eq!(held[0], 0, "outstanding handle must not see the update");
        assert_eq!(pager.read(id).unwrap()[0], 9);
    }

    #[test]
    fn undo_scope_puts_pages_back_and_frees_its_allocations() {
        let pager = Pager::new();
        let (a, b) = (pager.allocate(), pager.allocate());
        pager.update(a, |buf| buf[0] = 1).unwrap();
        pager.free(&[b]);
        let live = pager.page_count() - pager.free_count();
        let undo = pager.undo_scope();
        pager.update(a, |buf| buf[0] = 2).unwrap();
        pager.update(a, |buf| buf[1] = 3).unwrap();
        assert_eq!(undo.pre_image(a).unwrap()[..2], [1, 0]);
        let reused = pager.allocate();
        let fresh = pager.allocate();
        assert_eq!(reused, b);
        pager.write(fresh, Arc::new([9; PAGE_SIZE])).unwrap();
        assert!(
            undo.pre_image(fresh).is_none(),
            "an allocated page has no pre-image"
        );
        drop(undo);
        assert_eq!(pager.read(a).unwrap()[..2], [1, 0]);
        assert_eq!(pager.page_count() - pager.free_count(), live);
        assert_eq!(pager.allocate(), b, "the free list keeps its order");

        let undo = pager.undo_scope();
        pager.update(a, |buf| buf[0] = 4).unwrap();
        undo.commit();
        let undo = pager.undo_scope();
        pager.update(a, |buf| buf[0] = 5).unwrap();
        assert_eq!(
            undo.pre_image(a).unwrap()[0],
            4,
            "a committed change is kept"
        );
    }

    #[test]
    fn injected_fault_fails_the_nth_write_only() {
        let pager = Pager::new();
        let id = pager.allocate();
        fail_nth_write(2);
        pager.update(id, |buf| buf[0] = 1).unwrap();
        assert!(pager.write(id, blank_page()).is_err());
        assert_eq!(
            pager.read(id).unwrap()[0],
            1,
            "the failed write changed nothing"
        );
        pager.update(id, |buf| buf[0] = 2).unwrap();
    }

    #[test]
    fn out_of_range_is_corruption_error() {
        let pager = Pager::new();
        assert!(pager.read(PageId(3)).is_err());
        assert!(pager.write(PageId(0), blank_page()).is_err());
        assert!(pager.update(PageId(1), |_| ()).is_err());
    }

    #[test]
    fn page_ids_are_dense() {
        let pager = Pager::new();
        assert_eq!(pager.allocate(), PageId(0));
        assert_eq!(pager.allocate(), PageId(1));
        assert_eq!(pager.page_count(), 2);
    }

    #[test]
    fn freed_pages_are_reused_zeroed() {
        let pager = Pager::new();
        let a = pager.allocate();
        let b = pager.allocate();
        pager.update(a, |buf| buf[0] = 0xEE).unwrap();
        pager.free(&[a]);
        assert_eq!(pager.free_count(), 1);
        let c = pager.allocate();
        assert_eq!(c, a, "free list is reused first");
        assert_eq!(pager.read(c).unwrap()[0], 0, "reused page is zeroed");
        assert_eq!(pager.free_count(), 0);
        assert_eq!(pager.page_count(), 2);
        let _ = b;
    }

    #[test]
    fn cross_stripe_frees_all_reused_before_growth() {
        let pager = Pager::new();
        // Allocate enough pages to populate several stripes.
        let ids: Vec<PageId> = (0..PAGER_SHARDS as u32 * 3)
            .map(|_| pager.allocate())
            .collect();
        let grown = pager.page_count();
        // Free a scattering of pages across stripes, then re-allocate
        // exactly that many: every one must come from a free list.
        let victims: Vec<PageId> = ids.iter().copied().step_by(5).collect();
        pager.free(&victims);
        assert_eq!(pager.free_count(), victims.len() as u64);
        for _ in &victims {
            pager.allocate();
        }
        assert_eq!(pager.free_count(), 0);
        assert_eq!(pager.page_count(), grown, "no growth while pages are free");
    }

    #[test]
    fn concurrent_reads_and_allocs_keep_exact_ledger() {
        let pager = Arc::new(Pager::new());
        let seed: Vec<PageId> = (0..64).map(|_| pager.allocate()).collect();
        let before = pager.stats();
        const THREADS: u64 = 8;
        const READS: u64 = 500;
        const ALLOCS: u64 = 50;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pager = &pager;
                let seed = &seed;
                s.spawn(move || {
                    let scope = ThreadIoScope::start();
                    for i in 0..READS {
                        pager.read(seed[((t * 31 + i) % 64) as usize]).unwrap();
                    }
                    for _ in 0..ALLOCS {
                        pager.allocate();
                    }
                    let d = scope.delta();
                    assert_eq!(d.reads, READS);
                    assert_eq!(d.allocs, ALLOCS);
                });
            }
        });
        let d = pager.stats().delta(before);
        assert_eq!(d.reads, THREADS * READS, "no read lost or double-counted");
        assert_eq!(d.allocs, THREADS * ALLOCS);
        assert_eq!(pager.page_count(), 64 + THREADS * ALLOCS);
    }

    // ------------------------------------------------------------------
    // Durable tier

    fn open(vfs: &MemVfs, opts: DurableOptions) -> DurableOpen {
        Pager::open_durable(Arc::new(vfs.clone()), opts).unwrap()
    }

    #[test]
    fn durable_commit_survives_reopen() {
        let vfs = MemVfs::new();
        let opened = open(&vfs, DurableOptions::default());
        let pager = opened.pager;
        let a = pager.allocate();
        let b = pager.allocate();
        pager.update(a, |p| p[0] = 0x11).unwrap();
        pager.update(b, |p| p[0] = 0x22).unwrap();
        let seq = pager.commit(b"app state").unwrap();
        assert_eq!(seq, 1);
        drop(pager); // "crash" — nothing checkpointed, only the WAL holds state

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.committed_seq, 1);
        assert_eq!(reopened.app_image, b"", "nothing checkpointed an image");
        assert_eq!(reopened.app_deltas, [b"app state".to_vec()]);
        assert_eq!(reopened.pager.page_count(), 2);
        assert_eq!(reopened.pager.read(a).unwrap()[0], 0x11);
        assert_eq!(reopened.pager.read(b).unwrap()[0], 0x22);
    }

    #[test]
    fn uncommitted_mutations_do_not_survive() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let a = pager.allocate();
        pager.update(a, |p| p[0] = 1).unwrap();
        pager.commit(b"v1").unwrap();
        pager.update(a, |p| p[0] = 2).unwrap(); // never committed
        drop(pager);

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.app_deltas, [b"v1".to_vec()]);
        assert_eq!(
            reopened.pager.read(a).unwrap()[0],
            1,
            "uncommitted write must roll back"
        );
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let ids: Vec<PageId> = (0..40).map(|_| pager.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            pager.update(id, |p| p[0] = i as u8).unwrap();
        }
        pager.commit(b"loaded").unwrap();
        assert!(pager.wal_bytes() > 0);
        pager.checkpoint().unwrap();
        assert_eq!(pager.wal_bytes(), 0, "checkpoint truncates the log");
        let stats = pager.durable_stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.writeback_pages, 40);
        drop(pager);

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.app_image, b"loaded", "the header holds the image");
        assert!(reopened.app_deltas.is_empty(), "and the log nothing");
        let reopened = reopened.pager;
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(reopened.pager_read_byte(id), i as u8);
        }
        assert_eq!(reopened.page_count(), 40);
    }

    impl Pager {
        fn pager_read_byte(&self, id: PageId) -> u8 {
            self.read(id).unwrap()[0]
        }
    }

    #[test]
    fn relogged_pages_cost_their_changes_until_the_checkpoint() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        let logged = |bump: u8| {
            let before = pager.wal_bytes();
            pager.update(id, |p| p[100] = bump).unwrap();
            pager.commit(b"").unwrap();
            pager.wal_bytes() - before
        };
        assert!(logged(1) > PAGE_SIZE as u64, "first log after open: whole");
        assert!(logged(2) < 256, "then a delta");
        pager.checkpoint().unwrap();
        assert!(logged(3) > PAGE_SIZE as u64, "first log after a checkpoint");
        assert!(logged(4) < 256);
        drop(pager);

        let reopened = open(&vfs, DurableOptions::default()).pager;
        assert_eq!(reopened.read(id).unwrap()[100], 4);
        let before = reopened.wal_bytes();
        reopened.update(id, |p| p[100] = 5).unwrap();
        reopened.commit(b"").unwrap();
        assert!(
            reopened.wal_bytes() - before > PAGE_SIZE as u64,
            "first log after reopen: whole"
        );
    }

    #[test]
    fn checkpoint_requires_commit_first() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let a = pager.allocate();
        pager.update(a, |p| p[0] = 1).unwrap();
        let err = pager.checkpoint().unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        pager.commit(b"").unwrap();
        pager.checkpoint().unwrap();
    }

    #[test]
    fn free_lists_survive_reopen() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let ids: Vec<PageId> = (0..10).map(|_| pager.allocate()).collect();
        pager.free(&ids[2..5]);
        pager.commit(b"").unwrap();
        drop(pager);

        let pager = open(&vfs, DurableOptions::default()).pager;
        assert_eq!(pager.free_count(), 3);
        assert_eq!(pager.page_count(), 10);
        // Reuse drains the recovered free lists before growing.
        for _ in 0..3 {
            let id = pager.allocate();
            assert!(id.raw() < 10);
        }
        assert_eq!(pager.page_count(), 10);
    }

    #[test]
    fn cache_evicts_clean_pages_and_refetches() {
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            cache_pages: PAGER_SHARDS, // one resident page per stripe
            ..DurableOptions::default()
        };
        let pager = open(&vfs, opts.clone()).pager;
        let n = 4 * PAGER_SHARDS as u32;
        let ids: Vec<PageId> = (0..n).map(|_| pager.allocate()).collect();
        for &id in &ids {
            pager.update(id, |p| p[0] = id.raw() as u8).unwrap();
        }
        pager.commit(b"").unwrap();
        pager.checkpoint().unwrap(); // pages become clean ⇒ evictable
        assert!(
            pager.resident_pages() <= PAGER_SHARDS,
            "checkpoint enforces the budget ({} resident)",
            pager.resident_pages()
        );
        let logical_before = pager.stats();
        let physical_before = pager.durable_stats();
        for &id in &ids {
            assert_eq!(pager.read(id).unwrap()[0], id.raw() as u8);
        }
        let logical = pager.stats().delta(logical_before);
        let physical = pager.durable_stats().delta(physical_before);
        assert_eq!(logical.reads, n as u64, "logical ledger unchanged by cache");
        assert!(
            physical.backend_fetches > 0,
            "a 1-page-per-stripe cache must miss"
        );
        assert!(pager.resident_pages() <= 2 * PAGER_SHARDS);
    }

    #[test]
    fn auto_checkpoint_bounds_wal_growth() {
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            checkpoint_wal_bytes: 64 * 1024,
            ..DurableOptions::default()
        };
        let pager = open(&vfs, opts).pager;
        let id = pager.allocate();
        for i in 0..40u8 {
            // Every byte changes, so every frame is page-sized.
            pager.update(id, |p| p.fill(i)).unwrap();
            pager.commit(b"").unwrap();
        }
        assert!(
            pager.durable_stats().checkpoints > 0,
            "WAL growth must trigger checkpoints"
        );
        assert!(pager.wal_bytes() <= 64 * 1024 + 9000);
    }

    #[test]
    fn corrupt_data_page_is_detected_not_ub() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 7).unwrap();
        pager.commit(b"").unwrap();
        pager.checkpoint().unwrap();
        drop(pager);

        let mut data = vfs.snapshot(FILE_DATA).unwrap();
        data[100] ^= 0xFF;
        vfs.overwrite(FILE_DATA, data);

        // Recovery itself succeeds (pages load lazily); the read of the
        // corrupted page fails with a clean checksum error.
        let pager = open(&vfs, DurableOptions::default()).pager;
        let err = pager.read(id).unwrap_err();
        assert!(
            err.to_string().contains("checksum"),
            "expected checksum error, got {err}"
        );
    }

    #[test]
    fn corrupt_headers_fail_closed() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 1).unwrap();
        pager.commit(b"").unwrap();
        pager.checkpoint().unwrap();
        drop(pager);

        for name in FILE_HDR {
            if let Some(mut bytes) = vfs.snapshot(name) {
                if !bytes.is_empty() {
                    bytes[0] ^= 0xFF;
                    vfs.overwrite(name, bytes);
                }
            }
        }
        let err = match Pager::open_durable(Arc::new(vfs), DurableOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("open must fail closed on corrupt headers"),
        };
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn stale_wal_transactions_are_skipped_after_checkpoint() {
        // Simulate a crash between header fsync and WAL truncation: the
        // WAL still holds transactions the header already covers.
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager.update(id, |p| p[0] = 5).unwrap();
        pager.commit(b"v1").unwrap();
        let wal_before_ckpt = vfs.snapshot(FILE_WAL).unwrap();
        pager.checkpoint().unwrap();
        drop(pager);
        // Put the pre-checkpoint WAL back (as if truncation never hit disk).
        vfs.overwrite(FILE_WAL, wal_before_ckpt);

        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.committed_seq, 1, "stale txn must not double-apply");
        assert_eq!(reopened.app_image, b"v1");
        assert!(
            reopened.app_deltas.is_empty(),
            "stale delta must not replay"
        );
        assert_eq!(reopened.pager.read(id).unwrap()[0], 5);
        // And committing again continues the sequence.
        assert_eq!(reopened.pager.commit(b"v2").unwrap(), 2);
    }

    #[test]
    fn recovery_hands_back_image_then_ordered_deltas() {
        let vfs = MemVfs::new();
        let pager = open(&vfs, DurableOptions::default()).pager;
        let id = pager.allocate();
        pager
            .commit_with(b"d1", &|| unreachable!("no checkpoint is due"))
            .unwrap();
        pager.checkpoint_with(&|| b"image@1".to_vec()).unwrap();
        for delta in [&b"d2"[..], b"", b"d4"] {
            pager.update(id, |p| p[0] += 1).unwrap();
            pager
                .commit_with(delta, &|| unreachable!("no checkpoint is due"))
                .unwrap();
        }
        drop(pager);
        let reopened = open(&vfs, DurableOptions::default());
        assert_eq!(reopened.committed_seq, 4);
        assert_eq!(reopened.app_image, b"image@1");
        assert_eq!(
            reopened.app_deltas,
            [b"d2".to_vec(), b"".to_vec(), b"d4".to_vec()]
        );
        assert_eq!(reopened.pager.read(id).unwrap()[0], 3);
    }

    #[test]
    fn auto_checkpoint_asks_for_the_image_lazily() {
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            checkpoint_wal_bytes: 20 * 1024,
            ..DurableOptions::default()
        };
        let pager = open(&vfs, opts.clone()).pager;
        let id = pager.allocate();
        let asked = AtomicU64::new(0);
        for i in 0..10u8 {
            // Every byte changes, so every frame is page-sized.
            pager.update(id, |p| p.fill(i)).unwrap();
            pager
                .commit_with(&[i], &|| {
                    asked.fetch_add(1, Ordering::Relaxed);
                    vec![b'i', i]
                })
                .unwrap();
        }
        let checkpoints = pager.durable_stats().checkpoints;
        assert!(checkpoints > 0 && checkpoints < 10, "{checkpoints}");
        assert_eq!(
            asked.load(Ordering::Relaxed),
            checkpoints,
            "one image per checkpoint, none per plain commit"
        );
        drop(pager);
        // Image + suffix: the header's image names the commit it was
        // taken at, and exactly the later deltas follow it.
        let reopened = open(&vfs, opts);
        let at = reopened.app_image[1];
        let later: Vec<Vec<u8>> = (at + 1..10).map(|i| vec![i]).collect();
        assert_eq!(reopened.app_deltas, later);
    }

    #[test]
    fn failed_commit_forgets_nothing() {
        // The log append fails (the VFS dies under it); the same handle
        // must still hold every page marked for the next commit.
        struct FailingWal(MemVfs, Arc<AtomicBool>);
        struct FailingFile(Box<dyn crate::vfs::VfsFile>, Arc<AtomicBool>);
        impl Vfs for FailingWal {
            fn open(&self, name: &str) -> Result<Box<dyn crate::vfs::VfsFile>> {
                let file = self.0.open(name)?;
                Ok(if name == FILE_WAL {
                    Box::new(FailingFile(file, self.1.clone()))
                } else {
                    file
                })
            }
            fn exists(&self, name: &str) -> bool {
                self.0.exists(name)
            }
            fn delete(&self, name: &str) -> Result<()> {
                self.0.delete(name)
            }
        }
        impl crate::vfs::VfsFile for FailingFile {
            fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize> {
                self.0.read_at(off, buf)
            }
            fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
                self.0.write_at(off, data)
            }
            fn sync(&self) -> Result<()> {
                if self.1.load(Ordering::Relaxed) {
                    return Err(Error::Io(std::io::Error::other("injected fsync failure")));
                }
                self.0.sync()
            }
            fn truncate(&self, len: u64) -> Result<()> {
                self.0.truncate(len)
            }
            fn len(&self) -> Result<u64> {
                self.0.len()
            }
        }

        let mem = MemVfs::new();
        let failing = Arc::new(AtomicBool::new(false));
        let vfs = FailingWal(mem.clone(), failing.clone());
        let pager = Pager::open_durable(Arc::new(vfs), DurableOptions::default())
            .unwrap()
            .pager;
        let ids: Vec<PageId> = (0..3).map(|_| pager.allocate()).collect();
        pager.commit(b"").unwrap();
        for &id in &ids {
            pager.update(id, |p| p[0] = 9).unwrap();
        }
        pager.free(&ids[2..]);
        failing.store(true, Ordering::Relaxed);
        assert!(pager.commit(b"").is_err());
        assert_eq!(
            pager.committed_seq(),
            1,
            "a failed commit acknowledges nothing"
        );
        let err = pager.checkpoint().unwrap_err();
        assert!(
            matches!(err, Error::InvalidArgument(_)),
            "the pages are uncommitted again: {err}"
        );
        failing.store(false, Ordering::Relaxed);
        assert_eq!(pager.commit(b"").unwrap(), 2);
        drop(pager);

        let reopened = open(&mem, DurableOptions::default()).pager;
        for &id in &ids[..2] {
            assert_eq!(
                reopened.read(id).unwrap()[0],
                9,
                "retried commit carried {id}"
            );
        }
        assert_eq!(reopened.free_count(), 1);
    }

    #[test]
    fn in_memory_pager_reports_no_durable_state() {
        let pager = Pager::new();
        assert!(!pager.is_durable());
        assert_eq!(pager.commit(b"ignored").unwrap(), 0);
        pager.checkpoint().unwrap();
        assert_eq!(pager.durable_stats(), DurableStats::default());
        assert_eq!(pager.wal_bytes(), 0);
        assert_eq!(pager.committed_seq(), 0);
    }
}
