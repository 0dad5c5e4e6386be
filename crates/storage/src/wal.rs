//! Write-ahead log: the durable pager's crash-consistency mechanism.
//!
//! The log is a flat sequence of checksummed frames on one VFS file:
//!
//! ```text
//! page frame:   [0x01][body_len: u32 LE][body][crc64: u64 LE]
//!   body:       [page_id: u32][ranges: u32 count, (offset: u16, len: u16) × count]
//!               [the bytes of every range, in range order]
//! commit frame: [0x02][seq: u64 LE][meta_len: u32 LE][meta][crc64: u64 LE]
//! ```
//!
//! A page frame carries byte ranges of the page, taken against its
//! *base*: the image the log last held for that page. A full image is
//! the one-range case `(0, PAGE_SIZE)`, and it is what a page's first
//! frame after open, after a checkpoint, or after a failed append
//! carries — so a page's first frame after the last checkpoint is
//! always a full image, and recovery never needs the data file to
//! decode the log. Later frames hold only the changed runs (runs closer
//! than [`MERGE_GAP`] bytes merged), which for a one-row update is a
//! few hundred bytes instead of a page. The body is written in the
//! [`crate::codec`] record format and decoded by its strict `Reader`.
//!
//! Bases advance only when a commit is acknowledged
//! ([`WalWriter::append_txn`] returns `Ok`). A failed append forgets the
//! bases of its transaction's pages, because its frames may have reached
//! the log without being acknowledged (an fsync failure): a delta taken
//! against the older base would then be resolved by recovery against
//! the unacknowledged frame, which differs from it. The retry logs those
//! pages whole. [`WalWriter::reset`] forgets every base.
//!
//! A *transaction* is zero or more page frames followed by one commit
//! frame; the commit's `meta` carries the pager allocation state and
//! the application's *delta* — what this transaction changed of the
//! application's metadata (the engine's catalog), not a copy of all of
//! it — so replaying a committed prefix on top of a checkpoint header
//! reconstructs both page contents and everything needed to interpret
//! them. Each crc64 covers its whole frame (tag through payload), so
//! recovery ([`scan`]) can walk the log from the start and stop at the
//! first torn, short, or corrupt frame: everything up to the last valid
//! *commit* frame is the committed prefix, and the torn tail past it is
//! truncated and never observed. The scan resolves every delta, in log
//! order, against the newest image of its page earlier in the file.
//!
//! Durability policy is group commit: the writer counts commits and
//! fsyncs every `group_commit`-th one, trading a bounded window of
//! recent commits for fewer fsyncs — checkpointing
//! ([`crate::Pager::checkpoint`]) later flushes dirty pages to the data
//! file and truncates the log.

use crate::codec::{put_framed, put_list, put_u16, put_u32, put_u64, put_u8, Reader};
use crate::crc::crc64;
use crate::pager::{Page, PAGE_SIZE};
use cdpd_types::{Error, PageId, Result};
use std::collections::HashMap;
use std::sync::Arc;

const TAG_PAGE: u8 = 1;
const TAG_COMMIT: u8 = 2;

/// Changed runs of a page separated by fewer equal bytes than this are
/// logged as one range: a range's header costs 4 bytes, and fewer,
/// longer ranges are cheaper to encode and apply.
const MERGE_GAP: usize = 16;

/// Page-frame bytes before the body: tag and body length.
const PAGE_HEAD: usize = 1 + 4;
/// Commit-frame bytes before the metadata: tag, sequence, metadata length.
const COMMIT_HEAD: usize = 1 + 8 + 4;
const CRC_LEN: usize = 8;

// Range offsets and lengths are u16, and a full image is one range.
const _: () = assert!(PAGE_SIZE <= u16::MAX as usize);

/// Appends frames to the log file and tracks its valid length and the
/// base image of every page logged since open or the last reset.
pub(crate) struct WalWriter {
    file: Box<dyn crate::vfs::VfsFile>,
    len: u64,
    commits_since_sync: usize,
    /// Page id → the image the page's newest frame in the log decodes
    /// to, as logged by an acknowledged commit. The `Arc` is the one the
    /// commit logged, so it shares the cache frame's allocation until
    /// the page is next mutated.
    bases: HashMap<u32, Page>,
    /// Reused frame-encoding buffer.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Wrap `file`, treating `valid_len` (from a recovery [`scan`]) as
    /// the end of the log; anything past it is truncated away. No page
    /// has a base yet, so every page's first frame is a full image.
    pub(crate) fn new(file: Box<dyn crate::vfs::VfsFile>, valid_len: u64) -> Result<WalWriter> {
        if file.len()? > valid_len {
            file.truncate(valid_len)?;
        }
        Ok(WalWriter {
            file,
            len: valid_len,
            commits_since_sync: 0,
            bases: HashMap::new(),
            buf: Vec::new(),
        })
    }

    /// Current log length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Append one transaction: a frame per page of `pages`, then a
    /// commit frame whose metadata is `head` followed by `tail` (two
    /// slices so the caller never has to join them), then fsync if
    /// `group_commit` commits have accumulated since the last sync.
    /// Returns whether this commit was synced.
    ///
    /// On `Ok` the logged images become their pages' bases; on `Err`
    /// those pages lose their bases (see the module docs).
    pub(crate) fn append_txn(
        &mut self,
        seq: u64,
        pages: &[(PageId, Page)],
        head: &[u8],
        tail: &[u8],
        group_commit: usize,
    ) -> Result<bool> {
        let logged = pages
            .iter()
            .try_for_each(|(id, page)| self.append_page(*id, page))
            .and_then(|()| self.append_commit(seq, head, tail, group_commit));
        for (id, page) in pages {
            if logged.is_ok() {
                self.bases.insert(id.raw(), Arc::clone(page));
            } else {
                self.bases.remove(&id.raw());
            }
        }
        logged
    }

    /// Append one page frame: the ranges of `page` that differ from its
    /// base, or the whole image if it has none. No fsync, and the base
    /// does not move; pages are only durable once their commit frame is.
    fn append_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        let ranges = match self.bases.get(&id.raw()) {
            Some(base) => changed_ranges(base, page),
            None => vec![(0, PAGE_SIZE)],
        };
        let frame = &mut self.buf;
        frame.clear();
        put_u8(frame, TAG_PAGE);
        put_framed(frame, |body| {
            put_u32(body, id.raw());
            put_list(body, &ranges, |body, &(start, end)| {
                put_u16(body, start as u16);
                put_u16(body, (end - start) as u16);
            });
            for &(start, end) in &ranges {
                body.extend_from_slice(&page[start..end]);
            }
        });
        let crc = crc64(frame);
        put_u64(frame, crc);
        self.file.write_at(self.len, frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Append a commit frame sealing the transaction, then fsync if
    /// `group_commit` commits have accumulated since the last sync.
    /// Returns whether this commit was synced.
    fn append_commit(
        &mut self,
        seq: u64,
        head: &[u8],
        tail: &[u8],
        group_commit: usize,
    ) -> Result<bool> {
        let meta_len = u32::try_from(head.len() + tail.len())
            .map_err(|_| Error::InvalidArgument("commit metadata exceeds 4 GiB".into()))?;
        let frame = &mut self.buf;
        frame.clear();
        put_u8(frame, TAG_COMMIT);
        put_u64(frame, seq);
        put_u32(frame, meta_len);
        frame.extend_from_slice(head);
        frame.extend_from_slice(tail);
        let crc = crc64(frame);
        put_u64(frame, crc);
        self.file.write_at(self.len, frame)?;
        self.len += frame.len() as u64;
        self.commits_since_sync += 1;
        if self.commits_since_sync >= group_commit.max(1) {
            self.file.sync()?;
            self.commits_since_sync = 0;
            return Ok(true);
        }
        Ok(false)
    }

    /// Force the log to stable storage regardless of group-commit debt.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.file.sync()?;
        self.commits_since_sync = 0;
        Ok(())
    }

    /// Discard the whole log (after a checkpoint made it redundant) and
    /// every base with it.
    pub(crate) fn reset(&mut self) -> Result<()> {
        self.bases.clear();
        self.file.truncate(0)?;
        self.len = 0;
        self.commits_since_sync = 0;
        self.file.sync()
    }
}

/// The byte ranges `[start, end)` where `new` differs from `old`, in
/// order, with runs closer than [`MERGE_GAP`] merged.
fn changed_ranges(old: &[u8; PAGE_SIZE], new: &[u8; PAGE_SIZE]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let Some(first) = next_difference(old, new, 0) else {
        return ranges;
    };
    let (mut start, mut end) = (first, first + 1);
    while let Some(at) = next_difference(old, new, end) {
        if at - end >= MERGE_GAP {
            ranges.push((start, end));
            start = at;
        }
        end = at + 1;
    }
    ranges.push((start, end));
    ranges
}

/// The first index at or after `from` where `a` and `b` differ,
/// compared a word at a time.
fn next_difference(a: &[u8; PAGE_SIZE], b: &[u8; PAGE_SIZE], from: usize) -> Option<usize> {
    let (a, b) = (&a[from..], &b[from..]);
    let mut words = a.chunks_exact(8).zip(b.chunks_exact(8));
    let mut at = 0;
    for (x, y) in &mut words {
        let diff = u64::from_le_bytes(x.try_into().expect("8 bytes"))
            ^ u64::from_le_bytes(y.try_into().expect("8 bytes"));
        if diff != 0 {
            return Some(from + at + (diff.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    (at..a.len()).find(|&i| a[i] != b[i]).map(|i| from + i)
}

/// A decoded page frame: its ranges, in order, and their bytes end to
/// end (borrowed from the log).
struct PageFrame<'a> {
    id: PageId,
    ranges: Vec<(usize, usize)>,
    bytes: &'a [u8],
}

impl<'a> PageFrame<'a> {
    /// Decode a page frame's body; every range must lie inside the page.
    fn decode(body: &'a [u8]) -> Result<PageFrame<'a>> {
        let mut r = Reader::new(body, "WAL page frame");
        let id = PageId(r.u32()?);
        let ranges = r.list(|r| {
            let (start, len) = (r.u16()? as usize, r.u16()? as usize);
            if start + len > PAGE_SIZE {
                return Err(Error::Corrupt(format!(
                    "WAL page frame for page {id}: range {start}+{len} exceeds the page"
                )));
            }
            Ok((start, len))
        })?;
        let bytes = r.take(ranges.iter().map(|&(_, len)| len).sum())?;
        r.finish()?;
        Ok(PageFrame { id, ranges, bytes })
    }

    /// Whether the frame stands alone: the one-range full image.
    fn is_full(&self) -> bool {
        self.ranges == [(0, PAGE_SIZE)]
    }

    /// Write the ranges over the page's image in `images`, in place
    /// while the scan holds the only reference. A delta's image must
    /// already be there.
    fn apply(&self, images: &mut HashMap<u32, Page>) {
        let page = images
            .entry(self.id.raw())
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE]));
        let page = Arc::make_mut(page);
        let mut bytes = self.bytes;
        for &(start, len) in &self.ranges {
            let (range, rest) = bytes.split_at(len);
            page[start..start + len].copy_from_slice(range);
            bytes = rest;
        }
    }
}

/// One committed transaction recovered from the log.
pub(crate) struct WalTxn {
    /// Commit sequence number (monotonic across the pager's life).
    pub(crate) seq: u64,
    /// The pages this transaction logged, in append order.
    pub(crate) pages: Vec<PageId>,
    /// The commit frame's metadata payload.
    pub(crate) meta: Vec<u8>,
}

/// Scan a log file, handing every *committed* transaction to `commit`
/// in order. Returns the byte length of the valid committed prefix and
/// every logged page's image as of its end.
///
/// The scan stops at the first frame that is short, has an unknown
/// tag, or fails its checksum — by construction everything after a torn
/// write is garbage. Page frames not yet sealed by a commit are
/// dropped (the transaction never committed). Each delta is resolved
/// against the newest image of its page earlier in the file, frames of
/// stale transactions and of failed appends before a later commit
/// included; a delta with no such image is [`Error::Corrupt`]. A
/// transaction's frames are applied when its commit frame is read, so
/// a delta patches the image in place rather than copying the page.
pub(crate) fn scan(
    file: &dyn crate::vfs::VfsFile,
    mut commit: impl FnMut(WalTxn) -> Result<()>,
) -> Result<(u64, HashMap<u32, Page>)> {
    // The log is bounded by the checkpoint threshold, and recovery keeps
    // what it replays in memory anyway: read it whole, so frames decode
    // in place instead of being read and copied out one by one.
    let len = usize::try_from(file.len()?)
        .map_err(|_| Error::Corrupt("WAL exceeds the address space".into()))?;
    let mut log = vec![0u8; len];
    let got = file.read_at(0, &mut log)?;
    log.truncate(got);
    let mut images: HashMap<u32, Page> = HashMap::new();
    let mut pending: Vec<PageFrame> = Vec::new();
    let mut off = 0;
    let mut committed_end = 0;

    loop {
        let rest = &log[off..];
        let (fixed, body_len) = match rest.first() {
            Some(&TAG_PAGE) if rest.len() >= PAGE_HEAD => (PAGE_HEAD, &rest[1..5]),
            Some(&TAG_COMMIT) if rest.len() >= COMMIT_HEAD => (COMMIT_HEAD, &rest[9..13]),
            _ => break,
        };
        let body_len = u32::from_le_bytes(body_len.try_into().expect("4 bytes")) as usize;
        let Some(frame) = rest.get(..fixed + body_len + CRC_LEN) else {
            break;
        };
        let (covered, crc) = frame.split_at(frame.len() - CRC_LEN);
        if crc64(covered).to_le_bytes() != crc {
            break;
        }
        off += frame.len();
        let body = &covered[fixed..];
        if fixed == PAGE_HEAD {
            let page = PageFrame::decode(body)?;
            let id = page.id;
            if !page.is_full()
                && !images.contains_key(&id.raw())
                && !pending.iter().any(|p| p.id == id)
            {
                return Err(Error::Corrupt(format!(
                    "WAL delta for page {id} has no earlier image in the log"
                )));
            }
            pending.push(page);
        } else {
            let pages = pending
                .drain(..)
                .map(|page| {
                    page.apply(&mut images);
                    page.id
                })
                .collect();
            commit(WalTxn {
                seq: u64::from_le_bytes(covered[1..9].try_into().expect("8 bytes")),
                pages,
                meta: body.to_vec(),
            })?;
            committed_end = off as u64;
        }
    }
    Ok((committed_end, images))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};

    fn page_of(b: u8) -> Page {
        Arc::new([b; PAGE_SIZE])
    }

    fn with(page: &Page, at: usize, bytes: &[u8]) -> Page {
        let mut page = page.clone();
        Arc::make_mut(&mut page)[at..at + bytes.len()].copy_from_slice(bytes);
        page
    }

    type Scanned = (Vec<WalTxn>, u64, HashMap<u32, Page>);

    fn scan_all(vfs: &MemVfs) -> Result<Scanned> {
        let mut txns = Vec::new();
        let (end, images) = scan(&*vfs.open("wal").unwrap(), |txn| {
            txns.push(txn);
            Ok(())
        })?;
        Ok((txns, end, images))
    }

    /// The image of page `id` that recovery resolves from the log's
    /// first `len` bytes.
    fn image_in_prefix(vfs: &MemVfs, len: u64, id: u32) -> Page {
        let mut bytes = vfs.snapshot("wal").unwrap();
        bytes.truncate(len as usize);
        let (_, end, mut images) = scan_bytes(bytes).unwrap();
        assert_eq!(end, len, "the prefix ends at a commit");
        images.remove(&id).expect("the page is in the prefix")
    }

    fn writer(vfs: &MemVfs) -> WalWriter {
        WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap()
    }

    #[test]
    fn roundtrip_transactions() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        let pages = [(PageId(3), page_of(0xAA)), (PageId(7), page_of(0xBB))];
        assert!(w.append_txn(1, &pages, b"meta-", b"one", 1).unwrap());
        assert!(w.append_txn(2, &[], b"", b"", 1).unwrap());

        let (txns, end, images) = scan_all(&vfs).unwrap();
        assert_eq!(end, w.len());
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].seq, 1);
        assert_eq!(txns[0].pages, [PageId(3), PageId(7)]);
        assert_eq!((images[&3][0], images[&7][0]), (0xAA, 0xBB));
        assert_eq!(txns[0].meta, b"meta-one");
        assert_eq!(txns[1].seq, 2);
        assert!(txns[1].pages.is_empty());
    }

    #[test]
    fn changed_ranges_merge_close_runs_only() {
        let old = page_of(0);
        let new = with(&with(&with(&old, 10, &[1, 2]), 20, &[3]), 100, &[4; 5]);
        // 10..12 and 20..21 are 8 bytes apart (merged); 100..105 is not.
        assert_eq!(changed_ranges(&old, &new), [(10, 21), (100, 105)]);
        assert!(changed_ranges(&old, &old).is_empty());
        let last = with(&old, PAGE_SIZE - 1, &[9]);
        assert_eq!(changed_ranges(&old, &last), [(PAGE_SIZE - 1, PAGE_SIZE)]);
        assert_eq!(changed_ranges(&old, &page_of(1)), [(0, PAGE_SIZE)]);
    }

    #[test]
    fn relogged_pages_are_deltas_that_resolve_in_order() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        let v1 = with(&page_of(0), 64, b"first");
        let v2 = with(&v1, 4000, b"second");
        let v3 = with(&v2, 64, b"FIRST");
        let mut ends = Vec::new();
        for (seq, v) in (1..).zip([&v1, &v2, &v3]) {
            w.append_txn(seq, &[(PageId(4), v.clone())], b"", b"", 1)
                .unwrap();
            ends.push(w.len());
        }
        assert!(
            ends[2] - ends[0] < 200,
            "two deltas and two commits, {} bytes",
            ends[2] - ends[0]
        );
        for (end, v) in ends.into_iter().zip([v1, v2, v3]) {
            assert_eq!(image_in_prefix(&vfs, end, 4), v);
        }
    }

    /// Transaction 1 logs a page whole, transaction 2 logs a delta of
    /// it. Returns the log, where transaction 2 (its delta frame)
    /// starts, and where its commit frame starts.
    fn delta_log() -> (Vec<u8>, usize, usize) {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        let v1 = with(&page_of(7), 100, b"one");
        w.append_txn(1, &[(PageId(2), v1.clone())], b"a", b"", 1)
            .unwrap();
        let delta = w.len() as usize;
        w.append_txn(2, &[(PageId(2), with(&v1, 300, b"two"))], b"b", b"", 1)
            .unwrap();
        let bytes = vfs.snapshot("wal").unwrap();
        let commit = bytes.len() - (COMMIT_HEAD + 1 + CRC_LEN);
        assert_eq!(
            commit - delta,
            PAGE_HEAD + 4 + 4 + 4 + 3 + CRC_LEN,
            "one 3-byte range"
        );
        (bytes, delta, commit)
    }

    /// Scan `bytes`, expecting exactly transaction 1 to survive, and the
    /// page as transaction 1 left it.
    fn assert_prefix_is_txn_1(bytes: Vec<u8>, delta: usize, context: &str) {
        let (txns, end, images) = scan_bytes(bytes).unwrap();
        assert_eq!((txns.len(), end), (1, delta as u64), "{context}");
        assert_eq!(images[&2][300..303], [7; 3], "{context}");
    }

    fn scan_bytes(bytes: Vec<u8>) -> Result<Scanned> {
        let vfs = MemVfs::new();
        vfs.overwrite("wal", bytes);
        scan_all(&vfs)
    }

    #[test]
    fn delta_torn_inside_its_range_list_ends_at_the_previous_commit() {
        let (bytes, delta, _) = delta_log();
        // Body: page id (4), range count (4), one range (4). Cut mid-range.
        let cut = delta + PAGE_HEAD + 4 + 4 + 2;
        assert_prefix_is_txn_1(bytes[..cut].to_vec(), delta, "torn range list");
    }

    #[test]
    fn delta_torn_inside_its_payload_ends_at_the_previous_commit() {
        let (bytes, delta, _) = delta_log();
        let cut = delta + PAGE_HEAD + 4 + 4 + 4 + 1;
        assert_prefix_is_txn_1(bytes[..cut].to_vec(), delta, "torn payload");
    }

    #[test]
    fn bit_flipped_delta_ends_at_the_previous_commit() {
        let (bytes, delta, commit) = delta_log();
        for at in delta..commit {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert_prefix_is_txn_1(bad, delta, &format!("flip at {at}"));
        }
    }

    #[test]
    fn delta_with_no_earlier_image_is_corrupt() {
        // Drop transaction 1: the delta now opens the log.
        let (bytes, delta, _) = delta_log();
        let err = match scan_bytes(bytes[delta..].to_vec()) {
            Err(e) => e,
            Ok(_) => panic!("a baseless delta must not scan"),
        };
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    /// A log file whose fsync fails on demand, after the write landed.
    struct FailingSync(
        Box<dyn crate::vfs::VfsFile>,
        Arc<std::sync::atomic::AtomicBool>,
    );

    impl crate::vfs::VfsFile for FailingSync {
        fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize> {
            self.0.read_at(off, buf)
        }
        fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
            self.0.write_at(off, data)
        }
        fn sync(&self) -> Result<()> {
            if self.1.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(Error::Io(std::io::Error::other("injected fsync failure")));
            }
            self.0.sync()
        }
        fn len(&self) -> Result<u64> {
            self.0.len()
        }
        fn truncate(&self, len: u64) -> Result<()> {
            self.0.truncate(len)
        }
    }

    #[test]
    fn a_failed_append_logs_its_pages_whole_next_time() {
        let vfs = MemVfs::new();
        let failing = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let file = FailingSync(vfs.open("wal").unwrap(), failing.clone());
        let mut w = WalWriter::new(Box::new(file), 0).unwrap();
        let v1 = with(&page_of(0), 0, b"acked");
        w.append_txn(1, &[(PageId(0), v1.clone())], b"", b"", 1)
            .unwrap();
        // The frame reaches the log, the fsync fails: not acknowledged.
        failing.store(true, std::sync::atomic::Ordering::Relaxed);
        let lost = with(&v1, 0, b"LOST!");
        assert!(w.append_txn(2, &[(PageId(0), lost)], b"", b"", 1).is_err());
        failing.store(false, std::sync::atomic::Ordering::Relaxed);
        // The retry writes the acknowledged bytes back. Against the old
        // base that is an empty delta, which recovery would apply to the
        // unacknowledged frame; a full image is right.
        let before = w.len();
        w.append_txn(2, &[(PageId(0), v1.clone())], b"", b"", 1)
            .unwrap();
        let retried = w.len();
        assert!(retried - before > PAGE_SIZE as u64, "full image");
        let v3 = with(&v1, 9, b"!");
        w.append_txn(3, &[(PageId(0), v3.clone())], b"", b"", 1)
            .unwrap();
        assert!(w.len() - retried < 64, "a delta again once acknowledged");
        assert_eq!(image_in_prefix(&vfs, retried, 0), v1);
        assert_eq!(image_in_prefix(&vfs, w.len(), 0), v3);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_commit() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        w.append_txn(1, &[], b"a", b"", 1).unwrap();
        let committed = w.len();
        w.append_txn(2, &[(PageId(0), page_of(1))], b"b", b"", 1)
            .unwrap();
        // Tear the second transaction's commit frame mid-write.
        let mut bytes = vfs.snapshot("wal").unwrap();
        bytes.truncate(bytes.len() - 3);
        vfs.overwrite("wal", bytes);

        let (txns, end, images) = scan_all(&vfs).unwrap();
        assert_eq!(txns.len(), 1, "torn commit must not count");
        assert_eq!(end, committed);
        assert!(
            images.is_empty(),
            "the torn transaction's page is not applied"
        );

        // Reopening the writer at the committed prefix truncates the
        // torn tail and appends cleanly after it.
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), end).unwrap();
        assert_eq!(w.len(), committed);
        w.append_txn(2, &[], b"retry", b"", 1).unwrap();
        let (txns, _, _) = scan_all(&vfs).unwrap();
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[1].meta, b"retry");
    }

    #[test]
    fn corrupt_frame_stops_scan_cleanly() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        w.append_txn(1, &[(PageId(5), page_of(9))], b"x", b"", 1)
            .unwrap();
        w.append_txn(2, &[], b"y", b"", 1).unwrap();
        // Flip a byte inside the second commit's metadata.
        let mut bytes = vfs.snapshot("wal").unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        vfs.overwrite("wal", bytes);
        let (txns, end, _) = scan_all(&vfs).unwrap();
        assert_eq!(txns.len(), 1);
        assert!(end < w.len());
    }

    #[test]
    fn uncommitted_pages_are_dropped() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        w.append_txn(1, &[], b"only", b"", 1).unwrap();
        w.append_page(PageId(2), &page_of(2)).unwrap();
        let (txns, end, images) = scan_all(&vfs).unwrap();
        assert_eq!(txns.len(), 1);
        assert!(txns[0].pages.is_empty() && images.is_empty());
        assert!(end < w.len(), "unsealed page frame is not committed");
    }

    #[test]
    fn group_commit_batches_syncs() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        assert!(!w.append_txn(1, &[], b"", b"", 3).unwrap());
        assert!(!w.append_txn(2, &[], b"", b"", 3).unwrap());
        assert!(
            w.append_txn(3, &[], b"", b"", 3).unwrap(),
            "third commit syncs"
        );
        assert!(!w.append_txn(4, &[], b"", b"", 3).unwrap());
        w.sync().unwrap();
        assert!(
            !w.append_txn(5, &[], b"", b"", 3).unwrap(),
            "sync reset the debt"
        );
    }

    #[test]
    fn reset_empties_log_and_forgets_bases() {
        let vfs = MemVfs::new();
        let mut w = writer(&vfs);
        w.append_txn(1, &[(PageId(1), page_of(1))], b"", b"", 1)
            .unwrap();
        w.reset().unwrap();
        assert_eq!(w.len(), 0);
        let (txns, end, _) = scan_all(&vfs).unwrap();
        assert!(txns.is_empty());
        assert_eq!(end, 0);
        // The page's next frame must stand alone in the emptied log.
        w.append_txn(2, &[(PageId(1), page_of(2))], b"", b"", 1)
            .unwrap();
        assert_eq!(image_in_prefix(&vfs, w.len(), 1), page_of(2));
    }
}
