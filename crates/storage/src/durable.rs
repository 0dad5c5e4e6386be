//! File-backed pager state: the checksummed data file, the ping-pong
//! header pair, and the recovered-state plumbing shared by
//! [`crate::Pager::open_durable`], commit, and checkpoint.
//!
//! A durable pager owns four files inside one [`crate::Vfs`] namespace:
//!
//! * `data` — page slot `i` at byte offset `i * PAGE_SIZE`, page-aligned;
//! * `sums` — 16 bytes per page: `crc64` of the page image plus a
//!   written flag, kept out of `data` so page I/O stays aligned and a
//!   never-written slot is distinguishable from a zero page;
//! * `wal` — the write-ahead log ([`crate::wal`]);
//! * `hdr.0` / `hdr.1` — ping-pong checkpoint headers. Checkpoints
//!   alternate slots, so a torn header write always leaves the previous
//!   checkpoint's header intact; recovery adopts the valid header with
//!   the highest sequence number and replays the WAL on top of it.
//!
//! Crash-ordering invariants (enforced by the pager, verified by the
//! kill-at-any-point suite):
//!
//! 1. a page reaches `data` only after the commit that produced it is
//!    in the WAL (write-ahead rule) — so every potentially torn `data`
//!    or `sums` write is shadowed by a WAL page image at recovery (the
//!    page's first frame after the last checkpoint is a full image, and
//!    its later delta frames resolve against the log alone);
//! 2. the WAL is truncated only after the new header is fsynced — so a
//!    crash anywhere inside a checkpoint recovers from either the old
//!    header plus the full WAL or the new header plus a WAL whose stale
//!    transactions are skipped by sequence number.

use crate::codec::{put_list, put_u32, put_u64, Reader};
use crate::crc::crc64;
use crate::pager::{Page, PAGER_SHARDS, PAGE_SIZE};
use crate::vfs::{Vfs, VfsFile};
use crate::wal::WalWriter;
use cdpd_types::{Error, PageId, Result};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Mutex};

pub(crate) const FILE_DATA: &str = "data";
pub(crate) const FILE_SUMS: &str = "sums";
pub(crate) const FILE_WAL: &str = "wal";
pub(crate) const FILE_HDR: [&str; 2] = ["hdr.0", "hdr.1"];

const HDR_MAGIC: &[u8; 8] = b"CDPDHDR1";
const SUM_ENTRY: u64 = 16;
const SUM_WRITTEN: u64 = 1;

/// Tuning knobs for a durable pager.
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// Target resident pages in the pager's cache; clean pages past the
    /// budget are evicted clock-LRU per stripe, dirty pages are pinned
    /// until the next checkpoint. `0` means unbounded (everything stays
    /// resident, like the in-memory pager).
    pub cache_pages: usize,
    /// Group-commit factor: fsync the WAL every `n`-th commit. `1`
    /// fsyncs every commit (the recovery suite's setting — every
    /// acknowledged commit is durable).
    pub group_commit: usize,
    /// Auto-checkpoint once the WAL grows past this many bytes; `0`
    /// disables auto-checkpointing (callers checkpoint explicitly).
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            cache_pages: 0,
            group_commit: 1,
            checkpoint_wal_bytes: 16 * 1024 * 1024,
        }
    }
}

/// Cumulative durable-tier counters, readable at any time (the
/// physical ledger — logical I/O stays in [`crate::IoStats`]).
///
/// Each field mirrors a `cdpd-obs` tracked counter incremented at the
/// same call site (`storage.wal.appends` / `.commits` / `.fsyncs`,
/// `storage.writeback.pages`, `storage.checkpoint.completed`,
/// `storage.backend.fetches`), so per-pager deltas reconcile exactly
/// with the registry — property-tested in `tests/obs_ledger.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DurableStats {
    /// WAL page frames (full images or deltas) of acknowledged commits.
    pub wal_appends: u64,
    /// WAL commit frames appended.
    pub wal_commits: u64,
    /// WAL fsyncs issued (group commit batches these).
    pub wal_fsyncs: u64,
    /// Pages written back to the data file by checkpoints.
    pub writeback_pages: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Physical page fetches from the data file (cache misses).
    pub backend_fetches: u64,
}

impl DurableStats {
    /// Counter increase from `earlier` to `self`.
    pub fn delta(self, earlier: DurableStats) -> DurableStats {
        DurableStats {
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_commits: self.wal_commits - earlier.wal_commits,
            wal_fsyncs: self.wal_fsyncs - earlier.wal_fsyncs,
            writeback_pages: self.writeback_pages - earlier.writeback_pages,
            checkpoints: self.checkpoints - earlier.checkpoints,
            backend_fetches: self.backend_fetches - earlier.backend_fetches,
        }
    }
}

/// The decoded metadata of one commit frame or checkpoint header: the
/// pager's allocation state plus the application's bytes (a delta in a
/// commit frame, a self-contained image in a header).
pub(crate) struct CommittedMeta {
    pub(crate) next: u32,
    pub(crate) free: Vec<Vec<PageId>>,
    pub(crate) app_meta: Vec<u8>,
}

/// Encode everything of a frame's or header's metadata *except* the
/// application bytes, which follow it verbatim: `next`, the per-stripe
/// free lists, and the length of the application bytes. The split lets
/// commit and checkpoint write the application bytes from where they
/// already are instead of copying them into an intermediate blob.
pub(crate) fn encode_meta_head<L>(
    next: u32,
    free: impl ExactSizeIterator<Item = L>,
    app_len: usize,
) -> Vec<u8>
where
    L: std::ops::Deref<Target = Vec<PageId>>,
{
    let mut out = Vec::new();
    put_u32(&mut out, next);
    put_list(&mut out, free, |out, list| {
        put_list(out, list.iter(), |out, id| put_u32(out, id.raw()));
    });
    put_u64(&mut out, app_len as u64);
    out
}

pub(crate) fn decode_meta(bytes: &[u8]) -> Result<CommittedMeta> {
    let mut r = Reader::new(bytes, "pager metadata");
    let next = r.u32()?;
    let lists = r.u32()? as usize;
    if lists != PAGER_SHARDS {
        return Err(Error::Corrupt(format!(
            "pager metadata has {lists} free lists, expected {PAGER_SHARDS}"
        )));
    }
    let free = r.items(lists, |r| r.list(|r| r.u32().map(PageId)))?;
    let app_len = r.u64()? as usize;
    let app_meta = r.take(app_len)?.to_vec();
    r.finish()?;
    Ok(CommittedMeta {
        next,
        free,
        app_meta,
    })
}

/// A parsed checkpoint header.
pub(crate) struct Header {
    pub(crate) ckpt_no: u64,
    pub(crate) seq: u64,
    pub(crate) meta: CommittedMeta,
}

/// A checkpoint header: `head` is [`encode_meta_head`]'s output and
/// `app_image` the self-contained application image it announces.
pub(crate) fn encode_header(
    ckpt_no: u64,
    seq: u64,
    head: &[u8],
    app_image: &[u8],
) -> Result<Vec<u8>> {
    let body_len = u32::try_from(head.len() + app_image.len())
        .map_err(|_| Error::InvalidArgument("checkpoint header exceeds 4 GiB".into()))?;
    let mut out = Vec::with_capacity(HDR_FIXED + body_len as usize + 8);
    out.extend_from_slice(HDR_MAGIC);
    put_u64(&mut out, ckpt_no);
    put_u64(&mut out, seq);
    put_u32(&mut out, body_len);
    out.extend_from_slice(head);
    out.extend_from_slice(app_image);
    let crc = crc64(&out);
    put_u64(&mut out, crc);
    Ok(out)
}

/// Header bytes before the metadata: magic, checkpoint number, commit
/// sequence number, metadata length.
const HDR_FIXED: usize = 8 + 8 + 8 + 4;

/// Parse one header file; `None` if missing, torn, or corrupt (the
/// caller falls back to the other slot).
pub(crate) fn read_header(file: &dyn VfsFile) -> Option<Header> {
    let mut fixed = [0u8; HDR_FIXED];
    if file.read_at(0, &mut fixed).ok()? < fixed.len() || &fixed[..8] != HDR_MAGIC {
        return None;
    }
    let body_len = u32::from_le_bytes(fixed[24..].try_into().expect("4 bytes")) as usize;
    let total = HDR_FIXED + body_len + 8;
    let mut bytes = vec![0u8; total];
    if file.read_at(0, &mut bytes).ok()? < total {
        return None;
    }
    let (body, crc_bytes) = bytes.split_at(total - 8);
    if crc64(body).to_le_bytes() != crc_bytes {
        return None;
    }
    let mut r = Reader::new(body, "checkpoint header");
    r.magic(HDR_MAGIC).ok()?;
    let ckpt_no = r.u64().ok()?;
    let seq = r.u64().ok()?;
    let meta = decode_meta(r.bytes().ok()?).ok()?;
    r.finish().ok()?;
    Some(Header { ckpt_no, seq, meta })
}

/// The durable half of a pager: file handles, WAL writer, and the
/// physical-I/O ledger.
pub(crate) struct Durable {
    pub(crate) data: Box<dyn VfsFile>,
    pub(crate) sums: Box<dyn VfsFile>,
    pub(crate) hdr: [Box<dyn VfsFile>; 2],
    pub(crate) wal: Mutex<WalWriter>,
    pub(crate) opts: DurableOptions,
    /// Sequence number of the last committed transaction.
    pub(crate) seq: AtomicU64,
    /// Checkpoints taken over the pager's life (drives header ping-pong).
    pub(crate) ckpt_no: AtomicU64,
    /// Serializes whole commits: dirty-page collection, sequence-number
    /// assignment and WAL append must be one atomic unit even when
    /// several sessions commit concurrently (the engine orders mutation
    /// vs. commit with its own phase lock; this mutex makes
    /// `Pager::commit` itself safe regardless).
    pub(crate) commit_serial: Mutex<()>,
    /// Pages were freed since the last commit. Freeing dirties no frame,
    /// so this is what tells a checkpoint that the live free lists are
    /// ahead of the log. `Relaxed` suffices: commit and checkpoint
    /// require that no mutation is in flight, and whatever the caller
    /// uses to ensure that (the engine's commit phase lock) orders
    /// this flag too.
    pub(crate) free_uncommitted: AtomicBool,
    /// The bytes of the newest [`crate::Pager::commit`] — self-contained
    /// by that call's contract — which [`crate::Pager::checkpoint`]
    /// writes as the header image. Seeded at open with the newest
    /// committed bytes.
    pub(crate) last_blob: Mutex<Vec<u8>>,
    pub(crate) wal_appends: AtomicU64,
    pub(crate) wal_commits: AtomicU64,
    pub(crate) wal_fsyncs: AtomicU64,
    pub(crate) writeback_pages: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    pub(crate) backend_fetches: AtomicU64,
}

impl Durable {
    /// Per-stripe resident-page budget implied by the cache option.
    pub(crate) fn stripe_capacity(&self) -> usize {
        if self.opts.cache_pages == 0 {
            usize::MAX
        } else {
            self.opts.cache_pages.div_ceil(PAGER_SHARDS).max(1)
        }
    }

    /// Physically fetch page `id` from the data file, verifying its
    /// checksum; a slot never written back reads as a blank page.
    pub(crate) fn fetch(&self, id: PageId) -> Result<Page> {
        let mut sum = [0u8; SUM_ENTRY as usize];
        let n = self.sums.read_at(id.raw() as u64 * SUM_ENTRY, &mut sum)?;
        if n < sum.len() {
            // Slot beyond the sums file: allocated but never checkpointed.
            return Ok(Arc::new([0u8; PAGE_SIZE]));
        }
        let crc = u64::from_le_bytes(sum[..8].try_into().expect("8 bytes"));
        let flags = u64::from_le_bytes(sum[8..].try_into().expect("8 bytes"));
        if flags & SUM_WRITTEN == 0 {
            return Ok(Arc::new([0u8; PAGE_SIZE]));
        }
        let mut page = [0u8; PAGE_SIZE];
        let n = self
            .data
            .read_at(id.raw() as u64 * PAGE_SIZE as u64, &mut page)?;
        if n < PAGE_SIZE {
            return Err(Error::Corrupt(format!(
                "page {id} truncated in data file ({n} of {PAGE_SIZE} bytes)"
            )));
        }
        if crc64(&page) != crc {
            return Err(Error::Corrupt(format!("page {id} checksum mismatch")));
        }
        Ok(Arc::new(page))
    }

    /// Write one page image (and its checksum entry) back to the data
    /// file. Not fsynced — the checkpoint fsyncs both files once after
    /// the whole writeback pass.
    pub(crate) fn write_back(&self, id: PageId, page: &Page) -> Result<()> {
        self.data
            .write_at(id.raw() as u64 * PAGE_SIZE as u64, &page[..])?;
        let mut sum = [0u8; SUM_ENTRY as usize];
        sum[..8].copy_from_slice(&crc64(&page[..]).to_le_bytes());
        sum[8..].copy_from_slice(&SUM_WRITTEN.to_le_bytes());
        self.sums.write_at(id.raw() as u64 * SUM_ENTRY, &sum)?;
        Ok(())
    }
}

/// Outcome of opening a durable pager: the recovered pager plus the
/// application metadata recovery found — the image in the checkpoint
/// header it started from and the delta of every WAL commit it replayed
/// on top. Folding them is the application's job (the engine's catalog
/// codec); the pager never interprets either.
pub struct DurableOpen {
    /// The recovered pager.
    pub pager: crate::Pager,
    /// The application image in the adopted checkpoint header (what
    /// [`crate::Pager::checkpoint_with`] was handed), empty for a fresh
    /// database.
    pub app_image: Vec<u8>,
    /// The application bytes of each replayed WAL commit, oldest first.
    pub app_deltas: Vec<Vec<u8>>,
    /// Sequence number of the newest committed transaction (0 for a
    /// fresh database).
    pub committed_seq: u64,
}

/// Decide how to start from what the VFS holds: a valid header (normal
/// recovery), nothing at all (fresh database), or corruption.
pub(crate) fn recover_base(vfs: &dyn Vfs) -> Result<Option<Header>> {
    let mut best: Option<Header> = None;
    for name in FILE_HDR {
        if !vfs.exists(name) {
            continue;
        }
        if let Some(h) = read_header(&*vfs.open(name)?) {
            if best
                .as_ref()
                .is_none_or(|b| (h.seq, h.ckpt_no) >= (b.seq, b.ckpt_no))
            {
                best = Some(h);
            }
        }
    }
    if best.is_some() {
        return Ok(best);
    }
    // No valid header. If any durable evidence of a real database
    // exists — a non-empty data file, or a committed WAL transaction —
    // refuse to silently reinitialize; only a blank namespace (or one
    // whose very first header write was torn before anything committed,
    // which leaves the other files present but empty) is treated as
    // fresh.
    if vfs.exists(FILE_DATA) && vfs.open(FILE_DATA)?.len()? > 0 {
        return Err(Error::Corrupt(
            "no valid pager header but a data file exists".into(),
        ));
    }
    if vfs.exists(FILE_WAL) {
        let (committed_len, _) = crate::wal::scan(&*vfs.open(FILE_WAL)?, |_| Ok(()))?;
        if committed_len > 0 {
            return Err(Error::Corrupt(
                "no valid pager header but the WAL holds committed transactions".into(),
            ));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    fn encode_meta(next: u32, free: &[Vec<PageId>], app: &[u8]) -> Vec<u8> {
        let mut bytes = encode_meta_head(next, free.iter(), app.len());
        bytes.extend_from_slice(app);
        bytes
    }

    #[test]
    fn meta_roundtrip() {
        let free: Vec<Vec<PageId>> = (0..PAGER_SHARDS)
            .map(|s| (0..s).map(|i| PageId((s * 16 + i) as u32)).collect())
            .collect();
        let decoded = decode_meta(&encode_meta(42, &free, b"catalog bytes")).unwrap();
        assert_eq!(decoded.next, 42);
        assert_eq!(decoded.free.len(), PAGER_SHARDS);
        assert_eq!(decoded.free[3].len(), 3);
        assert_eq!(decoded.app_meta, b"catalog bytes");
    }

    #[test]
    fn meta_rejects_garbage() {
        let mut free = vec![Vec::new(); PAGER_SHARDS];
        free[1] = vec![PageId(9), PageId(4)];
        let mut bytes = encode_meta(1, &free, b"app");
        for cut in 0..bytes.len() {
            assert!(decode_meta(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        bytes.push(0); // trailing byte
        assert!(decode_meta(&bytes).is_err());
        // A free-list count other than the stripe count.
        let wrong_shards = encode_meta(1, &free[1..], b"");
        assert!(decode_meta(&wrong_shards).is_err());
    }

    #[test]
    fn header_roundtrip_and_corruption() {
        let vfs = MemVfs::new();
        let free = vec![Vec::new(); PAGER_SHARDS];
        let head = encode_meta_head(7, free.iter(), 3);
        let bytes = encode_header(3, 19, &head, b"app").unwrap();
        vfs.open("hdr.0").unwrap().write_at(0, &bytes).unwrap();
        let h = read_header(&*vfs.open("hdr.0").unwrap()).unwrap();
        assert_eq!(h.ckpt_no, 3);
        assert_eq!(h.seq, 19);
        assert_eq!(h.meta.next, 7);
        assert_eq!(h.meta.app_meta, b"app");

        // A single flipped byte anywhere invalidates the header.
        for pos in [0usize, 9, 20, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            vfs.overwrite("hdr.0", bad);
            assert!(read_header(&*vfs.open("hdr.0").unwrap()).is_none());
        }
        // Torn (short) header.
        vfs.overwrite("hdr.0", bytes[..bytes.len() / 2].to_vec());
        assert!(read_header(&*vfs.open("hdr.0").unwrap()).is_none());
    }
}
