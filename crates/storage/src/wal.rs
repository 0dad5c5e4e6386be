//! Write-ahead log: the durable pager's crash-consistency mechanism.
//!
//! The log is a flat sequence of checksummed frames on one VFS file:
//!
//! ```text
//! page frame:   [0x01][page_id: u32 LE][payload: PAGE_SIZE bytes][crc64: u64 LE]
//! commit frame: [0x02][seq: u64 LE][meta_len: u32 LE][meta][crc64: u64 LE]
//! ```
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
//! truncated and never observed.
//!
//! Durability policy is group commit: the writer counts commits and
//! fsyncs every `group_commit`-th one ([`WalWriter::append_commit`]),
//! trading a bounded window of recent commits for fewer fsyncs —
//! checkpointing ([`crate::Pager::checkpoint`]) later flushes dirty
//! pages to the data file and truncates the log.

use crate::crc::{crc64_begin, crc64_finish, crc64_update};
use crate::pager::{Page, PAGE_SIZE};
use cdpd_types::{PageId, Result};
use std::sync::Arc;

const TAG_PAGE: u8 = 1;
const TAG_COMMIT: u8 = 2;

/// On-log size of one page frame.
pub(crate) const PAGE_FRAME_LEN: u64 = 1 + 4 + PAGE_SIZE as u64 + 8;

/// Appends frames to the log file and tracks its valid length.
pub(crate) struct WalWriter {
    file: Box<dyn crate::vfs::VfsFile>,
    len: u64,
    commits_since_sync: usize,
}

impl WalWriter {
    /// Wrap `file`, treating `valid_len` (from a recovery [`scan`]) as
    /// the end of the log; anything past it is truncated away.
    pub(crate) fn new(file: Box<dyn crate::vfs::VfsFile>, valid_len: u64) -> Result<WalWriter> {
        if file.len()? > valid_len {
            file.truncate(valid_len)?;
        }
        Ok(WalWriter {
            file,
            len: valid_len,
            commits_since_sync: 0,
        })
    }

    /// Current log length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Append one page frame (no fsync; pages are only durable once
    /// their commit frame is).
    pub(crate) fn append_page(&mut self, id: PageId, page: &Page) -> Result<()> {
        let mut frame = Vec::with_capacity(PAGE_FRAME_LEN as usize);
        frame.push(TAG_PAGE);
        frame.extend_from_slice(&id.raw().to_le_bytes());
        frame.extend_from_slice(&page[..]);
        let crc = crc64_finish(crc64_update(crc64_begin(), &frame));
        frame.extend_from_slice(&crc.to_le_bytes());
        self.file.write_at(self.len, &frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Append a commit frame sealing the transaction, then fsync if
    /// `group_commit` commits have accumulated since the last sync.
    /// Returns whether this commit was synced. The frame's metadata is
    /// `head` followed by `tail`, taken as two slices so the caller
    /// never has to join them first.
    pub(crate) fn append_commit(
        &mut self,
        seq: u64,
        head: &[u8],
        tail: &[u8],
        group_commit: usize,
    ) -> Result<bool> {
        let meta_len = u32::try_from(head.len() + tail.len()).map_err(|_| {
            cdpd_types::Error::InvalidArgument("commit metadata exceeds 4 GiB".into())
        })?;
        let mut frame = Vec::with_capacity(1 + 8 + 4 + meta_len as usize + 8);
        frame.push(TAG_COMMIT);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&meta_len.to_le_bytes());
        frame.extend_from_slice(head);
        frame.extend_from_slice(tail);
        let crc = crc64_finish(crc64_update(crc64_begin(), &frame));
        frame.extend_from_slice(&crc.to_le_bytes());
        self.file.write_at(self.len, &frame)?;
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

    /// Discard the whole log (after a checkpoint made it redundant).
    pub(crate) fn reset(&mut self) -> Result<()> {
        self.file.truncate(0)?;
        self.file.sync()?;
        self.len = 0;
        self.commits_since_sync = 0;
        Ok(())
    }
}

/// One committed transaction recovered from the log.
pub(crate) struct WalTxn {
    /// Commit sequence number (monotonic across the pager's life).
    pub(crate) seq: u64,
    /// Page images written by this transaction, in append order.
    pub(crate) pages: Vec<(PageId, Page)>,
    /// The commit frame's metadata payload.
    pub(crate) meta: Vec<u8>,
}

/// Scan a log file, returning every *committed* transaction in order
/// plus the byte length of the valid committed prefix.
///
/// The scan stops at the first frame that is short, has an unknown
/// tag, or fails its checksum — by construction everything after a torn
/// write is garbage. Page frames not yet sealed by a commit are
/// dropped (the transaction never committed).
pub(crate) fn scan(file: &dyn crate::vfs::VfsFile) -> Result<(Vec<WalTxn>, u64)> {
    let total = file.len()?;
    let mut txns = Vec::new();
    let mut pending: Vec<(PageId, Page)> = Vec::new();
    let mut off = 0u64;
    let mut committed_end = 0u64;

    loop {
        let mut tag = [0u8; 1];
        if file.read_at(off, &mut tag)? < 1 {
            break;
        }
        match tag[0] {
            TAG_PAGE => {
                if total - off < PAGE_FRAME_LEN {
                    break;
                }
                let mut frame = vec![0u8; PAGE_FRAME_LEN as usize];
                if file.read_at(off, &mut frame)? < frame.len() {
                    break;
                }
                let (body, crc_bytes) = frame.split_at(frame.len() - 8);
                let crc = u64::from_le_bytes(crc_bytes.try_into().expect("8 bytes"));
                if crc64_finish(crc64_update(crc64_begin(), body)) != crc {
                    break;
                }
                let id = PageId(u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")));
                let mut page = [0u8; PAGE_SIZE];
                page.copy_from_slice(&body[5..]);
                pending.push((id, Arc::new(page)));
                off += PAGE_FRAME_LEN;
            }
            TAG_COMMIT => {
                let mut hdr = [0u8; 13];
                if file.read_at(off, &mut hdr)? < hdr.len() {
                    break;
                }
                let meta_len = u32::from_le_bytes(hdr[9..13].try_into().expect("4 bytes")) as u64;
                let frame_len = 13 + meta_len + 8;
                if total - off < frame_len {
                    break;
                }
                let mut frame = vec![0u8; frame_len as usize];
                if file.read_at(off, &mut frame)? < frame.len() {
                    break;
                }
                let (body, crc_bytes) = frame.split_at(frame.len() - 8);
                let crc = u64::from_le_bytes(crc_bytes.try_into().expect("8 bytes"));
                if crc64_finish(crc64_update(crc64_begin(), body)) != crc {
                    break;
                }
                let seq = u64::from_le_bytes(body[1..9].try_into().expect("8 bytes"));
                txns.push(WalTxn {
                    seq,
                    pages: std::mem::take(&mut pending),
                    meta: body[13..].to_vec(),
                });
                off += frame_len;
                committed_end = off;
            }
            _ => break,
        }
    }
    Ok((txns, committed_end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{MemVfs, Vfs};

    fn page_of(b: u8) -> Page {
        Arc::new([b; PAGE_SIZE])
    }

    #[test]
    fn roundtrip_transactions() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap();
        w.append_page(PageId(3), &page_of(0xAA)).unwrap();
        w.append_page(PageId(7), &page_of(0xBB)).unwrap();
        assert!(w.append_commit(1, b"meta-", b"one", 1).unwrap());
        assert!(w.append_commit(2, b"", b"", 1).unwrap());

        let (txns, end) = scan(&*vfs.open("wal").unwrap()).unwrap();
        assert_eq!(end, w.len());
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].seq, 1);
        assert_eq!(txns[0].pages.len(), 2);
        assert_eq!(txns[0].pages[0].0, PageId(3));
        assert_eq!(txns[0].pages[0].1[0], 0xAA);
        assert_eq!(txns[0].meta, b"meta-one");
        assert_eq!(txns[1].seq, 2);
        assert!(txns[1].pages.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_to_last_commit() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap();
        w.append_commit(1, b"a", b"", 1).unwrap();
        let committed = w.len();
        w.append_page(PageId(0), &page_of(1)).unwrap();
        w.append_commit(2, b"b", b"", 1).unwrap();
        // Tear the second transaction's commit frame mid-write.
        let mut bytes = vfs.snapshot("wal").unwrap();
        bytes.truncate(bytes.len() - 3);
        vfs.overwrite("wal", bytes);

        let (txns, end) = scan(&*vfs.open("wal").unwrap()).unwrap();
        assert_eq!(txns.len(), 1, "torn commit must not count");
        assert_eq!(end, committed);

        // Reopening the writer at the committed prefix truncates the
        // torn tail and appends cleanly after it.
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), end).unwrap();
        assert_eq!(w.len(), committed);
        w.append_commit(2, b"retry", b"", 1).unwrap();
        let (txns, _) = scan(&*vfs.open("wal").unwrap()).unwrap();
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[1].meta, b"retry");
    }

    #[test]
    fn corrupt_frame_stops_scan_cleanly() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap();
        w.append_page(PageId(5), &page_of(9)).unwrap();
        w.append_commit(1, b"x", b"", 1).unwrap();
        w.append_commit(2, b"y", b"", 1).unwrap();
        // Flip a byte inside the second commit's metadata.
        let mut bytes = vfs.snapshot("wal").unwrap();
        let n = bytes.len();
        bytes[n - 9] ^= 0xFF;
        vfs.overwrite("wal", bytes);
        let (txns, end) = scan(&*vfs.open("wal").unwrap()).unwrap();
        assert_eq!(txns.len(), 1);
        assert!(end < w.len());
    }

    #[test]
    fn uncommitted_pages_are_dropped() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap();
        w.append_commit(1, b"only", b"", 1).unwrap();
        w.append_page(PageId(2), &page_of(2)).unwrap();
        let (txns, end) = scan(&*vfs.open("wal").unwrap()).unwrap();
        assert_eq!(txns.len(), 1);
        assert!(txns[0].pages.is_empty());
        assert!(end < w.len(), "unsealed page frame is not committed");
    }

    #[test]
    fn group_commit_batches_syncs() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap();
        assert!(!w.append_commit(1, b"", b"", 3).unwrap());
        assert!(!w.append_commit(2, b"", b"", 3).unwrap());
        assert!(
            w.append_commit(3, b"", b"", 3).unwrap(),
            "third commit syncs"
        );
        assert!(!w.append_commit(4, b"", b"", 3).unwrap());
        w.sync().unwrap();
        assert!(
            !w.append_commit(5, b"", b"", 3).unwrap(),
            "sync reset the debt"
        );
    }

    #[test]
    fn reset_empties_log() {
        let vfs = MemVfs::new();
        let mut w = WalWriter::new(vfs.open("wal").unwrap(), 0).unwrap();
        w.append_commit(1, b"", b"", 1).unwrap();
        w.reset().unwrap();
        assert_eq!(w.len(), 0);
        let (txns, end) = scan(&*vfs.open("wal").unwrap()).unwrap();
        assert!(txns.is_empty());
        assert_eq!(end, 0);
    }
}
