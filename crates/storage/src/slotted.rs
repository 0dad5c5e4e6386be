//! Slotted-page record layout for heap pages.
//!
//! Layout within one [`PAGE_SIZE`] buffer:
//!
//! ```text
//! 0..2   number of slots (u16 LE)
//! 2..4   free-space offset: first unused byte after the record area
//! 4..    record bytes, growing upward
//! ...    free space
//! end    slot directory, growing downward: 4 bytes per slot
//!        (record offset u16 LE, record length u16 LE)
//! ```
//!
//! Records are never moved; a deleted slot is tombstoned by setting its
//! length to [`DEAD`]. This matches the classic textbook layout and
//! keeps record ids ([`cdpd_types::Rid`]) stable for the lifetime of the
//! page — a property the B+-tree relies on, since it stores rids.

use crate::pager::PAGE_SIZE;
use std::ops::Range;

const HEADER: usize = 4;
const SLOT_BYTES: usize = 4;
/// Tombstone length marking a deleted slot.
pub const DEAD: u16 = u16::MAX;

#[inline]
fn read_u16(buf: &[u8; PAGE_SIZE], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn write_u16(buf: &mut [u8; PAGE_SIZE], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Number of slots on the page (including tombstones).
#[inline]
pub fn slot_count(buf: &[u8; PAGE_SIZE]) -> u16 {
    read_u16(buf, 0)
}

fn free_offset(buf: &[u8; PAGE_SIZE]) -> u16 {
    let off = read_u16(buf, 2);
    // A zeroed page has free_offset 0; treat it as freshly formatted.
    off.max(HEADER as u16)
}

/// Bytes of free space remaining (accounting for the slot directory
/// entry a new record would need).
pub fn free_space(buf: &[u8; PAGE_SIZE]) -> usize {
    let dir_start = PAGE_SIZE - slot_count(buf) as usize * SLOT_BYTES;
    dir_start.saturating_sub(free_offset(buf) as usize)
}

/// True if a record of `len` bytes fits.
pub fn fits(buf: &[u8; PAGE_SIZE], len: usize) -> bool {
    free_space(buf) >= len + SLOT_BYTES
}

/// Insert a record, returning its slot number, or `None` if it does not
/// fit. Records of length ≥ [`DEAD`] are rejected (`None`) since that
/// length is the tombstone sentinel.
pub fn insert(buf: &mut [u8; PAGE_SIZE], record: &[u8]) -> Option<u16> {
    if record.len() >= DEAD as usize || !fits(buf, record.len()) {
        return None;
    }
    let slot = slot_count(buf);
    let off = free_offset(buf);
    buf[off as usize..off as usize + record.len()].copy_from_slice(record);
    let dir = PAGE_SIZE - (slot as usize + 1) * SLOT_BYTES;
    write_u16(buf, dir, off);
    write_u16(buf, dir + 2, record.len() as u16);
    write_u16(buf, 0, slot + 1);
    write_u16(buf, 2, off + record.len() as u16);
    Some(slot)
}

/// The byte range of the record in `slot`, or `None` if the slot is out
/// of range or dead.
pub fn record_range(buf: &[u8; PAGE_SIZE], slot: u16) -> Option<Range<usize>> {
    if slot >= slot_count(buf) {
        return None;
    }
    let dir = PAGE_SIZE - (slot as usize + 1) * SLOT_BYTES;
    let off = read_u16(buf, dir) as usize;
    let len = read_u16(buf, dir + 2);
    if len == DEAD {
        return None;
    }
    Some(off..off + len as usize)
}

/// The record in `slot`, or `None` if the slot is out of range or dead.
pub fn get(buf: &[u8; PAGE_SIZE], slot: u16) -> Option<&[u8]> {
    record_range(buf, slot).map(|r| &buf[r])
}

/// Overwrite a live slot's record in place. Succeeds only when the new
/// record is no longer than the old one (records never move); returns
/// false otherwise (caller should delete + reinsert). The slot keeps
/// its offset; its length shrinks to the new record's.
pub fn update(buf: &mut [u8; PAGE_SIZE], slot: u16, record: &[u8]) -> bool {
    if slot >= slot_count(buf) || record.len() >= DEAD as usize {
        return false;
    }
    let dir = PAGE_SIZE - (slot as usize + 1) * SLOT_BYTES;
    let off = read_u16(buf, dir) as usize;
    let len = read_u16(buf, dir + 2);
    if len == DEAD || record.len() > len as usize {
        return false;
    }
    buf[off..off + record.len()].copy_from_slice(record);
    write_u16(buf, dir + 2, record.len() as u16);
    true
}

/// Tombstone a slot. Returns true if the slot existed and was live.
/// The record bytes are not reclaimed (no compaction), matching the
/// "delete is cheap, space returns at reorganization" model the cost
/// model assumes for DROP-less heaps.
pub fn delete(buf: &mut [u8; PAGE_SIZE], slot: u16) -> bool {
    if slot >= slot_count(buf) {
        return false;
    }
    let dir = PAGE_SIZE - (slot as usize + 1) * SLOT_BYTES;
    if read_u16(buf, dir + 2) == DEAD {
        return false;
    }
    write_u16(buf, dir + 2, DEAD);
    true
}

/// The first live record at or after `slot`: its slot and byte range,
/// or `None` past the last slot. Tombstones are skipped. This is the
/// one slot-directory walk every heap scan shares.
#[inline]
pub fn next_live(buf: &[u8; PAGE_SIZE], mut slot: u16) -> Option<(u16, Range<usize>)> {
    let count = slot_count(buf);
    while slot < count {
        let dir = PAGE_SIZE - (slot as usize + 1) * SLOT_BYTES;
        let [o0, o1, l0, l1] = buf[dir..dir + SLOT_BYTES] else {
            unreachable!("a slot entry is {SLOT_BYTES} bytes")
        };
        let len = u16::from_le_bytes([l0, l1]);
        if len != DEAD {
            let off = u16::from_le_bytes([o0, o1]) as usize;
            return Some((slot, off..off + len as usize));
        }
        slot += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> [u8; PAGE_SIZE] {
        [0u8; PAGE_SIZE]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = page();
        let s0 = insert(&mut p, b"hello").unwrap();
        let s1 = insert(&mut p, b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(get(&p, 0), Some(&b"hello"[..]));
        assert_eq!(get(&p, 1), Some(&b"world!"[..]));
        assert_eq!(get(&p, 2), None);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = page();
        let rec = [7u8; 100];
        let mut n = 0;
        while insert(&mut p, &rec).is_some() {
            n += 1;
        }
        // 104 bytes per record (100 + 4 slot) into 8188 usable.
        assert_eq!(n, (PAGE_SIZE - HEADER) / 104);
        assert!(!fits(&p, 100));
        // A smaller record may still fit.
        assert!(free_space(&p) < 104);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = page();
        insert(&mut p, b"a").unwrap();
        insert(&mut p, b"b").unwrap();
        assert!(delete(&mut p, 0));
        assert!(!delete(&mut p, 0), "double delete is a no-op");
        assert!(!delete(&mut p, 9), "out of range");
        assert_eq!(get(&p, 0), None);
        let (slot, range) = next_live(&p, 0).unwrap();
        assert_eq!(
            (slot, &p[range]),
            (1, &b"b"[..]),
            "the tombstone is skipped"
        );
        assert_eq!(next_live(&p, 2), None);
    }

    #[test]
    fn update_in_place() {
        let mut p = page();
        insert(&mut p, b"hello world").unwrap();
        insert(&mut p, b"second").unwrap();
        assert!(update(&mut p, 0, b"HELLO"));
        assert_eq!(get(&p, 0), Some(&b"HELLO"[..]));
        assert_eq!(get(&p, 1), Some(&b"second"[..]), "neighbour untouched");
        // Larger record cannot go in place.
        assert!(!update(&mut p, 0, b"this is far too long"));
        // Dead or missing slots cannot be updated.
        delete(&mut p, 0);
        assert!(!update(&mut p, 0, b"x"));
        assert!(!update(&mut p, 9, b"x"));
    }

    #[test]
    fn zeroed_page_is_empty() {
        let p = page();
        assert_eq!(slot_count(&p), 0);
        assert_eq!(next_live(&p, 0), None);
        assert_eq!(free_space(&p), PAGE_SIZE - HEADER);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = page();
        assert!(insert(&mut p, &vec![0u8; PAGE_SIZE]).is_none());
    }
}
