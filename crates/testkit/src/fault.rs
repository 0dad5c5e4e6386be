//! Deterministic fault injection for the durable storage tier.
//!
//! [`FaultyVfs`] wraps any [`Vfs`] and kills the "process" at the N-th
//! mutating operation (`write_at` / `sync` / `truncate`): the fatal
//! write lands only a pseudo-random prefix of its bytes (a torn write,
//! derived from the injected seed so runs replay exactly), and every
//! mutating operation after the kill fails. This models a crash at an
//! arbitrary instruction boundary: whatever bytes reached the inner VFS
//! before the kill are exactly what recovery gets to see.
//!
//! The recovery property suite drives this with the xoshiro PRNG:
//! enumerate a workload once against an unbounded `FaultyVfs` to learn
//! its mutating-op count, then re-run it with `kill_at` drawn from that
//! range and reopen the surviving bytes — so kill points shrink and
//! replay like any other property-test input.

use cdpd_storage::{Vfs, VfsFile};
use cdpd_types::{Error, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::rng::splitmix64;

/// Shared fault state: one per [`FaultyVfs`], shared by every file
/// handle opened through it (the kill point is global to the "process",
/// not per file).
struct FaultState {
    /// Mutating operations performed so far.
    ops: AtomicU64,
    /// The op index (1-based) at which the process dies; `u64::MAX`
    /// never kills (counting mode).
    kill_at: u64,
    /// Seed for the torn-write prefix length.
    seed: u64,
    killed: AtomicBool,
    /// The write the kill landed on, if it landed on a write.
    torn: Mutex<Option<TornWrite>>,
}

impl FaultState {
    /// Account one mutating op; returns what the op must do.
    fn step(&self) -> Fate {
        if self.killed.load(Ordering::Relaxed) {
            return Fate::Dead;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if op == self.kill_at {
            self.killed.store(true, Ordering::Relaxed);
            Fate::KillNow { op }
        } else {
            Fate::Proceed
        }
    }
}

enum Fate {
    Proceed,
    KillNow { op: u64 },
    Dead,
}

fn crashed() -> Error {
    Error::Io(std::io::Error::other("injected crash: process killed"))
}

/// The write a kill landed on: what the process meant to write and how
/// much of it reached storage.
#[derive(Clone, Debug)]
pub struct TornWrite {
    /// The file written.
    pub file: String,
    /// Every byte the write was asked to write.
    pub data: Vec<u8>,
    /// How many of them (a prefix) reached storage.
    pub kept: usize,
}

/// A [`Vfs`] wrapper that injects a deterministic process-kill at the
/// `kill_at`-th mutating operation. See the [module docs](self).
#[derive(Clone)]
pub struct FaultyVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultyVfs {
    /// Wrap `inner`, killing at the `kill_at`-th mutating op (1-based).
    /// `seed` drives the torn-write prefix of the fatal write. Pass
    /// `u64::MAX` as `kill_at` to never kill — run a workload once in
    /// that mode and read [`FaultyVfs::ops`] to learn the valid kill
    /// range.
    pub fn new(inner: Arc<dyn Vfs>, kill_at: u64, seed: u64) -> FaultyVfs {
        FaultyVfs {
            inner,
            state: Arc::new(FaultState {
                ops: AtomicU64::new(0),
                kill_at,
                seed,
                killed: AtomicBool::new(false),
                torn: Mutex::new(None),
            }),
        }
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::Relaxed)
    }

    /// Whether the kill point has been hit.
    pub fn killed(&self) -> bool {
        self.state.killed.load(Ordering::Relaxed)
    }

    /// The write the kill tore, if the kill landed on a write (not on
    /// an fsync, truncate or delete).
    pub fn torn_write(&self) -> Option<TornWrite> {
        self.state.torn.lock().expect("fault lock poisoned").clone()
    }
}

impl Vfs for FaultyVfs {
    fn open(&self, name: &str) -> Result<Box<dyn VfsFile>> {
        // Opening is not a mutating op (a crashed process cannot open
        // files anyway — recovery reopens through the *inner* VFS).
        if self.killed() {
            return Err(crashed());
        }
        Ok(Box::new(FaultyFile {
            name: name.to_owned(),
            inner: self.inner.open(name)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        match self.state.step() {
            Fate::Proceed => self.inner.delete(name),
            // The fatal delete does not happen — a crash mid-unlink is
            // modeled as not-unlinked (the stricter case for recovery).
            Fate::KillNow { .. } | Fate::Dead => Err(crashed()),
        }
    }
}

struct FaultyFile {
    name: String,
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl VfsFile for FaultyFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize> {
        if self.state.killed.load(Ordering::Relaxed) {
            return Err(crashed());
        }
        self.inner.read_at(off, buf)
    }

    fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
        match self.state.step() {
            Fate::Proceed => self.inner.write_at(off, data),
            Fate::KillNow { op } => {
                // Torn write: a pseudo-random prefix reaches storage.
                let mut s = self.state.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let keep = (splitmix64(&mut s) % (data.len() as u64 + 1)) as usize;
                if keep > 0 {
                    self.inner.write_at(off, &data[..keep])?;
                }
                *self.state.torn.lock().expect("fault lock poisoned") = Some(TornWrite {
                    file: self.name.clone(),
                    data: data.to_vec(),
                    kept: keep,
                });
                Err(crashed())
            }
            Fate::Dead => Err(crashed()),
        }
    }

    fn sync(&self) -> Result<()> {
        match self.state.step() {
            // A kill on fsync: the sync does not happen. (With a
            // memory-backed inner VFS all prior writes are visible
            // anyway; on a real disk this would be where unsynced data
            // could vanish.)
            Fate::Proceed => self.inner.sync(),
            Fate::KillNow { .. } | Fate::Dead => Err(crashed()),
        }
    }

    fn len(&self) -> Result<u64> {
        if self.state.killed.load(Ordering::Relaxed) {
            return Err(crashed());
        }
        self.inner.len()
    }

    fn truncate(&self, len: u64) -> Result<()> {
        match self.state.step() {
            Fate::Proceed => self.inner.truncate(len),
            Fate::KillNow { .. } | Fate::Dead => Err(crashed()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_storage::MemVfs;

    #[test]
    fn counts_mutating_ops_without_killing() {
        let mem = MemVfs::new();
        let vfs = FaultyVfs::new(Arc::new(mem.clone()), u64::MAX, 0);
        let f = vfs.open("x").unwrap();
        f.write_at(0, b"abc").unwrap();
        f.sync().unwrap();
        f.truncate(1).unwrap();
        let mut buf = [0u8; 1];
        f.read_at(0, &mut buf).unwrap(); // reads don't count
        assert_eq!(vfs.ops(), 3);
        assert!(!vfs.killed());
    }

    #[test]
    fn kill_tears_the_fatal_write_and_blocks_the_rest() {
        let mem = MemVfs::new();
        let vfs = FaultyVfs::new(Arc::new(mem.clone()), 2, 42);
        let f = vfs.open("x").unwrap();
        f.write_at(0, b"first").unwrap();
        let err = f.write_at(5, b"second").unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(vfs.killed());
        // Everything after the kill fails, including new opens.
        assert!(f.sync().is_err());
        assert!(f.write_at(0, b"z").is_err());
        assert!(vfs.open("y").is_err());
        // The surviving bytes: all of write 1, a prefix of write 2.
        let bytes = mem.snapshot("x").unwrap();
        assert!(bytes.len() >= 5, "first write fully present");
        assert_eq!(&bytes[..5], b"first");
        assert!(bytes.len() <= 11, "fatal write at most a prefix");
        let torn = vfs.torn_write().expect("the kill landed on a write");
        assert_eq!(torn.file, "x");
        assert_eq!(torn.data, b"second");
        assert_eq!(bytes.len(), 5 + torn.kept);
    }

    #[test]
    fn torn_prefix_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mem = MemVfs::new();
            let vfs = FaultyVfs::new(Arc::new(mem.clone()), 1, seed);
            let f = vfs.open("x").unwrap();
            let _ = f.write_at(0, b"0123456789");
            mem.snapshot("x").unwrap_or_default()
        };
        assert_eq!(run(7), run(7), "same seed, same torn prefix");
    }
}
