//! A [`Vfs`] that counts what reaches the device: bytes written per
//! file and flushes. Timing runs over [`MemVfs`] so the numbers are the
//! program's and not the sandbox disk's; device-facing work is reported
//! as these exact counts instead.

use cdpd_storage::{MemVfs, Vfs, VfsFile};
use cdpd_types::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Device-facing totals since the wrapper was created.
#[derive(Default)]
pub struct DeviceCounts {
    /// Bytes written to the write-ahead log.
    pub wal_bytes: AtomicU64,
    /// Bytes written to every other file (data, checksums, headers).
    pub other_bytes: AtomicU64,
    /// `sync` calls on any file.
    pub syncs: AtomicU64,
}

/// [`MemVfs`] plus [`DeviceCounts`].
#[derive(Clone, Default)]
pub struct CountingVfs {
    inner: MemVfs,
    /// Shared with every file handle this namespace opens.
    pub counts: Arc<DeviceCounts>,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    is_wal: bool,
    counts: Arc<DeviceCounts>,
}

impl Vfs for CountingVfs {
    fn open(&self, name: &str) -> Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open(name)?,
            is_wal: name == "wal",
            counts: self.counts.clone(),
        }))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.inner.delete(name)
    }
}

impl VfsFile for CountingFile {
    fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<usize> {
        self.inner.read_at(off, buf)
    }

    fn write_at(&self, off: u64, data: &[u8]) -> Result<()> {
        let counter = if self.is_wal {
            &self.counts.wal_bytes
        } else {
            &self.counts.other_bytes
        };
        counter.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write_at(off, data)
    }

    fn sync(&self) -> Result<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn truncate(&self, len: u64) -> Result<()> {
        self.inner.truncate(len)
    }
}
