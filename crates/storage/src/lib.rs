//! Instrumented in-memory storage engine.
//!
//! This crate is the substrate that stands in for the paper's
//! SQL Server 2005 installation: a paged storage manager whose *logical
//! page I/O counts* drive both the measured execution costs (Figure 3)
//! and the what-if cost model's estimates.
//!
//! Layers, bottom to top:
//!
//! * [`Pager`] — fixed-size (8 KiB) pages behind a lock-striped page
//!   table ([`PAGER_SHARDS`] stripes, per-stripe free lists) with an
//!   exact atomic I/O ledger; every page access anywhere in the system
//!   is accounted here, which is what makes measured costs
//!   deterministic. [`ThreadIoScope`] attributes I/O to the current
//!   thread so per-statement accounting stays exact under concurrency.
//! * slotted pages ([`slotted`]) — variable-length record layout used by
//!   heap pages.
//! * [`codec`] — row serialization, an order-preserving
//!   ("memcomparable") key encoding, so B+-tree pages can compare keys
//!   with plain `memcmp`, and the strict record codec that the pager's
//!   metadata, the engine's catalog, the advisor's saved state and the
//!   server's result payloads are written in.
//! * [`HeapFile`] — unordered tuple storage with record ids.
//! * [`BTree`] — a paged B+-tree over memcomparable keys supporting
//!   point seeks, ordered range cursors, full leaf scans (for index-only
//!   plans), incremental inserts with node splits, deletes, and sorted
//!   bulk loading (used by `CREATE INDEX`).
//!
//! # Durability
//!
//! [`Pager::new`] stays purely in-memory (the configuration every
//! experiment and historical test runs). [`Pager::open_durable`] backs
//! the same pager with files behind a [`Vfs`] — a checksummed data
//! file, a write-ahead log with group commit, and ping-pong checkpoint
//! headers — so a database survives a crash at any point and recovers
//! to the last committed transaction. See [`vfs`] for the backend seam
//! ([`DiskVfs`] for real directories, [`MemVfs`] for tests) and
//! [`DurableOptions`] for the cache/fsync/checkpoint knobs.

#![warn(missing_docs)]

pub mod codec;
pub mod slotted;
pub mod vfs;

mod btree;
mod crc;
mod durable;
mod heap;
mod pager;
mod wal;

pub use btree::{BTree, BTreeCursor};
pub use crc::crc64;
pub use durable::{DurableOpen, DurableOptions, DurableStats};
pub use heap::{HeapFile, HeapScan, PinnedRow};
pub use pager::{IoStats, Page, Pager, ThreadIoScope, PAGER_SHARDS, PAGE_SIZE};
pub use vfs::{DiskVfs, MemVfs, Vfs, VfsFile};
