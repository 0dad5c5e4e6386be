//! `cdpd-server`: the serving front end over the `cdpd` engine.
//!
//! A std-only TCP server speaking a length-prefixed wire protocol
//! ([`proto`]): `QUERY` / `EXEC` / `METRICS` / `PING` frames in,
//! status-tagged frames out. Each accepted connection becomes a
//! session on its own thread with its own
//! [`ThreadIoScope`](cdpd_storage::ThreadIoScope) ledger, so logical
//! I/O is attributed per session exactly. Sessions execute against one
//! shared [`Database`](cdpd_engine::Database) — every mutator takes
//! `&self`; the engine's epoch-versioned catalog and per-table locks
//! serialize statements, and the WAL commit phase lock keeps durable
//! commits at statement boundaries (see the engine's concurrency-model
//! docs).
//!
//! The design advisor runs *inside* the serving loop
//! ([`advisor_loop`]): sessions forward the live statement stream, with
//! each statement's predicted-vs-actual pair, over a channel; the loop
//! runs the same advisor step as `cdpd::replay::drive`, so windows seal
//! on statement count or wall clock, the cost model is calibrated, and
//! recommended DDL is applied as online index builds that interleave
//! with foreground traffic.
//!
//! ```no_run
//! # use std::sync::Arc;
//! let db = Arc::new(cdpd_engine::Database::new());
//! // ... create tables, load data ...
//! let server = cdpd_server::Server::bind(db, "127.0.0.1:0").unwrap();
//! let handle = server.handle().unwrap();
//! let join = std::thread::spawn(move || server.run());
//! let mut client = cdpd_server::Client::connect(handle.addr()).unwrap();
//! client.exec("CREATE TABLE t (a INT, b INT)").unwrap();
//! handle.shutdown();
//! join.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]

pub mod advisor_loop;
pub mod client;
pub mod proto;
mod server;
mod session;

pub use advisor_loop::AdvisorReport;
pub use client::Client;
pub use proto::RemoteResult;
pub use server::{Server, ServerHandle, ServerReport};
