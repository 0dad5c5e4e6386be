//! # cdpd — Constrained Dynamic Physical Database Design
//!
//! A full reproduction of *Voigt, Salem, Lehner: "Constrained Dynamic
//! Physical Database Design"* (ICDE Workshops 2008), from the storage
//! engine up:
//!
//! * [`storage`] — pager, heap files, B+-trees with I/O accounting;
//! * [`sql`] — the query dialect of the paper's workloads;
//! * [`engine`] — executor, statistics, cost model, and the *what-if*
//!   optimizer design advisors are built on;
//! * [`workload`] — the paper's query mixes, workload generators, and
//!   trace summarization;
//! * [`core`] — the constrained dynamic design algorithms themselves
//!   (sequence graphs, k-aware graphs, merging, ranking, hybrid), all
//!   searching one set of dense `EXEC`/`TRANS` tables: the sequence
//!   graph is never materialised;
//! * this crate — the glue: [`EngineOracle`] adapts the what-if engine
//!   to the solver-facing [`core::CostOracle`] trait,
//!   [`candidate_indexes`] derives candidate structures from a trace,
//!   [`Advisor`] is the one-call API, [`OnlineAdvisor`] is its
//!   streaming counterpart (ingest statements, get design-change
//!   decisions at every window seal, gated by the §7 alerter),
//!   [`replay`] executes a workload under a design schedule or an
//!   online session, measuring real I/O, and
//!   [`calibrate`] closes the predicted-vs-actual loop over those
//!   executions (drift scores and a watchdog over the cost model).
//!
//! ## Quickstart
//!
//! ```no_run
//! use cdpd::{Advisor, AdvisorOptions};
//! use cdpd_engine::Database;
//! use cdpd_workload::{generate, paper};
//!
//! let mut db = Database::new();
//! // ... create and load the table, then db.analyze("t") ...
//! let trace = generate(&paper::w1(), 42);
//! let rec = Advisor::new(&db, "t")
//!     .options(AdvisorOptions { k: Some(2), ..Default::default() })
//!     .recommend(&trace)
//!     .unwrap();
//! for (window, indexes) in rec.segment_specs() {
//!     println!("windows {window:?}: {indexes:?}");
//! }
//! ```

#![warn(missing_docs)]

pub use cdpd_core as core;
pub use cdpd_engine as engine;
pub use cdpd_obs as obs;
pub use cdpd_sql as sql;
pub use cdpd_storage as storage;
pub use cdpd_testkit as testkit;
pub use cdpd_types as types;
pub use cdpd_workload as workload;

mod advisor;
pub mod calibrate;
mod candidates;
pub mod online;
mod oracle;
pub mod replay;

pub use advisor::{Advisor, AdvisorOptions, Algorithm, Recommendation};
pub use calibrate::{
    CalibrationMode, CalibrationOptions, CalibrationReport, CalibrationTracker, PathKind,
    WindowCalibration,
};
pub use candidates::{candidate_indexes, candidate_indexes_capped};
pub use cdpd_core::OracleStatsSnapshot;
pub use cdpd_obs::MetricsSnapshot;
pub use online::{OnlineAdvisor, OnlineDecision, OnlineOptions};
pub use oracle::EngineOracle;
