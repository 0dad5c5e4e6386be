//! Query engine and what-if optimizer over the `cdpd-storage` substrate.
//!
//! This crate plays the role SQL Server 2005 played in the paper's
//! experiments:
//!
//! * [`Database`] — catalog, heap + index maintenance, `ANALYZE`
//!   statistics, query execution with measured logical-I/O cost, and
//!   *online DDL*: `CREATE INDEX` does a scan → sort → bulk-load whose
//!   measured I/O is the real `TRANS` cost of a design change.
//! * [`Planner`] — cost-based access-path selection (sequential scan,
//!   index seek, index range scan, index-only scan). The same planner
//!   runs over *real* indexes when executing and over *hypothetical*
//!   indexes when estimating, which is exactly the "what-if" interface
//!   commercial design advisors expose.
//! * [`WhatIfEngine`] — the `EXEC` / `TRANS` / `SIZE` oracle the design
//!   advisor consumes: estimates statement cost under a hypothetical
//!   index configuration without materializing anything.
//!
//! Costs are *logical page I/Os* ([`cdpd_types::Cost`]); the planner's
//! estimates are validated against executor measurements in this
//! crate's tests.

#![warn(missing_docs)]

mod catalog;
mod cost;
mod db;
mod exec;
mod filter;
pub mod par;
mod persist;
mod planner;
mod stats;
mod whatif;

pub use catalog::{IndexSpec, TableSnapshot};
pub use cost::{CostModel, IndexShape};
pub use db::{Database, DdlReport, QueryResult};
pub use exec::ExecOutcome;
pub use filter::{Filter, RowKernel};
pub use par::{default_threads, parallel_map};
pub use planner::{BoundCondition, IndexInfo, PlannedWrite, PlannerFlags, Prepared};
pub use planner::{Plan, PlannedQuery, Planner};
pub use stats::{ColumnStats, Histogram, StatsRefresh, TableStats};
pub use whatif::WhatIfEngine;
