//! Shared primitive types for the `cdpd` workspace.
//!
//! This crate holds the vocabulary that every other crate speaks:
//! [`Value`]s and [`Schema`]s describing relational data, typed
//! identifiers ([`TableId`], [`ColumnId`], [`IndexId`], [`PageId`],
//! [`Rid`]), the fixed-point [`Cost`] unit used by the cost model and the
//! design advisor, and the workspace-wide [`Error`] type.
//!
//! Keeping these in a leaf crate lets the algorithm crate (`cdpd-core`)
//! stay independent of the storage engine while still sharing one cost
//! and error vocabulary with it.

#![warn(missing_docs)]

mod cost;
mod error;
mod ids;
mod schema;
mod value;

pub use cost::Cost;
pub use error::{Error, Result};
pub use ids::{ColumnId, IndexId, PageId, Rid, TableId};
pub use schema::{ColumnDef, Schema};
pub use value::{Value, ValueType};
