//! Constrained dynamic physical database design — the paper's
//! contribution (Voigt, Salem, Lehner; ICDE Workshops 2008).
//!
//! Given a statement sequence, an initial configuration, a space bound,
//! and a change budget `k`, recommend a sequence of physical designs
//! minimizing `Σ EXEC(Sᵢ, Cᵢ) + TRANS(Cᵢ₋₁, Cᵢ)` with at most `k`
//! design changes (§2, Definition 1). The change budget is *not* a cost
//! control — transition costs are already in the objective — it is a
//! regularizer: small `k` forces the recommended dynamic design to track
//! the workload's major trends instead of overfitting the one trace that
//! was captured.
//!
//! Solvers (paper section → module):
//!
//! | § | Technique | Module |
//! |---|-----------|--------|
//! | 3 | sequence graph shortest path (unconstrained optimum) | [`seqgraph`] |
//! | 3 | *k-aware* layered sequence graph (constrained optimum) | [`kaware`] |
//! | 4.1 | GREEDY-SEQ candidate restriction | [`greedy`] |
//! | 4.2 | sequential design merging | [`merging`] |
//! | 5 | shortest-path ranking (constrained optimum, anytime) | [`ranking`] |
//! | 6.4 | hybrid (graph for small k, merging for large k) | [`hybrid`] |
//! | 8 | choosing k (cost curves, elbow) — open-question extension | [`kselect`] |
//!
//! The crate is engine-agnostic: solvers consume a [`CostOracle`]
//! (`EXEC`/`TRANS`/`SIZE` for bitmask [`Config`]s over a candidate
//! structure list). Every solver probe funnels through the [`oracle`]
//! layer — relevance projection, one sharded memo, and
//! instrumentation. The `cdpd` facade crate adapts the storage engine's
//! what-if optimizer to these traits; [`SyntheticOracle`] provides
//! closure-driven costs for tests and benchmarks (over the same memo).

#![warn(missing_docs)]

mod config;
pub mod decompose;
pub mod greedy;
pub mod hybrid;
pub mod kaware;
pub mod kselect;
pub mod merging;
pub mod oracle;
mod problem;
pub mod ranking;
pub mod report;
mod schedule;
pub mod seqgraph;
mod tables;
mod warm;

pub use config::{enumerate_configs, Config, ENUMERABLE_WIDTH, MAX_STRUCTURE_INDEX};
pub use decompose::{Decomposition, LocalOracle};
pub use oracle::{
    OracleStats, OracleStatsSnapshot, ProjectableOracle, ProjectedOracle, SingletonCosts,
};
pub use problem::{CostOracle, Problem, SyntheticOracle};
pub use schedule::Schedule;
