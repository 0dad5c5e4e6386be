//! Workload modelling: query mixes, phase-structured generation,
//! traces, and window summarization.
//!
//! This crate reproduces the paper's experimental workloads exactly:
//!
//! * [`QueryMix`] — a weighted distribution over point-query templates
//!   (`SELECT <col> FROM t WHERE <col> = <randValue>`), with the four
//!   mixes of Table 1 as constructors ([`QueryMix::paper_a`] …).
//! * [`WorkloadSpec`] — a sequence of fixed-length windows, each drawing
//!   from one mix. [`paper::w1`], [`paper::w2`], and [`paper::w3`] build
//!   the three 15,000-query workloads of Table 2 (three phases with
//!   major shifts every 5,000 queries and minor shifts every 1,000 /
//!   500 / 1,000-out-of-phase queries respectively).
//! * [`generate`] — deterministic trace generation from a seed.
//! * [`Trace`] — a recorded statement sequence; serialized as plain SQL
//!   text (one statement per line), so traces are diffable, hand-
//!   editable, and round-trip through the `cdpd-sql` parser.
//! * [`summarize`] — compresses a trace into weighted statement blocks
//!   per window, the granularity at which the design advisor solves
//!   (the paper's designs in Table 2 are per-500-query windows).
//! * [`stream`] — the online counterpart: [`StatementStream`] builds
//!   the same blocks one statement at a time (bit-identical to the
//!   batch pipeline, by test).

#![warn(missing_docs)]

mod gen;
mod mix;
pub mod paper;
pub mod session;
mod spec;
pub mod stream;
mod summarize;
mod trace;

pub use gen::generate;
pub use mix::{QueryMix, Template};
pub use session::{partition, retarget, SessionWorkload};
pub use spec::WorkloadSpec;
pub use stream::{stream_trace, StatementStream, StreamState};
pub use summarize::{summarize, Block, SummarizedWorkload, WeightedStatement};
pub use trace::Trace;
