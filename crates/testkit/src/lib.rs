//! # cdpd-testkit — the repo's hermetic test substrate
//!
//! Everything the workspace needs from `rand`, `proptest`, and
//! `criterion`, reimplemented in-tree on `std` alone, so the whole
//! repository builds and tests with an empty cargo registry:
//!
//! * [`rng`] — a deterministic PRNG ([`Prng`]: SplitMix64-seeded
//!   xoshiro256++) with the `gen_range`/`shuffle`/`choose_weighted`
//!   surface the workload generator, examples, and bench binaries use.
//!   Seed-stable across platforms: the same seed always produces the
//!   same stream, which is what makes every experiment replayable.
//! * [`prop`] — a property-testing harness: composable [`prop::Strategy`]
//!   generators with input shrinking, case counts configurable via
//!   `CDPD_PROP_CASES`, and failure-seed persistence in
//!   `tests/regressions/*.seeds` files (the in-tree analogue of
//!   proptest's `*.proptest-regressions`).
//! * [`mod@bench`] — a minimal criterion replacement (warmup, timed samples,
//!   median/p95 report, optional JSON output via `CDPD_BENCH_JSON_DIR`)
//!   keeping the `criterion_group!`/`criterion_main!` bench layout, plus
//!   the bench-diff verdict over the reports it writes.
//! * [`json`] — a minimal JSON reader for validating what the workspace
//!   writes (bench reports, trace JSONL, calibration reports).
//! * [`fault`] — deterministic crash injection ([`FaultyVfs`]): a VFS
//!   wrapper that kills the process-model at the N-th mutating storage
//!   operation with a seeded torn write, powering the kill-at-any-point
//!   recovery property suite.

#![warn(missing_docs)]

pub mod bench;
pub mod fault;
pub mod json;
pub mod prop;
pub mod rng;

pub use fault::{FaultyVfs, TornWrite};
pub use rng::Prng;
