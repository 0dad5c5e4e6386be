//! Execute a workload under a design schedule, measuring real I/O.
//!
//! Two drivers share one window loop; they differ only in where the
//! next window's design comes from:
//!
//! * [`replay`] — the batch form (Figure 3): a *precomputed* schedule
//!   is applied window by window via online DDL, and every trace
//!   statement executed with the pager counting logical page I/O;
//! * [`drive`] — the online form: each executed statement is fed with
//!   its calibration pair to the advisor's one driver step
//!   ([`OnlineAdvisor::step`]), which refreshes statistics, seals and
//!   applies changed designs at window boundaries — the same step the
//!   server's advisor loop runs. The schedule is *discovered en route*.
//!
//! Both drivers execute each window's *read statements* across a
//! std-only scoped worker pool ([`cdpd_engine::parallel_map`]): a
//! window is partitioned at its writes into maximal runs of
//! consecutive `SELECT`s, each run fans out over the engine's `&self`
//! read surface, and every write runs serially at its original
//! sequence position. Reads commute (their only side effects are I/O
//! counters, measured per-thread), so the parallel replay is
//! **bit-identical** to the serial one: same `QueryResult`s, same
//! per-window EXEC/TRANS sums, same final schedule — property-tested
//! in `tests/parallel_equiv.rs` across seeds and thread counts.
//!
//! Both drivers also close the **predicted-vs-actual loop**: each
//! statement's planner estimate is paired with the page I/O its
//! thread-local scope measured ([`calibrate::pair`]), folded per window
//! into a drift score ([`crate::calibrate`]), and surfaced on
//! [`ReplayReport::calibration`]. [`ReplayOptions::calibration`]
//! exposes the knobs (comparison mode, drift band, fault injection);
//! `tests/calibration.rs` uses them to prove the oracle and the
//! executor keep exactly one cost model between them.

use crate::advisor::Recommendation;
use crate::calibrate::{
    self, CalibrationOptions, CalibrationReport, CalibrationTracker, CostPair, WindowCalibration,
};
use crate::online::{Observed, OnlineAdvisor};
use cdpd_engine::{default_threads, parallel_map, Database, DdlReport, IndexSpec};
use cdpd_sql::Dml;
use cdpd_types::{Error, Result};
use cdpd_workload::Trace;
use std::time::{Duration, Instant};

/// Measured outcome of one stage (window) of a replay.
#[derive(Clone, Debug, Default)]
pub struct StageReport {
    /// Logical I/O spent changing the design before this window.
    pub trans_io: u64,
    /// Logical I/O spent executing the window's statements.
    pub exec_io: u64,
    /// Indexes created entering this window.
    pub created: Vec<String>,
    /// Indexes dropped entering this window.
    pub dropped: Vec<String>,
}

/// Measured outcome of a full replay.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Per-window measurements.
    pub stages: Vec<StageReport>,
    /// Logical I/O of the closing transition: the schedule's pinned
    /// final configuration ([`replay`]), or the last window's decision
    /// ([`drive`]).
    pub final_trans_io: u64,
    /// Wall-clock time of the whole replay.
    pub wall: Duration,
    /// Statements executed.
    pub statements: u64,
    /// Total matched/affected rows across all statements. For
    /// *read-only* traces this is a design-independent checksum
    /// (identical across schedules); traces with writes mutate the
    /// database, so replays are only comparable across freshly loaded
    /// databases.
    pub row_checksum: u64,
    /// Predicted-vs-actual calibration summary over the replay: every
    /// statement's planner estimate paired with its measured page I/O
    /// (or with a live-shape what-if prediction — see
    /// [`crate::calibrate::CalibrationMode`]), folded per window into
    /// a drift score. Deterministic at any thread count, like the rest
    /// of the report.
    pub calibration: Option<CalibrationReport>,
}

impl ReplayReport {
    /// Total execution I/O.
    pub fn exec_io(&self) -> u64 {
        self.stages.iter().map(|s| s.exec_io).sum()
    }

    /// Total transition I/O (including the closing transition).
    pub fn trans_io(&self) -> u64 {
        self.stages.iter().map(|s| s.trans_io).sum::<u64>() + self.final_trans_io
    }

    /// Total measured I/O — the Figure 3 quantity.
    pub fn total_io(&self) -> u64 {
        self.exec_io() + self.trans_io()
    }
}

/// Execute window `stage` (`lo..hi` of the trace) with up to `threads`
/// concurrent readers, returning `(exec_io, rows, pairs)` — the core
/// both drivers run — where `pairs` holds each statement's calibration
/// pair in trace order.
///
/// The window is split at its writes: each maximal run of consecutive
/// `SELECT`s executes across the scoped worker pool against `&db`
/// (single-writer/multi-reader — the engine's read surface is
/// `&self`), while every `UPDATE`/`DELETE` runs serially at its
/// original sequence position, so writes observe exactly the state a
/// serial replay would give them and later reads observe the writes.
/// Per-statement I/O comes from thread-local scopes, so the summed
/// `exec_io` is bit-identical to a serial run at any thread count.
fn execute_window(
    db: &Database,
    trace: &Trace,
    stage: usize,
    lo: usize,
    hi: usize,
    threads: usize,
    calibration: &CalibrationOptions,
) -> Result<(u64, u64, Vec<Option<CostPair>>)> {
    let _span = cdpd_obs::span!("replay.window", stage = stage, statements = hi - lo);
    let stmts = &trace.statements()[lo..hi];
    let mut exec_io = 0u64;
    let mut rows = 0u64;
    let mut pairs = Vec::with_capacity(stmts.len());
    let mut i = 0;
    while i < stmts.len() {
        if matches!(stmts[i], Dml::Select(_)) {
            let mut j = i + 1;
            while j < stmts.len() && matches!(stmts[j], Dml::Select(_)) {
                j += 1;
            }
            let run = &stmts[i..j];
            // Reads don't move index shapes, so one prediction pass
            // over the whole run sees exactly the state it executes on.
            let predicted = calibrate::predict(calibration, db, trace.table(), run)?;
            let shared: &Database = db;
            let results = parallel_map(run.len(), threads, |k| match &run[k] {
                Dml::Select(s) => shared.query_count(s),
                _ => unreachable!("run contains only selects"),
            })?;
            for (k, r) in results.iter().enumerate() {
                exec_io += r.io.total();
                rows += r.count;
                pairs.push(calibrate::pair(
                    calibration,
                    r,
                    predicted.as_ref().map(|p| p[k]),
                ));
            }
            i = j;
        } else {
            // Writes split and merge index pages, so each one is
            // predicted against the shapes it actually meets.
            let predicted = calibrate::predict(calibration, db, trace.table(), &stmts[i..i + 1])?;
            let r = db.execute_dml(&stmts[i])?;
            exec_io += r.io.total();
            rows += r.count;
            pairs.push(calibrate::pair(calibration, &r, predicted.map(|p| p[0])));
            i += 1;
        }
    }
    Ok((exec_io, rows, pairs))
}

/// How [`replay`] executes a trace.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Workers for window reads and index builds; any count gives a
    /// bit-identical report. Defaults to [`default_threads`].
    pub threads: usize,
    /// Comparison mode, drift band, or an injected mis-costing.
    pub calibration: CalibrationOptions,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            threads: default_threads(),
            calibration: CalibrationOptions::default(),
        }
    }
}

/// The window loop under both drivers: execute each window, then hand
/// its statements and calibration pairs to `after`, whose answer is the
/// DDL (if any) that changed the design entering the next window.
/// `pending` is the transition made entering window 0; the one after
/// the last window is `final_trans_io`. `calibration` is left unset for
/// the caller.
fn run_windows(
    db: &Database,
    trace: &Trace,
    window_len: usize,
    threads: usize,
    calibration: &CalibrationOptions,
    mut pending: Option<DdlReport>,
    mut after: impl FnMut(usize, &[Dml], Vec<Option<CostPair>>) -> Result<Option<DdlReport>>,
) -> Result<ReplayReport> {
    let start = Instant::now();
    let windows = trace.len().div_ceil(window_len);
    let mut stages = Vec::with_capacity(windows);
    let mut row_checksum = 0u64;
    for w in 0..windows {
        let lo = w * window_len;
        let hi = ((w + 1) * window_len).min(trace.len());
        let (exec_io, rows, pairs) = execute_window(db, trace, w, lo, hi, threads, calibration)?;
        row_checksum += rows;
        stages.push(match pending.take() {
            Some(ddl) => StageReport {
                trans_io: ddl.io.total(),
                exec_io,
                created: ddl.created,
                dropped: ddl.dropped,
            },
            None => StageReport {
                exec_io,
                ..StageReport::default()
            },
        });
        pending = after(w, &trace.statements()[lo..hi], pairs)?;
    }
    Ok(ReplayReport {
        stages,
        final_trans_io: pending.map_or(0, |ddl| ddl.io.total()),
        wall: start.elapsed(),
        statements: trace.len() as u64,
        row_checksum,
        calibration: None,
    })
}

/// Replay `trace` against `db`, applying `stage_specs[i]` before window
/// `i` (windows are `window_len` statements). `final_specs` pins the
/// configuration restored after the run, like the paper's "final
/// configuration empty".
///
/// The trace is windowed exactly like the advisor summarized it, so a
/// schedule recommended from one trace can be replayed against a
/// *different* trace of the same length — that is the Figure 3
/// experiment (W1's designs replayed on W2 and W3).
pub fn replay(
    db: &Database,
    trace: &Trace,
    window_len: usize,
    stage_specs: &[Vec<IndexSpec>],
    final_specs: Option<&[IndexSpec]>,
    options: ReplayOptions,
) -> Result<ReplayReport> {
    if window_len == 0 {
        return Err(Error::InvalidArgument("window_len must be positive".into()));
    }
    let expected = trace.len().div_ceil(window_len);
    if stage_specs.len() != expected {
        return Err(Error::InvalidArgument(format!(
            "schedule has {} stages, trace windows into {expected}",
            stage_specs.len()
        )));
    }
    let _span = cdpd_obs::span!("replay.run", stages = stage_specs.len());
    let start = Instant::now();
    let transition = |stage: usize| -> Result<Option<DdlReport>> {
        let Some(specs) = stage_specs.get(stage) else {
            return Ok(None);
        };
        let _span = cdpd_obs::span!("replay.transition", stage = stage);
        db.apply_configuration_with(trace.table(), specs, options.threads)
            .map(Some)
    };
    let mut tracker = CalibrationTracker::new(options.calibration.clone());
    let mut report = run_windows(
        db,
        trace,
        window_len,
        options.threads,
        &options.calibration,
        transition(0)?,
        |w, _, pairs| {
            let mut window = WindowCalibration::default();
            for (predicted, actual, path) in pairs.into_iter().flatten() {
                window.record(predicted, actual, path);
            }
            tracker.observe_window(&window);
            transition(w + 1)
        },
    )?;
    if let Some(specs) = final_specs {
        report.final_trans_io = db
            .apply_configuration_with(trace.table(), specs, options.threads)?
            .io
            .total();
    }
    report.wall = start.elapsed();
    report.calibration = Some(tracker.report());
    Ok(report)
}

/// Replay a trace under an advisor [`Recommendation`].
pub fn replay_recommendation(
    db: &Database,
    trace: &Trace,
    rec: &Recommendation,
) -> Result<ReplayReport> {
    let final_specs: Option<Vec<IndexSpec>> = rec
        .problem
        .final_config
        .as_ref()
        .map(|f| f.structures().map(|i| rec.structures[i].clone()).collect());
    replay(
        db,
        trace,
        rec.window_len,
        &rec.stage_specs(),
        final_specs.as_deref(),
        ReplayOptions::default(),
    )
}

/// Online replay: the thin driver over [`OnlineAdvisor::step`]. Each
/// window executes under the live design, then its statements are fed
/// to the step with their calibration pairs; the one that seals the
/// window makes the step decide and apply the design entering the
/// *next* window — no hindsight, which is exactly the difference from
/// [`replay`] of a batch recommendation. The last window's design
/// change is [`ReplayReport::final_trans_io`]. The decision log stays on
/// `advisor`; [`OnlineAdvisor::finish`] gives the hindsight answer.
///
/// `threads` is [`ReplayOptions::threads`]; the calibration knobs are
/// the session's own ([`crate::OnlineOptions::calibration`]).
///
/// # Errors
/// The trace must target the advisor's table; execution, ingestion,
/// solver and DDL errors propagate.
pub fn drive(
    db: &Database,
    trace: &Trace,
    advisor: &mut OnlineAdvisor,
    threads: usize,
) -> Result<ReplayReport> {
    if trace.table() != advisor.table() {
        return Err(Error::InvalidArgument(format!(
            "trace is on table {}, advisor on {}",
            trace.table(),
            advisor.table()
        )));
    }
    let _span = cdpd_obs::span!("replay.drive", statements = trace.len());
    let calibration = advisor.options().calibration.clone();
    let mut report = run_windows(
        db,
        trace,
        advisor.window_len(),
        threads,
        &calibration,
        None,
        |_, stmts, pairs| {
            let mut applied = None;
            for (stmt, pair) in stmts.iter().zip(pairs) {
                if let Some(step) = advisor.step(db, Observed::Statement(stmt, pair), threads)? {
                    applied = step.applied;
                }
            }
            Ok(applied)
        },
    )?;
    report.calibration = Some(advisor.calibration().report());
    Ok(report)
}
