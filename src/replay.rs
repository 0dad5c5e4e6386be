//! Execute a workload under a design schedule, measuring real I/O.
//!
//! Two drivers share one window loop; they differ only in where the
//! next window's design comes from:
//!
//! * [`replay`] — the batch form (Figure 3): a *precomputed* schedule
//!   is applied window by window via online DDL, and every trace
//!   statement executed with the pager counting logical page I/O;
//! * [`drive`] — the online form: statements are executed and fed to
//!   an [`OnlineAdvisor`] one at a time, its design decisions applied
//!   as they are emitted, and its delta statistics folded in at every
//!   window boundary. The schedule is *discovered en route*.
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
//! thread-local scope measured, folded per window into a drift score
//! ([`crate::calibrate`]), and surfaced on
//! [`ReplayReport::calibration`]. [`ReplayOptions::calibration`]
//! exposes the knobs (comparison mode, drift band, fault injection);
//! `tests/calibration.rs` uses them to prove the oracle and the
//! executor keep exactly one cost model between them.

use crate::advisor::Recommendation;
use crate::calibrate::{
    self, CalibrationOptions, CalibrationReport, CalibrationTracker, WindowCalibration,
};
use crate::online::OnlineAdvisor;
use cdpd_engine::{default_threads, parallel_map, Database, IndexSpec};
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
    /// Logical I/O of the closing transition (when the schedule pins a
    /// final configuration).
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
/// concurrent readers, returning `(exec_io, rows, statements)` — the
/// core both drivers run.
///
/// The window is split at its writes: each maximal run of consecutive
/// `SELECT`s executes across the scoped worker pool against `&db`
/// (single-writer/multi-reader — the engine's read surface is
/// `&self`), while every `UPDATE`/`DELETE` runs serially at its
/// original sequence position, so writes observe exactly the state a
/// serial replay would give them and later reads observe the writes.
/// Per-statement I/O comes from thread-local scopes, so the summed
/// `exec_io` is bit-identical to a serial run at any thread count.
#[allow(clippy::too_many_arguments)]
fn execute_window(
    db: &Database,
    trace: &Trace,
    stage: usize,
    lo: usize,
    hi: usize,
    threads: usize,
    calibration: &CalibrationOptions,
    window: &mut WindowCalibration,
) -> Result<(u64, u64, u64)> {
    let _span = cdpd_obs::span!("replay.window", stage = stage, statements = hi - lo);
    let stmts = &trace.statements()[lo..hi];
    let mut exec_io = 0u64;
    let mut rows = 0u64;
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
                calibrate::record_result(calibration, window, r, predicted.as_ref().map(|p| p[k]));
            }
            i = j;
        } else {
            // Writes split and merge index pages, so each one is
            // predicted against the shapes it actually meets.
            let predicted = calibrate::predict(calibration, db, trace.table(), &stmts[i..i + 1])?;
            let r = db.execute_dml(&stmts[i])?;
            exec_io += r.io.total();
            rows += r.count;
            calibrate::record_result(calibration, window, &r, predicted.map(|p| p[0]));
            i += 1;
        }
    }
    Ok((exec_io, rows, (hi - lo) as u64))
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

/// The window loop under both drivers: enter window 0 with `first`,
/// then execute each window and hand its statements and calibration
/// pairs to `after`, whose answer is the design entering the next
/// window (`None` keeps the live one). `final_trans_io` is left 0 and
/// `calibration` unset for the caller.
fn run_windows(
    db: &Database,
    trace: &Trace,
    window_len: usize,
    threads: usize,
    calibration: &CalibrationOptions,
    first: Option<&[IndexSpec]>,
    mut after: impl FnMut(&[Dml], &WindowCalibration) -> Result<Option<Vec<IndexSpec>>>,
) -> Result<ReplayReport> {
    let start = Instant::now();
    let transition = |stage: usize, specs: &[IndexSpec]| {
        let _span = cdpd_obs::span!("replay.transition", stage = stage);
        db.apply_configuration_with(trace.table(), specs, threads)
    };
    let windows = trace.len().div_ceil(window_len);
    let mut stages = Vec::with_capacity(windows);
    let mut statements = 0u64;
    let mut row_checksum = 0u64;
    let mut pending = first.map(|specs| transition(0, specs)).transpose()?;
    for w in 0..windows {
        let lo = w * window_len;
        let hi = ((w + 1) * window_len).min(trace.len());
        let mut window = WindowCalibration::default();
        let (exec_io, rows, stmts) =
            execute_window(db, trace, w, lo, hi, threads, calibration, &mut window)?;
        row_checksum += rows;
        statements += stmts;
        let next = after(&trace.statements()[lo..hi], &window)?;
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
        if let Some(specs) = next.filter(|_| w + 1 < windows) {
            pending = Some(transition(w + 1, &specs)?);
        }
    }
    Ok(ReplayReport {
        stages,
        final_trans_io: 0,
        wall: start.elapsed(),
        statements,
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
    let mut tracker = CalibrationTracker::new(options.calibration.clone());
    let mut next = stage_specs.iter().skip(1);
    let mut report = run_windows(
        db,
        trace,
        window_len,
        options.threads,
        &options.calibration,
        stage_specs.first().map(Vec::as_slice),
        |_, window| {
            tracker.observe_window(window);
            Ok(next.next().cloned())
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

/// Online replay: the thin driver over [`OnlineAdvisor`]. Each window
/// is executed under the currently live design, then fed to the
/// advisor statement by statement (with the window's statistics deltas
/// folded in first, so the seal-time re-solve sees fresh stats); the
/// decision the seal emits is applied entering the *next* window — the
/// online loop has no hindsight, which is exactly the difference
/// between this driver and [`replay`] of a batch recommendation.
///
/// The advisor's decision log stays on `advisor` ([`OnlineAdvisor::decisions`]),
/// and a final [`OnlineAdvisor::finish`] gives the batch-quality
/// hindsight recommendation for the whole observed trace.
///
/// `threads` is [`ReplayOptions::threads`]; the calibration knobs are
/// the session's own ([`crate::OnlineOptions::calibration`]), so the
/// pairs recorded here and the tracker gating re-solves agree.
///
/// # Errors
/// The trace must target the advisor's table; execution, ingestion,
/// and solver errors propagate.
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
        |stmts, window| {
            // Fold this window's calibration pairs and statistics deltas
            // before the advisor seals it, so the decision the seal
            // emits carries this window's drift and the re-solve prices
            // the post-write table.
            advisor.note_calibration(window);
            let refresh = db.refresh_stats(trace.table())?;
            advisor.note_stats_refresh(db, &refresh)?;
            let mut decision = None;
            for stmt in stmts {
                if let Some(d) = advisor.ingest(db, stmt)? {
                    decision = Some(d);
                }
            }
            Ok(decision.filter(|d| d.changed).map(|d| d.specs))
        },
    )?;
    report.calibration = Some(advisor.calibration().report());
    Ok(report)
}
