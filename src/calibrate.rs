//! Cost-model calibration: the predicted-vs-actual loop.
//!
//! Every replayed statement already carries both sides of the ledger:
//! the planner's estimate for the executed plan
//! ([`cdpd_engine::QueryResult::est_cost`]) and the logical page I/O a
//! thread-local scope measured during execution
//! ([`cdpd_engine::QueryResult::io`]). This module pairs them per
//! statement, folds the pairs into per-window summaries, and watches
//! the *drift* — a smoothed signed relative error — against a
//! configurable band, raising a watchdog [`cdpd_obs::event!`] (and
//! forcing the §7 gate, [`crate::OnlineOptions::resolve_threshold`],
//! open) when the model can no longer be trusted.
//!
//! Two comparison modes ([`CalibrationMode`]):
//!
//! * [`MeasuredIo`](CalibrationMode::MeasuredIo) — predicted is the
//!   planner's model estimate, actual is the measured page I/O. This is
//!   the *deployment* signal: it captures selectivity noise, histogram
//!   staleness, and genuine model error, so the drift band must leave
//!   room for honest estimation slack.
//! * [`ModelAccount`](CalibrationMode::ModelAccount) — predicted is a
//!   what-if oracle backed by the **live** materialized index shapes
//!   ([`cdpd_engine::WhatIfEngine::snapshot_live`]), actual is the
//!   executor's own model account (`est_cost`). Both sides read the
//!   same statistics and the same shapes, so they must agree *exactly*;
//!   any daylight is a real divergence between the advisor's oracle and
//!   the executor's planner. This mode is the reconciliation harness
//!   behind `tests/calibration.rs`.
//!
//! Fault injection: [`CalibrationOptions::index_cost_scale`] multiplies
//! the predicted cost of index-backed plans, simulating a mis-costed
//! index model. The drift watchdog must catch it — that is the
//! end-to-end test that the loop actually closes.

use cdpd_engine::{Database, QueryResult, WhatIfEngine};
use cdpd_sql::Dml;
use cdpd_types::Result;

/// Access path of an executed statement, as
/// [`cdpd_engine::QueryResult::path`] carries it.
pub use cdpd_engine::PathKind;

/// Which quantities a calibration pass compares. See the module docs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CalibrationMode {
    /// Planner estimate vs measured page I/O (the deployment signal).
    #[default]
    MeasuredIo,
    /// Live-shape what-if prediction vs the executor's model account
    /// (exact by construction; used for reconciliation tests).
    ModelAccount,
}

/// Tuning knobs for a calibration pass.
#[derive(Clone, Debug)]
pub struct CalibrationOptions {
    /// What to compare.
    pub mode: CalibrationMode,
    /// Watchdog band: trip when `|drift| > band`. Drift is a smoothed
    /// signed relative error, so `2.0` means "predictions are 3× off".
    /// The default leaves room for honest estimation slack in
    /// [`CalibrationMode::MeasuredIo`] (the engine's estimates track
    /// measurements within ~2.5×) while still catching a genuinely
    /// broken model.
    pub band: f64,
    /// Smoothing factor for the per-window drift EWMA, in `(0, 1]`.
    /// `1.0` means the latest window alone is the drift.
    pub ewma_alpha: f64,
    /// Fault injection: multiply the *predicted* cost of index-backed
    /// plans by this factor. `1.0` is off. Lets tests (and operators
    /// staging a rollout) prove the watchdog actually fires.
    pub index_cost_scale: f64,
}

impl Default for CalibrationOptions {
    fn default() -> CalibrationOptions {
        CalibrationOptions {
            mode: CalibrationMode::MeasuredIo,
            band: 2.0,
            ewma_alpha: 0.25,
            index_cost_scale: 1.0,
        }
    }
}

/// Per-path slice of a calibration summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathCalibration {
    /// Statements executed through this access path.
    pub samples: u64,
    /// Summed predicted page I/Os.
    pub predicted_ios: u64,
    /// Summed actual page I/Os.
    pub actual_ios: u64,
}

/// Predicted-vs-actual accumulator over one replay window.
///
/// [`record`](WindowCalibration::record) also mirrors every pair into
/// the global metrics registry under `calibration.*`: sample and I/O
/// counters, over/under/exact tallies, an absolute-error histogram, and
/// a per-access-path breakdown.
#[derive(Clone, Debug, Default)]
pub struct WindowCalibration {
    /// Statements paired.
    pub samples: u64,
    /// Summed predicted page I/Os.
    pub predicted_ios: u64,
    /// Summed actual page I/Os.
    pub actual_ios: u64,
    /// Summed `|predicted − actual|` page I/Os.
    pub abs_err_ios: u64,
    /// Statements whose prediction exceeded the actual.
    pub overestimates: u64,
    /// Statements whose prediction fell short of the actual.
    pub underestimates: u64,
    /// Statements predicted exactly.
    pub exact: u64,
    per_path: [PathCalibration; PathKind::ALL.len()],
}

impl WindowCalibration {
    /// Fold one predicted-vs-actual pair in and emit the
    /// `calibration.*` metrics for it.
    pub fn record(&mut self, predicted_ios: u64, actual_ios: u64, path: PathKind) {
        self.samples += 1;
        self.predicted_ios += predicted_ios;
        self.actual_ios += actual_ios;
        let abs_err = predicted_ios.abs_diff(actual_ios);
        self.abs_err_ios += abs_err;
        cdpd_obs::counter!("calibration.samples").inc();
        cdpd_obs::counter!("calibration.predicted_ios").add(predicted_ios);
        cdpd_obs::counter!("calibration.actual_ios").add(actual_ios);
        cdpd_obs::histogram!("calibration.abs_err_ios").record(abs_err);
        match predicted_ios.cmp(&actual_ios) {
            std::cmp::Ordering::Greater => {
                self.overestimates += 1;
                cdpd_obs::counter!("calibration.overestimates").inc();
            }
            std::cmp::Ordering::Less => {
                self.underestimates += 1;
                cdpd_obs::counter!("calibration.underestimates").inc();
            }
            std::cmp::Ordering::Equal => {
                self.exact += 1;
                cdpd_obs::counter!("calibration.exact").inc();
            }
        }
        let slot = &mut self.per_path[path as usize];
        slot.samples += 1;
        slot.predicted_ios += predicted_ios;
        slot.actual_ios += actual_ios;
        match path {
            PathKind::SeqScan => cdpd_obs::counter!("calibration.path.seq_scan").inc(),
            PathKind::IndexSeek => cdpd_obs::counter!("calibration.path.index_seek").inc(),
            PathKind::IndexRange => cdpd_obs::counter!("calibration.path.index_range").inc(),
            PathKind::IndexOnlyScan => cdpd_obs::counter!("calibration.path.index_only_scan").inc(),
            PathKind::IndexExtremum => cdpd_obs::counter!("calibration.path.index_extremum").inc(),
            PathKind::IndexAnd => cdpd_obs::counter!("calibration.path.index_and").inc(),
            PathKind::IndexOr => cdpd_obs::counter!("calibration.path.index_or").inc(),
            PathKind::Write => cdpd_obs::counter!("calibration.path.write").inc(),
            PathKind::Other => cdpd_obs::counter!("calibration.path.other").inc(),
        }
    }

    /// Signed relative error of the window:
    /// `(predicted − actual) / max(actual, 1)`.
    pub fn signed_error(&self) -> f64 {
        let denom = self.actual_ios.max(1) as f64;
        (self.predicted_ios as f64 - self.actual_ios as f64) / denom
    }

    /// The per-path breakdown, ordered like [`PathKind::ALL`].
    pub fn by_path(&self) -> impl Iterator<Item = (PathKind, &PathCalibration)> {
        PathKind::ALL
            .iter()
            .map(|&p| (p, &self.per_path[p as usize]))
    }

    fn merge(&mut self, other: &WindowCalibration) {
        self.samples += other.samples;
        self.predicted_ios += other.predicted_ios;
        self.actual_ios += other.actual_ios;
        self.abs_err_ios += other.abs_err_ios;
        self.overestimates += other.overestimates;
        self.underestimates += other.underestimates;
        self.exact += other.exact;
        for (mine, theirs) in self.per_path.iter_mut().zip(other.per_path.iter()) {
            mine.samples += theirs.samples;
            mine.predicted_ios += theirs.predicted_ios;
            mine.actual_ios += theirs.actual_ios;
        }
    }
}

/// Folds per-window [`WindowCalibration`]s into a session-level drift
/// score and trips the watchdog when the drift leaves the band.
///
/// Drift is an exponentially weighted moving average of the per-window
/// signed relative error, so one noisy window moves it by
/// `ewma_alpha × error` while a *systematic* mis-costing walks it out
/// of the band within a few windows. The watchdog is edge-triggered:
/// the `event!` fires on the window that *enters* the breach, not on
/// every window spent inside it.
#[derive(Clone, Debug)]
pub struct CalibrationTracker {
    options: CalibrationOptions,
    totals: WindowCalibration,
    windows: u64,
    drift: f64,
    alerts: u64,
    in_breach: bool,
}

impl CalibrationTracker {
    /// A tracker with the given knobs and no observations.
    pub fn new(options: CalibrationOptions) -> CalibrationTracker {
        CalibrationTracker {
            options,
            totals: WindowCalibration::default(),
            windows: 0,
            drift: 0.0,
            alerts: 0,
            in_breach: false,
        }
    }

    /// Fold one window in. Returns `true` while the drift is outside
    /// the band (the watchdog `event!` fires only on entry). Windows
    /// with no paired statements are ignored.
    pub fn observe_window(&mut self, window: &WindowCalibration) -> bool {
        if window.samples == 0 {
            return self.in_breach;
        }
        let err = window.signed_error();
        self.drift = if self.windows == 0 {
            err
        } else {
            self.options.ewma_alpha * err + (1.0 - self.options.ewma_alpha) * self.drift
        };
        self.windows += 1;
        self.totals.merge(window);
        cdpd_obs::counter!("calibration.windows").inc();
        cdpd_obs::gauge!("calibration.drift_millis").set((self.drift * 1000.0) as i64);
        let breached = self.drift.abs() > self.options.band;
        if breached && !self.in_breach {
            self.alerts += 1;
            cdpd_obs::counter!("calibration.watchdog_trips").inc();
            cdpd_obs::event!(
                "calibration watchdog: drift {:.3} left band ±{:.3} \
                 (window error {:.3}, {} samples)",
                self.drift,
                self.options.band,
                err,
                window.samples
            );
        }
        self.in_breach = breached;
        breached
    }

    /// Windows observed (empty windows excluded).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// The current drift score.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// Whether the drift is outside the band right now.
    pub(crate) fn in_breach(&self) -> bool {
        self.in_breach
    }

    /// Snapshot the tracker into a report.
    pub fn report(&self) -> CalibrationReport {
        CalibrationReport {
            mode: self.options.mode,
            windows: self.windows,
            samples: self.totals.samples,
            predicted_ios: self.totals.predicted_ios,
            actual_ios: self.totals.actual_ios,
            abs_err_ios: self.totals.abs_err_ios,
            overestimates: self.totals.overestimates,
            underestimates: self.totals.underestimates,
            exact: self.totals.exact,
            signed_error: self.totals.signed_error(),
            drift: self.drift,
            band: self.options.band,
            alerts: self.alerts,
            tripped: self.in_breach,
            by_path: self
                .totals
                .by_path()
                .filter(|(_, s)| s.samples > 0)
                .map(|(p, s)| (p, *s))
                .collect(),
        }
    }
}

/// Session-level calibration summary, surfaced on
/// [`crate::replay::ReplayReport`], [`crate::OnlineDecision`], and
/// [`crate::Recommendation`].
#[derive(Clone, Debug)]
pub struct CalibrationReport {
    /// What was compared.
    pub mode: CalibrationMode,
    /// Non-empty windows folded in.
    pub windows: u64,
    /// Statements paired.
    pub samples: u64,
    /// Summed predicted page I/Os.
    pub predicted_ios: u64,
    /// Summed actual page I/Os.
    pub actual_ios: u64,
    /// Summed absolute error in page I/Os.
    pub abs_err_ios: u64,
    /// Statements over-predicted.
    pub overestimates: u64,
    /// Statements under-predicted.
    pub underestimates: u64,
    /// Statements predicted exactly.
    pub exact: u64,
    /// Overall signed relative error.
    pub signed_error: f64,
    /// The drift score (EWMA of per-window signed error).
    pub drift: f64,
    /// The watchdog band the tracker ran under.
    pub band: f64,
    /// Watchdog trips (entries into breach).
    pub alerts: u64,
    /// Whether the drift is outside the band right now.
    pub tripped: bool,
    /// Per-access-path breakdown (paths with at least one sample).
    pub by_path: Vec<(PathKind, PathCalibration)>,
}

impl CalibrationReport {
    /// True when every single prediction matched its actual exactly —
    /// the reconciliation invariant of
    /// [`CalibrationMode::ModelAccount`].
    pub fn is_exact(&self) -> bool {
        self.samples > 0 && self.exact == self.samples
    }

    /// Render the report as a JSON object (stable key order; finite
    /// floats — NaN/∞ are clamped to `0.0` so the output always
    /// parses).
    pub fn to_json(&self) -> String {
        fn f(v: f64) -> f64 {
            if v.is_finite() {
                v
            } else {
                0.0
            }
        }
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"mode\":\"{}\",",
            match self.mode {
                CalibrationMode::MeasuredIo => "measured_io",
                CalibrationMode::ModelAccount => "model_account",
            }
        ));
        out.push_str(&format!("\"windows\":{},", self.windows));
        out.push_str(&format!("\"samples\":{},", self.samples));
        out.push_str(&format!("\"predicted_ios\":{},", self.predicted_ios));
        out.push_str(&format!("\"actual_ios\":{},", self.actual_ios));
        out.push_str(&format!("\"abs_err_ios\":{},", self.abs_err_ios));
        out.push_str(&format!("\"overestimates\":{},", self.overestimates));
        out.push_str(&format!("\"underestimates\":{},", self.underestimates));
        out.push_str(&format!("\"exact\":{},", self.exact));
        out.push_str(&format!("\"signed_error\":{:.6},", f(self.signed_error)));
        out.push_str(&format!("\"drift\":{:.6},", f(self.drift)));
        out.push_str(&format!("\"band\":{:.6},", f(self.band)));
        out.push_str(&format!("\"alerts\":{},", self.alerts));
        out.push_str(&format!("\"tripped\":{},", self.tripped));
        out.push_str("\"by_path\":[");
        for (i, (path, s)) in self.by_path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"path\":\"{}\",\"samples\":{},\"predicted_ios\":{},\"actual_ios\":{}}}",
                path.label(),
                s.samples,
                s.predicted_ios,
                s.actual_ios
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Apply the fault-injection scale to the predicted cost of a
/// statement that read through an index
/// ([`cdpd_engine::QueryResult::index_backed`]).
fn inject(options: &CalibrationOptions, index_backed: bool, predicted_ios: u64) -> u64 {
    if options.index_cost_scale != 1.0 && index_backed {
        (predicted_ios as f64 * options.index_cost_scale) as u64
    } else {
        predicted_ios
    }
}

/// One executed statement's `(predicted, actual, path)` calibration
/// pair, in page I/Os: the arguments of [`WindowCalibration::record`].
pub type CostPair = (u64, u64, PathKind);

/// The pair `options` compares for one executed statement, with any
/// injected mis-costing applied. `oracle_prediction` carries the
/// [`CalibrationMode::ModelAccount`] prediction in page I/Os (ignored
/// under [`CalibrationMode::MeasuredIo`]); without it that mode has no
/// pair, which is what a served session — holding no live-shape oracle
/// — gets.
pub fn pair(
    options: &CalibrationOptions,
    r: &QueryResult,
    oracle_prediction: Option<u64>,
) -> Option<CostPair> {
    let (predicted, actual) = match options.mode {
        CalibrationMode::MeasuredIo => (r.est_cost.ios(), r.io.total()),
        CalibrationMode::ModelAccount => (oracle_prediction?, r.est_cost.ios()),
    };
    Some((inject(options, r.index_backed, predicted), actual, r.path))
}

/// [`CalibrationMode::ModelAccount`] predictions for a batch of
/// statements, from a what-if oracle backed by the live materialized
/// shapes. `None` under [`CalibrationMode::MeasuredIo`] (the
/// prediction is free there — the executor reports it).
///
/// Callers must invoke this against the database state the statements
/// will execute on: reads don't move shapes, so one call per maximal
/// read run is exact, but every write needs a fresh call (its index
/// maintenance may split or merge pages).
pub(crate) fn predict(
    options: &CalibrationOptions,
    db: &Database,
    table: &str,
    stmts: &[Dml],
) -> Result<Option<Vec<u64>>> {
    if options.mode != CalibrationMode::ModelAccount {
        return Ok(None);
    }
    let whatif = WhatIfEngine::snapshot_live(db, table)?;
    let config = db.index_specs(table)?;
    let mut out = Vec::with_capacity(stmts.len());
    for stmt in stmts {
        out.push(whatif.dml_cost(stmt, &config)?.ios());
    }
    Ok(Some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_testkit::json::{self, Json};

    /// The rules that used to read the access path off the plan text.
    /// They survive only here, as the reference the typed
    /// [`QueryResult::path`] is checked against.
    fn kind_of_text(plan: &str) -> PathKind {
        let prefixes = [
            ("SeqScan", PathKind::SeqScan),
            ("IndexSeek", PathKind::IndexSeek),
            ("IndexRange", PathKind::IndexRange),
            ("IndexOnlyScan", PathKind::IndexOnlyScan),
            ("IndexExtremum", PathKind::IndexExtremum),
            ("IndexAnd", PathKind::IndexAnd),
            ("IndexOr", PathKind::IndexOr),
            ("Update via", PathKind::Write),
            ("Delete via", PathKind::Write),
        ];
        prefixes
            .iter()
            .find(|(prefix, _)| plan.starts_with(prefix))
            .map_or(PathKind::Other, |(_, kind)| *kind)
    }

    /// The text rule [`QueryResult::index_backed`] is checked against.
    fn index_backed_text(plan: &str) -> bool {
        plan.contains("Index")
    }

    #[test]
    fn path_kinds_parse_plan_prefixes() {
        let cases = [
            ("SeqScan cost=12.0", PathKind::SeqScan),
            ("IndexSeek(t_a, covering) cost=3.0", PathKind::IndexSeek),
            ("IndexRange(t_a) cost=5.0", PathKind::IndexRange),
            ("IndexOnlyScan(t_a_b) cost=2.0", PathKind::IndexOnlyScan),
            ("IndexExtremum(t_a, min) cost=3.0", PathKind::IndexExtremum),
            ("IndexAnd(t_a, t_b, 2 probes) cost=7.0", PathKind::IndexAnd),
            ("IndexOr(t_a, 3 probes) cost=11.0", PathKind::IndexOr),
            ("IndexOr(t_a, 1 probe) cost=4.0", PathKind::IndexOr),
            (
                "Update via IndexSeek(t_a) maintaining 2 index(es), cost=9.0",
                PathKind::Write,
            ),
            ("Delete via SeqScan, cost=40.0", PathKind::Write),
            ("something new", PathKind::Other),
        ];
        for (plan, want) in cases {
            assert_eq!(kind_of_text(plan), want, "{plan}");
        }
        assert_eq!(PathKind::ALL.len(), 9);
        for (slot, kind) in PathKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, slot, "{}", kind.label());
        }
    }

    /// The typed path and index flag every result carries equal the
    /// text rules above, on a live plan of every kind.
    #[test]
    fn every_live_plan_describe_string_round_trips() {
        use cdpd_types::Value;
        let db = Database::new();
        let schema = cdpd_types::Schema::new(vec![
            cdpd_types::ColumnDef::int("a"),
            cdpd_types::ColumnDef::int("b"),
            cdpd_types::ColumnDef::int("c"),
        ]);
        db.create_table("t", schema).unwrap();
        // a/b are 50-valued (each Eq matches ~80 rows → the a=..AND b=..
        // conjunction favours a rowid intersection); c is unique (IN/OR
        // probes on c match single rows → the union path wins).
        for i in 0..4000i64 {
            db.insert(
                "t",
                &[Value::Int(i % 50), Value::Int((i * 7) % 50), Value::Int(i)],
            )
            .unwrap();
        }
        db.analyze("t").unwrap();
        for col in ["a", "b", "c"] {
            db.create_index(&cdpd_engine::IndexSpec::new("t", &[col]))
                .unwrap();
        }
        let sqls = [
            "SELECT * FROM t WHERE a >= 3",
            "SELECT a FROM t",
            "SELECT a FROM t WHERE a = 5",
            "SELECT a FROM t WHERE a BETWEEN 3 AND 6",
            "SELECT MIN(a) FROM t",
            "SELECT * FROM t WHERE a = 5 AND b = 7",
            "SELECT * FROM t WHERE c IN (1, 2, 3)",
            "SELECT * FROM t WHERE (c = 1 OR c = 4000)",
            "UPDATE t SET b = 9 WHERE a = 5",
            "UPDATE t SET b = 8 WHERE (a = 1 OR b >= 10)",
            "DELETE FROM t WHERE c IN (1, 2)",
        ];
        let mut seen = std::collections::BTreeSet::new();
        let mut writes_backed = std::collections::BTreeSet::new();
        for sql in sqls {
            let stmt = match cdpd_sql::parse(sql).unwrap() {
                cdpd_sql::Statement::Select(s) => Dml::Select(s),
                cdpd_sql::Statement::Update(u) => Dml::Update(u),
                cdpd_sql::Statement::Delete(d) => Dml::Delete(d),
                _ => unreachable!(),
            };
            let r = db.execute_dml(&stmt).unwrap();
            assert_eq!(r.path, kind_of_text(&r.plan), "{sql} -> {}", r.plan);
            assert_eq!(
                r.index_backed,
                index_backed_text(&r.plan),
                "{sql} -> {}",
                r.plan
            );
            assert_ne!(r.path, PathKind::Other, "{sql} -> {}", r.plan);
            seen.insert(r.path.label());
            if r.path == PathKind::Write {
                writes_backed.insert(r.index_backed);
            }
        }
        // Every read path and the write path, and writes located both
        // through an index and by a heap scan.
        assert_eq!(seen.len(), PathKind::ALL.len() - 1, "{seen:?}");
        assert_eq!(writes_backed.len(), 2);
    }

    #[test]
    fn window_accumulates_and_signs_errors() {
        let mut w = WindowCalibration::default();
        w.record(10, 10, PathKind::IndexSeek); // exact
        w.record(20, 10, PathKind::SeqScan); // over by 10
        w.record(5, 10, PathKind::Write); // under by 5
        assert_eq!(w.samples, 3);
        assert_eq!(w.predicted_ios, 35);
        assert_eq!(w.actual_ios, 30);
        assert_eq!(w.abs_err_ios, 15);
        assert_eq!(w.overestimates, 1);
        assert_eq!(w.underestimates, 1);
        assert_eq!(w.exact, 1);
        let err = w.signed_error();
        assert!((err - 5.0 / 30.0).abs() < 1e-12, "{err}");
        let seek = w
            .by_path()
            .find(|(p, _)| *p == PathKind::IndexSeek)
            .unwrap()
            .1;
        assert_eq!(
            *seek,
            PathCalibration {
                samples: 1,
                predicted_ios: 10,
                actual_ios: 10
            }
        );
    }

    #[test]
    fn tracker_trips_on_systematic_drift_and_recovers() {
        let mut t = CalibrationTracker::new(CalibrationOptions {
            band: 1.0,
            ewma_alpha: 0.5,
            ..Default::default()
        });
        let mut honest = WindowCalibration::default();
        honest.record(10, 10, PathKind::IndexSeek);
        assert!(!t.observe_window(&honest), "exact window stays in band");
        assert_eq!(t.drift(), 0.0);

        // A 5× systematic overestimate walks the EWMA out of the band.
        let mut skewed = WindowCalibration::default();
        skewed.record(50, 10, PathKind::IndexSeek);
        let mut tripped = false;
        for _ in 0..6 {
            tripped = t.observe_window(&skewed);
        }
        assert!(tripped, "drift {} must leave band 1.0", t.drift());
        let r = t.report();
        assert_eq!(r.alerts, 1, "edge-triggered: one entry, one alert");
        assert!(r.tripped);
        assert!(!r.is_exact());

        // Honest windows pull the drift back inside.
        for _ in 0..8 {
            tripped = t.observe_window(&honest);
        }
        assert!(!tripped, "drift {} must decay back", t.drift());
        assert!(!t.report().tripped);
        assert_eq!(t.report().alerts, 1);
    }

    #[test]
    fn empty_windows_are_ignored() {
        let mut t = CalibrationTracker::new(CalibrationOptions::default());
        assert!(!t.observe_window(&WindowCalibration::default()));
        assert_eq!(t.windows(), 0);
        assert_eq!(t.drift(), 0.0);
        let r = t.report();
        assert_eq!(r.samples, 0);
        assert!(!r.is_exact(), "no samples is not exact");
    }

    #[test]
    fn report_json_is_well_formed() {
        let mut t = CalibrationTracker::new(CalibrationOptions::default());
        let mut w = WindowCalibration::default();
        w.record(12, 10, PathKind::SeqScan);
        w.record(3, 3, PathKind::IndexSeek);
        t.observe_window(&w);
        let text = t.report().to_json();
        let rep = json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
        let keys = |v: &Json| match v {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        };
        assert_eq!(
            keys(&rep).join(" "),
            "mode windows samples predicted_ios actual_ios abs_err_ios overestimates \
             underestimates exact signed_error drift band alerts tripped by_path"
        );
        let int = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{key} is not a count in {text}"))
        };
        for key in ["signed_error", "drift", "band"] {
            assert!(rep.get(key).and_then(Json::as_f64).is_some(), "{key}");
        }
        assert_eq!(rep.get("mode").and_then(Json::as_str), Some("measured_io"));
        assert_eq!(rep.get("tripped"), Some(&Json::Bool(false)));
        let counts = [
            "windows",
            "samples",
            "predicted_ios",
            "actual_ios",
            "abs_err_ios",
            "alerts",
        ];
        assert_eq!(counts.map(|k| int(&rep, k)), [1, 2, 15, 13, 2, 0]);
        let split = ["overestimates", "underestimates", "exact"].map(|k| int(&rep, k));
        assert_eq!(split, [1, 0, 1]);
        assert_eq!(split.iter().sum::<u64>(), int(&rep, "samples"));

        // `by_path` lists exactly the exercised paths, by label, and
        // partitions the samples.
        let by_path = rep.get("by_path").and_then(Json::as_array).expect("array");
        let labels: Vec<&str> = PathKind::ALL.iter().map(|p| p.label()).collect();
        let mut sampled = 0;
        for entry in by_path {
            assert_eq!(
                keys(entry).join(" "),
                "path samples predicted_ios actual_ios"
            );
            let path = entry.get("path").and_then(Json::as_str).expect("label");
            assert!(labels.contains(&path), "{path} is not a PathKind label");
            assert!(int(entry, "samples") > 0, "only exercised paths are listed");
            int(entry, "predicted_ios");
            int(entry, "actual_ios");
            sampled += int(entry, "samples");
        }
        assert_eq!(sampled, int(&rep, "samples"));
        assert_eq!(
            by_path[0].get("path").and_then(Json::as_str),
            Some("seq_scan")
        );
    }

    #[test]
    fn injection_scales_only_index_backed_plans() {
        let opts = CalibrationOptions {
            index_cost_scale: 4.0,
            ..Default::default()
        };
        assert_eq!(inject(&opts, true, 10), 40);
        assert_eq!(inject(&opts, false, 10), 10);
        let off = CalibrationOptions::default();
        assert_eq!(inject(&off, true, 10), 10);
    }

    #[test]
    fn model_account_without_a_prediction_has_no_pair() {
        let r = QueryResult {
            count: 1,
            rows: None,
            aggregate: None,
            io: cdpd_storage::IoStats {
                reads: 7,
                ..Default::default()
            },
            est_cost: cdpd_types::Cost::from_ios(3),
            plan: "IndexSeek(t_a) cost=3.0".into(),
            path: PathKind::IndexSeek,
            index_backed: true,
        };
        let measured = CalibrationOptions::default();
        assert_eq!(pair(&measured, &r, None), Some((3, 7, PathKind::IndexSeek)));
        let account = CalibrationOptions {
            mode: CalibrationMode::ModelAccount,
            ..Default::default()
        };
        assert_eq!(pair(&account, &r, None), None);
        assert_eq!(
            pair(&account, &r, Some(4)),
            Some((4, 3, PathKind::IndexSeek))
        );
    }
}
