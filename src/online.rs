//! The online advisory pipeline: statements in, design decisions out.
//!
//! [`crate::Advisor`] is the paper's **off-line** optimizer — full
//! trace in, schedule out, everything rebuilt from scratch per call.
//! [`OnlineAdvisor`] is the same optimizer run as a *session*: it
//! consumes one statement at a time, maintains the sliding window
//! ([`cdpd_workload::StatementStream`]), extends its cost oracle by
//! one stage per sealed window ([`EngineOracle::append_block`] under a
//! warm [`ProjectedOracle`] memo), and re-solves with the committed
//! prefix pinned ([`cdpd_core::kaware::solve_with_prefix`]) under a
//! rolling change budget `k` — so each boundary costs suffix work, not
//! an O(n) cold solve.
//!
//! [`OnlineAdvisor::step`] wraps that core for the two drivers,
//! [`crate::replay::drive`] and the server's advisor loop: at every seal
//! it calibrates, refreshes statistics, persists and applies.
//!
//! The §7 *design alerter* is this loop's gate: every sealed window is
//! scored for degradation (live design vs best single candidate), the
//! signal rides on every [`OnlineDecision`], and
//! [`OnlineOptions::resolve_threshold`] gates re-solving on it (or on
//! calibration drift out of band).
//!
//! **Batch equivalence** is the anchor invariant, proven by test
//! (`tests/online_equiv.rs`): with an unbounded window,
//! [`OnlineAdvisor::finish`] routes the streamed summary — itself
//! bit-identical to batch summarization — through the *same* pipeline
//! body as [`crate::Advisor::recommend`], so the final recommendation
//! is bit-identical to the batch one. The per-window decisions are the
//! online approximation (no hindsight past the sealed window); the
//! finish-time commit is the batch answer.

use crate::advisor::{recommend_for_workload, AdvisorOptions, Recommendation};
use crate::calibrate::{
    CalibrationOptions, CalibrationReport, CalibrationTracker, CostPair, WindowCalibration,
};
use crate::candidates::candidate_indexes;
use crate::oracle::EngineOracle;
use cdpd_core::{
    decompose, kaware, seqgraph, Config, CostOracle, Problem, ProjectableOracle, ProjectedOracle,
};
use cdpd_engine::{Database, DdlReport, IndexSpec, StatsRefresh, WhatIfEngine};
use cdpd_sql::Dml;
use cdpd_storage::codec::{
    put_bool, put_f64, put_list, put_opt, put_str, put_u16, put_u64, Reader,
};
use cdpd_types::{Error, Result};
use cdpd_workload::{Block, StatementStream, StreamState};

/// Tuning knobs for [`OnlineAdvisor`].
#[derive(Clone, Debug)]
pub struct OnlineOptions {
    /// The batch options the session optimizes under. `window_len`
    /// sets the stream's window; `k` is the rolling change budget over
    /// the retained horizon; `structures: None` derives candidates
    /// incrementally from sealed windows. The online loop always
    /// re-solves with the exact warm-start solvers (sequence graph /
    /// k-aware graph); `algorithm` is honored by
    /// [`OnlineAdvisor::finish`], which runs the full batch pipeline.
    pub advisor: AdvisorOptions,
    /// The §7 alerter gate: when `Some(t)`, a sealed window triggers a
    /// re-solve only if it ran more than `t` (fractional, e.g. `0.5` =
    /// 50%) worse under the live design than under the best single
    /// candidate, or while the calibration tracker is in breach (the
    /// degradation is made of the estimates the drift discredits);
    /// `None` re-solves at every window boundary.
    pub resolve_threshold: Option<f64>,
    /// Retain at most this many sealed windows (`None` = unbounded —
    /// required for batch equivalence). Bounding the window bounds
    /// memory and solve horizon, at the price of rebuilding the oracle
    /// when old windows are evicted (stage indices shift, so the warm
    /// memo cannot be kept).
    pub max_windows: Option<usize>,
    /// Ceiling on the candidate vocabulary. Configurations are
    /// width-agnostic, so this bounds *work*, not representation: wider
    /// vocabularies mean more what-if shapes to validate and a larger
    /// active set per re-solve. Once the ceiling is reached, new
    /// derived candidates are dropped in ranked order — the per-window
    /// derivation already emits candidates best-first, so the drops are
    /// the worst-ranked ones — counted in
    /// [`OnlineAdvisor::dropped_structures`] and the
    /// `online.structures_dropped` counter. Defaults to
    /// [`DEFAULT_MAX_CANDIDATES`].
    pub max_candidates: usize,
    /// Knobs for the predicted-vs-actual calibration tracker the
    /// session folds executed windows into (drivers feed it pairs
    /// through [`OnlineAdvisor::step`]). The drift score and any
    /// watchdog state ride on every [`OnlineDecision::calibration`].
    pub calibration: CalibrationOptions,
}

/// Default [`OnlineOptions::max_candidates`]: four times the old
/// 64-structure encoding cap the `u64`-bitmask representation imposed.
pub const DEFAULT_MAX_CANDIDATES: usize = 256;

impl Default for OnlineOptions {
    fn default() -> OnlineOptions {
        OnlineOptions {
            advisor: AdvisorOptions::default(),
            resolve_threshold: None,
            max_windows: None,
            max_candidates: DEFAULT_MAX_CANDIDATES,
            calibration: CalibrationOptions::default(),
        }
    }
}

/// One design-change decision, emitted per sealed window.
#[derive(Clone, Debug)]
pub struct OnlineDecision {
    /// Absolute index of the window whose sealing produced this
    /// decision (the first window is 0, even after eviction).
    pub window: usize,
    /// The configuration committed for that window.
    pub config: Config,
    /// `config` resolved to index specs — what a driver applies.
    pub specs: Vec<IndexSpec>,
    /// Whether `config` differs from the previously committed one.
    pub changed: bool,
    /// The alerter signal for the sealed window: live-design cost over
    /// best-single-candidate cost, minus one (`0.8` = 80% worse).
    pub degradation: f64,
    /// Whether a re-solve ran (`false` when
    /// [`OnlineOptions::resolve_threshold`] gated it off and the live
    /// design was carried forward).
    pub resolved: bool,
    /// Wall-clock nanoseconds the re-solve took (0 when not resolved).
    pub solve_nanos: u64,
    /// Changes the committed schedule has spent within the retained
    /// horizon, counted as [`cdpd_core::Schedule`] counts them.
    pub changes_used: usize,
    /// Predicted-vs-actual calibration state at this seal, when a
    /// driver has fed calibration pairs in ([`OnlineAdvisor::step`]);
    /// `None` in sessions that only ingest. Runtime telemetry, not
    /// decision state: it is *not* persisted by
    /// [`OnlineAdvisor::save_state`], and restored decisions carry
    /// `None`.
    pub calibration: Option<CalibrationReport>,
}

/// What [`OnlineAdvisor::step`] observes.
#[derive(Clone, Copy, Debug)]
pub enum Observed<'a> {
    /// A statement that ran, with its calibration pair
    /// ([`crate::calibrate::pair`]) when the driver has one.
    Statement(&'a Dml, Option<CostPair>),
    /// A wall-clock boundary: seal the open window now, short of its
    /// statement count (a no-op when it is empty).
    Tick,
}

/// What [`OnlineAdvisor::step`] did when its input sealed a window.
#[derive(Clone, Debug)]
pub struct Step {
    /// The seal's decision.
    pub decision: OnlineDecision,
    /// The DDL that applied it, when the decision changed the design.
    pub applied: Option<DdlReport>,
}

/// A streaming advisory session over one table. See the module docs
/// for the pipeline; [`OnlineAdvisor::step`] executes its decisions.
pub struct OnlineAdvisor {
    table: String,
    options: OnlineOptions,
    stream: StatementStream,
    /// Candidate vocabulary (bit order of every [`Config`] here).
    /// Append-only, so committed configs and memo entries stay valid
    /// as it grows.
    structures: Vec<IndexSpec>,
    /// Whether the vocabulary is derived from the stream (as opposed
    /// to fixed by [`AdvisorOptions::structures`]).
    derived: bool,
    /// Candidates dropped because the vocabulary hit
    /// [`OnlineOptions::max_candidates`].
    dropped_structures: usize,
    /// Warm cost oracle over the retained sealed windows.
    oracle: Option<ProjectedOracle<EngineOracle>>,
    /// Absolute window index of the oracle's stage 0.
    oracle_first: usize,
    /// `true` while the next seal must rebuild the oracle instead of
    /// appending (vocabulary grew or windows were evicted).
    rebuild: bool,
    /// The design live before window 0 (the table's indexes at
    /// construction).
    initial: Config,
    /// One committed configuration per sealed window, absolute index.
    committed: Vec<Config>,
    decisions: Vec<OnlineDecision>,
    resolves: usize,
    rebuilds: usize,
    /// Predicted-vs-actual drift over the windows a driver executed.
    calibration: CalibrationTracker,
    /// Calibration pairs the open window has collected so far.
    open_pairs: WindowCalibration,
    /// Set while a sealed window is decided and applied; left set when
    /// that fails, which stops the session ([`OnlineAdvisor::step`]).
    stopped: bool,
}

impl OnlineAdvisor {
    /// Open a session for `table`. The table's current indexes become
    /// the initial configuration (they are `C_0`) and join the
    /// candidate vocabulary.
    pub fn new(db: &Database, table: impl Into<String>, options: OnlineOptions) -> Result<Self> {
        let table = table.into();
        let stream = StatementStream::with_capacity(
            &table,
            options.advisor.window_len,
            options.max_windows,
        )?;
        let derived = options.advisor.structures.is_none();
        let mut structures = options.advisor.structures.clone().unwrap_or_default();
        let current = db.index_specs(&table)?;
        for spec in &current {
            if !structures.contains(spec) {
                structures.push(spec.clone());
            }
        }
        if options.max_candidates == 0 {
            return Err(Error::InvalidArgument(
                "max_candidates must be positive".into(),
            ));
        }
        if structures.len() > options.max_candidates {
            return Err(Error::InvalidArgument(format!(
                "{} candidate structures exceed max_candidates = {}",
                structures.len(),
                options.max_candidates
            )));
        }
        // Validate the vocabulary eagerly, like the batch advisor.
        let whatif = WhatIfEngine::snapshot(db, &table)?;
        for spec in &structures {
            whatif.shape(spec)?;
        }
        let mut initial = Config::EMPTY;
        for spec in &current {
            let i = structures
                .iter()
                .position(|s| s == spec)
                .expect("current specs were appended to the vocabulary");
            initial = initial.with(i);
        }
        let calibration = CalibrationTracker::new(options.calibration.clone());
        Ok(OnlineAdvisor {
            table,
            options,
            stream,
            structures,
            derived,
            dropped_structures: 0,
            oracle: None,
            oracle_first: 0,
            rebuild: false,
            initial,
            committed: Vec::new(),
            decisions: Vec::new(),
            resolves: 0,
            rebuilds: 0,
            calibration,
            open_pairs: WindowCalibration::default(),
            stopped: false,
        })
    }

    /// The target table.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Statements per window (the seal cadence).
    pub fn window_len(&self) -> usize {
        self.options.advisor.window_len
    }

    /// Total statements ingested.
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// True if nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// Whether the next statement will seal a window (and therefore
    /// run the seal pipeline); [`OnlineAdvisor::step`] refreshes
    /// statistics before such a seal.
    pub fn next_seals(&self) -> bool {
        self.stream.open_len() + 1 == self.options.advisor.window_len
    }

    /// Decisions emitted so far, one per sealed window.
    pub fn decisions(&self) -> &[OnlineDecision] {
        &self.decisions
    }

    /// The committed configuration sequence (absolute window indices).
    pub fn committed(&self) -> &[Config] {
        &self.committed
    }

    /// The design the session currently holds live: the last committed
    /// configuration, resolved to specs.
    pub fn live_specs(&self) -> Vec<IndexSpec> {
        let cfg = self.committed.last().unwrap_or(&self.initial).clone();
        cfg.structures()
            .map(|i| self.structures[i].clone())
            .collect()
    }

    /// The candidate vocabulary accumulated so far.
    pub fn structures(&self) -> &[IndexSpec] {
        &self.structures
    }

    /// The warm cost oracle over the retained sealed windows (`None`
    /// until the first window seals): what the session currently
    /// believes every stage costs, for inspection and differential
    /// tests against a cold-built oracle.
    pub fn oracle(&self) -> Option<&ProjectedOracle<EngineOracle>> {
        self.oracle.as_ref()
    }

    /// Candidates discarded because the vocabulary hit
    /// [`OnlineOptions::max_candidates`].
    pub fn dropped_structures(&self) -> usize {
        self.dropped_structures
    }

    /// Warm re-solves run so far.
    pub fn resolves(&self) -> usize {
        self.resolves
    }

    /// Cold oracle rebuilds forced by vocabulary growth or eviction.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// The session's options, as supplied at construction.
    pub fn options(&self) -> &OnlineOptions {
        &self.options
    }

    /// The predicted-vs-actual drift tracker. Empty until a driver
    /// feeds calibration pairs in through [`OnlineAdvisor::step`].
    pub fn calibration(&self) -> &CalibrationTracker {
        &self.calibration
    }

    /// The driver step: observe one executed statement with its
    /// calibration pair, or a tick. When the input seals a window,
    /// refresh statistics into the warm oracle, seal, fold the window's
    /// pairs into the drift tracker and decide; for a changed decision,
    /// save [`OnlineAdvisor::save_state`] into a durable database
    /// *before* applying the design on up to `threads` builders, so a
    /// crash can over-count the changes spent, never under-count them.
    /// `None` when the input sealed nothing.
    ///
    /// # Errors
    /// A statement on another table and refresh errors leave the
    /// session as it was. Solver, persistence and DDL errors come after
    /// the seal and stop the session: it refuses every later input, so
    /// it never saves a stream a window ahead of its decisions.
    pub fn step(
        &mut self,
        db: &Database,
        input: Observed<'_>,
        threads: usize,
    ) -> Result<Option<Step>> {
        let seals = match input {
            Observed::Statement(..) => self.next_seals(),
            Observed::Tick => self.stream.open_len() > 0,
        };
        // Before the seal, so a failed refresh leaves the window open.
        if seals && !self.stopped {
            let refresh = db.refresh_stats(&self.table)?;
            self.note_stats_refresh(db, &refresh)?;
        }
        let Some(decision) = self.observe(db, input)? else {
            return Ok(None);
        };
        let mut applied = None;
        if decision.changed {
            let _span = cdpd_obs::span!("online.apply", window = decision.window);
            // A failed save or build stops the session, like a failed
            // decision: the design would lag what the session commits.
            self.stopped = true;
            if db.is_durable() {
                db.set_app_state(self.save_state())?;
            }
            applied = Some(db.apply_configuration_with(&self.table, &decision.specs, threads)?);
            self.stopped = false;
        }
        Ok(Some(Step { decision, applied }))
    }

    /// Resume the session a database holds in its
    /// [`Database::app_state`], under this session's options, and
    /// re-apply its committed design: a crash between saving a change
    /// and finishing its DDL leaves the database behind a change that
    /// is already counted. Without saved state, `self` is returned.
    ///
    /// # Errors
    /// A state that does not restore, or that advises another table,
    /// is an error, never answered with a fresh budget; DDL errors
    /// propagate.
    pub fn resume(self, db: &Database, threads: usize) -> Result<OnlineAdvisor> {
        let state = db.app_state();
        if state.is_empty() {
            return Ok(self);
        }
        let restored = OnlineAdvisor::restore(db, self.options, &state)?;
        if restored.table != self.table {
            return Err(Error::InvalidArgument(format!(
                "the saved session advises table {}, this one {}",
                restored.table, self.table
            )));
        }
        db.apply_configuration_with(&restored.table, &restored.live_specs(), threads)?;
        Ok(restored)
    }

    /// Ingest one observed statement. Returns a decision when this
    /// statement seals a window.
    ///
    /// # Errors
    /// The statement must target this session's table and validate
    /// against the schema; solver errors (e.g. an infeasible space
    /// bound) propagate and stop the session ([`OnlineAdvisor::step`]).
    pub fn ingest(&mut self, db: &Database, stmt: &Dml) -> Result<Option<OnlineDecision>> {
        self.observe(db, Observed::Statement(stmt, None))
    }

    /// Push a statement and its pair, or tick; when that seals a
    /// window, fold its pairs into the drift tracker, extend the
    /// vocabulary, sync the oracle and decide.
    fn observe(&mut self, db: &Database, input: Observed<'_>) -> Result<Option<OnlineDecision>> {
        if self.stopped {
            return Err(Error::InvalidArgument(format!(
                "advisor session for {} stopped: a window failed after it sealed",
                self.table
            )));
        }
        let evicted_before = self.stream.evicted();
        let sealed = match input {
            Observed::Statement(stmt, pair) => {
                let sealed = self.stream.push(stmt)?;
                if let Some((predicted, actual, path)) = pair {
                    self.open_pairs.record(predicted, actual, path);
                }
                sealed
            }
            Observed::Tick => self.stream.force_seal(),
        };
        let Some(window) = sealed else {
            return Ok(None);
        };
        self.calibration
            .observe_window(&std::mem::take(&mut self.open_pairs));
        let _span = cdpd_obs::span!("online.seal", window = window);
        // Until its decision is in, the stream is a window ahead of the
        // commits: an error on the way leaves the session stopped.
        self.stopped = true;
        if self.stream.evicted() != evicted_before {
            // Stage indices shifted under the oracle: memo unusable.
            self.rebuild = true;
        }
        let block = self
            .stream
            .last_sealed()
            .cloned()
            .expect("this call just sealed the window");
        if self.derived {
            self.extend_vocabulary(db, &block)?;
        }
        self.sync_oracle(db, &block)?;
        let decision = self.decide(window)?;
        self.decisions.push(decision.clone());
        self.stopped = false;
        Ok(Some(decision))
    }

    /// Ingest a batch, returning every decision made along the way.
    ///
    /// # Errors
    /// Same conditions as [`OnlineAdvisor::ingest`]; ingestion stops at
    /// the first failure.
    pub fn ingest_all<'a>(
        &mut self,
        db: &Database,
        stmts: impl IntoIterator<Item = &'a Dml>,
    ) -> Result<Vec<OnlineDecision>> {
        let mut out = Vec::new();
        for stmt in stmts {
            if let Some(d) = self.ingest(db, stmt)? {
                out.push(d);
            }
        }
        Ok(out)
    }

    /// Fold a statistics refresh (from
    /// [`Database::refresh_stats`](cdpd_engine::Database::refresh_stats))
    /// into the warm oracle: swap in a fresh what-if snapshot and evict
    /// exactly the memo entries the delta can have moved — every part
    /// when row counts changed, only parts predicating on the changed
    /// columns otherwise. Returns the number of evicted memo entries.
    ///
    /// The part decomposition and relevance masks survive (they depend
    /// on statement shapes and structure columns, not statistics), so
    /// this is the "invalidate only the affected masks" half of the
    /// delta-stats story.
    pub fn note_stats_refresh(&mut self, db: &Database, refresh: &StatsRefresh) -> Result<usize> {
        if refresh.is_noop() {
            return Ok(0);
        }
        let Some(oracle) = self.oracle.as_mut() else {
            return Ok(0); // next build snapshots fresh stats anyway
        };
        oracle
            .inner_mut()
            .refresh_whatif(WhatIfEngine::snapshot(db, &self.table)?)?;
        let oracle = self.oracle.as_ref().expect("just updated");
        let evicted = if refresh.rows_changed {
            // Row-count changes move every selectivity and page count.
            oracle.invalidate_sizes();
            oracle.retain_parts(|_, _| false)
        } else {
            let schema = db.schema(&self.table)?;
            let changed: Vec<String> = refresh
                .changed_columns
                .iter()
                .filter_map(|&id| schema.column(id).map(|c| c.name.clone()))
                .collect();
            oracle
                .retain_parts(|stage, part| !oracle.inner().part_references(stage, part, &changed))
        };
        cdpd_obs::counter!("online.stats_refreshes").inc();
        Ok(evicted)
    }

    /// Final-stage commit: run the *batch* pipeline (the exact body of
    /// [`crate::Advisor::recommend`]) over everything the stream
    /// retains, including the open partial window. With an unbounded
    /// window this is bit-identical to the batch recommendation for the
    /// full trace; with a bounded window it covers the retained suffix.
    ///
    /// # Errors
    /// At least one statement must have been ingested; batch pipeline
    /// errors propagate.
    pub fn finish(&self, db: &Database) -> Result<Recommendation> {
        if self.stream.is_empty() {
            return Err(Error::InvalidArgument(
                "no statements ingested; nothing to recommend".into(),
            ));
        }
        let mut rec = recommend_for_workload(
            db,
            &self.table,
            &self.options.advisor,
            &self.stream.summarized(),
        )?;
        if self.calibration.windows() > 0 {
            rec.calibration = Some(self.calibration.report());
        }
        Ok(rec)
    }

    /// Grow the vocabulary with candidates motivated by the sealed
    /// block, keeping existing bit positions stable.
    fn extend_vocabulary(&mut self, db: &Database, block: &Block) -> Result<()> {
        let one = cdpd_workload::SummarizedWorkload {
            table: self.table.clone(),
            blocks: vec![block.clone()],
        };
        let schema = db.schema(&self.table)?;
        let (fresh, _) = candidate_indexes(&schema, &one)?;
        let mut dropped_now = 0;
        for spec in fresh {
            if self.structures.contains(&spec) {
                continue;
            }
            if self.structures.len() == self.options.max_candidates {
                dropped_now += 1;
                continue;
            }
            self.structures.push(spec);
            self.rebuild = true;
        }
        if dropped_now > 0 {
            self.dropped_structures += dropped_now;
            cdpd_obs::counter!("online.structures_dropped").add(dropped_now as u64);
            cdpd_obs::event!(
                "online advisor: vocabulary at max_candidates = {}; \
                 dropped {dropped_now} ranked-worst candidates ({} total)",
                self.options.max_candidates,
                self.dropped_structures
            );
        }
        Ok(())
    }

    /// Bring the oracle up to date with the just-sealed window: append
    /// the block to the warm oracle when possible, rebuild cold when
    /// the vocabulary grew or windows were evicted.
    fn sync_oracle(&mut self, db: &Database, block: &Block) -> Result<()> {
        if !self.rebuild {
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.inner_mut().append_block(block)?;
                return Ok(());
            }
        }
        let _span = cdpd_obs::span!("online.rebuild", windows = self.stream.windows_sealed());
        // Right after a seal the open window is empty, so summarized()
        // is exactly the retained sealed blocks.
        let workload = self.stream.summarized();
        let engine = EngineOracle::new(
            WhatIfEngine::snapshot(db, &self.table)?,
            self.structures.clone(),
            &workload,
        )?;
        self.oracle = Some(engine.into_shared());
        self.oracle_first = self.stream.evicted();
        self.rebuild = false;
        self.rebuilds += 1;
        cdpd_obs::counter!("online.rebuilds").inc();
        Ok(())
    }

    /// The alerter check + (possibly gated) warm re-solve for the
    /// just-sealed window, committing its configuration.
    fn decide(&mut self, window: usize) -> Result<OnlineDecision> {
        let oracle = self.oracle.as_ref().expect("sync_oracle ran");
        let stage = oracle.n_stages() - 1;
        let live = self.committed.last().unwrap_or(&self.initial).clone();

        // The §7 alerter: live design vs best single candidate on the
        // sealed window (detection, not optimization). The singleton
        // answer is priced here, on first touch of the new stage, and
        // read back by every later candidate derivation.
        let alert_span = cdpd_obs::span!("online.alert", stage = stage);
        let live_cost = oracle.exec(stage, &live);
        let best = oracle.singleton_costs(stage).best();
        drop(alert_span);
        let degradation = if best.raw() == 0 {
            0.0
        } else {
            live_cost.raw() as f64 / best.raw() as f64 - 1.0
        };
        let tripped = match self.options.resolve_threshold {
            None => true,
            // Always solve the first window: there is no committed
            // design yet to carry forward. A cost model out of its
            // calibration band cannot vouch for a low degradation.
            Some(t) => degradation > t || self.committed.is_empty() || self.calibration.in_breach(),
        };
        if tripped && self.options.resolve_threshold.is_some() {
            cdpd_obs::counter!("online.alerts").inc();
        }

        let horizon = self.problem_over_horizon();
        let prefix: Vec<Config> = self.committed[self.oracle_first..].to_vec();
        let (config, solve_nanos) = if tripped {
            let started = std::time::Instant::now();
            let config = self.resolve_suffix(oracle, &horizon, &prefix)?;
            let nanos = started.elapsed().as_nanos() as u64;
            cdpd_obs::histogram!("online.resolve_ns").record(nanos);
            cdpd_obs::counter!("online.resolves").inc();
            self.resolves += 1;
            (config, nanos)
        } else {
            (live.clone(), 0)
        };
        self.committed.push(config.clone());

        let changes_used = horizon.changes(&self.committed[self.oracle_first..]);

        Ok(OnlineDecision {
            window,
            specs: config
                .structures()
                .map(|i| self.structures[i].clone())
                .collect(),
            changed: config != live,
            config,
            degradation,
            resolved: tripped,
            solve_nanos,
            changes_used,
            calibration: (self.calibration.windows() > 0).then(|| self.calibration.report()),
        })
    }

    /// The warm suffix re-solve: the same decomposition round trip as
    /// the batch pipeline ([`decompose::solve_decomposed`]), over the
    /// retained horizon with the committed prefix pinned, returning the
    /// configuration for the just-sealed window. The rename goes through
    /// the *warm* oracle — probes globalize back before they hit the
    /// memo — so cache entries survive across re-solves whatever the
    /// active set, and committed configurations stay in global
    /// coordinates.
    fn resolve_suffix(
        &self,
        oracle: &ProjectedOracle<EngineOracle>,
        horizon: &Problem,
        prefix: &[Config],
    ) -> Result<Config> {
        let schedule = decompose::solve_decomposed(
            oracle,
            horizon,
            prefix,
            self.options.advisor.max_structures_per_config,
            |local, problem, candidates, prefix| match self.options.advisor.k {
                None => seqgraph::solve_with_prefix(local, problem, candidates, prefix),
                Some(k) => kaware::solve_with_prefix(local, problem, candidates, k, prefix),
            },
        )?;
        Ok(schedule.configs[prefix.len()].clone())
    }

    /// Serialize the session's complete dynamic state into an opaque
    /// blob, fit for [`Database::set_app_state`](cdpd_engine::Database::set_app_state).
    /// Everything observable round-trips: the sliding window (sealed
    /// blocks and the open partial window), the candidate vocabulary
    /// with its bit order, the committed configuration sequence, past
    /// decisions, and counters. The warm
    /// oracle memo and the calibration tracker are deliberately *not*
    /// persisted — the memo is a cache (a restored session rebuilds it
    /// cold at the next window seal and then decides identically), and
    /// drift is runtime telemetry about an execution environment the
    /// restored session may not share.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        put_str(&mut out, &self.table);
        let st = self.stream.state();
        put_u64(&mut out, st.window_len as u64);
        put_opt(&mut out, st.max_windows, |out, v| put_u64(out, v as u64));
        put_u64(&mut out, st.evicted as u64);
        put_u64(&mut out, st.pushed as u64);
        put_list(&mut out, &st.sealed, put_block);
        put_weighted_list(&mut out, &st.open);
        put_list(&mut out, &self.structures, |out, spec| spec.encode(out));
        put_bool(&mut out, self.derived);
        put_u64(&mut out, self.dropped_structures as u64);
        put_u64(&mut out, self.oracle_first as u64);
        put_config(&mut out, &self.initial);
        put_list(&mut out, &self.committed, put_config);
        put_list(&mut out, &self.decisions, |out, d| {
            put_u64(out, d.window as u64);
            put_config(out, &d.config);
            put_list(out, &d.specs, |out, spec| spec.encode(out));
            put_bool(out, d.changed);
            put_f64(out, d.degradation);
            put_bool(out, d.resolved);
            put_u64(out, d.solve_nanos);
            put_u64(out, d.changes_used as u64);
        });
        put_u64(&mut out, self.resolves as u64);
        put_u64(&mut out, self.rebuilds as u64);
        out
    }

    /// Rebuild a session from a [`OnlineAdvisor::save_state`] blob: the
    /// warm-restart path after a restart or crash recovery. `options`
    /// must match the session that was saved (same window length,
    /// retention bound, and fixed-vs-derived vocabulary choice) — they
    /// are configuration, not state, so the caller re-supplies them.
    ///
    /// The restored session makes the same future decisions as the
    /// uninterrupted one: the first window sealed after restore
    /// rebuilds the cost oracle cold (one extra rebuild — the memo is
    /// the only thing not carried over), and the solve it feeds sees
    /// identical inputs.
    ///
    /// # Errors
    /// The blob must be well-formed and internally consistent — a
    /// coherent stream, one commit and one decision per sealed window,
    /// every configuration within the saved vocabulary — or the error
    /// is [`Error::Corrupt`]; `options` must agree with the persisted
    /// session shape, and every persisted candidate structure must
    /// still validate against `db`.
    pub fn restore(db: &Database, options: OnlineOptions, state: &[u8]) -> Result<OnlineAdvisor> {
        let mut r = Reader::new(state, "advisor state");
        r.magic(STATE_MAGIC)?;
        let table = r.str()?;
        let window_len = r.u64()? as usize;
        let max_windows = r.opt(Reader::u64)?.map(|v| v as usize);
        if options.advisor.window_len != window_len {
            return Err(Error::InvalidArgument(format!(
                "restore options have window_len {}, saved session used {window_len}",
                options.advisor.window_len
            )));
        }
        if options.max_windows != max_windows {
            return Err(Error::InvalidArgument(format!(
                "restore options have max_windows {:?}, saved session used {max_windows:?}",
                options.max_windows
            )));
        }
        let evicted = r.u64()? as usize;
        let pushed = r.u64()? as usize;
        let sealed = r.list(read_block)?;
        let open = read_weighted_list(&mut r)?;
        let stream = StatementStream::from_state(StreamState {
            table: table.clone(),
            window_len,
            max_windows,
            sealed,
            evicted,
            pushed,
            open,
        })?;
        let structures = r.list(IndexSpec::decode)?;
        if structures.len() > options.max_candidates {
            return Err(Error::InvalidArgument(format!(
                "saved vocabulary has {} structures, restore options allow max_candidates = {}",
                structures.len(),
                options.max_candidates
            )));
        }
        let derived = r.bool()?;
        if derived != options.advisor.structures.is_none() {
            return Err(Error::InvalidArgument(
                "restore options disagree with the saved session on fixed vs derived candidates"
                    .into(),
            ));
        }
        let dropped_structures = r.u64()? as usize;
        let oracle_first = r.u64()? as usize;
        let initial = read_config(&mut r)?;
        let committed = r.list(read_config)?;
        let decisions = r.list(|r| {
            Ok(OnlineDecision {
                window: r.u64()? as usize,
                config: read_config(r)?,
                specs: r.list(IndexSpec::decode)?,
                changed: r.bool()?,
                degradation: r.f64()?,
                resolved: r.bool()?,
                solve_nanos: r.u64()?,
                changes_used: r.u64()? as usize,
                // Runtime telemetry, deliberately not persisted.
                calibration: None,
            })
        })?;
        let resolves = r.u64()? as usize;
        let rebuilds = r.u64()? as usize;
        r.finish()?;
        if oracle_first > committed.len() {
            return Err(Error::Corrupt(
                "saved oracle horizon starts past the committed sequence".into(),
            ));
        }
        // One commit and one decision per sealed window, evicted ones
        // included: the next seal slices the commits from the stream's
        // eviction count.
        let sealed_windows = stream.evicted() + stream.windows_sealed();
        if committed.len() != sealed_windows || decisions.len() != sealed_windows {
            return Err(Error::Corrupt(format!(
                "saved session has {} commits and {} decisions over {sealed_windows} \
                 sealed windows",
                committed.len(),
                decisions.len(),
            )));
        }
        // Every configuration indexes the saved vocabulary.
        let configs = std::iter::once(&initial)
            .chain(&committed)
            .chain(decisions.iter().map(|d| &d.config));
        for cfg in configs {
            if let Some(i) = cfg.structures().find(|&i| i >= structures.len()) {
                return Err(Error::Corrupt(format!(
                    "saved configuration names structure {i}, vocabulary has {}",
                    structures.len()
                )));
            }
        }
        // Validate the vocabulary against the (recovered) database,
        // exactly like a fresh session does.
        let whatif = WhatIfEngine::snapshot(db, &table)?;
        for spec in &structures {
            whatif.shape(spec)?;
        }
        let calibration = CalibrationTracker::new(options.calibration.clone());
        Ok(OnlineAdvisor {
            table,
            options,
            stream,
            structures,
            derived,
            dropped_structures,
            // The memo is a cache: rebuild cold at the next seal.
            oracle: None,
            oracle_first,
            rebuild: true,
            initial,
            committed,
            decisions,
            resolves,
            rebuilds,
            // Like the memo, drift is runtime telemetry: it restarts
            // empty and refills as the restored session executes.
            calibration,
            open_pairs: WindowCalibration::default(),
            stopped: false,
        })
    }

    /// The problem over the retained horizon. Its initial config is
    /// whatever design entered the first retained window; with an
    /// unbounded window that is the construction-time design and the
    /// budget semantics match the batch problem exactly. The final
    /// config is never pinned mid-session (`end_empty` applies at
    /// [`OnlineAdvisor::finish`] — tearing down indexes between
    /// windows because the *eventual* end is empty would be absurd).
    fn problem_over_horizon(&self) -> Problem {
        let initial = if self.oracle_first == 0 {
            self.initial.clone()
        } else {
            self.committed[self.oracle_first - 1].clone()
        };
        Problem {
            initial,
            final_config: None,
            space_bound: self.options.advisor.space_bound_pages,
            count_initial_change: self.options.advisor.count_initial_change
                && self.oracle_first == 0,
        }
    }
}

/// Magic + version of the [`OnlineAdvisor::save_state`] blob. Any
/// other magic, earlier versions included, is [`Error::Corrupt`].
const STATE_MAGIC: &[u8; 8] = b"cdpdadv3";

/// A configuration as a `u16` word count and little-endian words: the
/// width-agnostic form. The count is bounded at
/// `MAX_STRUCTURE_INDEX / 64` words.
fn put_config(out: &mut Vec<u8>, cfg: &Config) {
    let words = cfg.words();
    put_u16(
        out,
        u16::try_from(words.len()).expect("config words fit u16"),
    );
    words.iter().for_each(|w| put_u64(out, *w));
}

fn read_config(r: &mut Reader<'_>) -> Result<Config> {
    let n = r.u16()? as usize;
    if n > cdpd_core::MAX_STRUCTURE_INDEX / 64 {
        return Err(Error::Corrupt(format!(
            "persisted configuration claims {n} words"
        )));
    }
    Ok(Config::from_words(&r.items(n, Reader::u64)?))
}

/// Statements persist as SQL text: the parser/printer round trip is
/// exact (proven by the sql crate's property tests), and the format
/// stays debuggable.
fn put_weighted_list(out: &mut Vec<u8>, list: &[cdpd_workload::WeightedStatement]) {
    put_list(out, list, |out, ws| {
        put_str(out, &ws.statement.to_string());
        put_u64(out, ws.count);
    });
}

fn read_weighted_list(r: &mut Reader<'_>) -> Result<Vec<cdpd_workload::WeightedStatement>> {
    r.list(|r| {
        let sql = r.str()?;
        let statement = cdpd_sql::parse(&sql)
            .map_err(|e| Error::Corrupt(format!("persisted statement does not parse: {e}")))?
            .as_dml()
            .ok_or_else(|| Error::Corrupt(format!("persisted statement is not DML: {sql}")))?;
        let count = r.u64()?;
        Ok(cdpd_workload::WeightedStatement { statement, count })
    })
}

fn put_block(out: &mut Vec<u8>, b: &Block) {
    put_u64(out, b.start as u64);
    put_u64(out, b.len as u64);
    put_weighted_list(out, &b.weighted);
}

fn read_block(r: &mut Reader<'_>) -> Result<Block> {
    Ok(Block {
        start: r.u64()? as usize,
        len: r.u64()? as usize,
        weighted: read_weighted_list(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_sql::SelectStmt;
    use cdpd_testkit::Prng;
    use cdpd_types::{ColumnDef, Schema, Value};

    fn db_with(rows: i64, index_on: Option<&str>) -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::int("a"),
                ColumnDef::int("b"),
                ColumnDef::int("c"),
                ColumnDef::int("d"),
            ]),
        )
        .unwrap();
        let domain = rows / 5;
        let mut rng = Prng::seed_from_u64(17);
        for _ in 0..rows {
            let row: Vec<Value> = (0..4)
                .map(|_| Value::Int(rng.gen_range(0..domain)))
                .collect();
            db.insert("t", &row).unwrap();
        }
        db.analyze("t").unwrap();
        if let Some(col) = index_on {
            db.create_index(&IndexSpec::new("t", &[col])).unwrap();
        }
        db
    }

    fn opts(window_len: usize, k: Option<usize>) -> OnlineOptions {
        OnlineOptions {
            advisor: AdvisorOptions {
                k,
                window_len,
                max_structures_per_config: Some(1),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn q(col: &str, v: i64) -> Dml {
        SelectStmt::point("t", col, v).into()
    }

    #[test]
    fn decisions_fire_per_window_and_track_the_workload() {
        let db = db_with(10_000, None);
        let mut adv = OnlineAdvisor::new(&db, "t", opts(50, Some(4))).unwrap();
        assert!(adv.is_empty());
        // Two a-heavy windows, then two c-heavy windows.
        let mut decisions = Vec::new();
        for i in 0..200 {
            let col = if i < 100 { "a" } else { "c" };
            let seals = adv.next_seals();
            let decision = adv.ingest(&db, &q(col, i % 100)).unwrap();
            assert_eq!(seals, decision.is_some(), "statement {i}");
            decisions.extend(decision);
        }
        assert_eq!(decisions.len(), 4);
        assert_eq!(adv.decisions().len(), 4);
        assert_eq!(adv.committed().len(), 4);
        assert_eq!(adv.len(), 200);
        // The committed design follows the shift: a-serving early,
        // c-serving late.
        let early = &decisions[0].specs;
        let late = &decisions[3].specs;
        assert!(
            early.iter().any(|s| s.columns.contains(&"a".to_owned())),
            "{early:?}"
        );
        assert!(
            late.iter().any(|s| s.columns.contains(&"c".to_owned())),
            "{late:?}"
        );
        assert!(decisions.iter().all(|d| d.resolved));
        assert_eq!(adv.resolves(), 4);
        // The warm path appends stages; rebuilds happen only when the
        // derived vocabulary grows (at most once per new column mix).
        assert!(adv.rebuilds() <= 2, "{} rebuilds", adv.rebuilds());
        assert_eq!(adv.live_specs(), decisions[3].specs);

        // A wall-clock seal mid-window moves every later boundary off
        // the multiples of window_len; next_seals must follow it.
        for i in 0..20 {
            assert!(adv.ingest(&db, &q("c", i)).unwrap().is_none());
        }
        assert!(adv.step(&db, Observed::Tick, 1).unwrap().is_some());
        assert!(adv.step(&db, Observed::Tick, 1).unwrap().is_none());
        let mut seals = 0;
        for i in 0..100 {
            let predicted = adv.next_seals();
            let sealed = adv.ingest(&db, &q("c", i)).unwrap().is_some();
            assert_eq!(predicted, sealed, "statement {i} after a tick");
            seals += usize::from(sealed);
        }
        assert_eq!(seals, 2);
    }

    #[test]
    fn resolve_threshold_gates_resolves_on_degradation() {
        let db = db_with(10_000, None);
        let mut adv = OnlineAdvisor::new(
            &db,
            "t",
            OnlineOptions {
                resolve_threshold: Some(0.5),
                ..opts(50, Some(4))
            },
        )
        .unwrap();
        // Window 0 always solves; windows 1-2 repeat the same workload,
        // so the live design holds and no re-solve runs; window 3
        // shifts hard and must trip the alerter.
        for i in 0..150 {
            adv.ingest(&db, &q("a", i % 40)).unwrap();
        }
        for i in 0..50 {
            adv.ingest(&db, &q("c", i % 40)).unwrap();
        }
        let d = adv.decisions();
        assert_eq!(d.len(), 4);
        assert!(d[0].resolved, "first window must solve");
        assert!(!d[1].resolved && !d[2].resolved, "steady state holds");
        assert!(d[1].degradation <= 0.5);
        assert!(d[3].resolved, "shift must trip the alerter");
        assert!(d[3].degradation > 0.5, "{}", d[3].degradation);
        assert!(d[3].changed);
        assert_eq!(adv.resolves(), 2);
    }

    /// A session over I(a) and the four single-column candidates,
    /// re-solving only when the §7 gate trips.
    fn gated(db: &Database, calibration: CalibrationOptions) -> OnlineAdvisor {
        let structures = ["a", "b", "c", "d"]
            .iter()
            .map(|c| IndexSpec::new("t", &[*c]))
            .collect();
        let mut options = opts(50, Some(4));
        options.advisor.structures = Some(structures);
        options.resolve_threshold = Some(0.5);
        options.calibration = calibration;
        OnlineAdvisor::new(db, "t", options).unwrap()
    }

    #[test]
    fn quiet_while_the_design_matches() {
        let db = db_with(10_000, Some("a"));
        let mut adv = gated(&db, CalibrationOptions::default());
        for i in 0..200 {
            adv.ingest(&db, &q("a", i % 100)).unwrap();
        }
        let d = adv.decisions();
        assert_eq!(d.len(), 4);
        assert!(d[0].resolved, "first window must solve");
        for later in &d[1..] {
            assert!(!later.resolved, "I(a) serves a-queries: {later:?}");
        }
        assert_eq!(adv.live_specs(), vec![IndexSpec::new("t", &["a"])]);
    }

    #[test]
    fn resolves_when_workload_shifts_away() {
        let db = db_with(10_000, Some("a"));
        let mut adv = gated(&db, CalibrationOptions::default());
        for i in 0..50 {
            adv.ingest(&db, &q("a", i)).unwrap();
        }
        assert_eq!(adv.live_specs(), vec![IndexSpec::new("t", &["a"])]);
        // The workload has moved to column c: I(a) is now useless.
        let alerts = || cdpd_obs::registry().snapshot().counter("online.alerts");
        let before = alerts();
        let mut decision = None;
        for i in 0..50 {
            decision = adv.ingest(&db, &q("c", i)).unwrap().or(decision);
        }
        let d = decision.expect("the window sealed");
        assert!(d.resolved, "shift must trip the gate: {d:?}");
        assert!(d.degradation > 0.5, "{d:?}");
        assert!(d.changed);
        assert_eq!(d.specs, vec![IndexSpec::new("t", &["c"])]);
        assert!(alerts() > before, "online.alerts counts the shift");
    }

    #[test]
    fn tripped_calibration_forces_a_resolve() {
        use crate::calibrate::PathKind;
        let db = db_with(10_000, Some("a"));
        let mut adv = gated(
            &db,
            CalibrationOptions {
                band: 1.0,
                ewma_alpha: 1.0,
                ..Default::default()
            },
        );
        for i in 0..100 {
            adv.ingest(&db, &q("a", i % 100)).unwrap();
        }
        assert!(!adv.decisions()[1].resolved, "design holds");
        // A 10× systematic mis-costing trips the drift watchdog as the
        // window seals; the degradation estimate is now untrustworthy,
        // so that seal must re-solve even though it is still under the
        // threshold.
        let alerts = || cdpd_obs::registry().snapshot().counter("online.alerts");
        let before = alerts();
        let mut decision = None;
        for i in 0..50 {
            let pair = Some((100, 10, PathKind::IndexSeek));
            let step = adv.step(&db, Observed::Statement(&q("a", i), pair), 1);
            decision = step.unwrap().map(|s| s.decision).or(decision);
        }
        assert!(adv.calibration().in_breach(), "drift must trip");
        let d = decision.expect("the window sealed");
        assert!(d.resolved, "tripped drift forces a re-solve");
        assert!(d.degradation <= 0.5, "{}", d.degradation);
        assert!(d.calibration.expect("drift rides on the decision").tripped);
        // Other tests bump the process-wide counter concurrently, so
        // only a lower bound is exact.
        assert!(alerts() > before, "online.alerts counts the drift resolve");
    }

    #[test]
    fn rolling_budget_is_respected_across_the_session() {
        let db = db_with(10_000, None);
        let mut adv = OnlineAdvisor::new(&db, "t", opts(40, Some(1))).unwrap();
        // Three shifts but budget for one change after the free initial
        // build: the committed schedule can change at most once more.
        for (w, col) in ["a", "b", "c", "d"].iter().enumerate() {
            for i in 0..40 {
                adv.ingest(&db, &q(col, (w as i64 * 40 + i) % 100)).unwrap();
            }
        }
        let committed = adv.committed();
        assert_eq!(committed.len(), 4);
        let mut changes = 0;
        for s in 1..committed.len() {
            if committed[s] != committed[s - 1] {
                changes += 1;
            }
        }
        assert!(changes <= 1, "budget 1 exceeded: {committed:?}");
        assert!(adv.decisions().iter().all(|d| d.changes_used <= 1));
    }

    #[test]
    fn current_indexes_are_the_initial_config() {
        let db = db_with(5_000, Some("d"));
        let mut adv = OnlineAdvisor::new(&db, "t", opts(30, Some(2))).unwrap();
        assert_eq!(adv.live_specs(), vec![IndexSpec::new("t", &["d"])]);
        for i in 0..30 {
            adv.ingest(&db, &q("d", i)).unwrap();
        }
        // The d-workload keeps the existing index: no change spent.
        let d = &adv.decisions()[0];
        assert!(!d.changed, "{d:?}");
        assert_eq!(d.changes_used, 0);
    }

    #[test]
    fn bounded_window_evicts_and_rebuilds() {
        let db = db_with(5_000, None);
        let mut adv = OnlineAdvisor::new(
            &db,
            "t",
            OnlineOptions {
                max_windows: Some(2),
                ..opts(25, Some(3))
            },
        )
        .unwrap();
        for i in 0..100 {
            adv.ingest(&db, &q("b", i % 50)).unwrap();
        }
        assert_eq!(adv.decisions().len(), 4);
        assert_eq!(adv.committed().len(), 4, "commits are never evicted");
        // Windows 2 and 3 sealed after evictions: each forces a rebuild
        // (plus the initial cold build at window 0).
        assert_eq!(adv.rebuilds(), 3);
    }

    #[test]
    fn stats_refresh_evicts_changed_parts_only() {
        let db = db_with(8_000, None);
        let mut adv = OnlineAdvisor::new(&db, "t", opts(40, None)).unwrap();
        for i in 0..40 {
            adv.ingest(&db, &q("a", i)).unwrap();
        }
        for i in 0..40 {
            adv.ingest(&db, &q("b", i)).unwrap();
        }
        // No pending deltas: refresh is a no-op.
        let refresh = db.refresh_stats("t").unwrap();
        assert!(refresh.is_noop());
        assert_eq!(adv.note_stats_refresh(&db, &refresh).unwrap(), 0);
        // Mutate column b heavily, then fold the delta: only b-parts
        // (and parts whose statements predicate b) may be evicted.
        for i in 0..400 {
            let sql = format!("UPDATE t SET b = {} WHERE b = {}", i % 7, i % 50);
            let stmt = match cdpd_sql::parse(&sql).unwrap() {
                cdpd_sql::Statement::Update(u) => Dml::Update(u),
                _ => unreachable!(),
            };
            db.execute_dml(&stmt).unwrap();
        }
        let refresh = db.refresh_stats("t").unwrap();
        assert!(!refresh.is_noop());
        let evicted = adv.note_stats_refresh(&db, &refresh).unwrap();
        assert!(evicted > 0, "warm memo had b-dependent entries");
        // The session keeps working after the eviction.
        for i in 0..40 {
            adv.ingest(&db, &q("b", i)).unwrap();
        }
        assert_eq!(adv.decisions().len(), 3);
    }

    #[test]
    fn step_refreshes_the_statistics_a_window_wrote_before_it_seals() {
        let db = db_with(5_000, None);
        let mut adv = OnlineAdvisor::new(&db, "t", opts(20, Some(2))).unwrap();
        for i in 0..20 {
            let sql = format!("UPDATE t SET b = {} WHERE a = {}", i % 3, i);
            let stmt = cdpd_sql::parse(&sql).unwrap().as_dml().unwrap();
            db.execute_dml(&stmt).unwrap();
            let sealed = adv.step(&db, Observed::Statement(&stmt, None), 1).unwrap();
            assert_eq!(sealed.is_some(), i == 19, "statement {i}");
        }
        let refresh = db.refresh_stats("t").unwrap();
        assert!(
            refresh.is_noop(),
            "the seal folded the window's deltas: {refresh:?}"
        );
    }

    #[test]
    fn v1_blobs_are_rejected_as_corrupt() {
        let db = db_with(1_000, None);
        for old in [b"cdpdadv1", b"cdpdadv2"] {
            let err = OnlineAdvisor::restore(&db, opts(30, Some(2)), old).err();
            assert!(matches!(err, Some(Error::Corrupt(_))), "{err:?}");
        }
    }

    #[test]
    fn config_outside_the_saved_vocabulary_is_corrupt() {
        let db = db_with(2_000, None);
        let options = opts(20, Some(2));
        let mut adv = OnlineAdvisor::new(&db, "t", options.clone()).unwrap();
        for i in 0..60 {
            adv.ingest(&db, &q(if i < 30 { "a" } else { "b" }, i))
                .unwrap();
        }
        let blob = adv.save_state();
        OnlineAdvisor::restore(&db, options.clone(), &blob).unwrap();

        // Re-encode the committed sequence with its first entry naming
        // the structure one past the vocabulary: the blob still decodes
        // cleanly.
        let encode = |configs: &[Config]| {
            let mut out = Vec::new();
            put_list(&mut out, configs, put_config);
            out
        };
        let committed = encode(adv.committed());
        let mut patched = adv.committed().to_vec();
        patched[0] = Config::single(adv.structures().len());
        let at = blob
            .windows(committed.len())
            .position(|w| w == committed.as_slice())
            .expect("the committed sequence is in the blob");
        let mut bad = blob.clone();
        bad.splice(at..at + committed.len(), encode(&patched));
        let err = OnlineAdvisor::restore(&db, options, &bad).err();
        assert!(matches!(err, Some(Error::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn every_truncation_of_a_saved_state_is_corrupt() {
        let db = db_with(1_000, None);
        let options = OnlineOptions {
            max_windows: Some(2),
            ..opts(10, Some(2))
        };
        let mut adv = OnlineAdvisor::new(&db, "t", options.clone()).unwrap();
        for i in 0..35 {
            adv.ingest(&db, &q(if i < 20 { "a" } else { "b" }, i))
                .unwrap();
        }
        let blob = adv.save_state();
        for cut in 0..blob.len() {
            let err = OnlineAdvisor::restore(&db, options.clone(), &blob[..cut]).err();
            assert!(matches!(err, Some(Error::Corrupt(_))), "cut {cut}: {err:?}");
        }
        let mut long = blob;
        long.push(0);
        let err = OnlineAdvisor::restore(&db, options, &long).err();
        assert!(matches!(err, Some(Error::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn configs_round_trip_across_the_spill_boundary() {
        let cases = [
            Config::EMPTY,
            Config::single(0),
            Config::single(63),
            Config::single(64),
            Config::full(64),
            Config::full(65),
            Config::single(5).with(200).with(70),
        ];
        let mut out = Vec::new();
        for c in &cases {
            put_config(&mut out, c);
        }
        let mut r = Reader::new(&out, "configs");
        for c in &cases {
            assert_eq!(&read_config(&mut r).unwrap(), c);
        }
        r.finish().unwrap();

        // A corrupt word count is rejected before it can allocate.
        let mut bad = Vec::new();
        put_u16(&mut bad, u16::MAX);
        assert!(read_config(&mut Reader::new(&bad, "configs")).is_err());
    }

    /// An 8-column table whose index permutations push the vocabulary
    /// past the old 64-structure cap.
    fn wide_db(rows: i64) -> Database {
        let db = Database::new();
        let cols: Vec<ColumnDef> = (0..8).map(|i| ColumnDef::int(format!("c{i}"))).collect();
        db.create_table("w", Schema::new(cols)).unwrap();
        let domain = rows / 5;
        let mut rng = Prng::seed_from_u64(23);
        for _ in 0..rows {
            let row: Vec<Value> = (0..8)
                .map(|_| Value::Int(rng.gen_range(0..domain)))
                .collect();
            db.insert("w", &row).unwrap();
        }
        db.analyze("w").unwrap();
        db
    }

    /// 80 candidate structures, ordered so every spec *leading* with c0
    /// or c1 — the only columns the test workload touches — sits at bit
    /// position 64 or higher. Any useful committed configuration is
    /// therefore forced into the spilled multi-word representation.
    fn wide_specs() -> Vec<IndexSpec> {
        let col = |i: usize| format!("c{i}");
        let mut out = Vec::new();
        for a in 2..8 {
            out.push(IndexSpec::new("w", &[col(a).as_str()]));
        }
        for a in 2..8 {
            for b in 0..8 {
                if a != b {
                    out.push(IndexSpec::new("w", &[col(a).as_str(), col(b).as_str()]));
                }
            }
        }
        'triples: for a in 2..8 {
            for b in 0..8 {
                for c in 0..8 {
                    if a == b || b == c || a == c {
                        continue;
                    }
                    out.push(IndexSpec::new(
                        "w",
                        &[col(a).as_str(), col(b).as_str(), col(c).as_str()],
                    ));
                    if out.len() == 64 {
                        break 'triples;
                    }
                }
            }
        }
        for lead in 0..2 {
            out.push(IndexSpec::new("w", &[col(lead).as_str()]));
            for b in 0..8 {
                if b != lead {
                    out.push(IndexSpec::new("w", &[col(lead).as_str(), col(b).as_str()]));
                }
            }
        }
        out
    }

    #[test]
    fn wide_vocabulary_session_decides_and_round_trips() {
        let db = wide_db(6_000);
        let options = OnlineOptions {
            advisor: AdvisorOptions {
                k: Some(2),
                window_len: 30,
                structures: Some(wide_specs()),
                max_structures_per_config: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        let mut session = OnlineAdvisor::new(&db, "w", options.clone()).unwrap();
        assert!(session.structures().len() > 64, "the cap is gone");
        let wq = |col: &str, v: i64| -> Dml { SelectStmt::point("w", col, v).into() };
        for i in 0..60 {
            let col = if i < 30 { "c0" } else { "c1" };
            session.ingest(&db, &wq(col, i % 40)).unwrap();
        }
        assert_eq!(session.decisions().len(), 2);
        // The workload only rewards specs at bit positions ≥ 64, so the
        // committed configurations genuinely exercise the spilled
        // representation.
        let spilled = session
            .committed()
            .iter()
            .filter(|c| !c.is_empty())
            .inspect(|c| {
                assert!(
                    c.structures().all(|i| i >= 64),
                    "only c0/c1-leading specs serve this workload: {c:?}"
                );
                assert_eq!(c.words().len(), 2, "{c:?} must spill");
            })
            .count();
        assert!(spilled > 0, "the session must commit a useful design");
        assert!(session
            .decisions()
            .iter()
            .any(|d| d.specs.iter().any(|s| s.columns[0] == "c0")));

        // Spilled configurations survive persistence bit-for-bit, and
        // the restored session keeps deciding identically.
        let blob = session.save_state();
        let mut resumed = OnlineAdvisor::restore(&db, options, &blob).unwrap();
        assert_eq!(session.committed(), resumed.committed());
        assert_eq!(resumed.save_state(), blob, "re-saving reproduces the blob");
        for i in 0..30 {
            let a = session.ingest(&db, &wq("c1", i)).unwrap();
            let b = resumed.ingest(&db, &wq("c1", i)).unwrap();
            assert_eq!(a.map(|d| d.config), b.map(|d| d.config));
        }
        assert_eq!(session.committed(), resumed.committed());
    }

    #[test]
    fn vocabulary_ceiling_drops_ranked_worst_candidates() {
        let db = db_with(5_000, None);
        let mut adv = OnlineAdvisor::new(
            &db,
            "t",
            OnlineOptions {
                max_candidates: 2,
                ..opts(40, Some(2))
            },
        )
        .unwrap();
        for i in 0..40 {
            adv.ingest(&db, &q("a", i)).unwrap();
        }
        let grown = adv.structures().len();
        assert!(grown <= 2);
        // A shifted window derives fresh candidates; past the ceiling
        // they are dropped (ranked order) and counted, never silently
        // lost.
        for i in 0..80 {
            adv.ingest(&db, &q("b", i % 40)).unwrap();
            adv.ingest(&db, &q("c", i % 40)).unwrap();
        }
        assert!(adv.structures().len() <= 2);
        assert!(adv.dropped_structures() > 0, "drops must be visible");

        // And the ceiling is validated up front.
        let bad = OnlineOptions {
            max_candidates: 0,
            ..opts(10, None)
        };
        assert!(OnlineAdvisor::new(&db, "t", bad).is_err());
        let too_many = OnlineOptions {
            max_candidates: 1,
            advisor: AdvisorOptions {
                structures: Some(vec![
                    IndexSpec::new("t", &["a"]),
                    IndexSpec::new("t", &["b"]),
                ]),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(OnlineAdvisor::new(&db, "t", too_many).is_err());
    }

    #[test]
    fn finish_requires_statements_and_validates() {
        let db = db_with(2_000, None);
        let adv = OnlineAdvisor::new(&db, "t", opts(10, None)).unwrap();
        assert!(adv.finish(&db).is_err());
        assert!(OnlineAdvisor::new(&db, "missing", opts(10, None)).is_err());
        let bad = OnlineOptions {
            advisor: AdvisorOptions {
                structures: Some(vec![IndexSpec::new("t", &["nope"])]),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(OnlineAdvisor::new(&db, "t", bad).is_err());
    }

    #[test]
    fn constructor_validates() {
        let db = db_with(1_000, None);
        assert!(OnlineAdvisor::new(&db, "t", opts(0, None)).is_err());
        let no_candidates = OnlineOptions {
            max_candidates: 0,
            ..opts(10, None)
        };
        assert!(OnlineAdvisor::new(&db, "t", no_candidates).is_err());
        assert!(OnlineAdvisor::new(&db, "missing", opts(10, None)).is_err());
        let mut bad = opts(10, None);
        bad.advisor.structures = Some(vec![IndexSpec::new("t", &["nope"])]);
        assert!(OnlineAdvisor::new(&db, "t", bad).is_err());
    }
}
