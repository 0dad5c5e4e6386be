use crate::candidates::candidate_indexes;
use crate::oracle::EngineOracle;
use cdpd_core::{
    decompose, greedy, hybrid, kaware, merging, ranking, seqgraph, Config, OracleStatsSnapshot,
    Problem, ProjectableOracle, Schedule,
};
use cdpd_engine::{Database, IndexSpec, WhatIfEngine};
use cdpd_obs::MetricsSnapshot;
use cdpd_types::{Error, Result};
use cdpd_workload::{summarize, Trace};
use std::ops::Range;

/// Which solver the advisor runs.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Algorithm {
    /// The k-aware sequence graph (§3) — optimal.
    KAware,
    /// Sequential design merging (§4.2) — heuristic.
    Merging,
    /// Shortest-path ranking (§5) — optimal, with a path budget.
    Ranking {
        /// Abort after ranking this many paths.
        max_paths: usize,
    },
    /// GREEDY-SEQ candidate restriction (§4.1) — heuristic, scales to
    /// large `m`.
    Greedy,
    /// Graph for small `k`, merging for large `k` (§6.4).
    #[default]
    Hybrid,
}

/// Tuning knobs for [`Advisor`].
#[derive(Clone, Debug)]
pub struct AdvisorOptions {
    /// Change budget. `None` solves the unconstrained problem
    /// (Agrawal et al.'s formulation).
    pub k: Option<usize>,
    /// Space bound `b` in pages for every recommended configuration.
    pub space_bound_pages: Option<u64>,
    /// Statements per summarization window (problem stage). The
    /// paper's Table 2 granularity is 500.
    pub window_len: usize,
    /// Maximum indexes per configuration when enumerating candidates.
    /// `Some(1)` is the paper's experimental regime; the default of 2
    /// keeps full enumeration tractable for derived candidate sets.
    pub max_structures_per_config: Option<usize>,
    /// Solver choice.
    pub algorithm: Algorithm,
    /// Explicit candidate structures; `None` derives them from the
    /// trace via [`candidate_indexes`].
    pub structures: Option<Vec<IndexSpec>>,
    /// Require the schedule to end in the empty configuration (the
    /// paper's experiments do).
    pub end_empty: bool,
    /// Count the initial build against `k` (strict Definition 1; see
    /// [`Problem::count_initial_change`]).
    pub count_initial_change: bool,
}

impl Default for AdvisorOptions {
    fn default() -> Self {
        AdvisorOptions {
            k: None,
            space_bound_pages: None,
            window_len: 500,
            max_structures_per_config: Some(2),
            algorithm: Algorithm::Hybrid,
            structures: None,
            end_empty: false,
            count_initial_change: false,
        }
    }
}

/// The advisor's output: a design schedule with its structure
/// vocabulary resolved back to index specs.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// The recommended schedule over [`Config`] bitmasks.
    pub schedule: Schedule,
    /// Candidate structures; bit `i` of a config = `structures[i]`.
    pub structures: Vec<IndexSpec>,
    /// Statements per stage used during summarization.
    pub window_len: usize,
    /// The problem boundary conditions that were solved.
    pub problem: Problem,
    /// Strategy the hybrid solver picked, when it ran.
    pub hybrid_strategy: Option<hybrid::Strategy>,
    /// Cost-oracle instrumentation for the solve: raw what-if calls,
    /// projected cache hits, and memo residency (see
    /// [`cdpd_core::OracleStats`]).
    pub oracle_stats: OracleStatsSnapshot,
    /// Process-wide metrics delta over this `recommend` call (what-if
    /// calls, planner picks, pager I/O, solver timings — everything the
    /// `cdpd-obs` registry saw).
    pub metrics: MetricsSnapshot,
    /// Rendered span-tree profile of the call, present when tracing was
    /// enabled (`CDPD_TRACE=1` or `cdpd_obs::trace::set_enabled(true)`).
    pub profile: Option<String>,
    /// Predicted-vs-actual calibration state, when the recommendation
    /// came out of a session that executed statements
    /// ([`crate::OnlineAdvisor::finish`] attaches its tracker).
    /// `None` from the pure batch path — [`Advisor::recommend`] only
    /// estimates, it never executes.
    pub calibration: Option<crate::calibrate::CalibrationReport>,
}

impl Recommendation {
    /// The index specs recommended for stage `stage`.
    pub fn specs_at(&self, stage: usize) -> Vec<IndexSpec> {
        self.schedule.configs[stage]
            .structures()
            .map(|i| self.structures[i].clone())
            .collect()
    }

    /// One spec list per stage (input shape for [`crate::replay`]).
    pub fn stage_specs(&self) -> Vec<Vec<IndexSpec>> {
        (0..self.schedule.len()).map(|s| self.specs_at(s)).collect()
    }

    /// Maximal runs of equal configurations with resolved specs.
    pub fn segment_specs(&self) -> Vec<(Range<usize>, Vec<IndexSpec>)> {
        self.schedule
            .segments()
            .into_iter()
            .map(|(range, _)| {
                let specs = self.specs_at(range.start);
                (range, specs)
            })
            .collect()
    }

    /// Full cost-breakdown table (via [`cdpd_core::report::render`]),
    /// re-deriving the cost oracle from `db` and `trace`. Rows are
    /// segments; columns are exec and transition I/Os.
    pub fn render_with(&self, db: &Database, trace: &Trace) -> Result<String> {
        let workload = summarize(trace, self.window_len)?;
        let whatif = WhatIfEngine::snapshot(db, trace.table())?;
        let oracle = EngineOracle::new(whatif, self.structures.clone(), &workload)?.into_shared();
        let structures = self.structures.clone();
        let label = move |cfg: &cdpd_core::Config| -> String {
            let names: Vec<String> = cfg
                .structures()
                .map(|i| structures[i].display_short())
                .collect();
            if names.is_empty() {
                "(no index)".to_owned()
            } else {
                names.join(" + ")
            }
        };
        Ok(cdpd_core::report::render(
            &oracle,
            &self.problem,
            &self.schedule,
            &label,
        ))
    }

    /// Export the schedule as an annotated DDL script: one block per
    /// design change, with comments marking the window boundaries at
    /// which a DBA (or a scheduler) should apply each block. The
    /// statements parse back through `cdpd_sql::parse_many`, and
    /// applying a block is exactly what
    /// [`cdpd_engine::Database::apply_configuration`] does at that
    /// stage of a [`crate::replay`].
    pub fn to_ddl_script(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "-- dynamic physical design: {} change(s), est. cost {} I/Os\n",
            self.schedule.changes,
            self.schedule.total_cost()
        ));
        let mut prev: Vec<IndexSpec> = self
            .problem
            .initial
            .structures()
            .map(|i| self.structures[i].clone())
            .collect();
        for (range, specs) in self.segment_specs() {
            let dropped: Vec<&IndexSpec> = prev.iter().filter(|s| !specs.contains(s)).collect();
            let created: Vec<&IndexSpec> = specs.iter().filter(|s| !prev.contains(s)).collect();
            if !dropped.is_empty() || !created.is_empty() || range.start == 0 {
                out.push_str(&format!(
                    "\n-- before window {} (statements {}..{}):\n",
                    range.start,
                    range.start * self.window_len,
                    range.end * self.window_len
                ));
                for spec in dropped {
                    out.push_str(&format!("DROP INDEX {};\n", spec.name()));
                }
                for spec in created {
                    out.push_str(&format!(
                        "CREATE INDEX {} ON {} ({});\n",
                        spec.name(),
                        spec.table,
                        spec.columns.join(", ")
                    ));
                }
            }
            prev = specs;
        }
        if let Some(final_cfg) = &self.problem.final_config {
            let fin: Vec<IndexSpec> = final_cfg
                .structures()
                .map(|i| self.structures[i].clone())
                .collect();
            let closing: Vec<&IndexSpec> = prev.iter().filter(|s| !fin.contains(s)).collect();
            if !closing.is_empty() {
                out.push_str("\n-- after the workload:\n");
                for spec in closing {
                    out.push_str(&format!("DROP INDEX {};\n", spec.name()));
                }
            }
        }
        out
    }

    /// Paper-style rendering: one line per segment, `I(...)` notation.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "{} change(s), estimated cost {} I/Os (exec {}, trans {})\n",
            self.schedule.changes,
            self.schedule.total_cost(),
            self.schedule.exec_cost,
            self.schedule.trans_cost
        );
        for (range, specs) in self.segment_specs() {
            let names = if specs.is_empty() {
                "(no index)".to_owned()
            } else {
                specs
                    .iter()
                    .map(IndexSpec::display_short)
                    .collect::<Vec<_>>()
                    .join(" + ")
            };
            out.push_str(&format!(
                "  windows {:>3}..{:<3} {names}\n",
                range.start, range.end
            ));
        }
        out
    }
}

/// High-level one-call interface: trace in, design schedule out.
pub struct Advisor<'db> {
    db: &'db Database,
    table: String,
    options: AdvisorOptions,
}

impl<'db> Advisor<'db> {
    /// An advisor for `table` in `db` with default options.
    pub fn new(db: &'db Database, table: impl Into<String>) -> Advisor<'db> {
        Advisor {
            db,
            table: table.into(),
            options: AdvisorOptions::default(),
        }
    }

    /// Replace the options.
    pub fn options(mut self, options: AdvisorOptions) -> Advisor<'db> {
        self.options = options;
        self
    }

    /// Recommend a dynamic design for `trace`.
    pub fn recommend(&self, trace: &Trace) -> Result<Recommendation> {
        if trace.table() != self.table {
            return Err(Error::InvalidArgument(format!(
                "trace is on table {}, advisor on {}",
                trace.table(),
                self.table
            )));
        }
        let workload = summarize(trace, self.options.window_len)?;
        recommend_for_workload(self.db, &self.table, &self.options, &workload)
    }
}

/// The batch pipeline behind [`Advisor::recommend`], factored over an
/// already-summarized workload so [`crate::OnlineAdvisor::finish`] can
/// run the *identical* code path on its streamed summary — that shared
/// body is what makes the online/batch equivalence claim structural
/// rather than coincidental.
pub(crate) fn recommend_for_workload(
    db: &Database,
    table: &str,
    options: &AdvisorOptions,
    workload: &cdpd_workload::SummarizedWorkload,
) -> Result<Recommendation> {
    let metrics_before = cdpd_obs::registry().snapshot();
    let started_ns = cdpd_obs::trace::now_ns();
    let statements: usize = workload.blocks.iter().map(|b| b.len).sum();
    let span = cdpd_obs::span!("advisor.recommend", statements = statements);
    let whatif = WhatIfEngine::snapshot(db, table)?;

    // Candidate structures: explicit or derived; the currently
    // materialized indexes must be representable (they are C_0).
    let mut structures = match &options.structures {
        Some(s) => s.clone(),
        None => candidate_indexes(whatif.schema(), workload)?.0,
    };
    let current = db.index_specs(table)?;
    for spec in &current {
        if !structures.contains(spec) {
            structures.push(spec.clone());
        }
    }

    let engine = EngineOracle::new(whatif, structures, workload)?;
    let initial = engine
        .config_of(&current)
        .expect("current indexes were added to the structure list");
    let problem = Problem {
        initial,
        final_config: options.end_empty.then_some(Config::EMPTY),
        space_bound: options.space_bound_pages,
        count_initial_change: options.count_initial_change,
    };

    // The one cost path: engine → projected memo (global keys) →
    // rename to the active set → candidates → solver → globalize.
    let oracle = engine.into_shared();
    let mut hybrid_strategy = None;
    let schedule = decompose::solve_decomposed(
        &oracle,
        &problem,
        &[],
        options.max_structures_per_config,
        |local, local_problem, candidates, _| {
            run_solver(
                local,
                local_problem,
                candidates,
                options,
                &mut hybrid_strategy,
            )
        },
    )?;
    schedule.validate(&oracle, &problem, options.k)?;
    let oracle_stats = oracle.stats_snapshot();
    let structures = oracle.into_inner().structures().to_vec();

    // Close the span before rendering so the recommend record itself
    // lands in the ring and the profile covers the whole call.
    drop(span);
    let profile = cdpd_obs::profile_since(started_ns);
    Ok(Recommendation {
        schedule,
        structures,
        window_len: options.window_len,
        problem,
        hybrid_strategy,
        oracle_stats,
        metrics: cdpd_obs::registry().snapshot().delta(&metrics_before),
        profile,
        calibration: None,
    })
}

/// Dispatch on [`AdvisorOptions::algorithm`].
fn run_solver(
    oracle: &dyn ProjectableOracle,
    problem: &Problem,
    candidates: &[Config],
    options: &AdvisorOptions,
    hybrid_strategy: &mut Option<hybrid::Strategy>,
) -> Result<Schedule> {
    Ok(match (options.k, options.algorithm) {
        (None, _) => seqgraph::solve(oracle, problem, candidates)?,
        (Some(k), Algorithm::KAware) => kaware::solve(oracle, problem, candidates, k)?,
        (Some(k), Algorithm::Merging) => merging::solve(oracle, problem, candidates, k)?,
        (Some(k), Algorithm::Ranking { max_paths }) => {
            ranking::solve(oracle, problem, candidates, k, max_paths)?
        }
        (Some(k), Algorithm::Greedy) => greedy::solve(oracle, problem, k)?,
        (Some(k), Algorithm::Hybrid) => {
            let out = hybrid::solve(oracle, problem, candidates, k)?;
            *hybrid_strategy = Some(out.strategy);
            out.schedule
        }
    })
}
