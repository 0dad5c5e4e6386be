//! `advise`: the advisor's own compute, in-process, with storage and
//! server out of the picture. An eight-column table, an explicit
//! 128-structure pool, and a trace whose focus moves over every column
//! — the scale at which oracle tiers, decomposition, what-if costing
//! and warm-start solves do all the work. On the paper's six-structure
//! instance a solve takes a tenth of a millisecond and shows nowhere.
//!
//! One *op* is one advised window. The timed section runs whole rounds
//! — one batch `Advisor::recommend` over the trace, then two
//! `OnlineAdvisor` sessions ingesting it statement by statement — until
//! `--seconds` have passed, and reports medians over the rounds.

use crate::gen::{self, Table};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{self, percentile};
use crate::{host, Outcome};
use cdpd::{Advisor, AdvisorOptions, EngineOracle, OnlineAdvisor, OnlineOptions, Recommendation};
use cdpd_core::decompose::{self, Decomposition};
use cdpd_core::{enumerate_configs, kaware, Config, Problem, ProjectedOracle, Schedule};
use cdpd_engine::{Database, IndexSpec, WhatIfEngine};
use cdpd_types::Cost;
use cdpd_workload::{summarize, SummarizedWorkload, Trace};
use std::hint::black_box;
use std::time::Instant;

/// Rows in table `w`.
const ROWS: usize = 20_000;
/// Columns of table `w`.
const COLUMNS: usize = 8;
/// Candidate structures handed to the advisor.
const POOL: usize = 128;
/// Windows in the trace.
const WINDOWS: usize = 80;
/// Statements per window.
const WINDOW_LEN: usize = 100;
/// Change budget.
const K: usize = 6;
/// Indexes per configuration.
const MAX_PER_CONFIG: usize = 2;
/// Online sessions per batch recommendation in a round of the timed
/// section: two, so a run collects enough seals for a 99th percentile
/// while still making several batch recommendations.
const SESSIONS_PER_ROUND: usize = 2;
/// Fewest rounds a timed run reports a median over.
const MIN_ROUNDS: usize = 3;
/// Fewest sealed windows a timed run collects.
const MIN_SEALS: usize = 1_100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

struct Inputs {
    table: Table,
    pool: Vec<IndexSpec>,
    trace: Trace,
}

fn inputs(seed: u64, out: &mut Outcome) -> Inputs {
    let table = Table::generate("w", COLUMNS, ROWS, seed);
    let pool = gen::structure_pool(&table, POOL, seed);
    let trace = gen::advise_trace(&table, WINDOWS, WINDOW_LEN, seed);
    out.fact("stream_fnv", format!("{:016x}", gen::trace_hash(&trace)));
    out.fact(
        "load",
        format!(
            "in-process, one thread; {WINDOWS} windows x {WINDOW_LEN} statements, \
             {POOL}-structure pool, k = {K}, at most {MAX_PER_CONFIG} indexes per configuration"
        ),
    );
    out.fact(
        "table",
        format!("w: {ROWS} rows x {COLUMNS} columns, analyzed, no indexes"),
    );
    out.fact("flush_policy", "in-memory pager: nothing is flushed".into());
    Inputs { table, pool, trace }
}

fn options(pool: &[IndexSpec]) -> AdvisorOptions {
    AdvisorOptions {
        k: Some(K),
        window_len: WINDOW_LEN,
        structures: Some(pool.to_vec()),
        max_structures_per_config: Some(MAX_PER_CONFIG),
        ..AdvisorOptions::default()
    }
}

/// Data load and `ANALYZE`; returns the database and the time taken.
fn set_up(table: &Table) -> (Database, f64) {
    let started = Instant::now();
    let db = Database::new();
    table.load_into(&db);
    (db, started.elapsed().as_secs_f64())
}

fn problem() -> Problem {
    Problem {
        initial: Config::EMPTY,
        final_config: None,
        space_bound: None,
        count_initial_change: false,
    }
}

fn engine_oracle(db: &Database, input: &Inputs, workload: &SummarizedWorkload) -> EngineOracle {
    let whatif = WhatIfEngine::snapshot(db, input.table.name).expect("analyzed table");
    EngineOracle::new(whatif, input.pool.clone(), workload).expect("pool and trace validate")
}

/// Estimated cost of never building anything: the ceiling any
/// recommendation must stay under.
fn empty_design_cost(db: &Database, input: &Inputs) -> u64 {
    let workload = summarize(&input.trace, WINDOW_LEN).expect("non-empty trace");
    let oracle = engine_oracle(db, input, &workload).into_shared();
    let stages = workload.len();
    Schedule::evaluate(&oracle, &problem(), vec![Config::EMPTY; stages])
        .total_cost()
        .raw()
}

/// Raw fixed-point cost units as logical page I/Os.
fn pages(raw: u64) -> f64 {
    Cost::from_raw(raw).as_f64_ios()
}

fn recommend(db: &Database, input: &Inputs) -> (Recommendation, f64) {
    let started = Instant::now();
    let rec = Advisor::new(db, input.table.name)
        .options(options(&input.pool))
        .recommend(&input.trace)
        .expect("the instance solves");
    (rec, started.elapsed().as_secs_f64())
}

/// What one online session measured.
struct Session {
    seal_ns: Vec<u64>,
    ingest_ns: Vec<u64>,
    solve_ns: u64,
    design_changes: usize,
    wall_s: f64,
}

/// Feed the whole trace to a fresh `OnlineAdvisor`, timing every
/// `ingest`; the calls that seal a window are the ops.
fn online_session(db: &Database, input: &Inputs, rec: &mut Recorder, out: &mut Outcome) -> Session {
    let started = Instant::now();
    let mut advisor = OnlineAdvisor::new(
        db,
        input.table.name,
        OnlineOptions {
            advisor: options(&input.pool),
            ..OnlineOptions::default()
        },
    )
    .expect("the pool validates");
    let mut session = Session {
        seal_ns: Vec::with_capacity(WINDOWS),
        ingest_ns: Vec::with_capacity(input.trace.len()),
        solve_ns: 0,
        design_changes: 0,
        wall_s: 0.0,
    };
    for (i, stmt) in input.trace.statements().iter().enumerate() {
        rec.set_request((i / WINDOW_LEN) as u64);
        let name = if advisor.next_seals() {
            "online.seal"
        } else {
            "online.ingest"
        };
        let t = Instant::now();
        let decision = rec.span(name, |_| advisor.ingest(db, stmt));
        let ns = t.elapsed().as_nanos() as u64;
        match decision {
            Ok(Some(d)) => {
                session.seal_ns.push(ns);
                session.solve_ns += d.solve_nanos;
                session.design_changes += usize::from(d.changed);
                if d.changes_used > K {
                    out.problem(format!(
                        "window {}: {} changes used, k = {K}",
                        d.window, d.changes_used
                    ));
                }
            }
            Ok(None) => session.ingest_ns.push(ns),
            Err(e) => out.problem(format!("ingest of statement {i}: {e}")),
        }
    }
    session.wall_s = started.elapsed().as_secs_f64();
    if session.seal_ns.len() != WINDOWS {
        out.problem(format!(
            "{} windows sealed, expected {WINDOWS}",
            session.seal_ns.len()
        ));
    }
    session
}

/// The checks every recommendation must pass: within the change budget,
/// no worse than building nothing, and the same cost as every repeat.
fn check(
    rec: &Recommendation,
    ceiling: u64,
    first_cost: &mut Option<u64>,
    out: &mut Outcome,
) -> u64 {
    let cost = rec.schedule.total_cost().raw();
    if rec.schedule.changes > K {
        out.problem(format!(
            "{} changes recommended, k = {K}",
            rec.schedule.changes
        ));
    }
    if cost > ceiling {
        out.problem(format!(
            "schedule costs {cost} pages, the empty design {ceiling}"
        ));
    }
    if *first_cost.get_or_insert(cost) != cost {
        out.problem(format!(
            "schedule cost changed between repeats: {} then {cost}",
            first_cost.expect("set above")
        ));
    }
    cost
}

/// The timed run: whole rounds until `seconds` have passed.
pub fn timed(seed: u64, seconds: u64, out: &mut Outcome) {
    let input = inputs(seed, out);
    let mut setups = Vec::new();
    let mut db = None;
    for _ in 0..SETUPS {
        drop(db.take());
        let (fresh, took) = set_up(&input.table);
        setups.push(took);
        db = Some(fresh);
    }
    let db = db.expect("at least one set-up");
    let ceiling = empty_design_cost(&db, &input);

    let started = Instant::now();
    let (mut recommend_s, mut session_s, mut seal_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cost, mut first_cost) = (0, None);
    let mut off = Recorder::new(false);
    // Also run until the 99th percentile has its samples, however slow
    // the host: a refused percentile would fail the run.
    while recommend_s.len() < MIN_ROUNDS
        || started.elapsed().as_secs() < seconds
        || seal_ns.len() < MIN_SEALS
    {
        let (rec, took) = recommend(&db, &input);
        cost = check(&rec, ceiling, &mut first_cost, out);
        recommend_s.push(took);
        for _ in 0..SESSIONS_PER_ROUND {
            let session = online_session(&db, &input, &mut off, out);
            session_s.push(session.wall_s);
            seal_ns.extend(session.seal_ns);
        }
    }
    seal_ns.sort_unstable();
    let advised = WINDOWS * (1 + SESSIONS_PER_ROUND);
    out.attempted = (recommend_s.len() * advised) as u64;
    out.fact("rounds", recommend_s.len().to_string());
    out.fact("latency_samples", seal_ns.len().to_string());
    out.fact(
        "schedule_cost_pages",
        format!("{:.1} (empty design {:.1})", pages(cost), pages(ceiling)),
    );

    let us = |ns: u64| ns as f64 / 1e3;
    let mut values = Values::new(END_TO_END);
    values.set("setup_s", stats::median(&setups));
    // A round advises every window once in the batch recommendation and
    // once per online session; its time is the median of each part.
    let round_s =
        stats::median(&recommend_s) + SESSIONS_PER_ROUND as f64 * stats::median(&session_s);
    values.set("ops_per_s", advised as f64 / round_s);
    match (percentile(&seal_ns, 0.5), percentile(&seal_ns, 0.99)) {
        (Ok(p50), Ok(p99)) => {
            values.set("lat_p50_us", us(p50));
            values.set("lat_p99_us", us(p99));
        }
        (_, Err(e)) | (Err(e), _) => out.problem(format!("seal latencies: {e}")),
    }
    // The paper's objective per statement: estimated pages of EXEC +
    // TRANS under the recommended schedule.
    values.set("pages_per_op", pages(cost) / input.trace.len() as f64);
    values.set("peak_rss_mb", host::peak_rss_mib());
    out.end_to_end = Some(values);
}

/// The traced run: one batch recommendation and one online session
/// under the span recorder, each advisory layer timed on its own, and
/// the micro-probes.
pub fn traced(seed: u64, out: &mut Outcome) {
    let input = inputs(seed, out);
    let (db, _) = set_up(&input.table);
    let ceiling = empty_design_cost(&db, &input);
    let mut values = Values::new(PER_LAYER);
    let mut rec = Recorder::new(true);

    let (recommendation, recommend_s) = rec.span("advisor.recommend", |_| recommend(&db, &input));
    let cost = check(&recommendation, ceiling, &mut None, out);
    values.set("advisor.recommend_ms", recommend_s * 1e3);
    values.set("advisor.schedule_cost_pages", pages(cost));
    let oracle_stats = recommendation.oracle_stats;
    values.set("core.whatif_calls", oracle_stats.whatif_calls as f64);
    values.set(
        "core.oracle_hit_rate",
        oracle_stats.projected_hits as f64
            / (oracle_stats.projected_hits + oracle_stats.raw_exec_evals).max(1) as f64,
    );

    let session = online_session(&db, &input, &mut rec, out);
    let seal_ms: Vec<f64> = session.seal_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let ingest: Vec<f64> = session.ingest_ns.iter().map(|&ns| ns as f64).collect();
    values.set("online.seal_ms", stats::median(&seal_ms));
    values.set("online.ingest_ns", stats::median(&ingest));
    values.set(
        "online.solve_share",
        session.solve_ns as f64 / session.seal_ns.iter().sum::<u64>().max(1) as f64,
    );
    values.set("online.design_changes", session.design_changes as f64);
    crate::write_trace("advise", rec.spans(), out);

    // The layers under `recommend`, one public call at a time.
    let started = Instant::now();
    let workload = summarize(&input.trace, WINDOW_LEN).expect("non-empty trace");
    values.set(
        "workload.summarize_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let schema = db.schema(input.table.name).expect("table exists");
    let started = Instant::now();
    black_box(cdpd::candidate_indexes(&schema, &workload).expect("candidates derive"));
    values.set(
        "advisor.candidates_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let started = Instant::now();
    let engine = engine_oracle(&db, &input, &workload);
    values.set(
        "advisor.oracle_build_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );

    let problem = problem();
    let decomp = Decomposition::from_oracle(&engine, &problem, &[]);
    values.set("core.decompose_active", decomp.n_local() as f64);
    let local_problem = decomp.localize_problem(&problem);
    let oracle = ProjectedOracle::new(decomp.local_oracle(&engine));
    let candidates = if decomp.n_local() <= 20 {
        enumerate_configs(&oracle, None, Some(MAX_PER_CONFIG))
    } else {
        decompose::candidate_configs(&oracle, &local_problem)
    }
    .expect("candidate configurations");
    // The first solve fills the oracle's memo; the timed ones are warm.
    let solve = || kaware::solve(&oracle, &local_problem, &candidates, K).expect("solves");
    let cold = solve();
    let mut solve_ms = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let warm = solve();
        solve_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if warm.total_cost() != cold.total_cost() {
            out.problem("warm and cold solves disagree on cost".into());
        }
    }
    values.set("core.solve_ms", stats::median(&solve_ms));

    out.attempted = (2 * WINDOWS) as u64;
    values.set("run.failed_share", 0.0);
    layers::micro_probes(seed, &mut values);
    out.per_layer = Some(values);
}
