//! Closing the predicted-vs-actual loop (DESIGN.md §16): when the
//! calibration oracle is backed by the *same* cost model the executor
//! uses — a what-if engine carrying the live materialized B-tree
//! shapes ([`cdpd::engine::WhatIfEngine::snapshot_live`]) — its
//! per-statement predictions must reconcile with the executor's model
//! account **exactly**, across the paper's W1–W3 workloads, seeds,
//! design schedules, and write-bearing traces. And when the model is
//! deliberately broken (an injected scale on index-backed predictions),
//! the drift watchdog must catch it: that asymmetry — zero daylight
//! when honest, loud when not — is what makes the calibration layer
//! evidence rather than noise.

mod common;

use cdpd::engine::IndexSpec;
use cdpd::replay::{replay, ReplayOptions};
use cdpd::workload::{generate, paper, QueryMix, Template, Trace, WorkloadSpec};
use cdpd::{CalibrationMode, CalibrationOptions, PathKind};
use common::{paper_database, paper_params, paper_structures, ROWS_PER_VALUE};

const ROWS: i64 = 6_000;
const WINDOW: usize = 30;

/// A rotating design schedule over the §6.1 structures: no-index,
/// single-index, and composite windows, so the replay exercises seq
/// scans, seeks, covering indexes, and real transitions.
fn rotating_schedule(windows: usize) -> Vec<Vec<IndexSpec>> {
    let s = paper_structures(); // a, b, c, d, ab, cd
    let cycle: [Vec<IndexSpec>; 6] = [
        vec![s[0].clone()],
        vec![s[0].clone(), s[4].clone()],
        vec![],
        vec![s[2].clone(), s[5].clone()],
        vec![s[1].clone(), s[3].clone()],
        vec![s[5].clone()],
    ];
    (0..windows)
        .map(|w| cycle[w % cycle.len()].clone())
        .collect()
}

/// Every window fully indexed: point queries on any column are
/// index-backed, so the injected index-cost scale touches (nearly)
/// every prediction.
fn indexed_schedule(windows: usize) -> Vec<Vec<IndexSpec>> {
    let s = paper_structures();
    (0..windows)
        .map(|_| vec![s[0].clone(), s[1].clone(), s[2].clone(), s[3].clone()])
        .collect()
}

/// A six-window trace with real updates, so the write path (find phase
/// plus index maintenance, with shapes moving mid-window) is covered.
fn write_trace(seed: u64) -> Trace {
    let domain = ROWS / ROWS_PER_VALUE;
    let reads = QueryMix::new("reads", &[("a", 60), ("c", 40)]).expect("weights");
    let etl = QueryMix::with_templates(
        "etl",
        vec![
            (
                Template::Update {
                    set_column: "b".into(),
                    where_column: "a".into(),
                },
                50,
            ),
            (Template::Point { column: "c".into() }, 50),
        ],
    )
    .expect("weights");
    let windows = vec![reads.clone(), etl.clone(), etl, reads.clone(), reads];
    let spec = WorkloadSpec::new("t", domain, WINDOW, windows).expect("valid spec");
    generate(&spec, seed)
}

fn model_account(threads: usize) -> ReplayOptions {
    ReplayOptions {
        threads,
        calibration: CalibrationOptions {
            mode: CalibrationMode::ModelAccount,
            ..Default::default()
        },
    }
}

/// The reconciliation property: over W1, W2, and W3 at multiple seeds,
/// every statement's live-shape oracle prediction equals the
/// executor's model account to the page — zero drift, zero alerts.
#[test]
fn oracle_reconciles_with_executor_exactly_across_w1_w2_w3() {
    let params = paper_params(ROWS, WINDOW);
    let specs: [(&str, WorkloadSpec); 3] = [
        ("W1", paper::w1_with(&params)),
        ("W2", paper::w2_with(&params)),
        ("W3", paper::w3_with(&params)),
    ];
    for (name, spec) in specs {
        for seed in [11, 42] {
            let trace = generate(&spec, seed);
            let db = paper_database(ROWS, seed);
            let schedule = rotating_schedule(trace.len().div_ceil(WINDOW));
            let report = replay(&db, &trace, WINDOW, &schedule, Some(&[]), model_account(2))
                .expect("replay runs");
            let calib = report.calibration.expect("replay always calibrates");
            assert_eq!(
                calib.samples,
                trace.len() as u64,
                "{name} seed {seed}: every statement is paired"
            );
            assert!(
                calib.is_exact(),
                "{name} seed {seed}: {} of {} predictions diverged (abs err {} IOs)",
                calib.samples - calib.exact,
                calib.samples,
                calib.abs_err_ios
            );
            assert_eq!(calib.predicted_ios, calib.actual_ios, "{name} seed {seed}");
            assert_eq!(calib.abs_err_ios, 0, "{name} seed {seed}");
            assert_eq!(calib.drift, 0.0, "{name} seed {seed}");
            assert_eq!(calib.signed_error, 0.0, "{name} seed {seed}");
            assert_eq!(calib.alerts, 0, "{name} seed {seed}");
            assert!(!calib.tripped, "{name} seed {seed}");
            // The rotating schedule genuinely exercised both scan and
            // index paths — exactness over a single path proves less.
            let paths: Vec<PathKind> = calib.by_path.iter().map(|(p, _)| *p).collect();
            assert!(paths.contains(&PathKind::SeqScan), "{name}: {paths:?}");
            assert!(paths.contains(&PathKind::IndexSeek), "{name}: {paths:?}");
        }
    }
}

/// The reconciliation property extends to the predicate-tree paths:
/// over the range/IN-heavy W4 and disjunction-heavy W5 workloads, with
/// schedules that light up rowid intersections and unions, the
/// live-shape oracle still reconciles with the executor exactly — and
/// the per-path breakdown proves the new `IndexAnd`/`IndexOr` paths
/// (not just the classic ones) carried real traffic.
#[test]
fn oracle_reconciles_exactly_on_intersection_and_union_paths() {
    let params = paper_params(ROWS, WINDOW);
    let specs: [(&str, WorkloadSpec); 2] = [
        ("W4", paper::w4_with(&params)),
        ("W5", paper::w5_with(&params)),
    ];
    let mut new_paths_hit = 0u64;
    for (name, spec) in specs {
        for seed in [13, 47] {
            let trace = generate(&spec, seed);
            let db = paper_database(ROWS, seed);
            // All four single-column indexes: EqPair conjunctions can
            // intersect, OrPair/IN statements can union.
            let schedule = indexed_schedule(trace.len().div_ceil(WINDOW));
            let report = replay(&db, &trace, WINDOW, &schedule, Some(&[]), model_account(2))
                .expect("replay runs");
            let calib = report.calibration.expect("replay always calibrates");
            assert_eq!(calib.samples, trace.len() as u64, "{name} seed {seed}");
            assert!(
                calib.is_exact(),
                "{name} seed {seed}: {} of {} predictions diverged (abs err {} IOs)",
                calib.samples - calib.exact,
                calib.samples,
                calib.abs_err_ios
            );
            assert_eq!(calib.abs_err_ios, 0, "{name} seed {seed}");
            assert_eq!(calib.alerts, 0, "{name} seed {seed}");
            for (path, stats) in &calib.by_path {
                if matches!(path, PathKind::IndexAnd | PathKind::IndexOr) {
                    new_paths_hit += stats.samples;
                    assert_eq!(
                        stats.predicted_ios, stats.actual_ios,
                        "{name} seed {seed}: {path:?} reconciles per-path too"
                    );
                }
            }
        }
    }
    assert!(
        new_paths_hit > 100,
        "the W4/W5 sweeps must actually exercise the multi-index paths, \
         got {new_paths_hit} statements"
    );
}

/// Writes reconcile too: predictions taken against the shapes each
/// write actually meets (fresh snapshot per write — index maintenance
/// splits pages mid-window) stay exact, including the maintenance
/// term.
#[test]
fn oracle_reconciles_writes_exactly() {
    for seed in [5, 29] {
        let trace = write_trace(seed);
        let db = paper_database(ROWS, seed);
        let schedule = rotating_schedule(trace.len().div_ceil(WINDOW));
        let report =
            replay(&db, &trace, WINDOW, &schedule, None, model_account(1)).expect("replay runs");
        let calib = report.calibration.expect("replay always calibrates");
        assert!(
            calib.is_exact(),
            "seed {seed}: {} of {} predictions diverged",
            calib.samples - calib.exact,
            calib.samples
        );
        let write = calib
            .by_path
            .iter()
            .find(|(p, _)| *p == PathKind::Write)
            .map(|(_, s)| *s)
            .expect("trace contains updates");
        assert!(write.samples > 0);
        assert_eq!(write.predicted_ios, write.actual_ios, "seed {seed}: writes");
    }
}

/// The watchdog property: the same exact oracle with its index costs
/// scaled 8× — a deliberately mis-costed model — walks the drift out
/// of the band within the first windows and trips the watchdog, while
/// the unscaled control run stays silent.
#[test]
fn injected_index_mis_costing_trips_the_drift_watchdog() {
    let params = paper_params(ROWS, WINDOW);
    let trace = generate(&paper::w1_with(&params), 42);
    let schedule = indexed_schedule(trace.len().div_ceil(WINDOW));

    let db = paper_database(ROWS, 42);
    let control = replay(&db, &trace, WINDOW, &schedule, None, model_account(2))
        .expect("replay runs")
        .calibration
        .expect("replay always calibrates");
    assert!(control.is_exact(), "control run must reconcile");
    assert_eq!(control.alerts, 0, "control run must not alert");

    let db = paper_database(ROWS, 42);
    let mut skew = model_account(2);
    skew.calibration.index_cost_scale = 8.0;
    let skewed = replay(&db, &trace, WINDOW, &schedule, None, skew)
        .expect("replay runs")
        .calibration
        .expect("replay always calibrates");
    assert!(!skewed.is_exact(), "scaled predictions must diverge");
    assert!(
        skewed.alerts >= 1,
        "watchdog must trip: drift {} band {}",
        skewed.drift,
        skewed.band
    );
    assert!(
        skewed.tripped,
        "drift {} stays outside the band",
        skewed.drift
    );
    assert!(
        skewed.drift > skewed.band,
        "systematic overestimate drives drift positive: {}",
        skewed.drift
    );
    assert!(skewed.overestimates > 0);
}

/// Calibration inherits the replay's determinism: the default
/// measured-I/O pass produces bit-identical reports (drift included)
/// at any thread count.
#[test]
fn calibration_is_bit_identical_across_thread_counts() {
    let params = paper_params(ROWS, WINDOW);
    let trace = generate(&paper::w2_with(&params), 7);
    let schedule = rotating_schedule(trace.len().div_ceil(WINDOW));
    let run = |threads: usize| {
        let db = paper_database(ROWS, 7);
        let options = ReplayOptions {
            threads,
            ..Default::default()
        };
        replay(&db, &trace, WINDOW, &schedule, Some(&[]), options)
            .expect("replay runs")
            .calibration
            .expect("replay always calibrates")
    };
    let serial = run(1);
    assert_eq!(serial.samples, trace.len() as u64);
    for threads in [2, 8] {
        let parallel = run(threads);
        assert_eq!(serial.samples, parallel.samples, "threads {threads}");
        assert_eq!(
            serial.predicted_ios, parallel.predicted_ios,
            "threads {threads}"
        );
        assert_eq!(serial.actual_ios, parallel.actual_ios, "threads {threads}");
        assert_eq!(
            serial.abs_err_ios, parallel.abs_err_ios,
            "threads {threads}"
        );
        assert_eq!(serial.exact, parallel.exact, "threads {threads}");
        assert_eq!(
            serial.drift.to_bits(),
            parallel.drift.to_bits(),
            "threads {threads}: drift folds in window order"
        );
        assert_eq!(serial.alerts, parallel.alerts, "threads {threads}");
        assert_eq!(serial.by_path, parallel.by_path, "threads {threads}");
    }
}
