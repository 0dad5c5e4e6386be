//! Overhead of the observability layer when tracing is **disabled**.
//!
//! The `cdpd-obs` contract is that instrumented binaries run at seed
//! speed: a `span!` with tracing off is one relaxed atomic load, a
//! counter bump is one `fetch_add` (plus one relaxed load for tracked
//! counters). This bench measures those disabled primitives directly,
//! counts how many of each one full table1 run actually executes, and
//! derives the instrumentation overhead ratio
//!
//! ```text
//! (spans × span_ns + bumps × counter_ns) / untraced wall ns
//! ```
//!
//! The ratio is asserted `< 2%` and recorded (with its inputs) into
//! `BENCH_obs.json` when `CDPD_BENCH_JSON_DIR` is set, so the
//! trajectory of the overhead is tracked across runs alongside the
//! timing benches.
//!
//! The calibration layer gets the same treatment: a quickstart-scale
//! replay runs with the predicted-vs-actual loop closed (the
//! `replay` default), its wall time and statement count are
//! measured, and the per-statement [`cdpd::WindowCalibration::record`]
//! cost is priced against it. That ratio is also asserted `< 2%`, and
//! the calibrated replay throughput lands in `BENCH_obs.json` as a
//! gated metric.

use cdpd::replay::{replay, ReplayOptions};
use cdpd::workload::{generate, paper, QueryMix, WorkloadSpec};
use cdpd::{PathKind, WindowCalibration};
use cdpd_bench::{build_database, Scale};
use cdpd_testkit::bench::{Better, Criterion};
use cdpd_testkit::{criterion_group, criterion_main};
use std::time::Instant;

const OVERHEAD_BUDGET: f64 = 0.02;

/// The exact work of the table1 bin, spans included, printing elided:
/// generate the four paper mixes and tally observed column frequencies.
fn table1_work() -> u64 {
    let _run = cdpd_obs::span!("table1.run");
    let mixes = QueryMix::paper_mixes();
    let cols = ["a", "b", "c", "d"];
    let mut acc = 0u64;
    for mix in &mixes {
        let _span = cdpd_obs::span!("table1.mix", mix = mix.name.as_str());
        let spec = WorkloadSpec::new("t", 500_000, 10_000, vec![mix.clone()]).expect("valid spec");
        let trace = generate(&spec, 42);
        for stmt in trace.statements() {
            let col = stmt.conditions()[0].column();
            acc += cols.iter().position(|c| *c == col).expect("known column") as u64;
        }
    }
    acc
}

/// Best-of-`repeats` mean ns per call over `iters` calls.
fn measure_ns(repeats: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters {
        f(); // warmup
    }
    (0..repeats)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_obs_overhead(criterion: &mut Criterion) {
    assert!(
        !cdpd_obs::trace::enabled(),
        "run this bench without CDPD_TRACE set"
    );
    let mut group = criterion.benchmark_group("obs");

    // Disabled primitives. The span is black_box'd through the closure
    // return so its construction and drop are both in the measurement.
    let span_ns = measure_ns(7, 2_000_000, || {
        let _span = std::hint::black_box(cdpd_obs::span!("bench.obs.noop"));
    });
    let counter_ns = measure_ns(7, 2_000_000, || {
        cdpd_obs::counter!("bench.obs.plain").inc();
    });
    let tracked_ns = measure_ns(7, 2_000_000, || {
        cdpd_obs::tracked_counter!("bench.obs.tracked").inc();
    });
    group.metric("span_disabled_ns", span_ns);
    group.metric("counter_add_ns", counter_ns);
    group.metric("tracked_counter_add_ns", tracked_ns);

    // Count the instrumentation ops one table1 run executes: registry
    // counter/histogram bumps from a metrics delta, span count from one
    // ring-traced run.
    let before = cdpd_obs::registry().snapshot();
    std::hint::black_box(table1_work());
    let delta = cdpd_obs::registry().snapshot().delta(&before);
    let bumps: u64 = delta
        .counters
        .iter()
        .filter(|(name, _)| !name.starts_with("bench.obs."))
        .map(|(_, v)| v)
        .sum::<u64>()
        + delta.histograms.values().map(|h| h.count).sum::<u64>();

    let t0 = cdpd_obs::trace::now_ns();
    cdpd_obs::trace::set_enabled(true);
    std::hint::black_box(table1_work());
    cdpd_obs::trace::set_enabled(false);
    let spans = cdpd_obs::trace::ring()
        .iter()
        .filter(|r| r.start_ns >= t0)
        .count() as u64;

    // Untraced wall time of the same run, best of 5.
    let wall_ns = measure_ns(5, 1, || {
        std::hint::black_box(table1_work());
    });

    let cost_ns = spans as f64 * span_ns + bumps as f64 * tracked_ns;
    let overhead_ratio = cost_ns / wall_ns;
    group.metric("table1_wall_ns", wall_ns);
    group.metric("table1_spans", spans as f64);
    group.metric("table1_counter_bumps", bumps as f64);
    group.metric("overhead_ratio", overhead_ratio);

    // --- Calibration overhead on a quickstart-scale replay.
    //
    // The replay runs with calibration on (replay's default
    // MeasuredIo pass), so its wall time already *includes* the loop;
    // pricing the per-statement record against that wall is therefore
    // conservative.
    const ROWS: i64 = 10_000;
    const WINDOW: usize = 200;
    let scale = Scale {
        rows: ROWS,
        window_len: WINDOW,
        seed: 7,
    };
    let params = paper::PaperParams {
        domain: ROWS / cdpd_bench::ROWS_PER_VALUE,
        window_len: WINDOW,
        ..Default::default()
    };
    let trace = generate(&paper::w1_with(&params), 42);
    let windows = trace.len().div_ceil(WINDOW);
    let schedule = vec![Vec::new(); windows];
    let mut replay_wall_ns = f64::INFINITY;
    let mut calibrated_samples = 0;
    for _ in 0..3 {
        let db = build_database(&scale);
        let start = Instant::now();
        let options = ReplayOptions {
            threads: 1,
            ..Default::default()
        };
        let report =
            replay(&db, &trace, WINDOW, &schedule, None, options).expect("calibrated replay runs");
        replay_wall_ns = replay_wall_ns.min(start.elapsed().as_nanos() as f64);
        let calib = report.calibration.expect("replay always calibrates");
        assert_eq!(calib.samples, trace.len() as u64);
        calibrated_samples = calib.samples;
    }

    // Per-statement calibration cost: one record() folding a pair into
    // the window accumulator and the global registry.
    let mut scratch = WindowCalibration::default();
    let record_ns = measure_ns(7, 1_000_000, || {
        scratch.record(
            std::hint::black_box(12),
            std::hint::black_box(10),
            PathKind::IndexSeek,
        );
    });

    let calib_ratio = calibrated_samples as f64 * record_ns / replay_wall_ns;
    group.metric("calibration_record_ns", record_ns);
    // Gated with a wide floor: raw throughput swings with host load, so
    // only a collapse (the calibration layer costing real time) fails.
    group.gated_metric(
        "calibration/replay_stmts_per_sec",
        calibrated_samples as f64 / (replay_wall_ns / 1e9),
        Better::Higher,
        0.30,
    );
    group.metric("calibration/overhead_ratio", calib_ratio);
    group.finish();

    assert!(
        overhead_ratio < OVERHEAD_BUDGET,
        "disabled-tracing overhead {:.4}% exceeds the {:.0}% budget \
         ({spans} spans × {span_ns:.1} ns + {bumps} bumps × {tracked_ns:.1} ns \
         over {wall_ns:.0} ns of work)",
        overhead_ratio * 100.0,
        OVERHEAD_BUDGET * 100.0,
    );
    assert!(
        calib_ratio < OVERHEAD_BUDGET,
        "calibration overhead {:.4}% exceeds the {:.0}% budget \
         ({calibrated_samples} records × {record_ns:.1} ns over {replay_wall_ns:.0} ns of replay)",
        calib_ratio * 100.0,
        OVERHEAD_BUDGET * 100.0,
    );
    println!(
        "\ndisabled-tracing overhead: {:.5}% of table1 wall time (budget {:.0}%)",
        overhead_ratio * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
    println!(
        "calibration overhead: {:.5}% of calibrated replay wall time (budget {:.0}%)",
        calib_ratio * 100.0,
        OVERHEAD_BUDGET * 100.0
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
