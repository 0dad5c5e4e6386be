//! Calibration quickstart: replay a paper workload with the
//! predicted-vs-actual loop closed, sample the metrics registry into
//! time series while it runs, and emit the final
//! [`cdpd::CalibrationReport`] as JSON.
//!
//! ```sh
//! cargo run --release --example calibrate > calibration.json
//! ```
//!
//! The narrative goes to stderr; **stdout carries exactly one line of
//! JSON** (the report), so the output can be piped straight into a
//! schema check — ci.sh does exactly that.

use cdpd::engine::{Database, IndexSpec};
use cdpd::replay::{replay, ReplayOptions};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::{generate, paper};
use cdpd::{CalibrationMode, CalibrationOptions};
use cdpd_testkit::Prng;
use std::time::Duration;

fn main() -> cdpd::types::Result<()> {
    // 1. The usual paper-shaped table: four integer columns, ~5 rows
    //    per distinct value.
    const ROWS: i64 = 20_000;
    const WINDOW: usize = 200;
    let domain = ROWS / 5;
    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ]),
    )?;
    let mut rng = Prng::seed_from_u64(7);
    for _ in 0..ROWS {
        let row: Vec<Value> = (0..4)
            .map(|_| Value::Int(rng.gen_range(0..domain)))
            .collect();
        db.insert("t", &row)?;
    }
    db.analyze("t")?;
    eprintln!("loaded {ROWS} rows ({} pages)", db.page_count());

    // 2. The paper's W1 trace and a design schedule that alternates
    //    between indexed and bare windows, so the calibration sees both
    //    index seeks and sequential scans.
    let params = paper::PaperParams {
        domain,
        window_len: WINDOW,
        ..Default::default()
    };
    let trace = generate(&paper::w1_with(&params), 42);
    let windows = trace.len().div_ceil(WINDOW);
    let schedule: Vec<Vec<IndexSpec>> = (0..windows)
        .map(|w| {
            if w % 2 == 0 {
                vec![IndexSpec::new("t", &["a"]), IndexSpec::new("t", &["c"])]
            } else {
                vec![]
            }
        })
        .collect();
    eprintln!("trace: {} statements over {windows} windows", trace.len());

    // 3. Sample the global metrics registry into ring-buffer time
    //    series while the replay runs: the `calibration.*` counters the
    //    replay emits become inspectable trajectories.
    let sampler = cdpd::obs::timeseries::sample_every(Duration::from_millis(2), 4096);

    // 4. Replay under ModelAccount calibration: the oracle predicts
    //    from the live materialized shapes, the executor keeps its own
    //    model account, and the two must reconcile exactly.
    let options = ReplayOptions {
        threads: 2,
        calibration: CalibrationOptions {
            mode: CalibrationMode::ModelAccount,
            ..Default::default()
        },
    };
    let report = replay(&db, &trace, WINDOW, &schedule, Some(&[]), options)?;
    let sampler = sampler.stop();

    let calib = report
        .calibration
        .expect("calibrated replay always reports");
    eprintln!(
        "calibration: {} samples, {} exact, drift {:.4} (band ±{:.1}), {} watchdog trip(s)",
        calib.samples, calib.exact, calib.drift, calib.band, calib.alerts
    );
    for name in ["calibration.samples", "calibration.exact"] {
        if let Some(series) = sampler.series(name) {
            let w = series.window();
            eprintln!(
                "series {name}: {} points, {} -> {} (delta {})",
                w.len,
                w.first,
                w.last,
                w.delta()
            );
        }
    }

    // 5. The report itself: one line of JSON on stdout.
    println!("{}", calib.to_json());
    Ok(())
}
