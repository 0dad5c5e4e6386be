//! Calibration quickstart: replay a paper workload with the
//! predicted-vs-actual loop closed and emit the final
//! [`cdpd::CalibrationReport`] as JSON.
//!
//! ```sh
//! cargo run --release --example calibrate > calibration.json
//! ```
//!
//! The narrative goes to stderr; **stdout carries exactly one line of
//! JSON** (the report), so the output can be piped straight into a
//! schema check; `calibrate::tests::report_json_is_well_formed` pins
//! that schema.

use cdpd::engine::{Database, IndexSpec};
use cdpd::replay::{replay, ReplayOptions};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::{generate, paper};
use cdpd::{CalibrationMode, CalibrationOptions};
use cdpd_testkit::Prng;

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

    // 3. Replay under ModelAccount calibration: the oracle predicts
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

    let calib = report
        .calibration
        .expect("calibrated replay always reports");
    eprintln!(
        "calibration: {} samples, {} exact, drift {:.4} (band ±{:.1}), {} watchdog trip(s)",
        calib.samples, calib.exact, calib.drift, calib.band, calib.alerts
    );

    // 4. The report itself: one line of JSON on stdout.
    println!("{}", calib.to_json());
    Ok(())
}
