//! Indexes are not free once the workload writes: every UPDATE pays
//! per-row maintenance on each index covering a written column. This
//! example extends the paper's Definition 1 ("a sequence of queries
//! *and updates*") to a day with a nightly ETL window:
//!
//! * daytime — read-heavy point queries on `balance`;
//! * night — an ETL burst of `UPDATE accounts SET balance = … WHERE
//!   account_id = …`;
//! * next morning — read-heavy again.
//!
//! A static design keeps `I(balance)` all day and bleeds maintenance
//! I/O all night. The constrained dynamic advisor (k = 2) drops
//! `I(balance)` when the ETL starts — switching to `I(account_id)`,
//! which accelerates the update's WHERE clause and is never written —
//! and rebuilds `I(balance)` for the morning.
//!
//! ```sh
//! cargo run --release --example etl_window
//! ```

use cdpd::engine::{Database, IndexSpec};
use cdpd::replay::{replay, replay_recommendation, ReplayOptions};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::{generate, QueryMix, Template, WorkloadSpec};
use cdpd::{Advisor, AdvisorOptions, Algorithm};
use cdpd_testkit::Prng;

const ROWS: i64 = 30_000;
const WINDOW: usize = 150;

fn load_accounts(seed: u64) -> cdpd::types::Result<Database> {
    let domain = ROWS / 5;
    let db = Database::new();
    db.create_table(
        "accounts",
        Schema::new(vec![
            ColumnDef::int("account_id"),
            ColumnDef::int("balance"),
            ColumnDef::int("branch"),
            ColumnDef::int("flags"),
        ]),
    )?;
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..ROWS {
        let row: Vec<Value> = (0..4)
            .map(|_| Value::Int(rng.gen_range(0..domain)))
            .collect();
        db.insert("accounts", &row)?;
    }
    db.analyze("accounts")?;
    Ok(db)
}

fn day_with_etl() -> cdpd::workload::Trace {
    let domain = ROWS / 5;
    let daytime = QueryMix::new("day", &[("balance", 75), ("account_id", 25)]).expect("weights");
    let etl = QueryMix::with_templates(
        "etl",
        vec![
            (
                Template::Update {
                    set_column: "balance".into(),
                    where_column: "account_id".into(),
                },
                85,
            ),
            (
                Template::Point {
                    column: "account_id".into(),
                },
                15,
            ),
        ],
    )
    .expect("weights");
    let mut windows = Vec::new();
    for _ in 0..7 {
        windows.push(daytime.clone());
    }
    for _ in 0..6 {
        windows.push(etl.clone());
    }
    for _ in 0..7 {
        windows.push(daytime.clone());
    }
    let spec = WorkloadSpec::new("accounts", domain, WINDOW, windows).expect("valid spec");
    generate(&spec, 2024)
}

fn main() -> cdpd::types::Result<()> {
    let trace = day_with_etl();
    println!(
        "workload: {} statements, {:.0}% writes during the ETL window\n",
        trace.len(),
        100.0 * trace.write_fraction() * (20.0 / 6.0) // writes concentrated in 6 of 20 windows
    );

    let db = load_accounts(1)?;
    let rec = Advisor::new(&db, "accounts")
        .options(AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            max_structures_per_config: Some(1),
            end_empty: false,
            algorithm: Algorithm::KAware,
            ..Default::default()
        })
        .recommend(&trace)?;
    println!("k = 2 recommendation:\n{}", rec.describe());

    // Measure against the static alternative on identically loaded DBs.
    let db_dynamic = load_accounts(7)?;
    let dynamic = replay_recommendation(&db_dynamic, &trace, &rec)?;

    let db_static = load_accounts(7)?;
    let stages = trace.len().div_ceil(WINDOW);
    let static_specs = vec![vec![IndexSpec::new("accounts", &["balance"])]; stages];
    let pinned = replay(
        &db_static,
        &trace,
        WINDOW,
        &static_specs,
        None,
        ReplayOptions::default(),
    )?;

    println!("measured I/O over the whole day:");
    println!(
        "  dynamic (advisor):      {:>9} I/Os  ({} design changes)",
        dynamic.total_io(),
        rec.schedule.changes
    );
    println!(
        "  static I(balance):      {:>9} I/Os  (maintained through the ETL)",
        pinned.total_io()
    );
    let saved = 100.0 * (1.0 - dynamic.total_io() as f64 / pinned.total_io() as f64);
    println!("  dynamic design saves {saved:.1}%");
    Ok(())
}
