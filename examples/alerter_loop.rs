//! The §7 deployment loop, end to end:
//!
//! > *"Design alerters periodically check the quality of the existing
//! > physical configuration … Within our framework, we might rely on
//! > these technologies to trigger an off-line dynamic optimizer such
//! > as the one presented here."*
//!
//! A live system executes statements and feeds them to an
//! [`OnlineAdvisor`](cdpd::OnlineAdvisor) whose re-solves are gated by
//! the alerter check: at every window seal the live design is priced
//! against the best single candidate on that window, and only when it
//! is more than 50% worse (`resolve_threshold: Some(0.5)`) does the
//! optimizer run, its decision applied with online DDL. Rinse, repeat.
//!
//! ```sh
//! cargo run --release --example alerter_loop
//! ```

use cdpd::engine::{default_threads, Database, IndexSpec};
use cdpd::replay::drive;
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::{generate, QueryMix, WorkloadSpec};
use cdpd::{AdvisorOptions, OnlineAdvisor, OnlineOptions};
use cdpd_testkit::Prng;

const ROWS: i64 = 30_000;
const CHECK_EVERY: usize = 200;

fn main() -> cdpd::types::Result<()> {
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
    let mut rng = Prng::seed_from_u64(23);
    for _ in 0..ROWS {
        let row: Vec<Value> = (0..4)
            .map(|_| Value::Int(rng.gen_range(0..domain)))
            .collect();
        db.insert("t", &row)?;
    }
    db.analyze("t")?;
    // Start with a design tuned for the morning workload.
    db.create_index(&IndexSpec::new("t", &["a"]))?;
    println!("initial design: I(a)\n");

    // The day's workload drifts: a-heavy, then c-heavy, then b-heavy.
    let spec = WorkloadSpec::new(
        "t",
        domain,
        400,
        vec![
            QueryMix::new("morning", &[("a", 80), ("b", 20)])?,
            QueryMix::new("midday", &[("c", 80), ("d", 20)])?,
            QueryMix::new("evening", &[("b", 80), ("a", 20)])?,
        ],
    )?;
    let day = generate(&spec, 99);

    let candidates: Vec<IndexSpec> = ["a", "b", "c", "d"]
        .iter()
        .map(|c| IndexSpec::new("t", &[*c]))
        .collect();
    let mut session = OnlineAdvisor::new(
        &db,
        "t",
        OnlineOptions {
            advisor: AdvisorOptions {
                k: None,
                window_len: CHECK_EVERY,
                structures: Some(candidates),
                max_structures_per_config: Some(1),
                ..Default::default()
            },
            resolve_threshold: Some(0.5),
            ..Default::default()
        },
    )?;
    drive(&db, &day, &mut session, default_threads())?;

    for d in session.decisions() {
        println!(
            "window {} (statements {:>4}..{:>4}): live design {:>4.0}% worse than achievable, \
             resolved {:<5} changed {:<5} -> [{}]",
            d.window,
            d.window * CHECK_EVERY,
            (d.window + 1) * CHECK_EVERY,
            d.degradation * 100.0,
            d.resolved,
            d.changed,
            d.specs
                .iter()
                .map(IndexSpec::display_short)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!(
        "\nday finished: {} statements, {} of {} windows re-solved (the first always is)",
        day.len(),
        session.resolves(),
        session.decisions().len()
    );
    println!(
        "final design: [{}]",
        db.index_specs("t")?
            .iter()
            .map(IndexSpec::display_short)
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok(())
}
