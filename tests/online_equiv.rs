//! The anchor invariant of the online pipeline: with an unbounded
//! window, streaming a trace through [`OnlineAdvisor`] and calling
//! [`OnlineAdvisor::finish`] reproduces the batch
//! [`Advisor::recommend`] answer **bit-identically** — same schedule
//! (configs, costs, change count), same structure vocabulary, same
//! problem boundary conditions.
//!
//! The property is checked over all three paper workloads (W1 steady,
//! W2 drifting, W3 out-of-phase) across random generator seeds and
//! change budgets, and once more with the explicit §6.1 design space,
//! a space bound, and `end_empty` — the paper's experimental regime.
//! A final test runs the [`cdpd::replay::drive`] loop end to end:
//! statements executed against the real engine, decisions applied as
//! DDL, statistics refreshed between windows.

mod common;

use cdpd::core::Schedule;
use cdpd::engine::{default_threads, Database};
use cdpd::workload::{generate, paper, Trace};
use cdpd::{Advisor, AdvisorOptions, OnlineAdvisor, OnlineOptions, Recommendation};
use cdpd_testkit::prop::Config as PropConfig;
use cdpd_testkit::props;
use common::{paper_database, paper_params, paper_structures};
use std::sync::OnceLock;

const ROWS: i64 = 10_000;
const WINDOW: usize = 50;

fn db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| paper_database(ROWS, 7))
}

fn spec_for(which: u64) -> cdpd::workload::WorkloadSpec {
    let params = paper_params(ROWS, WINDOW);
    match which % 3 {
        0 => paper::w1_with(&params),
        1 => paper::w2_with(&params),
        _ => paper::w3_with(&params),
    }
}

fn online_finish(db: &Database, trace: &Trace, options: &AdvisorOptions) -> Recommendation {
    let mut online = OnlineAdvisor::new(
        db,
        "t",
        OnlineOptions {
            advisor: options.clone(),
            ..OnlineOptions::default()
        },
    )
    .expect("session opens");
    online
        .ingest_all(db, trace.statements())
        .expect("trace ingests");
    online.finish(db).expect("finish recommends")
}

#[track_caller]
fn assert_bit_identical(batch: &Recommendation, online: &Recommendation) {
    let b: &Schedule = &batch.schedule;
    let o: &Schedule = &online.schedule;
    assert_eq!(b, o, "schedules (configs, costs, changes) must match");
    assert_eq!(
        batch.structures, online.structures,
        "structure vocabularies must match bit for bit"
    );
    assert_eq!(batch.window_len, online.window_len);
    assert_eq!(batch.problem.initial, online.problem.initial);
    assert_eq!(batch.problem.final_config, online.problem.final_config);
    assert_eq!(batch.problem.space_bound, online.problem.space_bound);
    assert_eq!(
        batch.problem.count_initial_change,
        online.problem.count_initial_change
    );
}

props! {
    config: PropConfig::with_cases(6);

    fn online_finish_matches_batch_bit_identically(
        seed in 0u64..1_000_000,
        which in 0u64..3,
        k in 0u64..4
    ) {
        let db = db();
        let trace = generate(&spec_for(*which), *seed);
        let options = AdvisorOptions {
            k: (*k > 0).then_some(*k as usize),
            window_len: WINDOW,
            max_structures_per_config: Some(1),
            ..AdvisorOptions::default()
        };
        let batch = Advisor::new(db, "t")
            .options(options.clone())
            .recommend(&trace)
            .expect("batch advisor runs");
        let online = online_finish(db, &trace, &options);
        assert_bit_identical(&batch, &online);
    }
}

/// The paper's experimental regime — explicit §6.1 design space, space
/// bound, final configuration pinned empty, k-aware solver — streamed
/// and batch answers still agree bit for bit.
#[test]
fn equivalence_holds_in_the_paper_regime() {
    let db = db();
    let trace = generate(&spec_for(0), 42);
    let options = AdvisorOptions {
        k: Some(3),
        window_len: WINDOW,
        structures: Some(paper_structures()),
        max_structures_per_config: Some(1),
        space_bound_pages: Some(1 << 20),
        end_empty: true,
        algorithm: cdpd::Algorithm::KAware,
        ..AdvisorOptions::default()
    };
    let batch = Advisor::new(db, "t")
        .options(options.clone())
        .recommend(&trace)
        .expect("batch advisor runs");
    let online = online_finish(db, &trace, &options);
    assert_bit_identical(&batch, &online);
}

/// End-to-end online loop: `drive` executes every statement against
/// the engine and feeds it to the advisor's step, which refreshes
/// statistics at each window boundary and applies emitted decisions as
/// real DDL; the advisor's final hindsight recommendation still matches
/// the batch answer over the same trace.
#[test]
fn drive_executes_decisions_and_finish_still_matches_batch() {
    let db = paper_database(ROWS, 7);
    let trace = generate(&spec_for(1), 9);
    let options = AdvisorOptions {
        k: Some(4),
        window_len: WINDOW,
        max_structures_per_config: Some(1),
        ..AdvisorOptions::default()
    };
    let mut online = OnlineAdvisor::new(
        &db,
        "t",
        OnlineOptions {
            advisor: options.clone(),
            ..OnlineOptions::default()
        },
    )
    .expect("session opens");

    let report =
        cdpd::replay::drive(&db, &trace, &mut online, default_threads()).expect("drive runs");
    let windows = trace.len().div_ceil(WINDOW);
    assert_eq!(report.stages.len(), windows);
    assert_eq!(report.statements, trace.len() as u64);
    assert_eq!(online.decisions().len(), windows);
    assert!(report.exec_io() > 0);

    // The read-only trace left the stats untouched, so hindsight
    // equivalence survives the drive.
    let batch = Advisor::new(&db, "t")
        .options(options.clone())
        .recommend(&trace)
        .expect("batch advisor runs");
    let fin = online.finish(&db).expect("finish recommends");
    assert_bit_identical(&batch, &fin);

    // Every decision that reported a change was applied, the last
    // window's included: the database ends on the advisor's live design.
    let mut live = db.index_specs("t").expect("table exists");
    live.sort();
    let mut held = online.live_specs();
    held.sort();
    assert_eq!(live, held, "the live design is the advisor's");
}

/// `drive` rejects a trace aimed at a different table.
#[test]
fn drive_validates_the_table() {
    let db = paper_database(1_000, 3);
    let mut online = OnlineAdvisor::new(&db, "t", OnlineOptions::default()).expect("opens");
    let params = cdpd::workload::paper::PaperParams {
        table: "u".into(),
        domain: 100,
        window_len: WINDOW,
    };
    let wrong = generate(&paper::w1_with(&params), 1);
    assert!(cdpd::replay::drive(&db, &wrong, &mut online, default_threads()).is_err());
}
