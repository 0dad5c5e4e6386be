//! Definition 1 covers "queries *and updates*": these tests exercise
//! the advisor on workloads with writes, where indexes are no longer
//! free — every index pays per-row maintenance during update-heavy
//! phases, so a good dynamic design sheds hot-column indexes before an
//! ETL window and rebuilds them afterwards.

mod common;

use cdpd::engine::IndexSpec;
use cdpd::replay::replay_recommendation;
use cdpd::workload::{generate, QueryMix, Template, Trace, WorkloadSpec};
use cdpd::{Advisor, AdvisorOptions, Algorithm};
use common::{paper_database, ROWS_PER_VALUE};

const ROWS: i64 = 15_000;
const WINDOW: usize = 100;

/// Three phases: read b-heavy, ETL (updates writing b, predicated on
/// a), read b-heavy again.
fn etl_workload() -> Trace {
    let domain = ROWS / ROWS_PER_VALUE;
    let reads = QueryMix::new("reads", &[("b", 80), ("a", 20)]).expect("weights");
    let etl = QueryMix::with_templates(
        "etl",
        vec![
            (
                Template::Update {
                    set_column: "b".into(),
                    where_column: "a".into(),
                },
                85,
            ),
            (Template::Point { column: "a".into() }, 15),
        ],
    )
    .expect("weights");
    let mut windows = Vec::new();
    for _ in 0..6 {
        windows.push(reads.clone());
    }
    for _ in 0..6 {
        windows.push(etl.clone());
    }
    for _ in 0..6 {
        windows.push(reads.clone());
    }
    let spec = WorkloadSpec::new("t", domain, WINDOW, windows).expect("valid spec");
    generate(&spec, 77)
}

fn structures() -> Vec<IndexSpec> {
    vec![IndexSpec::new("t", &["a"]), IndexSpec::new("t", &["b"])]
}

fn options(k: Option<usize>) -> AdvisorOptions {
    AdvisorOptions {
        k,
        window_len: WINDOW,
        structures: Some(structures()),
        max_structures_per_config: Some(1),
        end_empty: true,
        algorithm: Algorithm::KAware,
        ..Default::default()
    }
}

#[test]
fn advisor_sheds_hot_index_during_etl() {
    let db = paper_database(ROWS, 31);
    let trace = etl_workload();
    assert!(trace.write_fraction() > 0.2, "workload has real writes");

    let rec = Advisor::new(&db, "t")
        .options(options(Some(2)))
        .recommend(&trace)
        .expect("advisor runs");

    let label = |w: usize| -> String {
        let specs = rec.specs_at(w);
        specs
            .first()
            .map(|s| s.display_short())
            .unwrap_or_else(|| "-".into())
    };

    // Read phases want I(b) (the queried column).
    assert_eq!(label(0), "I(b)", "{}", rec.describe());
    assert_eq!(label(17), "I(b)", "{}", rec.describe());
    // The ETL phase must NOT hold I(b): every update would pay double
    // maintenance on it. I(a) (locate column, never written) is ideal.
    for w in 6..12 {
        assert_ne!(label(w), "I(b)", "window {w}: {}", rec.describe());
    }
    assert_eq!(label(8), "I(a)", "{}", rec.describe());
    assert_eq!(rec.schedule.changes, 2);
}

#[test]
fn maintenance_makes_write_phase_config_matter_in_replay() {
    // Replay the ETL trace twice on identically loaded databases: once
    // under the advisor's schedule, once pinned to I(b) throughout.
    // Holding I(b) through the write phase must measurably lose.
    let trace = etl_workload();
    let rec = {
        let db = paper_database(ROWS, 32);
        Advisor::new(&db, "t")
            .options(options(Some(2)))
            .recommend(&trace)
            .expect("advisor runs")
    };

    let db_good = paper_database(ROWS, 33);
    let good = replay_recommendation(&db_good, &trace, &rec).expect("replay");

    let db_bad = paper_database(ROWS, 33);
    let stages = trace.len().div_ceil(WINDOW);
    let pinned: Vec<Vec<IndexSpec>> = vec![vec![IndexSpec::new("t", &["b"])]; stages];
    let bad = cdpd::replay::replay(
        &db_bad,
        &trace,
        WINDOW,
        &pinned,
        Some(&[]),
        Default::default(),
    )
    .expect("replay");

    assert!(
        good.total_io() < bad.total_io(),
        "advisor schedule {} I/Os must beat pinned I(b) {} I/Os",
        good.total_io(),
        bad.total_io()
    );
    // Same trace on identically seeded databases ⇒ same affected rows.
    assert_eq!(good.row_checksum, bad.row_checksum);
}

#[test]
fn write_trace_roundtrips_through_sql_text() {
    let trace = etl_workload();
    let dir = std::env::temp_dir().join("cdpd_write_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("etl.sql");
    trace.save(&path).unwrap();
    let loaded = Trace::load(&path).unwrap();
    assert_eq!(trace, loaded);
    assert!(loaded.write_fraction() > 0.2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn unconstrained_design_reacts_to_writes_too() {
    let db = paper_database(ROWS, 34);
    let trace = etl_workload();
    let rec = Advisor::new(&db, "t")
        .options(options(None))
        .recommend(&trace)
        .expect("advisor runs");
    // Even unconstrained, no window in the ETL phase should keep I(b).
    for w in 6..12 {
        let specs = rec.specs_at(w);
        assert!(
            !specs.iter().any(|s| s.display_short() == "I(b)"),
            "window {w}: {}",
            rec.describe()
        );
    }
}
