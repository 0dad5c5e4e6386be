//! The anchor invariant of the parallel read path: executing a window
//! across any number of worker threads is **bit-identical** to the
//! serial replay — same per-statement [`cdpd::engine::QueryResult`]s,
//! same per-window EXEC/TRANS I/O sums, same online decisions and
//! final schedule, and exact reconciliation between the summed
//! per-statement ledgers and the pager's global counters.
//!
//! The argument being tested (DESIGN.md §13): reads commute — their
//! only side effects are I/O-counter increments, measured per-thread
//! via `ThreadIoScope` — and writes run serially at their original
//! sequence positions, so any interleaving of a read run produces the
//! same results and the same *sums*. Thread counts {1, 2, 8} are
//! crossed with multiple trace seeds; the CI stress gate loops this
//! binary across 8 seeds × {1, 2, 8} threads via `CDPD_SEED` /
//! `CDPD_THREADS`.

mod common;

use cdpd::engine::{Database, IndexSpec, QueryResult};
use cdpd::replay::{drive, replay, ReplayOptions, ReplayReport};
use cdpd::workload::{generate, paper, QueryMix, Template, Trace, WorkloadSpec};
use cdpd::{AdvisorOptions, Algorithm, OnlineAdvisor, OnlineOptions};
use cdpd_engine::parallel_map;
use cdpd_sql::Dml;
use common::{paper_database, paper_params, paper_structures, ROWS_PER_VALUE};

const ROWS: i64 = 8_000;
const WINDOW: usize = 50;
const THREADS: [usize; 3] = [1, 2, 8];

/// Seeds for the equivalence cross: `CDPD_SEED` (set by the CI stress
/// gate) narrows the run to one seed; the default covers three.
fn seeds() -> Vec<u64> {
    match std::env::var("CDPD_SEED") {
        Ok(s) => vec![s.parse().expect("CDPD_SEED must be an integer")],
        Err(_) => vec![7, 41, 1234],
    }
}

/// Thread counts to cross: honours `CDPD_THREADS` when the stress gate
/// pins one, else {1, 2, 8}.
fn thread_counts() -> Vec<usize> {
    match std::env::var("CDPD_THREADS") {
        Ok(s) => vec![s.parse().expect("CDPD_THREADS must be an integer")],
        Err(_) => THREADS.to_vec(),
    }
}

/// A six-window trace with real writes: two read-heavy phases around
/// an update phase, so windows contain maximal select runs *and*
/// serial sequence points.
fn mixed_trace(seed: u64) -> Trace {
    let domain = ROWS / ROWS_PER_VALUE;
    let reads = QueryMix::new("reads", &[("a", 50), ("b", 30), ("c", 20)]).expect("weights");
    let etl = QueryMix::with_templates(
        "etl",
        vec![
            (
                Template::Update {
                    set_column: "b".into(),
                    where_column: "a".into(),
                },
                40,
            ),
            (Template::Point { column: "a".into() }, 40),
            (Template::Point { column: "b".into() }, 20),
        ],
    )
    .expect("weights");
    let windows = vec![
        reads.clone(),
        reads.clone(),
        etl.clone(),
        etl,
        reads.clone(),
        reads,
    ];
    let spec = WorkloadSpec::new("t", domain, WINDOW, windows).expect("valid spec");
    generate(&spec, seed)
}

/// A fixed six-stage schedule exercising no-op, single, and
/// multi-index transitions (the latter drive concurrent builds).
fn fixed_schedule() -> Vec<Vec<IndexSpec>> {
    let a = IndexSpec::new("t", &["a"]);
    let b = IndexSpec::new("t", &["b"]);
    let ab = IndexSpec::new("t", &["a", "b"]);
    let cd = IndexSpec::new("t", &["c", "d"]);
    vec![
        vec![],
        vec![a.clone(), ab.clone()],
        vec![a.clone()],
        vec![a, b.clone(), cd],
        vec![b.clone()],
        vec![b],
    ]
}

#[track_caller]
fn assert_same_result(serial: &QueryResult, parallel: &QueryResult, what: &str) {
    assert_eq!(serial.count, parallel.count, "{what}: count");
    assert_eq!(serial.rows, parallel.rows, "{what}: rows");
    assert_eq!(serial.aggregate, parallel.aggregate, "{what}: aggregate");
    assert_eq!(serial.io, parallel.io, "{what}: io");
    assert_eq!(serial.est_cost, parallel.est_cost, "{what}: est_cost");
    assert_eq!(serial.plan, parallel.plan, "{what}: plan");
}

#[track_caller]
fn assert_same_report(serial: &ReplayReport, parallel: &ReplayReport, what: &str) {
    assert_eq!(
        serial.stages.len(),
        parallel.stages.len(),
        "{what}: stage count"
    );
    for (i, (s, p)) in serial.stages.iter().zip(&parallel.stages).enumerate() {
        assert_eq!(s.trans_io, p.trans_io, "{what}: stage {i} trans_io");
        assert_eq!(s.exec_io, p.exec_io, "{what}: stage {i} exec_io");
        assert_eq!(s.created, p.created, "{what}: stage {i} created");
        assert_eq!(s.dropped, p.dropped, "{what}: stage {i} dropped");
    }
    assert_eq!(
        serial.final_trans_io, parallel.final_trans_io,
        "{what}: final_trans_io"
    );
    assert_eq!(serial.statements, parallel.statements, "{what}: statements");
    assert_eq!(
        serial.row_checksum, parallel.row_checksum,
        "{what}: row_checksum"
    );
}

/// Per-statement equivalence: fanning a batch of reads across worker
/// threads reproduces every field of every serial `QueryResult`,
/// including the measured per-statement I/O.
#[test]
fn parallel_reads_reproduce_serial_query_results() {
    for seed in seeds() {
        let db = paper_database(ROWS, seed);
        db.apply_configuration(
            "t",
            &[
                IndexSpec::new("t", &["a"]),
                IndexSpec::new("t", &["a", "b"]),
            ],
        )
        .expect("indexes build");
        let trace = mixed_trace(seed);
        let selects: Vec<&cdpd_sql::SelectStmt> = trace
            .statements()
            .iter()
            .filter_map(|s| match s {
                Dml::Select(q) => Some(q),
                _ => None,
            })
            .take(200)
            .collect();
        assert!(selects.len() >= 100, "trace has a real read run");
        let serial: Vec<QueryResult> = selects
            .iter()
            .map(|q| db.query(q).expect("query runs"))
            .collect();
        for threads in thread_counts() {
            let shared: &Database = &db;
            let parallel = parallel_map(selects.len(), threads, |i| shared.query(selects[i]))
                .expect("parallel batch runs");
            for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                assert_same_result(s, p, &format!("seed {seed} threads {threads} stmt {i}"));
            }
        }
    }
}

/// Whole-replay equivalence over a trace with writes: per-window
/// EXEC/TRANS sums, created/dropped orders, row checksum, and the
/// ledger reconciliation (summed per-statement I/O == pager counter
/// delta) all match the serial run at every thread count.
#[test]
fn parallel_replay_is_bit_identical_to_serial() {
    for seed in seeds() {
        let trace = mixed_trace(seed);
        let schedule = fixed_schedule();
        let run = |threads: usize| -> (ReplayReport, u64) {
            let db = paper_database(ROWS, seed);
            let before = db.pager().stats();
            let options = ReplayOptions {
                threads,
                ..Default::default()
            };
            let report =
                replay(&db, &trace, WINDOW, &schedule, Some(&[]), options).expect("replay runs");
            let ledger = db.pager().stats().delta(before).total();
            (report, ledger)
        };
        let (serial, serial_ledger) = run(1);
        assert_eq!(
            serial.total_io(),
            serial_ledger,
            "seed {seed}: serial replay accounts every page access"
        );
        for threads in thread_counts() {
            let (parallel, ledger) = run(threads);
            assert_same_report(
                &serial,
                &parallel,
                &format!("seed {seed} threads {threads}"),
            );
            assert_eq!(
                parallel.total_io(),
                ledger,
                "seed {seed} threads {threads}: parallel replay reconciles with the pager ledger"
            );
        }
    }
}

/// Online-loop equivalence: the advisor sees identical windows and
/// emits identical decisions (and the driver identical reports) at
/// every thread count — the schedule is discovered, not precomputed,
/// so this pins the whole ingest → re-solve → DDL loop.
#[test]
fn parallel_drive_reproduces_decisions_and_schedule() {
    for seed in seeds() {
        let params = paper_params(ROWS, WINDOW);
        let spec = match seed % 3 {
            0 => paper::w1_with(&params),
            1 => paper::w2_with(&params),
            _ => paper::w3_with(&params),
        };
        let trace = generate(&spec, seed);
        let options = OnlineOptions {
            advisor: AdvisorOptions {
                k: Some(4),
                window_len: WINDOW,
                structures: Some(paper_structures()),
                algorithm: Algorithm::KAware,
                ..Default::default()
            },
            ..OnlineOptions::default()
        };
        let run = |threads: usize| {
            let db = paper_database(ROWS, seed);
            let mut advisor = OnlineAdvisor::new(&db, "t", options.clone()).expect("session opens");
            let report = drive(&db, &trace, &mut advisor, threads).expect("drive runs");
            let decisions: Vec<(usize, Vec<IndexSpec>, bool)> = advisor
                .decisions()
                .iter()
                .map(|d| (d.window, d.specs.clone(), d.changed))
                .collect();
            (report, decisions, advisor.live_specs())
        };
        let (serial, serial_decisions, serial_live) = run(1);
        for threads in thread_counts() {
            let (parallel, decisions, live) = run(threads);
            assert_same_report(
                &serial,
                &parallel,
                &format!("drive seed {seed} threads {threads}"),
            );
            assert_eq!(
                serial_decisions, decisions,
                "drive seed {seed} threads {threads}: decision log"
            );
            assert_eq!(
                serial_live, live,
                "drive seed {seed} threads {threads}: live design"
            );
        }
    }
}

/// Concurrent index builds during TRANS: a multi-index transition
/// built with 8 workers reports the same I/O and created order as the
/// serial build, and both databases answer queries identically.
#[test]
fn concurrent_index_builds_match_serial() {
    let target = [
        IndexSpec::new("t", &["a"]),
        IndexSpec::new("t", &["b"]),
        IndexSpec::new("t", &["a", "b"]),
        IndexSpec::new("t", &["c", "d"]),
    ];
    let serial_db = paper_database(ROWS, 7);
    let serial = serial_db
        .apply_configuration_with("t", &target, 1)
        .expect("serial build");
    let parallel_db = paper_database(ROWS, 7);
    let parallel = parallel_db
        .apply_configuration_with("t", &target, 8)
        .expect("parallel build");
    assert_eq!(serial.io, parallel.io, "build I/O is deterministic");
    assert_eq!(serial.created, parallel.created);
    assert_eq!(serial.dropped, parallel.dropped);
    for column in ["a", "b", "c", "d"] {
        let q = cdpd_sql::SelectStmt::point("t", column, 7);
        let s = serial_db.query(&q).expect("query runs");
        let p = parallel_db.query(&q).expect("query runs");
        assert_same_result(&s, &p, &format!("post-build query on {column}"));
    }
    assert_eq!(
        serial_db.page_count(),
        parallel_db.page_count(),
        "same number of pages allocated either way"
    );
}

/// The free-list claim in the `Database` docs, at replay scale: 100
/// design transitions over a live trace leave the page footprint
/// bounded (drops return pages, builds reuse them), and an immediate
/// DROP + CREATE cycle allocates no new pages at all.
#[test]
fn hundred_transition_replay_keeps_footprint_bounded() {
    let db = paper_database(ROWS, 7);
    let a = IndexSpec::new("t", &["a"]);
    let ab = IndexSpec::new("t", &["a", "b"]);
    let cd = IndexSpec::new("t", &["c", "d"]);

    // DROP INDEX then CREATE INDEX reuses the freed pages exactly.
    db.create_index(&a).expect("build");
    let peak = db.page_count();
    db.drop_index(&a).expect("drop");
    assert!(db.pager().free_count() > 0, "drop free-lists the tree");
    db.create_index(&a).expect("rebuild");
    assert_eq!(
        db.page_count(),
        peak,
        "rebuild reuses the dropped tree's pages"
    );

    // 100 transitions cycling three configurations, with reads between
    // them so recycled pages are continuously exercised.
    let configs: [Vec<IndexSpec>; 3] = [
        vec![a.clone()],
        vec![ab.clone()],
        vec![a.clone(), cd.clone()],
    ];
    let mut high_water = db.page_count();
    for i in 0..100 {
        db.apply_configuration("t", &configs[i % 3]).expect("morph");
        high_water = high_water.max(db.page_count());
        let q = cdpd_sql::SelectStmt::point("t", "a", (i as i64 * 37) % (ROWS / ROWS_PER_VALUE));
        db.query_count(&q).expect("query runs on recycled pages");
    }
    // The footprint may exceed the single-index peak only by the width
    // of the largest configuration, never grow linearly in transitions.
    assert!(
        db.page_count() <= peak * 3,
        "footprint bounded: peak {} vs final {}",
        peak,
        db.page_count()
    );
    assert_eq!(high_water, db.page_count().max(high_water));
}
