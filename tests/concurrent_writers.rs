//! The serializability gate for the epoch-versioned catalog: racing
//! sessions — every public mutator takes `&self` — must behave like
//! *some* serial execution, and the I/O ledger must reconcile exactly
//! no matter how statements interleave.
//!
//! Three configurations, in increasing contention order:
//!
//! 1. **Disjoint tables** ([`retarget`]): N sessions drive N identical
//!    tables with the same statement mix. Here concurrency must be
//!    invisible — every per-statement [`QueryResult`] (count, rows,
//!    aggregate, measured I/O, estimated cost, plan), every session's
//!    `ThreadIoScope` delta, and the pager's total ledger delta are
//!    **bit-identical** to the serial run.
//! 2. **Shared table, commuting writes**: N sessions insert disjoint
//!    row sets into one table while a DDL session builds and drops
//!    indexes online against pinned snapshots. Inserts commute, so the
//!    final logical state (sorted rows, index set, per-value counts)
//!    must equal the serial replay's — and summed per-thread scopes
//!    must still equal the global pager delta exactly.
//! 3. **DML racing online builds**: writers update/delete/insert
//!    against the builds' pinned snapshot — two `create_index` calls,
//!    or one two-index design change sharing one log at one and two
//!    build threads; the delta catch-up must leave the installed trees
//!    answering exactly like indexes built from the quiesced heap.
//!
//! Seeds honour `CDPD_SEED` and session counts `CDPD_THREADS`, so the
//! CI stress gate can sweep 8 seeds × {1, 2, 8} sessions.

mod common;

use cdpd::engine::{Database, IndexSpec, QueryResult};
use cdpd::sql::SelectStmt;
use cdpd::storage::{IoStats, ThreadIoScope};
use cdpd::types::{ColumnDef, Schema, Value};
use cdpd::workload::{generate, retarget, QueryMix, Template, Trace, WorkloadSpec};
use cdpd_testkit::Prng;
use common::ROWS_PER_VALUE;
use std::sync::atomic::{AtomicBool, Ordering};

const ROWS: i64 = 2_000;
const DOMAIN: i64 = ROWS / ROWS_PER_VALUE;
const WINDOW: usize = 40;

/// Seeds for the cross: `CDPD_SEED` (set by the CI stress gate)
/// narrows the run to one seed; the default covers three.
fn seeds() -> Vec<u64> {
    match std::env::var("CDPD_SEED") {
        Ok(s) => vec![s.parse().expect("CDPD_SEED must be an integer")],
        Err(_) => vec![7, 41, 1234],
    }
}

/// Session counts to cross: honours `CDPD_THREADS` when the stress
/// gate pins one, else {1, 2, 8}.
fn session_counts() -> Vec<usize> {
    match std::env::var("CDPD_THREADS") {
        Ok(s) => vec![s.parse().expect("CDPD_THREADS must be an integer")],
        Err(_) => vec![1, 2, 8],
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::int("a"),
        ColumnDef::int("b"),
        ColumnDef::int("c"),
        ColumnDef::int("d"),
    ])
}

fn table_name(session: usize) -> String {
    format!("s{session}")
}

/// One database holding `tables` *identically loaded* copies of the
/// paper table (same seed → same rows), each analyzed.
fn disjoint_db(seed: u64, tables: usize) -> Database {
    let db = Database::new();
    for s in 0..tables {
        let name = table_name(s);
        db.create_table(&name, schema()).expect("fresh table");
        let mut rng = Prng::seed_from_u64(seed);
        for _ in 0..ROWS {
            let row: Vec<Value> = (0..4)
                .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
                .collect();
            db.insert(&name, &row).expect("row matches schema");
        }
        db.analyze(&name).expect("table exists");
    }
    db
}

/// A four-window trace with real writes (point reads around an update
/// phase), targeted at table "t"; callers [`retarget`] it per session.
fn mixed_trace(seed: u64) -> Trace {
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
    let windows = vec![reads.clone(), etl.clone(), etl, reads];
    let spec = WorkloadSpec::new("t", DOMAIN, WINDOW, windows).expect("valid spec");
    generate(&spec, seed)
}

#[track_caller]
fn assert_same_result(serial: &QueryResult, concurrent: &QueryResult, what: &str) {
    assert_eq!(serial.count, concurrent.count, "{what}: count");
    assert_eq!(serial.rows, concurrent.rows, "{what}: rows");
    assert_eq!(serial.aggregate, concurrent.aggregate, "{what}: aggregate");
    assert_eq!(serial.io, concurrent.io, "{what}: io");
    assert_eq!(serial.est_cost, concurrent.est_cost, "{what}: est_cost");
    assert_eq!(serial.plan, concurrent.plan, "{what}: plan");
}

fn sum_io(deltas: &[IoStats]) -> IoStats {
    let mut total = IoStats::default();
    for &d in deltas {
        total += d;
    }
    total
}

/// Execute each session's trace — concurrently on scoped threads or
/// serially in session order — returning per-session result logs and
/// per-session `ThreadIoScope` deltas.
fn run_one(db: &Database, trace: &Trace) -> (Vec<QueryResult>, IoStats) {
    let scope = ThreadIoScope::start();
    let results = trace
        .statements()
        .iter()
        .map(|stmt| db.execute_dml(stmt).expect("statement runs"))
        .collect();
    (results, scope.delta())
}

fn run_sessions(
    db: &Database,
    traces: &[Trace],
    concurrent: bool,
) -> (Vec<Vec<QueryResult>>, Vec<IoStats>) {
    let per_session: Vec<(Vec<QueryResult>, IoStats)> = if concurrent {
        std::thread::scope(|s| {
            let handles: Vec<_> = traces
                .iter()
                .map(|t| s.spawn(move || run_one(db, t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect()
        })
    } else {
        traces.iter().map(|t| run_one(db, t)).collect()
    };
    per_session.into_iter().unzip()
}

/// Configuration 1: disjoint tables. Concurrent execution is
/// bit-identical to serial — per statement, per session, and in the
/// pager's total ledger.
#[test]
fn disjoint_sessions_are_bit_identical_to_serial() {
    for seed in seeds() {
        for sessions in session_counts() {
            let traces: Vec<Trace> = (0..sessions)
                .map(|s| retarget(&mixed_trace(seed), &table_name(s)))
                .collect();
            let prepare = || {
                let db = disjoint_db(seed, sessions);
                for s in 0..sessions {
                    let t = table_name(s);
                    db.apply_configuration(
                        &t,
                        &[IndexSpec::new(&t, &["a"]), IndexSpec::new(&t, &["a", "b"])],
                    )
                    .expect("indexes build");
                }
                db
            };
            let what = format!("seed {seed} sessions {sessions}");

            let serial_db = prepare();
            let before = serial_db.pager().stats();
            let (serial_results, serial_scopes) = run_sessions(&serial_db, &traces, false);
            let serial_ledger = serial_db.pager().stats().delta(before);

            let conc_db = prepare();
            let before = conc_db.pager().stats();
            let (conc_results, conc_scopes) = run_sessions(&conc_db, &traces, true);
            let conc_ledger = conc_db.pager().stats().delta(before);

            for (s, (sr, cr)) in serial_results.iter().zip(&conc_results).enumerate() {
                assert_eq!(sr.len(), cr.len(), "{what}: session {s} statement count");
                for (i, (a, b)) in sr.iter().zip(cr).enumerate() {
                    assert_same_result(a, b, &format!("{what} session {s} stmt {i}"));
                }
            }
            // Each session's thread-local ledger is interleaving-
            // independent, and the per-statement sums it rolls up are
            // exactly what the sessions were told via `QueryResult.io`.
            assert_eq!(serial_scopes, conc_scopes, "{what}: per-session scopes");
            for (s, (scope, results)) in conc_scopes.iter().zip(&conc_results).enumerate() {
                let stated = sum_io(&results.iter().map(|r| r.io).collect::<Vec<_>>());
                assert_eq!(
                    *scope, stated,
                    "{what}: session {s} scope vs per-statement sums"
                );
            }
            // And the global ledger is exactly the sum of the session
            // ledgers — nothing double-counted, nothing lost.
            assert_eq!(
                sum_io(&conc_scopes),
                conc_ledger,
                "{what}: summed session scopes vs pager delta"
            );
            assert_eq!(serial_ledger, conc_ledger, "{what}: total ledger");
        }
    }
}

// --- Configuration 2: shared table, commuting writes + online DDL ----

const INSERTS_PER_SESSION: usize = 250;

/// Session `s`'s `i`-th insert: pseudorandom point columns plus a
/// globally unique tag in `d`, so the row sets are disjoint and the
/// full workload commutes.
fn insert_row(seed: u64, session: usize, i: usize) -> Vec<Value> {
    let mut rng =
        Prng::seed_from_u64(seed ^ (session as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64);
    vec![
        Value::Int(rng.gen_range(0..DOMAIN)),
        Value::Int(rng.gen_range(0..DOMAIN)),
        Value::Int(rng.gen_range(0..DOMAIN)),
        Value::Int((session * INSERTS_PER_SESSION + i) as i64 + DOMAIN),
    ]
}

/// The DDL session's script: online builds and drops that overlap the
/// insert storm, ending at `{I(a), I(a,b)}`.
fn ddl_script(db: &Database) {
    let a = IndexSpec::new("t", &["a"]);
    let cd = IndexSpec::new("t", &["c", "d"]);
    let ab = IndexSpec::new("t", &["a", "b"]);
    db.create_index(&a).expect("build I(a)");
    db.create_index(&cd).expect("build I(c,d)");
    db.drop_index(&cd).expect("drop I(c,d)");
    db.create_index(&ab).expect("build I(a,b)");
}

fn sorted_rows(db: &Database) -> Vec<Vec<Value>> {
    let cdpd::sql::Statement::Select(sel) =
        cdpd::sql::parse("SELECT * FROM t").expect("digest query parses")
    else {
        unreachable!()
    };
    let mut rows = db
        .query(&sel)
        .expect("digest query runs")
        .rows
        .unwrap_or_default();
    rows.sort();
    rows
}

/// Per-value counts on a column via point queries — which, with the
/// final index set installed, go through the online-built trees; wrong
/// or missing catch-up deltas surface as diverging counts.
fn point_counts(db: &Database, column: &str) -> Vec<u64> {
    (0..DOMAIN)
        .map(|v| {
            db.query_count(&SelectStmt::point("t", column, v))
                .expect("point query runs")
                .count
        })
        .collect()
}

/// Configuration 2: commuting inserts under racing online DDL
/// serialize — final logical state equals the serial replay's, and the
/// ledger reconciles exactly across every thread.
#[test]
fn commuting_inserts_with_racing_ddl_serialize() {
    for seed in seeds() {
        for sessions in session_counts() {
            let what = format!("seed {seed} sessions {sessions}");

            // Concurrent run: N insert sessions + 1 DDL session.
            let db = common::paper_database(ROWS, seed);
            let before = db.pager().stats();
            let scopes: Vec<IoStats> = std::thread::scope(|s| {
                let mut handles: Vec<_> = (0..sessions)
                    .map(|sid| {
                        let db = &db;
                        s.spawn(move || {
                            let scope = ThreadIoScope::start();
                            for i in 0..INSERTS_PER_SESSION {
                                db.insert("t", &insert_row(seed, sid, i)).expect("insert");
                                if i % 16 == 0 {
                                    // Interleaved reads: must always
                                    // see a consistent (locked) table.
                                    db.query_count(&SelectStmt::point("t", "a", i as i64 % DOMAIN))
                                        .expect("racing read runs");
                                }
                            }
                            scope.delta()
                        })
                    })
                    .collect();
                handles.push(s.spawn(|| {
                    let scope = ThreadIoScope::start();
                    ddl_script(&db);
                    scope.delta()
                }));
                handles
                    .into_iter()
                    .map(|h| h.join().expect("session thread"))
                    .collect()
            });
            let ledger = db.pager().stats().delta(before);
            assert_eq!(
                sum_io(&scopes),
                ledger,
                "{what}: summed per-thread scopes vs pager delta"
            );

            // Serial reference: same inserts session-major, then the
            // same DDL, on a fresh identically-seeded database.
            let serial = common::paper_database(ROWS, seed);
            for sid in 0..sessions {
                for i in 0..INSERTS_PER_SESSION {
                    serial
                        .insert("t", &insert_row(seed, sid, i))
                        .expect("insert");
                }
            }
            ddl_script(&serial);

            assert_eq!(
                db.index_specs("t").expect("table exists"),
                serial.index_specs("t").expect("table exists"),
                "{what}: final index set"
            );
            let rows = sorted_rows(&db);
            assert_eq!(rows, sorted_rows(&serial), "{what}: final row multiset");

            // Index integrity: point counts through the online-built
            // trees equal the serial build's AND the ground truth
            // recomputed from the materialized rows.
            for column in ["a", "b"] {
                let col = match column {
                    "a" => 0,
                    _ => 1,
                };
                let concurrent_counts = point_counts(&db, column);
                assert_eq!(
                    concurrent_counts,
                    point_counts(&serial, column),
                    "{what}: per-value counts on {column}"
                );
                let mut truth = vec![0u64; DOMAIN as usize];
                for row in &rows {
                    let Value::Int(v) = row[col] else {
                        panic!("int column")
                    };
                    truth[v as usize] += 1;
                }
                assert_eq!(
                    concurrent_counts, truth,
                    "{what}: counts on {column} vs materialized ground truth"
                );
            }
            // The point path actually exercises the installed tree.
            let probe = db
                .query_count(&SelectStmt::point("t", "a", 3))
                .expect("probe runs");
            assert!(
                probe.plan.contains("Index"),
                "{what}: point probe must use the online-built index, got {}",
                probe.plan
            );
        }
    }
}

// --- Configuration 3: DML racing one online build --------------------

/// Writers mutate a fresh `t` for the whole duration of `build`, which
/// installs I(a) and I(c,d) online; afterwards the installed trees
/// (base scan + delta catch-up) must answer exactly like trees rebuilt
/// from the quiesced heap.
fn race_builds_against_dml(seed: u64, what: &str, build: impl Fn(&Database)) {
    let db = common::paper_database(ROWS, seed);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..2u64 {
            let db = &db;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = Prng::seed_from_u64(seed ^ (0xDEADu64 << w));
                while !stop.load(Ordering::Relaxed) {
                    let v = rng.gen_range(0..DOMAIN);
                    match rng.gen_range(0..4i64) {
                        0 => {
                            db.execute_sql(&format!(
                                "UPDATE t SET c = {} WHERE a = {v}",
                                rng.gen_range(0..DOMAIN)
                            ))
                            .expect("racing update");
                        }
                        1 => {
                            db.execute_sql(&format!("DELETE FROM t WHERE b = {v} AND d = {v}"))
                                .expect("racing delete");
                        }
                        _ => {
                            let row: Vec<Value> = (0..4)
                                .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
                                .collect();
                            db.insert("t", &row).expect("racing insert");
                        }
                    }
                }
            });
        }
        // Builds race the writers: their base scans read a pinned
        // snapshot, then catch up from the delta logs at install.
        build(&db);
        stop.store(true, Ordering::Relaxed);
    });

    // Quiesced: compare the online-built trees' answers against a
    // drop + rebuild from the now-static heap.
    let online_a = point_counts(&db, "a");
    let online_c = point_counts(&db, "c");
    let rows = sorted_rows(&db);
    db.drop_index(&IndexSpec::new("t", &["a"])).expect("drop");
    db.drop_index(&IndexSpec::new("t", &["c", "d"]))
        .expect("drop");
    db.create_index(&IndexSpec::new("t", &["a"]))
        .expect("quiesced rebuild");
    db.create_index(&IndexSpec::new("t", &["c", "d"]))
        .expect("quiesced rebuild");
    assert_eq!(
        online_a,
        point_counts(&db, "a"),
        "seed {seed}, {what}: online-built I(a) diverges from quiesced rebuild"
    );
    assert_eq!(
        online_c,
        point_counts(&db, "c"),
        "seed {seed}, {what}: online-built I(c,d) diverges from quiesced rebuild"
    );
    assert_eq!(
        rows,
        sorted_rows(&db),
        "seed {seed}, {what}: rebuild must not disturb the heap"
    );
    let total: u64 = online_a.iter().sum();
    assert_eq!(
        total,
        rows.len() as u64,
        "seed {seed}, {what}: per-value counts must cover every surviving row"
    );
}

/// Two `create_index` calls race the writers, one after the other.
#[test]
fn online_build_catch_up_matches_quiesced_rebuild() {
    for seed in seeds() {
        race_builds_against_dml(seed, "create_index", |db| {
            db.create_index(&IndexSpec::new("t", &["a"]))
                .expect("online build I(a)");
            db.create_index(&IndexSpec::new("t", &["c", "d"]))
                .expect("online build I(c,d)");
        });
    }
}

/// One design change races the writers: both indexes build from one
/// pinned snapshot and catch up from one shared log, at one and at two
/// build threads.
#[test]
fn online_design_change_catch_up_matches_quiesced_rebuild() {
    let target = [
        IndexSpec::new("t", &["a"]),
        IndexSpec::new("t", &["c", "d"]),
    ];
    for seed in seeds() {
        for threads in [1, 2] {
            let what = format!("apply_configuration_with at {threads} threads");
            race_builds_against_dml(seed, &what, |db| {
                let report = db
                    .apply_configuration_with("t", &target, threads)
                    .expect("online design change");
                assert_eq!(report.created.len(), 2, "{what}: both indexes built");
            });
        }
    }
}
