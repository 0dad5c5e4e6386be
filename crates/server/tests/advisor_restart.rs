//! A durable server keeps the change budget it has spent. The advisor
//! step saves the session's state before each design change's DDL, and
//! a restarted server resumes from it: a crash between two applied
//! changes restarts with the same `changes_used`, and the whole run —
//! before and after the crash — changes the design at most `k` times.
//!
//! The crash is made the way `tests/recovery_prop.rs` makes it: a
//! counting pass learns the VFS operation count after every window,
//! then a [`FaultyVfs`] kills the store at each operation of the second
//! design change in turn, and recovery reopens the surviving bytes.
//! The client waits at every window boundary until the advisor step has
//! finished (`server.advisor.decisions` or `.errors` moved), so the
//! operation count is the same in both passes. Those counters are
//! process-wide, so this binary's tests take [`SERIAL`] and run one at a
//! time.
//!
//! A window whose decision fails after it sealed stops the session
//! instead of saving a state that no longer restores: the second test
//! makes a seal's solve infeasible and restarts the server.

use cdpd::workload::paper::PaperParams;
use cdpd::{AdvisorOptions, OnlineAdvisor, OnlineDecision, OnlineOptions};
use cdpd_engine::{Database, IndexSpec, WhatIfEngine};
use cdpd_server::{AdvisorReport, Client, Server};
use cdpd_sql::{Dml, SelectStmt};
use cdpd_storage::{DurableOptions, MemVfs, Vfs};
use cdpd_testkit::{FaultyVfs, Prng};
use cdpd_types::{ColumnDef, Schema, Value};
use cdpd_workload::{generate, paper};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Held by every test: the counters [`seals`] polls are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

const ROWS: usize = 2_000;
const DOMAIN: i64 = 400;
const WINDOW: usize = 25;
const K: usize = 3;

fn options() -> OnlineOptions {
    OnlineOptions {
        advisor: AdvisorOptions {
            k: Some(K),
            window_len: WINDOW,
            structures: Some(vec![
                IndexSpec::new("t", &["a"]),
                IndexSpec::new("t", &["b"]),
                IndexSpec::new("t", &["c"]),
                IndexSpec::new("t", &["d"]),
            ]),
            max_structures_per_config: Some(1),
            ..AdvisorOptions::default()
        },
        ..OnlineOptions::default()
    }
}

fn open(vfs: Arc<dyn Vfs>) -> Database {
    Database::open_with_vfs(vfs, DurableOptions::default()).expect("store opens")
}

/// A durable store holding the loaded, analyzed paper table.
fn loaded_store() -> MemVfs {
    let mem = MemVfs::new();
    let db = open(Arc::new(mem.clone()));
    let schema = ["a", "b", "c", "d"].map(ColumnDef::int).to_vec();
    db.create_table("t", Schema::new(schema))
        .expect("fresh table");
    let mut rng = Prng::seed_from_u64(5);
    let rows: Vec<Vec<Value>> = (0..ROWS)
        .map(|_| {
            (0..4)
                .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
                .collect()
        })
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice))
        .expect("rows load");
    db.analyze("t").expect("table exists");
    db.checkpoint().expect("checkpoint");
    mem
}

/// `server.advisor.decisions` + `server.advisor.errors`: steps that
/// sealed a window, read through the wire.
fn seals(client: &mut Client) -> u64 {
    let text = client.metrics().expect("metrics");
    [
        "server_advisor_decisions_total ",
        "server_advisor_errors_total ",
    ]
    .iter()
    .filter_map(|name| text.lines().find_map(|l| l.strip_prefix(name)))
    .map(|v| v.parse::<u64>().expect("a count"))
    .sum()
}

/// Serve `windows` of `stmts` through a fresh server over `db`, waiting
/// at each boundary for the step. `at(None)` runs once the server
/// answers (it has resumed its advisor), `at(Some(window))` at each
/// boundary.
fn serve(
    db: Arc<Database>,
    stmts: &[Dml],
    windows: std::ops::Range<usize>,
    at: impl FnMut(Option<usize>),
) -> AdvisorReport {
    serve_with(db, options(), stmts, windows, at)
}

/// [`serve`] under `options`.
fn serve_with(
    db: Arc<Database>,
    options: OnlineOptions,
    stmts: &[Dml],
    windows: std::ops::Range<usize>,
    mut at: impl FnMut(Option<usize>),
) -> AdvisorReport {
    let advisor = OnlineAdvisor::new(&db, "t", options).expect("advisor opens");
    let server = Server::bind(db, "127.0.0.1:0").expect("bind").with_advisor(
        advisor,
        Duration::from_secs(600),
        2,
    );
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut sealed = seals(&mut client);
    at(None);
    for w in windows {
        for stmt in &stmts[w * WINDOW..(w + 1) * WINDOW] {
            // After the crash a statement may fail; the window still
            // seals in the advisor, which observes only what ran.
            let _ = client.exec(&stmt.to_string());
        }
        sealed += 1;
        let started = Instant::now();
        while seals(&mut client) < sealed {
            assert!(started.elapsed() < Duration::from_secs(300), "window {w}");
            std::thread::sleep(Duration::from_millis(1));
        }
        at(Some(w));
    }
    drop(client);
    handle.shutdown();
    let report = join.join().expect("server thread").expect("server run");
    report.advisor.expect("advisor was in the loop")
}

fn log(decisions: &[OnlineDecision]) -> Vec<(usize, Vec<IndexSpec>, bool, usize)> {
    decisions
        .iter()
        .map(|d| (d.window, d.specs.clone(), d.changed, d.changes_used))
        .collect()
}

#[test]
fn restart_after_a_crash_keeps_the_spent_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = PaperParams {
        table: "t".into(),
        domain: DOMAIN,
        window_len: WINDOW,
    };
    let trace = generate(&paper::w1_with(&params), 3);
    let stmts = trace.statements();
    let windows = stmts.len() / WINDOW;

    // Counting pass: the VFS operations spent by the end of each window.
    let counting = FaultyVfs::new(Arc::new(loaded_store()), u64::MAX, 0);
    let db = Arc::new(open(Arc::new(counting.clone())));
    let mut ops = Vec::new();
    let whole = serve(db, stmts, 0..windows, |w| {
        ops.extend(w.map(|_| counting.ops()))
    });
    assert_eq!(whole.errors, 0);
    let changes: Vec<usize> = whole
        .advisor
        .decisions()
        .iter()
        .filter(|d| d.changed)
        .map(|d| d.window)
        .collect();
    assert!(
        changes.len() >= 2,
        "two changes to crash between: {changes:?}"
    );
    let second = changes[1];
    assert!(second + 1 < windows, "traffic must follow the crash");

    // Crash at every VFS operation of the second change — its state
    // save, then the DDL that state commits to — and restart each time.
    let (mut older, mut lagging) = (0, 0);
    for kill_at in ops[second - 1] + 1..=ops[second] {
        let at = format!("kill at {kill_at}");
        let mem = loaded_store();
        let faulty = FaultyVfs::new(Arc::new(mem.clone()), kill_at, kill_at);
        let db = Arc::new(open(Arc::new(faulty.clone())));
        let crashed = serve(db, stmts, 0..second + 1, |_| {});
        assert!(
            faulty.killed(),
            "{at}: the kill must fire in window {second}"
        );
        let crashed = log(crashed.advisor.decisions());
        assert_eq!(crashed, log(&whole.advisor.decisions()[..=second]), "{at}");

        // Restart on the surviving bytes with a fresh advisor: the
        // server resumes the saved session — the second change's when
        // its save committed, the first's otherwise — and the client
        // carries on from there.
        let db = Arc::new(open(Arc::new(mem)));
        let saved = OnlineAdvisor::restore(&db, options(), &db.app_state()).expect("state");
        let restored = saved.decisions().len();
        assert!(restored == second + 1 || restored <= changes[0] + 1, "{at}");
        older += usize::from(restored <= second);
        let live = sorted(saved.live_specs());
        lagging += usize::from(sorted(db.index_specs("t").expect("table")) != live);
        let resumed = serve(db.clone(), stmts, restored..windows, |w| {
            if w.is_none() {
                let design = sorted(db.index_specs("t").expect("table"));
                assert_eq!(
                    design, live,
                    "{at}: the restart re-applies the saved design"
                );
            }
        });
        assert_eq!(resumed.errors, 0, "{at}");
        let decisions = resumed.advisor.decisions();
        assert_eq!(decisions.len(), windows, "{at}: one decision per window");
        assert_eq!(
            log(&decisions[..restored]),
            crashed[..restored],
            "{at}: the restart resumes with the budget already spent"
        );
        let changed = decisions.iter().filter(|d| d.changed).count();
        let free = usize::from(!options().advisor.count_initial_change);
        assert!(
            changed <= K + free,
            "{at}: {changed} design changes, k = {K}"
        );
        assert!(decisions.iter().all(|d| d.changes_used <= K), "{at}");
        assert_eq!(
            sorted(db.index_specs("t").expect("table exists")),
            sorted(resumed.advisor.live_specs()),
            "{at}: the database holds the resumed design"
        );
    }
    assert!(older > 0, "some kill must land before the save committed");
    assert!(
        lagging > 0,
        "some kill must leave the design behind its save"
    );
}

/// A window whose solve fails after the seal stops the session, so the
/// state it saved last still restores. Window 0 builds I(a) under a
/// space bound of twice its size; rows loaded behind the advisor's back
/// then push I(a), pinned in the committed prefix, over the bound, and
/// window 1's solve is infeasible. Once those rows are deleted, window
/// 2 would solve again — from a stream one window ahead of its commits
/// — and a change it saved would no longer restore.
#[test]
fn a_failed_seal_keeps_the_saved_state_restorable() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mem = loaded_store();
    let db = Arc::new(open(Arc::new(mem.clone())));
    let whatif = WhatIfEngine::snapshot(&db, "t").expect("analyzed");
    let pages = whatif
        .index_size_pages(&IndexSpec::new("t", &["a"]))
        .expect("valid spec");
    let mut bounded = options();
    bounded.advisor.space_bound_pages = Some(2 * pages);
    let point = |col: &str| -> Vec<Dml> {
        (0..WINDOW as i64)
            .map(|v| SelectStmt::point("t", col, v).into())
            .collect()
    };
    let stmts = [point("a"), point("b"), point("b"), point("b")].concat();
    let windows = stmts.len() / WINDOW;

    let load = db.clone();
    let failed = serve_with(db, bounded.clone(), &stmts, 0..3, move |w| match w {
        Some(0) => {
            let rows: Vec<Vec<Value>> = (0..2 * ROWS as i64)
                .map(|i| (0..4).map(|c| Value::Int(DOMAIN + i + c)).collect())
                .collect();
            load.insert_many("t", rows.iter().map(Vec::as_slice))
                .expect("rows load");
        }
        Some(1) => {
            let delete = cdpd_sql::parse(&format!("DELETE FROM t WHERE a >= {DOMAIN}"))
                .expect("parses")
                .as_dml()
                .expect("DML");
            load.execute_dml(&delete).expect("rows delete");
        }
        _ => {}
    });
    let saved = log(failed.advisor.decisions());
    assert_eq!(saved.len(), 1, "only window 0 decides: {saved:?}");
    assert_eq!(saved[0].1, [IndexSpec::new("t", &["a"])]);
    assert!(failed.errors > 1, "window 1 fails, and every step after it");

    // Restart on the stored bytes: the window-0 state resumes, and the
    // session carries on from window 1 without errors.
    drop(failed);
    let db = Arc::new(open(Arc::new(mem)));
    let resumed = serve_with(db.clone(), bounded, &stmts, 1..windows, |_| {});
    assert_eq!(resumed.errors, 0);
    let decisions = resumed.advisor.decisions();
    assert_eq!(decisions.len(), windows, "one decision per window");
    assert_eq!(
        log(&decisions[..1]),
        saved,
        "the restart keeps the spent budget"
    );
    assert!(decisions.iter().all(|d| d.changes_used <= K));
    assert_eq!(
        sorted(db.index_specs("t").expect("table exists")),
        sorted(resumed.advisor.live_specs())
    );
}

fn sorted(mut specs: Vec<IndexSpec>) -> Vec<IndexSpec> {
    specs.sort();
    specs
}
