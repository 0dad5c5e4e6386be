//! The served advisor loop and `replay::drive` are one driver: a
//! one-session server fed W1 then W4 makes exactly the decisions
//! `drive` makes on the same trace — same decision log, same
//! calibration report, same final design — at one build thread and at
//! [`default_threads`]. This is the through-the-wire twin of
//! `tests/online_equiv.rs`.
//!
//! At every window boundary the client waits until the advisor step
//! has finished: `server.advisor.decisions` moves only once the
//! decision's DDL is applied, so the next window executes on the design
//! `drive` gives it. That counter is process-wide, so this binary holds
//! this one test. `CDPD_SEED` picks the traces' seed (ci.sh runs the
//! same seed matrix as `tests/parallel_equiv.rs`).

#[path = "../../../tests/common/mod.rs"]
mod common;

use cdpd::replay::drive;
use cdpd::{AdvisorOptions, OnlineAdvisor, OnlineOptions};
use cdpd_engine::{default_threads, IndexSpec};
use cdpd_server::{Client, Server};
use cdpd_workload::{generate, paper, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: i64 = 10_000;
const WINDOW: usize = 50;

/// One decision as both drivers must log it: window, specs, changed,
/// resolved, changes used, and the calibration state it carried.
type Logged = (usize, Vec<IndexSpec>, bool, bool, usize, String);

/// What a run leaves behind: the decision log, the session's
/// calibration report, and the table's final design.
type Outcome = (Vec<Logged>, String, Vec<IndexSpec>);

fn seed() -> u64 {
    std::env::var("CDPD_SEED").map_or(7, |s| s.parse().expect("CDPD_SEED must be an integer"))
}

fn options() -> OnlineOptions {
    OnlineOptions {
        advisor: AdvisorOptions {
            k: Some(4),
            window_len: WINDOW,
            max_structures_per_config: Some(1),
            ..AdvisorOptions::default()
        },
        // Drift and degradation gate the re-solves.
        resolve_threshold: Some(0.5),
        ..OnlineOptions::default()
    }
}

/// W1 then W4 on the paper table.
fn w1_then_w4(seed: u64) -> Trace {
    let params = common::paper_params(ROWS, WINDOW);
    let w1 = generate(&paper::w1_with(&params), seed);
    let w4 = generate(&paper::w4_with(&params), seed + 1);
    let stmts = w1.statements().iter().chain(w4.statements()).cloned();
    Trace::new("t", stmts.collect())
}

fn outcome(advisor: &OnlineAdvisor, mut design: Vec<IndexSpec>) -> Outcome {
    let log = advisor
        .decisions()
        .iter()
        .map(|d| {
            let calibration = format!("{:?}", d.calibration);
            let (specs, changed, resolved) = (d.specs.clone(), d.changed, d.resolved);
            (
                d.window,
                specs,
                changed,
                resolved,
                d.changes_used,
                calibration,
            )
        })
        .collect();
    design.sort();
    let calibration = format!("{:?}", advisor.calibration().report());
    (log, calibration, design)
}

fn driven(trace: &Trace, seed: u64, threads: usize) -> Outcome {
    let db = common::paper_database(ROWS, seed);
    let mut advisor = OnlineAdvisor::new(&db, "t", options()).expect("advisor opens");
    drive(&db, trace, &mut advisor, threads).expect("drive runs");
    outcome(&advisor, db.index_specs("t").expect("table exists"))
}

/// The `server.advisor.decisions` counter, read through the wire.
fn decisions(client: &mut Client) -> u64 {
    let text = client.metrics().expect("metrics");
    text.lines()
        .find_map(|l| l.strip_prefix("server_advisor_decisions_total "))
        .map_or(0, |v| v.parse().expect("a count"))
}

fn served(trace: &Trace, seed: u64, threads: usize) -> Outcome {
    let db = Arc::new(common::paper_database(ROWS, seed));
    let advisor = OnlineAdvisor::new(&db, "t", options()).expect("advisor opens");
    // Windows seal on statement count alone.
    let server = Server::bind(db.clone(), "127.0.0.1:0")
        .expect("bind")
        .with_advisor(advisor, Duration::from_secs(600), threads);
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::connect(handle.addr()).expect("connect");
    let base = decisions(&mut client);
    for (i, stmt) in trace.statements().iter().enumerate() {
        client.exec(&stmt.to_string()).expect("statement runs");
        if (i + 1) % WINDOW == 0 {
            let want = base + ((i + 1) / WINDOW) as u64;
            let started = Instant::now();
            while decisions(&mut client) < want {
                assert!(
                    started.elapsed() < Duration::from_secs(300),
                    "the step for window {} never finished",
                    i / WINDOW
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    drop(client);
    handle.shutdown();
    let report = join.join().expect("server thread").expect("server run");
    let advisor = report.advisor.expect("advisor was in the loop");
    assert_eq!(advisor.errors, 0, "the advisor loop must stay clean");
    let changed = advisor.advisor.decisions().iter().filter(|d| d.changed);
    assert_eq!(advisor.applied.len(), changed.count());
    outcome(&advisor.advisor, db.index_specs("t").expect("table exists"))
}

#[test]
fn served_loop_decides_like_drive() {
    let seed = seed();
    let trace = w1_then_w4(seed);
    let windows = trace.len() / WINDOW;
    for threads in [1, default_threads()] {
        let want = driven(&trace, seed, threads);
        let got = served(&trace, seed, threads);
        let at = format!("seed {seed} threads {threads}");
        assert_eq!(want.0.len(), windows, "{at}: one decision per window");
        assert!(want.0.iter().any(|d| d.2), "{at}: the design must change");
        for (w, (d, s)) in want.0.iter().zip(&got.0).enumerate() {
            assert_eq!(d, s, "{at}: decision {w}");
        }
        assert_eq!(want.0.len(), got.0.len(), "{at}: decision count");
        assert_eq!(want.1, got.1, "{at}: calibration report");
        assert_eq!(want.2, got.2, "{at}: final design");
    }
}
