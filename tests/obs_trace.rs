//! Integration tests for the `cdpd-obs` tracing layer against the real
//! stack: the JSONL sink must emit parseable, monotonically-timestamped
//! records (validated with [`cdpd_testkit::json`]), on a golden span
//! tree and on a traced advisor + replay run, and the pager counters
//! that run attributes to its spans must reconcile exactly with the
//! global [`IoStats`] registry totals.
//!
//! Tracing state is process-global, so every test serializes on one
//! mutex and scopes its assertions to records after its own start mark.

mod common;

use cdpd::replay::replay_recommendation;
use cdpd::storage::IoStats;
use cdpd::workload::{generate, paper};
use cdpd::{Advisor, AdvisorOptions};
use cdpd_testkit::json::{self, Json};
use common::{paper_database, paper_params, paper_structures};
use std::sync::Mutex;

/// Serializes the tests that toggle the process-wide trace switch. It
/// guards no data, so a guard poisoned by one failing test is simply
/// recovered — one failure must not cascade into the others.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Parse a JSONL trace and check the sink contract on every line:
/// `type` is `span` or `event`, `ts` never decreases and `seq` strictly
/// increases across the file, a span carries the full field set with
/// `start_ns + dur_ns == ts` and a path ending in its name, and an
/// event's `msg` is a string.
fn read_trace(text: &str) -> Vec<Json> {
    let (mut last_ts, mut last_seq) = (0u64, None::<u64>);
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let v = json::parse(line).unwrap_or_else(|e| panic!("line {n}: {e}\n{line}"));
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("line {n}: no integer {key:?}\n{line}"))
        };
        let (ts, seq) = (int("ts"), int("seq"));
        assert!(ts >= last_ts, "line {n}: ts went backwards");
        assert!(
            last_seq.is_none_or(|prev| seq > prev),
            "line {n}: seq not strictly increasing"
        );
        (last_ts, last_seq) = (ts, Some(seq));
        match v.get("type").and_then(Json::as_str) {
            Some("span") => {
                let text = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("line {n}: span without a string {key:?}"))
                };
                let (name, path) = (text("name"), text("path"));
                assert!(
                    path.ends_with(name),
                    "line {n}: path {path:?} must end in {name:?}"
                );
                assert_eq!(
                    int("start_ns") + int("dur_ns"),
                    ts,
                    "line {n}: dur_ns != ts - start_ns"
                );
                int("thread");
                int("depth");
                for key in ["attrs", "counters"] {
                    assert!(
                        matches!(v.get(key), Some(Json::Obj(_))),
                        "line {n}: span without {key:?}"
                    );
                }
            }
            Some("event") => assert!(
                v.get("msg").and_then(Json::as_str).is_some(),
                "line {n}: event without a string msg"
            ),
            other => panic!("line {n}: unknown record type {other:?}"),
        }
        records.push(v);
    }
    records
}

fn is_span(record: &&Json) -> bool {
    record.get("type").and_then(Json::as_str) == Some("span")
}

/// Run `work` with tracing on and a fresh JSONL file sink installed,
/// and return the validated records the file holds.
fn traced_to_file(tag: &str, work: impl FnOnce()) -> Vec<Json> {
    let path = std::env::temp_dir().join(format!("cdpd_obs_{tag}_{}.jsonl", std::process::id()));
    cdpd_obs::trace::drain();
    cdpd_obs::trace::set_file_sink(Some(&path)).expect("create trace file");
    cdpd_obs::trace::set_enabled(true);
    work();
    cdpd_obs::trace::set_enabled(false);
    cdpd_obs::trace::set_file_sink(None).expect("remove sink");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    read_trace(&text)
}

/// Golden test for the JSONL sink contract ([`read_trace`]) on a known
/// span tree: each span owns exactly its own counter bumps, and an
/// event's escapes round-trip.
#[test]
fn jsonl_sink_emits_parseable_monotonic_records() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let records = traced_to_file("golden", || {
        let _outer = cdpd_obs::span!("golden.outer", k = 2, phase = "w1", frac = 0.25, ok = true);
        for i in 0..5u32 {
            let _inner = cdpd_obs::span!("golden.inner", i = i);
            cdpd_obs::tracked_counter!("test.obs.golden").add(3);
        }
        cdpd_obs::event!("golden \"event\" with escapes \\ and a number {}", 42);
    });
    cdpd_obs::trace::drain();

    let spans: Vec<&Json> = records.iter().filter(is_span).collect();
    assert_eq!(spans.len(), 6, "five inner spans plus the outer one");
    for span in &spans {
        if span.get("name").and_then(Json::as_str) == Some("golden.inner") {
            assert_eq!(
                span.get("counters").and_then(|c| c.get("test.obs.golden")),
                Some(&Json::Num(3.0)),
                "each inner span owns exactly its own bumps"
            );
        }
    }
    let events: Vec<&str> = records
        .iter()
        .filter_map(|r| r.get("msg").and_then(Json::as_str))
        .collect();
    assert_eq!(events.len(), 1);
    assert!(events[0].contains("golden \"event\""), "escapes round-trip");
    let outer_total: u64 = 15;
    assert_eq!(
        cdpd_obs::registry().counter_value("test.obs.golden") % outer_total,
        0,
        "tracked counter is a plain registry counter too"
    );
}

/// The acceptance-criteria reconciliation: run a real (small) table1-style
/// pipeline — build the paper table, recommend with the advisor, replay
/// the trace with online DDL — under tracing, and check that the pager
/// reads/writes/allocs attributed to per-thread root spans sum exactly
/// to the global [`IoStats`] registry delta over the same region. The
/// JSONL file the same run writes keeps the sink contract on every line
/// and carries every span the ring saw.
#[test]
fn span_pager_counters_reconcile_with_global_io_stats() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let io_before = IoStats::global();
    let t0 = cdpd_obs::trace::now_ns();

    let lines = traced_to_file("pipeline", || {
        let _run = cdpd_obs::span!("obstest.run");
        let rows = 2_000;
        let db = paper_database(rows, 11);
        let trace = generate(&paper::w1_with(&paper_params(rows, 100)), 42);
        let rec = Advisor::new(&db, "t")
            .options(AdvisorOptions {
                k: Some(2),
                window_len: 100,
                structures: Some(paper_structures()),
                max_structures_per_config: Some(1),
                end_empty: true,
                ..Default::default()
            })
            .recommend(&trace)
            .expect("advisor");
        assert!(
            !rec.metrics.is_empty(),
            "recommendation carries a metrics delta"
        );
        assert!(
            rec.profile.as_deref().is_some_and(|p| p.contains("solve.")),
            "tracing was on, so the recommendation carries a profile"
        );
        replay_recommendation(&db, &trace, &rec).expect("replay");
    });

    let io_delta = IoStats::global().delta(io_before);
    let records: Vec<cdpd_obs::SpanRecord> = cdpd_obs::trace::drain()
        .into_iter()
        .filter(|r| r.start_ns >= t0)
        .collect();
    assert!(io_delta.total() > 0, "the pipeline performed real I/O");
    assert_eq!(
        lines.iter().filter(is_span).count(),
        records.len(),
        "the file sink and the ring saw the same spans"
    );

    // Every pager bump happens on some thread inside that thread's
    // outermost open span, so summing over per-thread roots (depth 0)
    // must reproduce the global registry delta exactly.
    for (name, want) in [
        ("storage.pager.reads", io_delta.reads),
        ("storage.pager.writes", io_delta.writes),
        ("storage.pager.allocs", io_delta.allocs),
    ] {
        let attributed: u64 = records
            .iter()
            .filter(|r| r.depth == 0)
            .map(|r| r.counter(name))
            .sum();
        assert_eq!(attributed, want, "span-attributed {name} != global delta");
    }

    let profile = cdpd_obs::aggregate(&records).render();
    assert!(
        profile.contains("advisor.recommend"),
        "profile lists the advisor span:\n{profile}"
    );
    assert!(
        profile.contains("replay.window"),
        "profile lists the replay windows:\n{profile}"
    );
}
