//! Integration tests for the `cdpd-obs` tracing layer against the real
//! stack: the JSONL sink must emit parseable, monotonically-timestamped
//! records (validated with an in-tree mini JSON parser — the same
//! contract ci.sh checks with python3), and the pager counters a traced
//! advisor + replay run attributes to its spans must reconcile exactly
//! with the global [`IoStats`] registry totals.
//!
//! Tracing state is process-global, so every test serializes on one
//! mutex and scopes its assertions to records after its own start mark.

mod common;

use cdpd::replay::replay_recommendation;
use cdpd::storage::IoStats;
use cdpd::workload::{generate, paper};
use cdpd::{Advisor, AdvisorOptions};
use common::{paper_database, paper_params, paper_structures};
use std::sync::Mutex;

/// Serializes the tests that toggle the process-wide trace switch. It
/// guards no data, so a guard poisoned by one failing test is simply
/// recovered — one failure must not cascade into the others.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Minimal JSON value for validating trace output without dependencies.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Recursive-descent parser for one complete JSON document.
fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("non-string key {other:?}")),
                };
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hex = input_slice(b, *pos + 1, 4)?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|e| format!("bad \\u escape: {e}"))?;
                                s.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| "surrogate \\u escape".to_string())?,
                                );
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(&c) if c < 0x20 => {
                        return Err(format!("raw control byte {c:#x} in string"))
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar (input is a valid &str).
                        let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                        let ch = rest.chars().next().expect("non-empty");
                        s.push(ch);
                        *pos += ch.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(&c) if c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
        other => Err(format!("unexpected {other:?} at byte {}", *pos)),
    }
}

fn input_slice(b: &[u8], at: usize, len: usize) -> Result<&str, String> {
    b.get(at..at + len)
        .and_then(|s| std::str::from_utf8(s).ok())
        .ok_or_else(|| "truncated escape".to_string())
}

/// Golden test for the JSONL sink contract: every line is a complete
/// JSON object, `type` is `span` or `event`, `ts` is nondecreasing and
/// `seq` strictly increasing across the whole file, and span records
/// carry the full field set with consistent timing.
#[test]
fn jsonl_sink_emits_parseable_monotonic_records() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = std::env::temp_dir().join(format!("cdpd_obs_golden_{}.jsonl", std::process::id()));
    cdpd_obs::trace::drain();
    cdpd_obs::trace::set_file_sink(Some(&path)).expect("create trace file");
    cdpd_obs::trace::set_enabled(true);

    {
        let _outer = cdpd_obs::span!("golden.outer", k = 2, phase = "w1", frac = 0.25, ok = true);
        for i in 0..5u32 {
            let _inner = cdpd_obs::span!("golden.inner", i = i);
            cdpd_obs::tracked_counter!("test.obs.golden").add(3);
        }
        cdpd_obs::event!("golden \"event\" with escapes \\ and a number {}", 42);
    }

    cdpd_obs::trace::set_enabled(false);
    cdpd_obs::trace::set_file_sink(None).expect("remove sink");
    cdpd_obs::trace::drain();

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);

    let (mut spans, mut events) = (0u32, 0u32);
    let (mut last_ts, mut last_seq) = (0u64, None::<u64>);
    for (lineno, line) in text.lines().enumerate() {
        let v = parse_json(line).unwrap_or_else(|e| panic!("line {}: {e}\n{line}", lineno + 1));
        let ts = v.get("ts").and_then(Json::as_u64).expect("integer ts");
        assert!(ts >= last_ts, "ts went backwards at line {}", lineno + 1);
        last_ts = ts;
        let seq = v.get("seq").and_then(Json::as_u64).expect("integer seq");
        assert!(
            last_seq.is_none_or(|prev| seq > prev),
            "seq not strictly increasing at line {}",
            lineno + 1
        );
        last_seq = Some(seq);
        match v.get("type").and_then(Json::as_str) {
            Some("span") => {
                spans += 1;
                let name = v.get("name").and_then(Json::as_str).expect("name");
                let path = v.get("path").and_then(Json::as_str).expect("path");
                assert!(path.ends_with(name), "path {path:?} must end in {name:?}");
                let start = v.get("start_ns").and_then(Json::as_u64).expect("start_ns");
                let dur = v.get("dur_ns").and_then(Json::as_u64).expect("dur_ns");
                assert_eq!(start + dur, ts, "dur_ns must be ts - start_ns");
                v.get("thread").and_then(Json::as_u64).expect("thread");
                v.get("depth").and_then(Json::as_u64).expect("depth");
                assert!(matches!(v.get("attrs"), Some(Json::Obj(_))));
                assert!(matches!(v.get("counters"), Some(Json::Obj(_))));
                if name == "golden.inner" {
                    assert_eq!(
                        v.get("counters").and_then(|c| c.get("test.obs.golden")),
                        Some(&Json::Num(3.0)),
                        "each inner span owns exactly its own bumps"
                    );
                }
            }
            Some("event") => {
                events += 1;
                let msg = v.get("msg").and_then(Json::as_str).expect("msg");
                assert!(msg.contains("golden \"event\""), "escapes round-trip");
            }
            other => panic!("line {}: unknown record type {other:?}", lineno + 1),
        }
    }
    assert_eq!(spans, 6, "five inner spans plus the outer one");
    assert_eq!(events, 1);
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
/// to the global [`IoStats`] registry delta over the same region.
#[test]
fn span_pager_counters_reconcile_with_global_io_stats() {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    cdpd_obs::trace::drain();
    cdpd_obs::trace::set_enabled(true);
    let io_before = IoStats::global();
    let t0 = cdpd_obs::trace::now_ns();

    {
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
    }

    cdpd_obs::trace::set_enabled(false);
    let io_delta = IoStats::global().delta(io_before);
    let records: Vec<cdpd_obs::SpanRecord> = cdpd_obs::trace::drain()
        .into_iter()
        .filter(|r| r.start_ns >= t0)
        .collect();
    assert!(io_delta.total() > 0, "the pipeline performed real I/O");

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
