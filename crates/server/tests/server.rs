//! End-to-end wire tests: a real [`Server`] on an ephemeral loopback
//! port, driven by [`Client`] — round trips, the METRICS exposition,
//! every protocol error path, and the advisor running inside the
//! serving loop.
//!
//! The obs registry is process-global and these tests run on sibling
//! threads, so counter assertions are monotone (`>=`), never exact.

use cdpd::{AdvisorOptions, CalibrationMode, CalibrationOptions, OnlineAdvisor, OnlineOptions};
use cdpd_engine::{Database, IndexSpec};
use cdpd_server::{proto, AdvisorReport, Client, Server, ServerHandle, ServerReport};
use cdpd_testkit::Prng;
use cdpd_types::{ColumnDef, Error, Result, Schema, Value};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const ROWS: i64 = 2_000;
const DOMAIN: i64 = 400;

/// The paper table, loaded and analyzed, ready to serve.
fn loaded_db(seed: u64) -> Arc<Database> {
    let db = Database::new();
    db.create_table(
        "t",
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ]),
    )
    .expect("fresh table");
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..ROWS {
        let row: Vec<Value> = (0..4)
            .map(|_| Value::Int(rng.gen_range(0..DOMAIN)))
            .collect();
        db.insert("t", &row).expect("row matches schema");
    }
    db.analyze("t").expect("table exists");
    Arc::new(db)
}

fn start(server: Server) -> (ServerHandle, JoinHandle<Result<ServerReport>>) {
    let handle = server.handle().expect("handle");
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn stop(handle: &ServerHandle, join: JoinHandle<Result<ServerReport>>) -> ServerReport {
    handle.shutdown();
    join.join().expect("server thread").expect("server run")
}

#[test]
fn query_exec_and_ping_round_trip() {
    let db = loaded_db(7);
    let (handle, join) = start(Server::bind(db.clone(), "127.0.0.1:0").expect("bind"));
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.ping().expect("ping");

    // QUERY materializes rows; the server-side truth is one local call
    // away on the shared database.
    let cdpd_sql::Statement::Select(sel) =
        cdpd_sql::parse("SELECT * FROM t WHERE a = 3").expect("parses")
    else {
        unreachable!()
    };
    let local = db.query(&sel).expect("local query");
    let remote = client.query("SELECT * FROM t WHERE a = 3").expect("query");
    assert_eq!(remote.count, local.count);
    assert_eq!(remote.rows, local.rows);
    assert_eq!(remote.plan, local.plan);
    assert!(remote.io.reads > 0, "statement I/O must ride the wire");

    // EXEC runs the same statement in counting mode: same count, no
    // materialized rows.
    let counted = client.exec("SELECT * FROM t WHERE a = 3").expect("exec");
    assert_eq!(counted.count, local.count);
    assert_eq!(counted.rows, None);

    // Mutations through the wire are immediately visible to queries —
    // same catalog, same epochs.
    let tag = DOMAIN + 77;
    client
        .exec(&format!("INSERT INTO t VALUES ({tag}, 0, 0, 0)"))
        .expect("insert");
    let seen = client
        .query(&format!("SELECT * FROM t WHERE a = {tag}"))
        .expect("query");
    assert_eq!(seen.count, 1);
    assert_eq!(
        seen.rows,
        Some(vec![vec![
            Value::Int(tag),
            Value::Int(0),
            Value::Int(0),
            Value::Int(0),
        ]])
    );
    let gone = client
        .exec(&format!("DELETE FROM t WHERE a = {tag}"))
        .expect("delete");
    assert_eq!(gone.count, 1);

    // Aggregates ride the aggregate slot — same answer as a local call.
    let local_agg = db
        .execute_sql("SELECT MIN(b) FROM t")
        .expect("local aggregate");
    let agg = client.query("SELECT MIN(b) FROM t").expect("aggregate");
    assert_eq!(agg.aggregate, local_agg.aggregate);
    assert!(agg.aggregate.is_some(), "MIN must produce an aggregate");

    // DDL over the wire lands in the shared catalog.
    client
        .exec("CREATE INDEX ix_wire ON t (b)")
        .expect("create index");
    assert!(db.has_index(&IndexSpec::new("t", &["b"])));

    drop(client);
    let report = stop(&handle, join);
    assert_eq!(report.sessions, 1);
    assert!(report.advisor.is_none());
}

#[test]
fn metrics_frame_round_trips_the_openmetrics_exposition() {
    let db = loaded_db(11);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let mut client = Client::connect(handle.addr()).expect("connect");

    const STATEMENTS: u64 = 5;
    for i in 0..STATEMENTS {
        client
            .exec(&format!("SELECT * FROM t WHERE a = {i}"))
            .expect("exec");
    }
    let text = client.metrics().expect("metrics");

    // Structural round trip: the exposition parses line by line and
    // terminates correctly.
    assert!(text.ends_with("# EOF\n"), "exposition must end with EOF");
    let mut families = std::collections::BTreeMap::new();
    for line in text.lines() {
        if line == "# EOF" {
            break;
        }
        if line.starts_with('#') {
            assert!(
                line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                "unexpected comment line: {line}"
            );
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line}"));
        // Histogram buckets carry labels; everything else is bare.
        if !name.contains('{') {
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric sample: {line}"));
            families.insert(name.to_owned(), value);
        }
    }

    // The serving counters are live in the exposition. The registry is
    // process-global, so sibling tests may have pushed these higher.
    let counter = |name: &str| -> f64 {
        *families
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
    };
    assert!(counter("server_statements_total") >= STATEMENTS as f64);
    assert!(counter("server_sessions_opened_total") >= 1.0);
    assert!(counter("server_bytes_in_total") > 0.0);
    assert!(counter("server_bytes_out_total") > 0.0);
    // And the engine's own ledger flows through the same registry.
    assert!(counter("storage_pager_reads_total") > 0.0);

    drop(client);
    stop(&handle, join);
}

#[test]
fn malformed_requests_leave_the_session_usable() {
    let db = loaded_db(13);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Unknown (but well-framed) op: rejected, session continues.
    let err = client.raw(b'Z', b"").expect_err("unknown op must fail");
    assert!(matches!(err, Error::InvalidArgument(m) if m.contains("unknown op")));
    client.ping().expect("session survives unknown op");

    // Non-UTF-8 statement payload.
    let err = client
        .raw(proto::OP_EXEC, &[0xFF, 0xFE, 0x00])
        .expect_err("non-UTF-8 must fail");
    assert!(matches!(err, Error::InvalidArgument(m) if m.contains("UTF-8")));
    client.ping().expect("session survives bad encoding");

    // SQL that does not parse: the original error variant (with its
    // offset) survives the wire.
    let err = client.exec("SELEC * FROM t").expect_err("parse must fail");
    assert!(matches!(err, Error::Parse { .. }));
    client.ping().expect("session survives parse error");

    // QUERY is for SELECT only.
    let err = client
        .query("INSERT INTO t VALUES (1, 2, 3, 4)")
        .expect_err("QUERY rejects non-SELECT");
    assert!(matches!(err, Error::InvalidArgument(m) if m.contains("EXEC")));

    // A statement error (missing table) is not a protocol error: the
    // session — and the catalog under it — keep working.
    let err = client
        .exec("SELECT * FROM missing")
        .expect_err("missing table must fail");
    assert!(matches!(err, Error::NotFound(_)));
    let ok = client
        .exec("SELECT * FROM t WHERE a = 1")
        .expect("statement runs");
    assert!(ok.count <= ROWS as u64);

    drop(client);
    let report = stop(&handle, join);
    assert_eq!(report.sessions, 1);
}

#[test]
fn oversized_announcement_errors_and_closes_the_connection() {
    let db = loaded_db(17);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");

    // Forge a header announcing a payload the server must refuse (the
    // client-side encoder rejects it, so write the bytes by hand).
    let announced = (proto::MAX_PAYLOAD as u32) + 1;
    let mut header = vec![proto::OP_EXEC];
    header.extend_from_slice(&announced.to_le_bytes());
    client.stream().write_all(&header).expect("header sent");

    // The server explains itself before hanging up…
    let (status, body) = proto::read_frame(client.stream())
        .expect("error frame arrives")
        .expect("frame, not EOF");
    assert_eq!(status, proto::STATUS_ERR);
    assert!(matches!(proto::decode_error(&body), Error::TooLarge(_)));

    // …and the stream is gone: the length prefix cannot be resynced.
    assert!(client.ping().is_err(), "connection must be closed");

    // The server itself is healthy — new connections serve normally.
    let mut fresh = Client::connect(handle.addr()).expect("reconnect");
    fresh.ping().expect("fresh session works");
    drop((client, fresh));
    stop(&handle, join);
}

#[test]
fn mid_statement_disconnect_leaves_the_server_healthy() {
    let db = loaded_db(19);
    let (handle, join) = start(Server::bind(db.clone(), "127.0.0.1:0").expect("bind"));

    // Announce 64 payload bytes, send 9, vanish.
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut partial = vec![proto::OP_EXEC];
        partial.extend_from_slice(&64u32.to_le_bytes());
        partial.extend_from_slice(b"SELECT * ");
        stream.write_all(&partial).expect("partial frame sent");
    } // dropped mid-frame

    // The aborted session took nothing down with it: catalog intact,
    // new sessions fine.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    let r = client
        .exec("SELECT * FROM t WHERE a = 1")
        .expect("statement runs");
    assert!(r.count > 0);
    drop(client);

    let report = stop(&handle, join);
    assert_eq!(report.sessions, 2, "both connections were served");
}

/// The bytes of one frame.
fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    proto::write_frame(&mut out, tag, payload).expect("frame fits");
    out
}

/// What a statement's reply says, less its I/O (which a warm or cold
/// page cache may move).
fn answer(r: &cdpd_server::RemoteResult) -> (u64, Option<Vec<Vec<Value>>>, Option<Value>, String) {
    (r.count, r.rows.clone(), r.aggregate.clone(), r.plan.clone())
}

#[test]
fn a_frame_sent_one_byte_per_write_is_served() {
    let db = loaded_db(23);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let sql = "SELECT * FROM t WHERE a = 5";
    let want = Client::connect(handle.addr())
        .expect("connect")
        .query(sql)
        .expect("query");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    for byte in frame(proto::OP_QUERY, sql.as_bytes()) {
        stream.write_all(&[byte]).expect("one byte sent");
    }
    let (status, body) = proto::read_frame(&mut stream)
        .expect("reply arrives")
        .expect("frame, not EOF");
    assert_eq!(status, proto::STATUS_OK);
    let got = proto::decode_result(&body).expect("result payload");
    assert_eq!(answer(&got), answer(&want));
    drop(stream);
    assert_eq!(stop(&handle, join).sessions, 2);
}

/// Frames a client sends back to back, in one `write`, are answered in
/// the order sent, each as if it had come alone; an error in the middle
/// leaves the rest served.
#[test]
fn frames_sent_in_one_write_are_answered_in_order() {
    let db = loaded_db(29);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let requests: [(u8, &str); 5] = [
        (proto::OP_EXEC, "SELECT * FROM t WHERE a = 1"),
        (b'Z', ""),
        (proto::OP_QUERY, "SELECT MIN(b) FROM t"),
        (proto::OP_PING, ""),
        (proto::OP_QUERY, "SELECT * FROM t WHERE a = 2"),
    ];
    let mut serial = Client::connect(handle.addr()).expect("connect");
    let want: Vec<_> = requests
        .iter()
        .map(|&(tag, sql)| match serial.raw(tag, sql.as_bytes()) {
            Ok(_) if tag == proto::OP_PING => Ok(None),
            Ok(body) => Ok(Some(answer(&proto::decode_result(&body).expect("result")))),
            Err(e) => Err(e.to_string()),
        })
        .collect();
    assert!(want[1].is_err() && want.iter().filter(|w| w.is_ok()).count() == 4);

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let batch: Vec<u8> = requests
        .iter()
        .flat_map(|&(tag, sql)| frame(tag, sql.as_bytes()))
        .collect();
    stream.write_all(&batch).expect("batch sent");
    let mut replies = BufReader::new(stream);
    for (&(tag, _), want) in requests.iter().zip(&want) {
        let (status, body) = proto::read_frame(&mut replies)
            .expect("reply arrives")
            .expect("frame, not EOF");
        let got = match status {
            proto::STATUS_OK if tag == proto::OP_PING => Ok(None),
            proto::STATUS_OK => Ok(Some(answer(&proto::decode_result(&body).expect("result")))),
            _ => Err(proto::decode_error(&body).to_string()),
        };
        assert_eq!(&got, want, "reply to {}", char::from(tag));
    }
    drop((serial, replies));
    assert_eq!(stop(&handle, join).sessions, 2);
}

/// An announcement over the cap is refused from its header alone: the
/// reader stops there, whatever of the body it could already see, and
/// the server answers before the body arrives.
#[test]
fn oversized_announcement_is_refused_without_reading_its_body() {
    let announced = (proto::MAX_PAYLOAD as u32) + 1;
    let mut forged = vec![proto::OP_EXEC];
    forged.extend_from_slice(&announced.to_le_bytes());
    let body = vec![b'x'; 100];
    let bytes = [forged.as_slice(), &body].concat();
    let mut reader = BufReader::new(&bytes[..]);
    assert!(matches!(
        proto::read_frame(&mut reader),
        Err(Error::TooLarge(_))
    ));
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("in memory");
    assert_eq!(rest, body, "only the header was consumed");

    // Through the wire: header and the start of a body in one write.
    let db = loaded_db(31);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(&bytes).expect("sent");
    let (status, reply) = proto::read_frame(&mut stream)
        .expect("error frame arrives")
        .expect("frame, not EOF");
    assert_eq!(status, proto::STATUS_ERR);
    assert!(matches!(proto::decode_error(&reply), Error::TooLarge(_)));
    assert!(
        matches!(proto::read_frame(&mut stream), Ok(None) | Err(_)),
        "the connection is closed"
    );
    drop(stream);
    stop(&handle, join);
}

/// A client whose stream ends mid-frame ends its own session and no
/// other: the server hangs up on it without a reply, and a session open
/// beside it keeps serving.
#[test]
fn a_mid_frame_eof_ends_only_that_session() {
    let db = loaded_db(37);
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let mut other = Client::connect(handle.addr()).expect("connect");
    other.ping().expect("ping");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let sql = b"SELECT * FROM t WHERE a = 1";
    stream
        .write_all(&frame(proto::OP_EXEC, sql)[..5 + sql.len() / 2])
        .expect("half a frame sent");
    stream.shutdown(Shutdown::Write).expect("EOF mid-frame");
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the server closes the connection");
    assert!(reply.is_empty(), "no reply to half a frame: {reply:?}");

    other.ping().expect("the other session still serves");
    let r = other
        .exec("SELECT * FROM t WHERE a = 1")
        .expect("statement runs");
    assert!(r.count > 0);
    drop((other, stream));
    assert_eq!(stop(&handle, join).sessions, 2);
}

/// A reader that hands out what it holds one segment per `read` call,
/// as a socket hands out what has arrived, and counts the calls.
struct Segments {
    segments: VecDeque<Vec<u8>>,
    reads: usize,
}

impl Read for Segments {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let Some(segment) = self.segments.front_mut() else {
            return Ok(0);
        };
        let n = buf.len().min(segment.len());
        buf[..n].copy_from_slice(&segment[..n]);
        segment.drain(..n);
        if segment.is_empty() {
            self.segments.pop_front();
        }
        Ok(n)
    }
}

/// Read through a buffer, a frame that arrived whole costs one `read`
/// of the source, and a frame that arrived with the one before it none;
/// read directly, each costs one call per header part and payload.
#[test]
fn a_buffered_frame_costs_one_read() {
    let long = format!("SELECT * FROM t WHERE a IN ({})", "7, ".repeat(700) + "7");
    let frames = [
        frame(proto::OP_EXEC, b"SELECT * FROM t WHERE a = 1"),
        frame(proto::OP_PING, b""),
        frame(proto::OP_QUERY, long.as_bytes()),
    ];
    // Each frame its own segment, then the first two in one.
    let segments = || {
        let mut segments: VecDeque<Vec<u8>> = frames.iter().cloned().collect();
        segments.push_back([frames[0].as_slice(), &frames[1]].concat());
        segments
    };
    let order = [0, 1, 2, 0, 1];
    let reads_per_frame = |buffered: bool| {
        let mut source = Segments {
            segments: segments(),
            reads: 0,
        };
        let mut counts = Vec::new();
        let mut reader = BufReader::new(&mut source);
        for &i in &order {
            let before = reader.get_ref().reads;
            let got = if buffered {
                proto::read_frame(&mut reader)
            } else {
                proto::read_frame(reader.get_mut())
            };
            let (tag, payload) = got.expect("well formed").expect("a frame");
            assert_eq!(frame(tag, &payload), frames[i]);
            counts.push(reader.get_ref().reads - before);
        }
        counts
    };
    assert_eq!(reads_per_frame(true), [1, 1, 1, 1, 0]);
    assert_eq!(reads_per_frame(false), [3, 2, 3, 3, 2]);
}

/// Three short and three 2,750-byte index keys in one leaf: a split by
/// entry count alone leaves a right half larger than a page, and a
/// panic there, under the table's write lock, would wedge the table for
/// every session. Through the wire none of the statements panics, a
/// key over the cap is refused with `TooLarge`, and the table keeps
/// serving every session.
#[test]
fn long_index_keys_never_wedge_the_table() {
    let db = Arc::new(Database::new());
    let (handle, join) = start(Server::bind(db.clone(), "127.0.0.1:0").expect("bind"));
    let mut writer = Client::connect(handle.addr()).expect("connect");
    writer
        .exec("CREATE TABLE t (a INT, s TEXT)")
        .expect("create table");
    writer
        .exec("CREATE INDEX i ON t (s)")
        .expect("create index");
    for i in 0..3 {
        writer
            .exec(&format!("INSERT INTO t VALUES ({i}, 'a{i}')"))
            .expect("short key");
    }
    for i in 0..3 {
        let long = format!("z{i}{}", "x".repeat(2_748));
        writer
            .exec(&format!("INSERT INTO t VALUES ({i}, '{long}')"))
            .expect("long key");
    }
    let over = "y".repeat(5_000);
    let err = writer
        .exec(&format!("INSERT INTO t VALUES (9, '{over}')"))
        .expect_err("a key over the cap is refused");
    assert!(matches!(err, Error::TooLarge(_)), "{err:?}");
    db.analyze("t").expect("analyze");
    let mut reader = Client::connect(handle.addr()).expect("second session");
    let count = reader.exec("SELECT COUNT(*) FROM t").expect("count");
    assert_eq!(count.count, 6);
    writer
        .exec("INSERT INTO t VALUES (7, 'b')")
        .expect("the writer keeps writing");
    let seek = reader
        .exec("SELECT a FROM t WHERE s = 'b'")
        .expect("index seek");
    assert_eq!(seek.count, 1);
    drop((writer, reader));
    let report = stop(&handle, join);
    assert_eq!(report.sessions, 2);
}

/// A result set too large for one frame fails its statement with
/// `TooLarge` and the session keeps serving.
#[test]
fn a_result_over_the_frame_cap_is_an_error_not_a_hang_up() {
    let db = Arc::new(Database::new());
    let schema = Schema::new(["a", "b", "c", "d"].map(ColumnDef::int).to_vec());
    db.create_table("t", schema).expect("fresh table");
    let rows: Vec<Vec<Value>> = (0..40_000)
        .map(|i| [i, i, i, i].map(Value::Int).to_vec())
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice))
        .expect("rows match the schema");
    db.analyze("t").expect("table exists");
    let (handle, join) = start(Server::bind(db, "127.0.0.1:0").expect("bind"));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let err = client
        .query("SELECT * FROM t")
        .expect_err("40,000 rows do not fit one frame");
    assert!(matches!(err, Error::TooLarge(_)), "{err:?}");
    client
        .ping()
        .expect("the session outlives the refused result");
    drop(client);
    let report = stop(&handle, join);
    assert_eq!(report.sessions, 1);
}

const WINDOW: usize = 25;
const STATEMENTS: usize = 100;

/// An advisor over I(a), I(b) and I(a,b), windows of 25.
fn advisor_on(db: &Database, calibration: CalibrationOptions) -> OnlineAdvisor {
    let options = OnlineOptions {
        advisor: AdvisorOptions {
            k: Some(2),
            window_len: WINDOW,
            structures: Some(vec![
                IndexSpec::new("t", &["a"]),
                IndexSpec::new("t", &["b"]),
                IndexSpec::new("t", &["a", "b"]),
            ]),
            max_structures_per_config: Some(1),
            ..AdvisorOptions::default()
        },
        calibration,
        ..OnlineOptions::default()
    };
    OnlineAdvisor::new(db, "t", options).expect("advisor opens")
}

/// A counter's value in a METRICS exposition (0 when never bumped).
fn counter(text: &str, family: &str) -> u64 {
    let sample = format!("{family}_total ");
    text.lines()
        .find_map(|l| l.strip_prefix(sample.as_str()))
        .map_or(0, |v| v.parse().expect("a count"))
}

/// Serve an a-heavy statement stream to `advisor` in the serving loop,
/// hand the client to `then` before shutting down, and return the
/// advisor's report.
fn serve_a_stream(
    db: &Arc<Database>,
    advisor: OnlineAdvisor,
    then: impl FnOnce(&mut Client),
) -> AdvisorReport {
    let server = Server::bind(db.clone(), "127.0.0.1:0")
        .expect("bind")
        // A long tick: windows seal on statement count here; the
        // wall-clock path gets its own coverage via the tail seal.
        .with_advisor(advisor, Duration::from_secs(30), 2);
    let (handle, join) = start(server);

    // An a-heavy statement stream: the advisor should pick an a-leading
    // index and build it online, under this very traffic.
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut rng = Prng::seed_from_u64(23);
    for _ in 0..STATEMENTS {
        let v = rng.gen_range(0..DOMAIN);
        client
            .exec(&format!("SELECT * FROM t WHERE a = {v}"))
            .expect("statement runs");
    }
    then(&mut client);
    drop(client);
    let report = stop(&handle, join);
    report.advisor.expect("advisor was in the loop")
}

#[test]
fn advisor_adapts_the_design_inside_the_serving_loop() {
    let db = loaded_db(23);
    let advisor = serve_a_stream(&db, advisor_on(&db, CalibrationOptions::default()), |_| {});
    assert_eq!(advisor.errors, 0, "the advisor loop must stay clean");
    // 100 statements at window 25: at least four statement-count seals
    // (wall-clock seals can only add more).
    assert!(
        advisor.advisor.decisions().len() >= STATEMENTS / WINDOW,
        "expected >= {} decisions, got {}",
        STATEMENTS / WINDOW,
        advisor.advisor.decisions().len()
    );
    let changed = advisor
        .advisor
        .decisions()
        .iter()
        .filter(|d| d.changed)
        .count();
    assert_eq!(
        advisor.applied.len(),
        changed,
        "every changed decision must be applied exactly once"
    );
    assert!(changed >= 1, "an a-only workload must change the design");
    // The applied design is live in the shared catalog, built online
    // while the session was still executing statements.
    let specs = db.index_specs("t").expect("table exists");
    assert!(
        specs.iter().all(|s| s.columns[0] == "a"),
        "a-leading design expected, got {specs:?}"
    );
    assert!(!specs.is_empty(), "the decided index must be installed");
}

/// An injected mis-costing of index plans is visible through the wire:
/// the served advisor folds every session's predicted-vs-actual pairs,
/// so the drift watchdog trips and every decision carries calibration.
#[test]
fn served_advisor_trips_the_watchdog_on_a_mis_costing() {
    let db = loaded_db(29);
    let injected = CalibrationOptions {
        index_cost_scale: 20.0,
        ..CalibrationOptions::default()
    };
    let trips = |client: &mut Client| {
        let text = client.metrics().expect("metrics");
        counter(&text, "calibration_watchdog_trips")
    };
    // The counter is process-wide and only rises: wait, through the
    // wire, for this stream's seals to move it.
    let before = cdpd_obs::registry()
        .snapshot()
        .counter("calibration.watchdog_trips");
    let mut after = before;
    let advisor = serve_a_stream(&db, advisor_on(&db, injected), |client| {
        let started = std::time::Instant::now();
        while after == before && started.elapsed() < Duration::from_secs(60) {
            after = trips(client);
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    assert!(after > before, "calibration.watchdog_trips must move");
    assert_eq!(advisor.errors, 0);
    let decisions = advisor.advisor.decisions();
    assert!(decisions.len() >= STATEMENTS / WINDOW);
    assert!(
        decisions.iter().all(|d| d.calibration.is_some()),
        "every served decision carries calibration"
    );
    assert!(advisor.advisor.calibration().report().alerts > 0);
}

/// A served session has no live-shape oracle prediction, so under
/// `ModelAccount` it sends no calibration pair — and the advisor keeps
/// deciding instead of failing.
#[test]
fn served_model_account_advisor_keeps_deciding() {
    let db = loaded_db(31);
    let account = CalibrationOptions {
        mode: CalibrationMode::ModelAccount,
        ..CalibrationOptions::default()
    };
    let advisor = serve_a_stream(&db, advisor_on(&db, account), |_| {});
    assert_eq!(advisor.errors, 0, "the advisor loop must stay clean");
    let decisions = advisor.advisor.decisions();
    assert!(decisions.len() >= STATEMENTS / WINDOW);
    assert!(decisions.iter().any(|d| d.changed));
    assert_eq!(advisor.advisor.calibration().windows(), 0);
}

/// A saved advisor state that does not restore — or that advises
/// another table — stops the server instead of granting a fresh change
/// budget.
#[test]
fn unrestorable_advisor_state_is_an_error() {
    let serve = |db: Arc<Database>, advisor: OnlineAdvisor| {
        let server = Server::bind(db, "127.0.0.1:0").expect("bind").with_advisor(
            advisor,
            Duration::from_secs(30),
            2,
        );
        let (handle, join) = start(server);
        // Ends a server that wrongly started serving.
        handle.shutdown();
        join.join().expect("server thread")
    };

    let db = loaded_db(37);
    let advisor = advisor_on(&db, CalibrationOptions::default());
    db.set_app_state(b"not an advisor state".to_vec())
        .expect("in-memory state");
    let outcome = serve(db, advisor);
    assert!(matches!(outcome, Err(Error::Corrupt(_))), "served anyway");

    // The saved session advises t; the advisor given is built for u.
    let db = loaded_db(41);
    let schema = ["a", "b", "c", "d"].map(ColumnDef::int).to_vec();
    db.create_table("u", Schema::new(schema))
        .expect("fresh table");
    db.analyze("u").expect("table exists");
    let on_t = advisor_on(&db, CalibrationOptions::default());
    db.set_app_state(on_t.save_state())
        .expect("in-memory state");
    let mut options = on_t.options().clone();
    options.advisor.structures = Some(vec![IndexSpec::new("u", &["a"])]);
    let on_u = OnlineAdvisor::new(&db, "u", options).expect("advisor opens");
    let outcome = serve(db, on_u);
    assert!(
        matches!(outcome, Err(Error::InvalidArgument(_))),
        "served t's session as u's: {:?}",
        outcome.err()
    );
}
