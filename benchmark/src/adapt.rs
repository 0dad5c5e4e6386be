//! `adapt`: the paper's loop under live traffic. A table with no
//! indexes, the online advisor inside the serving loop, and a fixed
//! statement trace whose mix shifts — so EXEC + TRANS, the advisor's
//! reaction time, online index builds and foreground stalls all land in
//! one set of numbers.
//!
//! The unit of measurement is an *episode*: a fresh unindexed database,
//! a fresh advisor, the whole trace sent once by the clients. A fixed
//! statement count, not a fixed time, so every episode has the same
//! phase structure; the timed section runs whole episodes until
//! `--seconds` have passed and reports the median episode.

use crate::gen::{self, Stream, Table};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::reference;
use crate::stats::{self, percentile};
use crate::wire::{self, Served, CLIENTS};
use crate::{host, Outcome};
use cdpd::{AdvisorOptions, OnlineAdvisor, OnlineOptions};
use cdpd_engine::{Database, IndexSpec};
use cdpd_server::proto::RemoteResult;
use cdpd_server::Client;
use cdpd_sql::Dml;
use cdpd_storage::IoStats;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rows in table `t`.
const ROWS: usize = 60_000;
/// Statements per advisor window; the trace is 60 windows.
const WINDOW_LEN: usize = 200;
/// Change budget over the whole episode.
const K: usize = 8;
/// Concurrent online index builds.
const BUILD_THREADS: usize = 2;
/// Fewest episodes a timed run reports a median over.
const MIN_EPISODES: usize = 3;
/// Statements the traced run replays in-process.
const REPLAY: usize = 5_000;

/// What one episode measured.
struct Episode {
    setup_s: f64,
    ops_per_s: f64,
    lat_p50_us: f64,
    lat_p99_us: f64,
    pages_per_op: f64,
    bytes_per_op: f64,
    statements: u64,
    failed: u64,
    design_changes: usize,
    advisor_errors: u64,
    final_design: Vec<IndexSpec>,
}

fn options() -> OnlineOptions {
    OnlineOptions {
        advisor: AdvisorOptions {
            k: Some(K),
            window_len: WINDOW_LEN,
            structures: None,
            ..AdvisorOptions::default()
        },
        ..OnlineOptions::default()
    }
}

/// What one client saw while sending its stream.
#[derive(Default)]
struct Sent {
    /// Latency of every statement, ns.
    lat_ns: Vec<u64>,
    /// Σ request + reply bytes.
    bytes: u64,
    failed: u64,
    first_error: Option<String>,
    /// Replies to the statements whose parsed form the stream kept.
    head: Vec<Option<RemoteResult>>,
}

/// Send `stream` once, in order, recording each statement's latency.
fn send_all(client: &mut Client, stream: &Stream) -> Sent {
    let mut sent = Sent::default();
    let mut prev = Instant::now();
    for (i, op) in stream.ops.iter().enumerate() {
        let reply = wire::call(client, op.tag, &op.sql);
        let now = Instant::now();
        sent.lat_ns.push((now - prev).as_nanos() as u64);
        prev = now;
        let reply = match reply {
            Ok((result, bytes)) => {
                sent.bytes += bytes;
                Some(result)
            }
            Err(e) => {
                sent.failed += 1;
                sent.first_error
                    .get_or_insert_with(|| format!("{}: {e}", op.sql));
                None
            }
        };
        if i < stream.head.len() {
            sent.head.push(reply);
        }
    }
    sent
}

/// One episode: set up, serve the whole trace, drain, check.
fn episode(table: &Table, streams: &[Stream], out: &mut Outcome) -> (Episode, Arc<Database>) {
    let started = Instant::now();
    let db = Arc::new(Database::new());
    table.load_into(&db);
    let advisor =
        OnlineAdvisor::new(&db, table.name, options()).expect("advisor on analyzed table");
    // A long idle tick: windows seal on statement count alone.
    let served = Served::start(
        db.clone(),
        Some((advisor, Duration::from_secs(30), BUILD_THREADS)),
    );
    let mut clients: Vec<Client> = (0..streams.len())
        .map(|_| Client::connect(served.addr()).expect("connect to loopback server"))
        .collect();
    clients[0].ping().expect("first round trip");
    let setup_s = started.elapsed().as_secs_f64();

    let io_before = IoStats::global();
    let barrier = Barrier::new(streams.len());
    let run_started = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    send_all(client, stream)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let run_s = run_started.elapsed().as_secs_f64();
    drop(clients);
    // Stopping drains the advisor's queue and finishes its builds, so
    // the ledger below holds every transition the episode paid for.
    let report = served.stop();
    let io = IoStats::global().delta(io_before);

    let statements: u64 = streams.iter().map(|s| s.ops.len() as u64).sum();
    let mut lat: Vec<u64> = per_client
        .iter()
        .flat_map(|c| c.lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let failed: u64 = per_client.iter().map(|c| c.failed).sum();
    if let Some(e) = per_client.iter().find_map(|c| c.first_error.clone()) {
        out.problem(format!("{failed} statements failed, first: {e}"));
    }

    let advisor = report.advisor.expect("the server ran an advisor");
    if advisor.errors > 0 {
        out.problem(format!("{} advisor errors", advisor.errors));
    }
    if advisor.applied.is_empty() {
        out.problem("the advisor applied no design change".into());
    }
    // The answers clients got while the design changed under them must
    // equal a brute-force scan of the benchmark's own rows.
    for (stream, sent) in streams.iter().zip(&per_client) {
        for (stmt, got) in stream.head.iter().zip(&sent.head) {
            if let (Dml::Select(select), Some(got)) = (stmt, got) {
                if let Err(why) = reference::check(table, select, got, false) {
                    out.problem(why);
                }
            }
        }
    }
    // And so must answers under the final design.
    for stmt in streams[0].head.iter().rev().take(64) {
        let Dml::Select(select) = stmt else { continue };
        let got = db
            .query_count(select)
            .expect("query under the final design");
        let (count, ..) = reference::answer(table, select);
        if got.count != count {
            out.problem(format!(
                "{select}: count {} but reference {count}",
                got.count
            ));
        }
    }

    let us = |ns: u64| ns as f64 / 1e3;
    let measured = Episode {
        setup_s,
        ops_per_s: statements as f64 / run_s,
        lat_p50_us: percentile(&lat, 0.5).map_or(0.0, us),
        lat_p99_us: percentile(&lat, 0.99).map_or(0.0, us),
        pages_per_op: io.total() as f64 / statements as f64,
        bytes_per_op: per_client.iter().map(|c| c.bytes).sum::<u64>() as f64 / statements as f64,
        statements,
        failed,
        design_changes: advisor.applied.len(),
        advisor_errors: advisor.errors,
        final_design: db.index_specs(table.name).expect("table exists"),
    };
    (measured, db)
}

fn inputs(seed: u64, out: &mut Outcome) -> (Table, Vec<Stream>) {
    let table = Table::generate("t", 4, ROWS, seed);
    let trace = gen::adapt_trace(&table, WINDOW_LEN, seed);
    let streams = gen::trace_streams(&trace, CLIENTS);
    out.fact("stream_fnv", format!("{:016x}", gen::stream_hash(&streams)));
    out.fact(
        "load",
        format!(
            "closed loop, {CLIENTS} clients on {CLIENTS} connections, server and advisor in-process; \
             {} statements per episode (W1 then W4 pattern, {WINDOW_LEN} per window), k = {K}, \
             {BUILD_THREADS} build threads",
            trace.len()
        ),
    );
    out.fact(
        "table",
        format!("t: {ROWS} rows, no indexes at the start of an episode"),
    );
    out.fact("flush_policy", "in-memory pager: nothing is flushed".into());
    (table, streams)
}

/// The timed run: whole episodes until `seconds` have passed.
pub fn timed(seed: u64, seconds: u64, out: &mut Outcome) {
    let (table, streams) = inputs(seed, out);
    let started = Instant::now();
    let mut episodes = Vec::new();
    while episodes.len() < MIN_EPISODES || started.elapsed().as_secs() < seconds {
        // The episode's database is dropped here: only one is ever alive.
        episodes.push(episode(&table, &streams, out).0);
    }
    let median =
        |f: fn(&Episode) -> f64| stats::median(&episodes.iter().map(f).collect::<Vec<_>>());
    out.attempted = episodes.iter().map(|e| e.statements).sum();
    out.failed = episodes.iter().map(|e| e.failed).sum();
    out.fact("episodes", episodes.len().to_string());
    out.fact(
        "latency_samples",
        format!("{} per episode", episodes[0].statements),
    );
    out.fact(
        "design_changes",
        format!(
            "{:?}",
            episodes
                .iter()
                .map(|e| e.design_changes)
                .collect::<Vec<_>>()
        ),
    );
    let mut values = Values::new(END_TO_END);
    values.set("setup_s", median(|e| e.setup_s));
    values.set("ops_per_s", median(|e| e.ops_per_s));
    values.set("lat_p50_us", median(|e| e.lat_p50_us));
    values.set("lat_p99_us", median(|e| e.lat_p99_us));
    values.set("pages_per_op", median(|e| e.pages_per_op));
    values.set("peak_rss_mb", host::peak_rss_mib());
    out.end_to_end = Some(values);
}

/// The traced run: one episode for the loop's own figures, a replay
/// under the design it ended on, and the micro-probes.
pub fn traced(seed: u64, out: &mut Outcome) {
    let (table, streams) = inputs(seed, out);
    let (e, db) = episode(&table, &streams, out);
    let mut values = Values::new(PER_LAYER);
    values.set("online.design_changes", e.design_changes as f64);
    values.set("online.advisor_errors", e.advisor_errors as f64);
    values.set("server.bytes_per_op", e.bytes_per_op);
    values.set("server.read_lat_p99_us", e.lat_p99_us);
    values.set(
        "storage.space_amp",
        (db.page_count() * cdpd_storage::PAGE_SIZE as u64) as f64 / table.user_bytes() as f64,
    );
    values.set("storage.cache_hit_rate", 1.0);

    // What installing the final design costs with nothing else running.
    let fresh = Database::new();
    table.load_into(&fresh);
    let started = Instant::now();
    fresh
        .apply_configuration_with(table.name, &e.final_design, BUILD_THREADS)
        .expect("apply the final design");
    values.set("online.apply_ms", started.elapsed().as_secs_f64() * 1e3);
    drop(fresh);

    let served = Served::start(db.clone(), None);
    values.set(
        "server.ping_rtt_us",
        wire::ping_rtt_us(served.addr(), Duration::from_millis(300)),
    );
    served.stop();

    let replay = layers::replay(&db, &streams[0], REPLAY);
    replay.report(&mut values);
    crate::write_trace("adapt", &replay.spans, out);
    out.attempted = e.statements + replay.statements;
    out.failed = e.failed + replay.failed;
    values.set("run.failed_share", out.failed as f64 / out.attempted as f64);
    if e.lat_p50_us > 0.0 {
        let stmt_us = replay.stmt_p50_ns(gen::Class::Read) / 1e3;
        values.set("server.wire_share", 1.0 - stmt_us / e.lat_p50_us);
    }
    layers::micro_probes(seed, &mut values);
    out.per_layer = Some(values);
}
