//! The three `serve-*` workloads: a fixed design, statements over the
//! wire, the advisor not involved.

use crate::gen::{self, Class, Stream, Table};
use crate::layers;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::reference;
use crate::vfs::CountingVfs;
use crate::wire::{self, Served, CLIENTS};
use crate::{host, stats, Outcome};
use cdpd_engine::{Database, IndexSpec};
use cdpd_server::Client;
use cdpd_sql::{Condition, Dml, SelectStmt};
use cdpd_storage::DurableOptions;
use cdpd_types::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What distinguishes one `serve-*` workload from another.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Rows in table `t`.
    pub rows: usize,
    /// Indexes built at set-up.
    pub indexes: &'static [&'static [&'static str]],
    /// Durable database over an in-memory VFS (else the in-memory pager).
    pub durable: bool,
    /// The class whose latencies `lat_p50_us`/`lat_p99_us` report.
    pub primary: Class,
    /// Statements pre-rendered per client (cycled when exhausted).
    pub pool: usize,
    /// Statements the traced run replays in-process.
    pub replay: usize,
    /// Statement generator.
    pub streams: fn(&Table, usize, u64) -> Vec<Stream>,
}

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed lead-in of the timed run, so caches fill and threads settle.
const WARMUP: Duration = Duration::from_secs(1);

/// In-memory, every statement seeks.
pub const POINT: Spec = Spec {
    name: "serve-point",
    rows: 200_000,
    indexes: &[&["a"], &["b"], &["c"], &["d"], &["a", "b"]],
    durable: false,
    primary: Class::Read,
    pool: 200_000,
    replay: 20_000,
    streams: |t, n, seed| gen::mix_streams(&gen::serve_point_mix(), t, CLIENTS, n, seed),
};

/// In-memory, no statement can seek.
pub const SCAN: Spec = Spec {
    name: "serve-scan",
    rows: 100_000,
    indexes: &[&["a"], &["b"], &["a", "b"]],
    durable: false,
    primary: Class::Read,
    pool: 20_000,
    replay: 500,
    streams: |t, n, seed| gen::serve_scan_streams(t, CLIENTS, n, seed),
};

/// Durable, writes beside reads, cache a quarter of the data.
pub const WRITE: Spec = Spec {
    name: "serve-write",
    rows: 30_000,
    indexes: &[&["a"], &["b"]],
    durable: true,
    primary: Class::Write,
    pool: 8_192,
    replay: 300,
    streams: |t, n, seed| gen::serve_write_streams(t, CLIENTS, n, seed),
};

/// `fsync` every commit; checkpoint when the log passes the default
/// 16 MiB. Stated in the output because it decides what a write costs.
fn durable_options(cache_pages: usize) -> DurableOptions {
    DurableOptions {
        cache_pages,
        group_commit: 1,
        ..DurableOptions::default()
    }
}

/// A loaded database being served.
struct Instance {
    db: Arc<Database>,
    vfs: Option<CountingVfs>,
    cache_pages: usize,
    served: Served,
}

/// Data load, `ANALYZE`, index builds, (durable: reopen with the
/// bounded cache), bind, first connection. Returns the instance and how
/// long all of that took.
fn set_up(spec: &Spec, table: &Table) -> (Instance, f64) {
    let started = Instant::now();
    let vfs = spec.durable.then(CountingVfs::default);
    let open = |cache_pages: usize| match &vfs {
        Some(vfs) => Database::open_with_vfs(Arc::new(vfs.clone()), durable_options(cache_pages))
            .expect("open over the in-memory VFS"),
        None => Database::new(),
    };
    let mut db = open(0);
    table.load_into(&db);
    for cols in spec.indexes {
        db.create_index(&IndexSpec::new(table.name, cols))
            .expect("index builds on a loaded table");
    }
    let mut cache_pages = 0;
    if spec.durable {
        // Restart with a cache a quarter the size of what was loaded:
        // the working set is then 4× the cache, and the cache is cold.
        db.checkpoint().expect("checkpoint after load");
        cache_pages = (db.page_count() / 4) as usize;
        drop(db);
        db = open(cache_pages);
    }
    let db = Arc::new(db);
    let served = Served::start(db.clone(), None);
    Client::connect(served.addr())
        .and_then(|mut c| c.ping())
        .expect("first connection");
    let took = started.elapsed().as_secs_f64();
    (
        Instance {
            db,
            vfs,
            cache_pages,
            served,
        },
        took,
    )
}

/// Set up [`SETUPS`] times, keeping only the last instance alive.
fn set_up_repeatedly(spec: &Spec, table: &Table) -> (Instance, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(Instance { served, .. }) = last.take() {
            Served::stop(served);
        }
        let (instance, took) = set_up(spec, table);
        times.push(took);
        last = Some(instance);
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Before timing: each client's leading `SELECT`s must return exactly
/// what a brute-force scan of the benchmark's own rows returns. Only
/// meaningful while nothing has been updated yet.
fn check_heads(instance: &Instance, table: &Table, streams: &[Stream], out: &mut Outcome) {
    let mut client = Client::connect(instance.served.addr()).expect("connect");
    let mut checked = 0;
    for stream in streams {
        for (op, stmt) in stream.ops.iter().zip(&stream.head) {
            let Dml::Select(select) = stmt else { continue };
            match wire::call(&mut client, op.tag, &op.sql) {
                Ok((got, _)) => {
                    let materialized = op.tag == cdpd_server::proto::OP_QUERY;
                    if let Err(why) = reference::check(table, select, &got, materialized) {
                        out.problem(why);
                    }
                }
                Err(e) => out.problem(format!("{}: {e}", op.sql)),
            }
            checked += 1;
        }
    }
    out.fact("answers_checked", checked.to_string());
}

fn eq_key(stmt: &Dml) -> i64 {
    match &stmt.conditions()[0] {
        Condition::Eq { value, .. } => value.as_int().expect("integer key"),
        other => panic!("write predicate is not an equality: {other}"),
    }
}

/// After the run: reopen the database from the same VFS and verify
/// that every key's rows carry the last acknowledged value of each
/// updated column. Returns the reopen time.
fn verify_after_restart(
    instance: Instance,
    table: &Table,
    streams: &[Stream],
    logs: &[wire::ClientLog],
    out: &mut Outcome,
) -> f64 {
    let Instance {
        db,
        vfs,
        cache_pages,
        served,
    } = instance;
    served.stop();
    drop(db);
    let vfs = vfs.expect("durable workloads carry their VFS");
    let started = Instant::now();
    let db = Database::open_with_vfs(Arc::new(vfs), durable_options(cache_pages))
        .expect("reopen after the run");
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;

    // key -> column -> last acknowledged value. Clients own disjoint
    // keys, so each key's history is one client's acknowledgement order.
    let mut expected: BTreeMap<i64, BTreeMap<&str, i64>> = BTreeMap::new();
    for (stream, log) in streams.iter().zip(logs) {
        for &i in &log.acked_writes {
            let Dml::Update(u) = &stream.head[i as usize] else {
                panic!("acknowledged write is not an UPDATE");
            };
            let (column, value) = &u.set[0];
            expected
                .entry(eq_key(&stream.head[i as usize]))
                .or_default()
                .insert(column.as_str(), value.as_int().expect("integer"));
        }
    }
    let a = table.column("a");
    let mut rows_per_key: BTreeMap<i64, u64> = BTreeMap::new();
    for row in &table.rows {
        *rows_per_key.entry(row[a]).or_default() += 1;
    }
    let mut wrong = 0u64;
    for (key, columns) in &expected {
        let mut select = SelectStmt::point(table.name, "a", *key);
        select.projection = cdpd_sql::Projection::Star;
        let got = db.query(&select).expect("point query after restart");
        if got.count != rows_per_key.get(key).copied().unwrap_or(0) {
            wrong += 1;
            continue;
        }
        for row in got.rows.as_deref().unwrap_or_default() {
            for (column, want) in columns {
                if row[table.column(column)] != Value::Int(*want) {
                    wrong += 1;
                }
            }
        }
    }
    if wrong > 0 {
        out.problem(format!(
            "{wrong} acknowledged UPDATEs are not readable after restart"
        ));
    }
    out.fact("keys_verified_after_restart", expected.len().to_string());
    recovery_ms
}

fn describe(spec: &Spec, instance: &Instance, out: &mut Outcome) {
    out.fact(
        "load",
        format!("closed loop, {CLIENTS} clients on {CLIENTS} connections, server in-process"),
    );
    out.fact(
        "table",
        format!(
            "t: {} rows, {} pages, indexes {:?}",
            spec.rows,
            instance.db.page_count(),
            spec.indexes
        ),
    );
    out.fact(
        "flush_policy",
        if spec.durable {
            format!(
                "durable over an in-memory VFS: fsync every commit (group_commit 1), checkpoint at {} MiB of log, cache {} pages",
                DurableOptions::default().checkpoint_wal_bytes >> 20,
                instance.cache_pages
            )
        } else {
            "in-memory pager: nothing is flushed".to_owned()
        },
    );
}

/// Generate the table and the clients' streams from `seed`.
fn inputs(spec: &Spec, seed: u64, out: &mut Outcome) -> (Table, Vec<Stream>) {
    let table = Table::generate("t", 4, spec.rows, seed);
    let streams = (spec.streams)(&table, spec.pool, seed);
    out.fact("stream_fnv", format!("{:016x}", gen::stream_hash(&streams)));
    (table, streams)
}

/// State the load shape, then check answers while nothing has been
/// updated yet (a durable run is checked after its restart instead).
fn describe_and_check(
    spec: &Spec,
    instance: &Instance,
    table: &Table,
    streams: &[Stream],
    out: &mut Outcome,
) {
    describe(spec, instance, out);
    if !spec.durable {
        check_heads(instance, table, streams, out);
    }
}

/// The timed run: tracing off, end-to-end metrics.
pub fn timed(spec: &Spec, seed: u64, seconds: u64, out: &mut Outcome) {
    let (table, streams) = inputs(spec, seed, out);
    let (instance, setup_s) = set_up_repeatedly(spec, &table);
    describe_and_check(spec, &instance, &table, &streams, out);

    let timed = Duration::from_secs(seconds);
    let logs = wire::closed_loop(instance.served.addr(), &streams, WARMUP, timed);
    let checkpoints = instance.db.pager().durable_stats().checkpoints;
    let peak = host::peak_rss_mib();
    if spec.durable {
        verify_after_restart(instance, &table, &streams, &logs, out);
        out.fact("checkpoints", checkpoints.to_string());
    } else {
        instance.served.stop();
    }

    let mut values = Values::new(END_TO_END);
    match wire::summarize(&logs, timed, spec.primary) {
        Ok(s) => {
            out.attempted = s.attempted;
            out.failed = s.failed;
            if let Some(e) = s.first_error {
                out.problem(format!("{} statements failed, first: {e}", s.failed));
            }
            out.fact("latency_samples", s.samples.to_string());
            values.set("setup_s", setup_s);
            values.set("ops_per_s", s.ops_per_s);
            values.set("pages_per_op", s.pages_per_op);
            values.set("peak_rss_mb", peak);
            for (name, value) in [("lat_p50_us", s.lat_p50_us), ("lat_p99_us", s.lat_p99_us)] {
                match value {
                    Ok(us) => values.set(name, us),
                    Err(why) => out.problem(why),
                }
            }
        }
        Err(why) => out.problem(why),
    }
    out.end_to_end = Some(values);
}

/// The traced run: a short wire section for the wire-side figures,
/// then the in-process replay and the micro-probes.
pub fn traced(spec: &Spec, seed: u64, seconds: u64, out: &mut Outcome) {
    let (table, streams) = inputs(spec, seed, out);
    let (instance, _) = set_up(spec, &table);
    describe_and_check(spec, &instance, &table, &streams, out);
    let mut values = Values::new(PER_LAYER);

    // Wire side: PING floor, then the workload's own closed loop.
    let ping = wire::ping_rtt_us(instance.served.addr(), Duration::from_millis(300));
    values.set("server.ping_rtt_us", ping);
    // Half the timed run's section, except where the slow class needs
    // the whole of it to have the samples for its 99th percentile.
    let timed = Duration::from_millis(seconds * if spec.durable { 1000 } else { 500 });
    let before = layers::DurableSnapshot::take(&instance.db, instance.vfs.as_ref());
    let mut logs = wire::closed_loop(
        instance.served.addr(),
        &streams,
        Duration::from_millis(300),
        timed,
    );
    let wire_stats = wire::summarize(&logs, timed, spec.primary);
    before.report(&instance.db, instance.vfs.as_ref(), &table, &mut values);

    // In-process replay on the same database, single-threaded.
    let replay = layers::replay(&instance.db, &streams[0], spec.replay);
    replay.report(&mut values);
    crate::write_trace(spec.name, &replay.spans, out);
    // The replay's UPDATEs are acknowledged writes like any other.
    logs[0].acked_writes.extend_from_slice(&replay.acked_writes);
    match wire_stats {
        Ok(s) => {
            out.attempted = s.attempted + replay.statements;
            out.failed = s.failed + replay.failed;
            values.set("run.failed_share", out.failed as f64 / out.attempted as f64);
            values.set("server.bytes_per_op", s.bytes_per_op);
            // This shorter section may be too thin for a percentile;
            // the metric then stays 0 and the reason is printed.
            match s.read_lat_p99_us {
                Ok(us) => values.set("server.read_lat_p99_us", us),
                Err(why) => out.fact("read_lat_p99", format!("not reported: {why}")),
            }
            if let Ok(wire_us) = s.lat_p50_us {
                // Share of the median wire latency not spent inside
                // parse→plan→execute→encode.
                let stmt_us = replay.stmt_p50_ns(spec.primary) / 1e3;
                values.set("server.wire_share", 1.0 - stmt_us / wire_us);
            }
            if let Some(e) = s.first_error {
                out.problem(format!("{} statements failed, first: {e}", s.failed));
            }
        }
        Err(why) => out.problem(why),
    }
    if replay.failed > 0 {
        out.problem(format!("{} replayed statements failed", replay.failed));
    }

    if spec.durable {
        let recovery_ms = verify_after_restart(instance, &table, &streams, &logs, out);
        values.set("storage.recovery_ms", recovery_ms);
    } else {
        instance.served.stop();
    }
    layers::micro_probes(seed, &mut values);
    out.per_layer = Some(values);
}
