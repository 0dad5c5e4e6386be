//! Per-layer measurement, all from outside the program: an in-process
//! replay of a statement stream through the steps a session takes, with
//! the benchmark's span recorder around each call into a layer; and
//! micro-probes that build their own pager, B-tree or database and time
//! a layer's public calls directly.

use crate::gen::{self, Class, Stream, Table};
use crate::metrics::Values;
use crate::spans::{self, Recorder, Span, Totals};
use crate::stats;
use crate::vfs::CountingVfs;
use cdpd_engine::{parallel_map, Database, IndexSpec, WhatIfEngine};
use cdpd_server::proto::{self, OP_QUERY, STATUS_OK};
use cdpd_server::RemoteResult;
use cdpd_sql::{Dml, SelectStmt, Statement};
use cdpd_storage::{
    codec, BTree, DurableOptions, DurableStats, HeapFile, IoStats, MemVfs, Pager, ThreadIoScope,
};
use cdpd_testkit::Prng;
use cdpd_types::{PageId, Rid, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------
// In-process replay
// ---------------------------------------------------------------------

/// What a replay measured.
pub struct Replay {
    /// Statements replayed (traced and untraced passes together).
    pub statements: u64,
    /// Statements that failed.
    pub failed: u64,
    /// Stream positions of the writes the replay applied, in order.
    pub acked_writes: Vec<u32>,
    totals: BTreeMap<&'static str, Totals>,
    traced_wall_ns: u64,
    untraced_wall_ns: u64,
    /// Untraced parse→execute→encode time per statement, by class.
    stmt_ns: Vec<(Class, u64)>,
    plan_ns: f64,
    pages: u64,
    rows: u64,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

/// One request through the steps a session takes: frame encode (client)
/// → frame decode → parse → plan + execute → result encode → frame
/// encode (server) → frame decode → result decode (client). Returns the
/// decoded reply and the parse→encode time when `clock` is set.
fn request(
    rec: &mut Recorder,
    db: &Database,
    tag: u8,
    sql: &str,
    clock: bool,
) -> cdpd_types::Result<(RemoteResult, u64)> {
    rec.span("request", |rec| {
        let mut wire = Vec::new();
        rec.span("server.frame_encode", |_| {
            proto::write_frame(&mut wire, tag, sql.as_bytes())
        })?;
        let (tag, payload) = rec
            .span("server.frame_decode", |_| proto::read_frame(&mut &wire[..]))?
            .expect("a whole frame was written");
        let started = clock.then(Instant::now);
        let encoded = rec.span("engine.stmt", |rec| {
            let sql = std::str::from_utf8(&payload).expect("statement text is UTF-8");
            let stmt = rec.span("sql.parse", |_| cdpd_sql::parse(sql))?;
            let scope = ThreadIoScope::start();
            let mut result = match (tag, stmt) {
                (OP_QUERY, Statement::Select(s)) => rec.span("engine.query", |_| db.query(&s))?,
                (_, Statement::Select(s)) => rec.span("engine.query", |_| db.query_count(&s))?,
                (_, other) => rec.span("engine.update", |_| db.execute_statement(other))?,
            };
            result.io = scope.delta();
            Ok::<_, cdpd_types::Error>(
                rec.span("server.result_encode", |_| proto::encode_result(&result)),
            )
        })?;
        let stmt_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut back = Vec::new();
        rec.span("server.frame_encode", |_| {
            proto::write_frame(&mut back, STATUS_OK, &encoded)
        })?;
        let (_, body) = rec
            .span("server.frame_decode", |_| proto::read_frame(&mut &back[..]))?
            .expect("a whole frame was written");
        let reply = rec.span("server.result_decode", |_| proto::decode_result(&body))?;
        Ok((reply, stmt_ns))
    })
}

/// Replay the first `n` statements of `stream` against `db` on this
/// thread: once with the recorder on, once with it off, then a
/// plan-only pass (`Database::explain`) over the `SELECT`s.
pub fn replay(db: &Database, stream: &Stream, n: usize) -> Replay {
    let ops = &stream.ops[..n.min(stream.ops.len())];
    let mut out = Replay {
        statements: 0,
        failed: 0,
        acked_writes: Vec::new(),
        totals: BTreeMap::new(),
        traced_wall_ns: 0,
        untraced_wall_ns: 0,
        stmt_ns: Vec::with_capacity(ops.len()),
        plan_ns: 0.0,
        pages: 0,
        rows: 0,
        spans: Vec::new(),
    };
    for traced in [true, false] {
        let mut rec = Recorder::new(traced);
        let started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            rec.set_request(i as u64);
            out.statements += 1;
            match request(&mut rec, db, op.tag, &op.sql, !traced) {
                Ok((reply, stmt_ns)) => {
                    if op.class == Class::Write {
                        out.acked_writes.push(i as u32);
                    }
                    if traced {
                        out.pages += reply.io.total();
                        out.rows += reply.count;
                    } else {
                        out.stmt_ns.push((op.class, stmt_ns));
                    }
                }
                Err(_) => out.failed += 1,
            }
        }
        let wall = started.elapsed().as_nanos() as u64;
        if traced {
            out.traced_wall_ns = wall;
            out.totals = spans::totals(rec.spans());
            out.spans = rec.spans().to_vec();
        } else {
            out.untraced_wall_ns = wall;
        }
    }
    let selects: Vec<SelectStmt> = ops
        .iter()
        .filter(|op| op.class == Class::Read)
        .filter_map(|op| match cdpd_sql::parse(&op.sql) {
            Ok(Statement::Select(s)) => Some(s),
            _ => None,
        })
        .collect();
    if !selects.is_empty() {
        let started = Instant::now();
        for s in &selects {
            black_box(db.explain(s).expect("a statement that ran also plans"));
        }
        out.plan_ns = started.elapsed().as_nanos() as f64 / selects.len() as f64;
    }
    out
}

impl Replay {
    fn total(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Median untraced parse→execute→encode time of `class`, ns.
    pub fn stmt_p50_ns(&self, class: Class) -> f64 {
        let mut v: Vec<u64> = self
            .stmt_ns
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, ns)| *ns)
            .collect();
        v.sort_unstable();
        v.get(v.len() / 2).copied().unwrap_or(0) as f64
    }

    /// Fold the replay into the per-layer vocabulary.
    pub fn report(&self, values: &mut Values) {
        let n = self.total("request").count.max(1) as f64;
        let per_request = |names: &[&str]| -> f64 {
            names.iter().map(|s| self.total(s).total_ns).sum::<u64>() as f64 / n
        };
        values.set(
            "server.frame_codec_ns",
            per_request(&["server.frame_encode", "server.frame_decode"]),
        );
        values.set(
            "server.result_codec_ns",
            per_request(&["server.result_encode", "server.result_decode"]),
        );
        values.set("sql.parse_ns", per_request(&["sql.parse"]));
        let stmt: Vec<f64> = self.stmt_ns.iter().map(|(_, ns)| *ns as f64).collect();
        values.set("engine.stmt_ns", stats::mean(&stmt));
        values.set("engine.plan_ns", self.plan_ns);
        let query = self.total("engine.query");
        if query.count > 0 {
            // Statement minus plan: what executing the chosen plan costs.
            let per_query = query.total_ns as f64 / query.count as f64;
            values.set("engine.exec_ns", (per_query - self.plan_ns).max(0.0));
        }
        if self.rows > 0 {
            values.set("engine.pages_per_row", self.pages as f64 / self.rows as f64);
        }
        values.set(
            "obs.trace_overhead",
            self.traced_wall_ns as f64 / self.untraced_wall_ns.max(1) as f64,
        );
        // Inside the statement span, what no child accounts for.
        let stmt_span = self.total("engine.stmt");
        values.set(
            "layers.unaccounted_share",
            stmt_span.self_ns as f64 / stmt_span.total_ns.max(1) as f64,
        );
    }
}

// ---------------------------------------------------------------------
// Durable-tier deltas over a run
// ---------------------------------------------------------------------

/// The durable tier's ledgers at one instant.
pub struct DurableSnapshot {
    stats: DurableStats,
    logical: IoStats,
    wal_bytes: u64,
    syncs: u64,
    checkpoint_ns: cdpd_obs::HistogramSnapshot,
}

impl DurableSnapshot {
    /// Read every ledger now.
    pub fn take(db: &Database, vfs: Option<&CountingVfs>) -> DurableSnapshot {
        DurableSnapshot {
            stats: db.pager().durable_stats(),
            logical: db.pager().stats(),
            wal_bytes: vfs.map_or(0, |v| v.counts.wal_bytes.load(Ordering::Relaxed)),
            syncs: vfs.map_or(0, |v| v.counts.syncs.load(Ordering::Relaxed)),
            checkpoint_ns: cdpd_obs::registry()
                .histogram("storage.checkpoint.nanos")
                .snapshot(),
        }
    }

    /// Report what happened between `self` and now.
    pub fn report(
        &self,
        db: &Database,
        vfs: Option<&CountingVfs>,
        table: &Table,
        values: &mut Values,
    ) {
        let now = DurableSnapshot::take(db, vfs);
        let d = now.stats.delta(self.stats);
        let commits = d.wal_commits.max(1) as f64;
        values.set(
            "storage.wal_bytes_per_commit",
            (now.wal_bytes - self.wal_bytes) as f64 / commits,
        );
        values.set(
            "storage.fsyncs_per_commit",
            (now.syncs - self.syncs) as f64 / commits,
        );
        values.set(
            "storage.writeback_pages_per_commit",
            d.writeback_pages as f64 / commits,
        );
        values.set("storage.checkpoints", d.checkpoints as f64);
        values.set(
            "storage.checkpoint_ms",
            now.checkpoint_ns.delta(&self.checkpoint_ns).mean() / 1e6,
        );
        let reads = now.logical.delta(self.logical).reads.max(1);
        values.set(
            "storage.cache_hit_rate",
            1.0 - d.backend_fetches as f64 / reads as f64,
        );
        values.set(
            "storage.space_amp",
            (db.page_count() * cdpd_storage::PAGE_SIZE as u64) as f64 / table.user_bytes() as f64,
        );
    }
}

// ---------------------------------------------------------------------
// Micro-probes
// ---------------------------------------------------------------------

/// Rows the probes' own fixtures hold: enough for a three-level
/// B-tree, small enough that every traced run can afford every probe.
const PROBE_ROWS: usize = 50_000;

fn ns_per(started: Instant, n: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / n.max(1) as f64
}

fn row_values(row: &[i64]) -> Vec<Value> {
    row.iter().copied().map(Value::Int).collect()
}

fn storage_probes(table: &Table, seed: u64, values: &mut Values) {
    let mut rng = Prng::seed_from_u64(seed ^ 0x5709_A6E0);
    let rows = &table.rows;

    // A heap and a B-tree on the first column, in one in-memory pager.
    let pager = Arc::new(Pager::new());
    let mut heap = HeapFile::create(pager.clone());
    let mut entries: Vec<(Vec<Value>, Rid)> = Vec::with_capacity(rows.len());
    let mut bytes = Vec::new();
    for row in rows {
        bytes.clear();
        codec::encode_row(&row_values(row), &mut bytes);
        let rid = heap.insert(&bytes).expect("row fits a page");
        entries.push((vec![Value::Int(row[0])], rid));
    }
    entries.sort();

    let started = Instant::now();
    let tree = BTree::bulk_load(pager.clone(), entries.iter().cloned()).expect("sorted input");
    values.set(
        "storage.bulk_load_ns_per_entry",
        ns_per(started, entries.len()),
    );

    let ids: Vec<PageId> = heap.pages().to_vec();
    let reads = 2_000_000;
    let started = Instant::now();
    for i in 0..reads {
        black_box(pager.read(ids[i % ids.len()]).expect("resident page"));
    }
    values.set("storage.pager_read_ns", ns_per(started, reads));

    let scans = 10;
    let started = Instant::now();
    let mut sum = 0i64;
    for _ in 0..scans {
        let mut scan = heap.scan();
        while let Some((_, view)) = scan.next_row().expect("heap scan") {
            sum = sum.wrapping_add(view.int(0).expect("integer column"));
        }
    }
    black_box(sum);
    values.set(
        "storage.heap_scan_ns_per_row",
        ns_per(started, scans * rows.len()),
    );

    let seeks = 200_000;
    let keys: Vec<Value> = (0..seeks)
        .map(|_| Value::Int(rng.gen_range(0..table.domain)))
        .collect();
    let scope = ThreadIoScope::start();
    let started = Instant::now();
    for key in &keys {
        let mut cursor = tree.seek(std::slice::from_ref(key)).expect("seek");
        black_box(
            cursor
                .next_entry()
                .expect("first entry")
                .map(|(_, rid)| rid),
        );
    }
    values.set("storage.btree_seek_ns", ns_per(started, seeks));
    values.set(
        "storage.btree_pages_per_seek",
        scope.delta().reads as f64 / seeks as f64,
    );

    let mut grown = BTree::create(Arc::new(Pager::new())).expect("empty tree");
    let mut shuffled = entries.clone();
    rng.shuffle(&mut shuffled);
    let started = Instant::now();
    for (key, rid) in &shuffled {
        grown.insert(key, *rid).expect("insert");
    }
    values.set("storage.btree_insert_ns", ns_per(started, shuffled.len()));

    // A durable pager with a cache far smaller than its pages: every
    // read in a cyclic sweep misses, fetches from the backend and
    // verifies the page checksum.
    let opened = Pager::open_durable(
        Arc::new(MemVfs::new()),
        DurableOptions {
            cache_pages: 64,
            group_commit: 1,
            checkpoint_wal_bytes: 0,
        },
    )
    .expect("open an empty durable pager");
    let durable = opened.pager;
    let cold: Vec<PageId> = (0..1024).map(|_| durable.allocate()).collect();
    for (i, id) in cold.iter().enumerate() {
        durable
            .update(*id, |page| {
                page[..8].copy_from_slice(&(i as u64).to_le_bytes())
            })
            .expect("update");
    }
    durable.commit(&[]).expect("commit");
    durable.checkpoint().expect("checkpoint");
    let sweeps = 20;
    let fetched = durable.durable_stats().backend_fetches;
    let started = Instant::now();
    for _ in 0..sweeps {
        for id in &cold {
            black_box(durable.read(*id).expect("fetch"));
        }
    }
    let n = sweeps * cold.len();
    values.set("storage.pager_read_miss_ns", ns_per(started, n));
    let missed = durable.durable_stats().backend_fetches - fetched;
    assert!(
        missed * 10 >= n as u64 * 9,
        "the miss probe hit the cache: {missed} fetches for {n} reads"
    );

    // One-page update + empty-meta commit, fsync each, no checkpoints.
    let commits = 2_000;
    let started = Instant::now();
    for i in 0..commits {
        durable
            .update(cold[0], |page| page[8] = i as u8)
            .expect("update");
        durable.commit(&[]).expect("commit");
    }
    values.set("storage.commit_ns", ns_per(started, commits));
}

fn engine_probes(table: &Table, seed: u64, values: &mut Values) {
    let mut rng = Prng::seed_from_u64(seed ^ 0xE961_2E00);
    // The fixture is the paper's table: index `a`, build and drop an
    // index on `b`, write and scan the unindexed `d`.
    let build = |db: Database| -> Database {
        table.load_into(&db);
        db.create_index(&IndexSpec::new(table.name, &["a"]))
            .expect("index on a");
        db
    };
    let memory = build(Database::new());
    let durable = build(
        Database::open_with_vfs(Arc::new(MemVfs::new()), DurableOptions::default())
            .expect("open over the in-memory VFS"),
    );

    // The same UPDATEs in memory and durably; the difference is what
    // catalog encode + WAL append + fsync add to a statement.
    let update = |rng: &mut Prng| -> Dml {
        Dml::Update(cdpd_sql::UpdateStmt {
            table: table.name.to_owned(),
            set: vec![("d".into(), Value::Int(rng.gen_range(0..table.domain)))],
            conditions: vec![cdpd_sql::Condition::Eq {
                column: "a".into(),
                value: Value::Int(rng.gen_range(0..table.domain)),
            }],
        })
    };
    let updates: Vec<Dml> = (0..2_000).map(|_| update(&mut rng)).collect();
    let started = Instant::now();
    for u in &updates {
        black_box(memory.execute_dml(u).expect("in-memory update"));
    }
    let in_memory = ns_per(started, updates.len());
    values.set("engine.update_ns", in_memory);
    let durable_n = 60;
    let started = Instant::now();
    for u in &updates[..durable_n] {
        black_box(durable.execute_dml(u).expect("durable update"));
    }
    values.set(
        "engine.commit_ns",
        (ns_per(started, durable_n) - in_memory).max(0.0),
    );
    drop(durable);

    // Online CREATE INDEX: scan, sort, bulk load.
    let spec = IndexSpec::new(table.name, &["b"]);
    let mut ms = Vec::new();
    let mut pages = 0;
    for _ in 0..3 {
        let started = Instant::now();
        let report = memory.create_index(&spec).expect("create index");
        ms.push(started.elapsed().as_secs_f64() * 1e3);
        pages = report.io.total();
        memory.drop_index(&spec).expect("drop index");
    }
    values.set("engine.create_index_ms", stats::median(&ms));
    values.set("engine.create_index_pages", pages as f64);

    // Statistics refresh after DML, without a scan. Fresh updates: a
    // repeated one changes no value and leaves nothing to refresh.
    let mut us = Vec::new();
    for _ in 0..20 {
        memory.execute_dml(&update(&mut rng)).expect("update");
        let started = Instant::now();
        black_box(memory.refresh_stats(table.name).expect("refresh"));
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    values.set("engine.refresh_stats_us", stats::median(&us));

    // One what-if cost call under a two-index hypothetical design.
    let whatif = WhatIfEngine::snapshot(&memory, table.name).expect("analyzed table");
    let design = [
        IndexSpec::new(table.name, &["a"]),
        IndexSpec::new(table.name, &["b"]),
    ];
    let probes: Vec<SelectStmt> = (0..20_000)
        .map(|i| {
            let column = if i % 2 == 0 { "a" } else { "b" };
            SelectStmt::point(table.name, column, rng.gen_range(0..table.domain))
        })
        .collect();
    let started = Instant::now();
    for s in &probes {
        black_box(whatif.exec_cost(s, &design).expect("what-if cost"));
    }
    values.set("engine.whatif_ns", ns_per(started, probes.len()));

    // A batch of scans through parallel_map at nproc threads against 1.
    let scans: Vec<SelectStmt> = (0..16)
        .map(|_| SelectStmt::point(table.name, "d", rng.gen_range(0..table.domain)))
        .collect();
    let batch = |threads: usize| -> f64 {
        let started = Instant::now();
        parallel_map(scans.len(), threads, |i| memory.query_count(&scans[i])).expect("scans");
        started.elapsed().as_secs_f64()
    };
    batch(1);
    let serial = stats::median(&[batch(1), batch(1), batch(1)]);
    let n = crate::host::nproc();
    let parallel = stats::median(&[batch(n), batch(n), batch(n)]);
    values.set("engine.par_speedup", serial / parallel);
}

fn workload_probes(table: &Table, seed: u64, values: &mut Values) {
    let started = Instant::now();
    let trace = gen::adapt_trace(table, 500, seed);
    values.set(
        "workload.generate_stmts_per_s",
        trace.len() as f64 / started.elapsed().as_secs_f64(),
    );
    black_box(trace);
}

/// Run every micro-probe on fixtures made from one [`PROBE_ROWS`]-row
/// copy of the paper's four-column table, generated from `seed` — the
/// same fixtures whatever the workload, so a layer's figure reads the
/// same in all five traced runs.
pub fn micro_probes(seed: u64, values: &mut Values) {
    let fixture = Table::generate("t", 4, PROBE_ROWS, seed ^ 0xF1C7_0000);
    storage_probes(&fixture, seed, values);
    engine_probes(&fixture, seed, values);
    workload_probes(&fixture, seed, values);
}
