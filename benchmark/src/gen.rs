//! Everything the benchmark feeds the program, generated from `--seed`:
//! table rows, statement streams, the advisor's structure pool. The
//! program only ever sees the generated inputs, never the seed.

use crate::stats::Fnv;
use cdpd_engine::{Database, IndexSpec};
use cdpd_server::proto::{OP_EXEC, OP_QUERY};
use cdpd_sql::{AggFunc, Condition, Dml, Projection, SelectStmt, UpdateStmt};
use cdpd_testkit::Prng;
use cdpd_types::{ColumnDef, Schema, Value};
use cdpd_workload::paper::{self, PaperParams};
use cdpd_workload::{QueryMix, Template, Trace, WorkloadSpec};

/// Rows per distinct column value, as in the paper's table.
pub const ROWS_PER_VALUE: i64 = 5;

/// The benchmark's own copy of a generated table.
pub struct Table {
    /// Table name in the program's catalog.
    pub name: &'static str,
    /// Column names, in schema order.
    pub columns: Vec<String>,
    /// Row-major integer data.
    pub rows: Vec<Vec<i64>>,
    /// Every value lies in `[0, domain)`.
    pub domain: i64,
}

impl Table {
    /// `n_rows` rows of `n_cols` uniform integers. Four columns are
    /// named `a`–`d` (the paper's table `t`); other widths `c0`, `c1`, ….
    pub fn generate(name: &'static str, n_cols: usize, n_rows: usize, seed: u64) -> Table {
        let columns = if n_cols == 4 {
            ["a", "b", "c", "d"].map(String::from).to_vec()
        } else {
            (0..n_cols).map(|i| format!("c{i}")).collect()
        };
        let domain = (n_rows as i64 / ROWS_PER_VALUE).max(2);
        let mut rng = Prng::seed_from_u64(seed ^ 0x7AB1_E5EE_D000_0001);
        let rows = (0..n_rows)
            .map(|_| (0..n_cols).map(|_| rng.gen_range(0..domain)).collect())
            .collect();
        Table {
            name,
            columns,
            rows,
            domain,
        }
    }

    /// Position of column `name`.
    pub fn column(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name} in {}", self.name))
    }

    /// Bytes of user data: 8 per integer.
    pub fn user_bytes(&self) -> u64 {
        (self.rows.len() * self.columns.len() * 8) as u64
    }

    /// Create the table in `db`, load every row, and `ANALYZE`.
    pub fn load_into(&self, db: &Database) {
        let schema = Schema::new(self.columns.iter().map(ColumnDef::int).collect());
        db.create_table(self.name, schema).expect("fresh database");
        // Chunked so the Value copies never double the table in memory.
        for chunk in self.rows.chunks(8192) {
            let rows: Vec<Vec<Value>> = chunk
                .iter()
                .map(|r| r.iter().copied().map(Value::Int).collect())
                .collect();
            db.insert_many(self.name, rows.iter().map(Vec::as_slice))
                .expect("rows match the schema");
        }
        db.analyze(self.name).expect("table exists");
    }
}

/// Which latency population an operation belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A `SELECT`.
    Read,
    /// An `UPDATE`.
    Write,
}

/// One pre-rendered wire request.
pub struct Op {
    /// Frame tag: `OP_QUERY` (rows come back) or `OP_EXEC` (counts only).
    pub tag: u8,
    /// Statement text, rendered before the clock starts.
    pub sql: String,
    /// Latency population.
    pub class: Class,
}

/// A client's statement stream: rendered requests, plus the parsed form
/// of the first few so their answers can be checked against the
/// benchmark's own copy of the rows.
pub struct Stream {
    /// Requests, cycled if the run outlasts them.
    pub ops: Vec<Op>,
    /// `head[i]` is the statement behind `ops[i]`.
    pub head: Vec<Dml>,
}

/// How many leading statements of a stream keep their parsed form,
/// unless the workload needs them all.
pub const HEAD: usize = 256;

fn stream_of(tag: u8, stmts: impl Iterator<Item = Dml>, keep: usize) -> Stream {
    let mut ops = Vec::new();
    let mut head = Vec::new();
    for stmt in stmts {
        ops.push(Op {
            tag,
            sql: stmt.to_string(),
            class: if stmt.is_write() {
                Class::Write
            } else {
                Class::Read
            },
        });
        if head.len() < keep {
            head.push(stmt);
        }
    }
    Stream { ops, head }
}

/// FNV-1a over every stream's statement text, in client order: two runs
/// that print the same hash sent the same inputs.
pub fn stream_hash(streams: &[Stream]) -> u64 {
    let mut h = Fnv::new();
    for s in streams {
        for op in &s.ops {
            h.line(op.sql.as_bytes());
        }
    }
    h.finish()
}

fn point(column: &str) -> Template {
    Template::Point {
        column: column.into(),
    }
}

/// `serve-point`: 40% Point, 20% Range (span 20), 15% IN(8), 10% OrPair,
/// 15% EqPair — every statement can seek on I(a), I(b), I(c), I(d), I(a,b).
pub fn serve_point_mix() -> QueryMix {
    let range = |c: &str| Template::Range {
        column: c.into(),
        span: 20,
    };
    let in8 = |c: &str| Template::In {
        column: c.into(),
        list_len: 8,
    };
    let pair = |l: &str, r: &str| (l.to_owned(), r.to_owned());
    let or = |(left, right)| Template::OrPair { left, right };
    let eq = |(left, right)| Template::EqPair { left, right };
    QueryMix::with_templates(
        "serve-point",
        vec![
            (point("a"), 10),
            (point("b"), 10),
            (point("c"), 10),
            (point("d"), 10),
            (range("a"), 5),
            (range("b"), 5),
            (range("c"), 5),
            (range("d"), 5),
            (in8("a"), 5),
            (in8("b"), 5),
            (in8("c"), 5),
            (or(pair("a", "c")), 5),
            (or(pair("b", "d")), 5),
            (eq(pair("a", "b")), 10),
            (eq(pair("c", "d")), 5),
        ],
    )
    .expect("static weights")
}

/// One `QUERY` stream per client drawn from `mix`.
pub fn mix_streams(
    mix: &QueryMix,
    table: &Table,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<Stream> {
    (0..clients)
        .map(|c| {
            let mut rng = Prng::seed_from_u64(seed ^ (0x57A7_E000 + c as u64));
            stream_of(
                OP_QUERY,
                (0..per_client).map(|_| mix.sample(&mut rng, table.name, table.domain)),
                HEAD,
            )
        })
        .collect()
}

fn select(table: &Table, projection: Projection, conditions: Vec<Condition>) -> Dml {
    Dml::Select(SelectStmt {
        projection,
        table: table.name.to_owned(),
        conditions,
        order_by: None,
        limit: None,
    })
}

fn half_open(column: &str, lo: i64, hi: i64) -> Condition {
    Condition::Range {
        column: column.to_owned(),
        lo: Some(Value::Int(lo)),
        lo_inclusive: true,
        hi: Some(Value::Int(hi)),
        hi_inclusive: false,
    }
}

/// `serve-scan`: statements no index on a/b can serve — 60% Point on
/// `d`, 20% a 1%-selectivity Range on `c`, 20% `COUNT(*)`/`SUM(b)` over
/// a range covering a quarter to a half of `c`'s domain. Points are a
/// clear majority so the median latency lies inside one statement
/// class, not on the boundary between two. The classes follow a fixed
/// ten-statement pattern — only the literals are random — so every
/// stretch of a run carries exactly the same mix.
pub fn serve_scan_streams(
    table: &Table,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<Stream> {
    let narrow = (table.domain / 100).max(1);
    (0..clients)
        .map(|c| {
            let mut rng = Prng::seed_from_u64(seed ^ (0x5CA7_0000 + c as u64));
            let stmts = (0..per_client).map(|i| {
                let v = rng.gen_range(0..table.domain);
                match b"pprpapprpa"[i % 10] {
                    b'p' => Dml::Select(SelectStmt::point(table.name, "d", v)),
                    b'r' => select(
                        table,
                        Projection::Columns(vec!["c".into()]),
                        vec![half_open("c", v, v + narrow)],
                    ),
                    _ => {
                        let lo = v / 2;
                        let width = table.domain / 4 + rng.gen_range(0..table.domain / 4);
                        let projection = if i % 20 < 10 {
                            Projection::CountStar
                        } else {
                            Projection::Aggregate(AggFunc::Sum, "b".into())
                        };
                        select(table, projection, vec![half_open("c", lo, lo + width)])
                    }
                }
            });
            stream_of(OP_QUERY, stmts, HEAD)
        })
        .collect()
}

/// `serve-write`'s class pattern: `D` = `UPDATE … SET d`, `B` =
/// `UPDATE … SET b`, `a`/`b` = Point `SELECT` on that column — 7 + 3 +
/// 5 + 5 in twenty, reads and writes alternating.
const WRITE_PATTERN: &[u8; 20] = b"DaDbBaDbDaBbDaDbBaDb";

/// `serve-write`: 35% `UPDATE t SET d = … WHERE a = …` (heap only), 15%
/// `UPDATE t SET b = … WHERE a = …` (maintains I(b)), 50% Point
/// `SELECT` on `a`/`b`. Client `c` updates only keys `≡ c (mod clients)`,
/// so every row's final value is decided by one client's own order.
/// Statement classes follow [`WRITE_PATTERN`]; only literals are random.
pub fn serve_write_streams(
    table: &Table,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<Stream> {
    (0..clients)
        .map(|c| {
            let mut rng = Prng::seed_from_u64(seed ^ (0x3717_E000 + c as u64));
            let stmts = (0..per_client).map(|i| {
                let v = rng.gen_range(0..table.domain);
                match WRITE_PATTERN[i % WRITE_PATTERN.len()] {
                    column @ (b'D' | b'B') => {
                        let key = v - v % clients as i64 + c as i64;
                        let key = if key < table.domain { key } else { c as i64 };
                        Dml::Update(UpdateStmt {
                            table: table.name.to_owned(),
                            set: vec![(
                                if column == b'D' { "d" } else { "b" }.to_owned(),
                                Value::Int(rng.gen_range(0..table.domain)),
                            )],
                            conditions: vec![Condition::Eq {
                                column: "a".into(),
                                value: Value::Int(key),
                            }],
                        })
                    }
                    b'a' => Dml::Select(SelectStmt::point(table.name, "a", v)),
                    _ => Dml::Select(SelectStmt::point(table.name, "b", v)),
                }
            });
            // Every statement keeps its parsed form: the restart check
            // needs the key and value of each acknowledged UPDATE.
            stream_of(OP_EXEC, stmts, per_client)
        })
        .collect()
}

/// `adapt`: the paper's W1 pattern followed by the W4 pattern, 60
/// windows in all, dealt round-robin to the clients.
pub fn adapt_trace(table: &Table, window_len: usize, seed: u64) -> Trace {
    let params = PaperParams {
        table: table.name.to_owned(),
        domain: table.domain,
        window_len,
    };
    let mut stmts = cdpd_workload::generate(&paper::w1_with(&params), seed)
        .statements()
        .to_vec();
    stmts.extend_from_slice(
        cdpd_workload::generate(&paper::w4_with(&params), seed ^ 0x4444).statements(),
    );
    Trace::new(table.name, stmts)
}

/// Render a trace's per-session split as `EXEC` streams.
pub fn trace_streams(trace: &Trace, clients: usize) -> Vec<Stream> {
    cdpd_workload::partition(trace, clients)
        .expect("at least one client")
        .sessions()
        .iter()
        .map(|t| stream_of(OP_EXEC, t.statements().iter().cloned(), HEAD))
        .collect()
}

/// `advise`: `windows` windows of `window_len` statements whose focus
/// moves over all of the table's columns — a new leading column every
/// ten windows, its partner alternating every other window — drawing
/// Point/Range/IN/EqPair plus 5% UPDATE.
pub fn advise_trace(table: &Table, windows: usize, window_len: usize, seed: u64) -> Trace {
    let n = table.columns.len();
    let span = (table.domain / 100).max(1);
    let mixes = (0..windows)
        .map(|w| {
            let lead = (w / 10) % n;
            let partner = (lead + 1 + (w / 2) % 2) % n;
            let other = (lead + 4) % n;
            let (x, y, z) = (
                table.columns[lead].clone(),
                table.columns[partner].clone(),
                table.columns[other].clone(),
            );
            QueryMix::with_templates(
                format!("{x}{y}"),
                vec![
                    (point(&x), 35),
                    (point(&y), 15),
                    (
                        Template::Range {
                            column: x.clone(),
                            span,
                        },
                        15,
                    ),
                    (
                        Template::In {
                            column: y.clone(),
                            list_len: 4,
                        },
                        10,
                    ),
                    (
                        Template::EqPair {
                            left: x.clone(),
                            right: y,
                        },
                        15,
                    ),
                    (point(&z), 5),
                    (
                        Template::Update {
                            set_column: z,
                            where_column: x,
                        },
                        5,
                    ),
                ],
            )
            .expect("static weights")
        })
        .collect();
    let spec = WorkloadSpec::new(table.name, table.domain, window_len, mixes)
        .expect("non-degenerate spec");
    cdpd_workload::generate(&spec, seed ^ 0xAD71_5E00)
}

/// The advisor's explicit structure pool over `table`: every single
/// column, every ordered pair, then three-column specs until `size`,
/// in an order shuffled by `seed`.
pub fn structure_pool(table: &Table, size: usize, seed: u64) -> Vec<IndexSpec> {
    let cols: Vec<&str> = table.columns.iter().map(String::as_str).collect();
    let n = cols.len();
    let mut out = Vec::new();
    for a in &cols {
        out.push(IndexSpec::new(table.name, &[a]));
    }
    for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            out.push(IndexSpec::new(table.name, &[cols[a], cols[b]]));
        }
    }
    'triples: for a in 0..n {
        for b in (0..n).filter(|&b| b != a) {
            for c in (0..n).filter(|&c| c != a && c != b) {
                if out.len() >= size {
                    break 'triples;
                }
                out.push(IndexSpec::new(table.name, &[cols[a], cols[b], cols[c]]));
            }
        }
    }
    out.truncate(size);
    Prng::seed_from_u64(seed ^ 0x9001_0000).shuffle(&mut out);
    out
}

/// FNV-1a over a trace's statement text.
pub fn trace_hash(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    for s in trace.statements() {
        h.line(s.to_string().as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let t1 = Table::generate("t", 4, 500, 1);
        let t2 = Table::generate("t", 4, 500, 1);
        let t3 = Table::generate("t", 4, 500, 2);
        assert_eq!(t1.rows, t2.rows);
        assert_ne!(t1.rows, t3.rows);
        assert!(t1.rows.iter().flatten().all(|v| (0..t1.domain).contains(v)));

        type Gen = fn(&Table, u64) -> u64;
        let generators: [Gen; 5] = [
            |t, s| stream_hash(&mix_streams(&serve_point_mix(), t, 2, 300, s)),
            |t, s| stream_hash(&serve_scan_streams(t, 2, 300, s)),
            |t, s| stream_hash(&serve_write_streams(t, 2, 300, s)),
            |t, s| stream_hash(&trace_streams(&adapt_trace(t, 10, s), 2)),
            |t, s| trace_hash(&advise_trace(t, 12, 10, s)),
        ];
        for (i, g) in generators.iter().enumerate() {
            assert_eq!(g(&t1, 9), g(&t1, 9), "generator {i} repeats");
            assert_ne!(g(&t1, 9), g(&t1, 10), "generator {i} follows the seed");
        }
    }

    #[test]
    fn write_streams_own_disjoint_keys() {
        let table = Table::generate("t", 4, 1000, 3);
        for (c, stream) in serve_write_streams(&table, 2, HEAD, 5).iter().enumerate() {
            for stmt in &stream.head {
                if let Dml::Update(u) = stmt {
                    let Condition::Eq { value, .. } = &u.conditions[0] else {
                        panic!("updates predicate on a = key");
                    };
                    assert_eq!(value.as_int().unwrap() % 2, c as i64);
                }
            }
        }
    }

    #[test]
    fn pool_has_the_requested_size_and_no_duplicates() {
        let table = Table::generate("w", 8, 100, 1);
        let pool = structure_pool(&table, 128, 1);
        assert_eq!(pool.len(), 128);
        let mut names: Vec<String> = pool.iter().map(IndexSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 128);
        assert_ne!(
            pool.iter().map(IndexSpec::name).collect::<Vec<_>>(),
            structure_pool(&table, 128, 2)
                .iter()
                .map(IndexSpec::name)
                .collect::<Vec<_>>(),
            "pool order follows the seed"
        );
    }
}
