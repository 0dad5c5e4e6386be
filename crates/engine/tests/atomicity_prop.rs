//! A statement happens whole or not at all. Each statement here runs
//! with its `n`-th page write failed (`cdpd_storage::fail_nth_write`),
//! for every `n` up to the number of page writes it makes. Every run
//! must return the error and leave the database equal to a twin that
//! never ran the statement: the bytes of every live page, the count of
//! live pages, each index's shape and key width, the statistics after a
//! refresh, and the answers to a fixed query set. The same must hold on
//! a durable database, after a later commit and a reopen.
//!
//! The statements: a single `INSERT`, an `insert_many` batch, `UPDATE`s
//! that change index keys, that move rows to other pages and that set
//! an index key over the cap on a later row (a failure nothing
//! injects), `DELETE`s, and `CREATE INDEX` at one build thread.
//!
//! A statement that fails while an online `CREATE INDEX` on its table
//! is scanning must leave that build as it found it, too: the index
//! installed must be the one a build after the failure makes.

use cdpd_engine::{Database, IndexSpec};
use cdpd_sql::Statement;
use cdpd_storage::{at_nth_write, before_next_build, fail_nth_write};
use cdpd_storage::{DurableOptions, MemVfs, ThreadIoScope};
use cdpd_testkit::prop::{any_bool, string_of, vec_of, Config, Just, Strategy};
use cdpd_testkit::{one_of, props};
use cdpd_types::{ColumnDef, Error, PageId, Result, Schema, Value};
use std::sync::{mpsc, Arc};

/// `(a, b, s, u)`; `u` is sometimes 2,500 bytes, so a 1,600-byte `s`
/// puts that row's `(s, u)` key over the cap.
type Row = (i64, i64, String, String);

#[derive(Clone, Debug)]
enum Stmt {
    Insert(Row),
    InsertMany(Vec<Row>),
    Sql(String),
    CreateIndex(Vec<&'static str>),
}

fn row() -> impl Strategy<Value = Row> {
    let u = (any_bool(), any_bool(), string_of("pq", 0..6)).prop_map(|(x, y, u)| {
        if x && y {
            "w".repeat(2_500)
        } else {
            u
        }
    });
    (0i64..40, 0i64..8, string_of("abxyz", 0..10), u)
}

fn stmt() -> impl Strategy<Value = Stmt> {
    one_of![
        row().prop_map(Stmt::Insert),
        vec_of(row(), 1..12).prop_map(Stmt::InsertMany),
        (0i64..8, 0i64..40)
            .prop_map(|(b, lo)| Stmt::Sql(format!("UPDATE t SET b = {b} WHERE a >= {lo}"))),
        (1usize..400, 0i64..40).prop_map(|(len, hi)| {
            let grown = "g".repeat(len);
            Stmt::Sql(format!("UPDATE t SET s = '{grown}' WHERE a < {hi}"))
        }),
        (0i64..40, 0i64..8, 0i64..8).prop_map(|(a, b, x)| Stmt::Sql(format!(
            "UPDATE t SET a = {a}, b = {b} WHERE b = {x}"
        ))),
        (0i64..40).prop_map(|lo| {
            let long = "v".repeat(1_600);
            Stmt::Sql(format!("UPDATE t SET s = '{long}' WHERE a >= {lo}"))
        }),
        (0i64..8).prop_map(|b| Stmt::Sql(format!("DELETE FROM t WHERE b = {b}"))),
        (0i64..40).prop_map(|a| Stmt::Sql(format!("DELETE FROM t WHERE a < {a}"))),
        one_of![Just(vec!["u"]), Just(vec!["b", "a"]), Just(vec!["s"])].prop_map(Stmt::CreateIndex),
    ]
}

fn values((a, b, s, u): &Row) -> Vec<Value> {
    vec![
        Value::Int(*a),
        Value::Int(*b),
        Value::Str(s.clone()),
        Value::Str(u.clone()),
    ]
}

/// The table `rows` load, analyzed, with an index on an `INT` column,
/// one on two `INT`s' worth of key and one on the two `TEXT` columns.
fn fixture(rows: &[Row], vfs: Option<&MemVfs>) -> Database {
    let db = match vfs {
        None => Database::new(),
        Some(vfs) => open(vfs),
    };
    let schema = Schema::new(vec![
        ColumnDef::int("a"),
        ColumnDef::int("b"),
        ColumnDef::text("s"),
        ColumnDef::text("u"),
    ]);
    db.create_table("t", schema).unwrap();
    let rows: Vec<Vec<Value>> = rows.iter().map(values).collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
    for columns in [&["a"][..], &["b"], &["s", "u"]] {
        db.create_index(&IndexSpec::new("t", columns)).unwrap();
    }
    assert_eq!(db.pager().free_count(), 0, "the fixture frees no page");
    db
}

fn open(vfs: &MemVfs) -> Database {
    Database::open_with_vfs(Arc::new(vfs.clone()), DurableOptions::default()).unwrap()
}

fn run(db: &Database, stmt: &Stmt) -> Result<()> {
    match stmt {
        Stmt::Insert(row) => db.insert("t", &values(row)).map(drop),
        Stmt::InsertMany(rows) => {
            let rows: Vec<Vec<Value>> = rows.iter().map(values).collect();
            db.insert_many("t", rows.iter().map(Vec::as_slice))
                .map(drop)
        }
        Stmt::Sql(sql) => db.execute_sql(sql).map(drop),
        Stmt::CreateIndex(columns) => db.create_index(&IndexSpec::new("t", columns)).map(drop),
    }
}

const QUERIES: [&str; 7] = [
    "SELECT * FROM t",
    "SELECT a, b FROM t WHERE a = 7",
    "SELECT COUNT(*) FROM t WHERE b >= 3",
    "SELECT a FROM t WHERE s = 'ab'",
    "SELECT s, u FROM t WHERE s >= 'x'",
    "SELECT MAX(a) FROM t",
    "SELECT MIN(b) FROM t",
];

/// Everything the property compares, for `db`'s table `t`: live
/// pages' bytes up to `pages`, the live page count, index shapes and
/// key widths, refreshed statistics and the query answers.
fn state(db: &Database, pages: u64) -> impl PartialEq + std::fmt::Debug {
    let bytes: Vec<Vec<u8>> = (0..pages as u32)
        .map(|id| db.pager().read(PageId(id)).unwrap().to_vec())
        .collect();
    db.refresh_stats("t").unwrap();
    let answers: Vec<_> = QUERIES
        .iter()
        .map(|sql| {
            let Ok(Statement::Select(stmt)) = cdpd_sql::parse(sql) else {
                panic!("{sql} is a SELECT");
            };
            let result = db.query(&stmt).unwrap();
            (result.rows, result.aggregate, result.count, result.plan)
        })
        .collect();
    (
        db.page_count() - db.pager().free_count(),
        bytes,
        db.index_shapes("t").unwrap(),
        db.index_key_widths("t").unwrap(),
        format!("{:?}", db.stats("t").unwrap()),
        answers,
    )
}

fn assert_same(db: &Database, twin: &Database, what: &str) {
    let pages = twin.page_count();
    assert!(
        state(db, pages) == state(twin, pages),
        "{what}: the database differs from its twin"
    );
}

/// The page writes `stmt` makes on a fresh fixture.
fn page_writes(rows: &[Row], stmt: &Stmt) -> u64 {
    let probe = fixture(rows, None);
    let io = ThreadIoScope::start();
    let _ = run(&probe, stmt);
    io.delta().writes
}

/// Run `stmt` with its first, second, … page write failed until it
/// succeeds or fails by itself, holding the database to its twin after
/// each failure. A durable pair is also reopened once midway (after a
/// commit of an unrelated statement) and after a failure nothing
/// injected. Each attempt starts from the undone one before it, so it
/// may allocate other page ids and write a page fewer or more.
fn check_atomic(rows: &[Row], stmt: &Stmt) {
    let writes = page_writes(rows, stmt);
    let reopen_at = (writes / 2).max(1);
    for durable in [false, true] {
        let vfs = (MemVfs::new(), MemVfs::new());
        let (subject_vfs, twin_vfs) = (durable.then_some(&vfs.0), durable.then_some(&vfs.1));
        let (mut subject, mut twin) = (fixture(rows, subject_vfs), fixture(rows, twin_vfs));
        for n in 1.. {
            assert!(n <= 2 * writes + 8, "{stmt:?} still fails at write {n}");
            fail_nth_write(n);
            let result = run(&subject, stmt);
            fail_nth_write(0);
            let Err(err) = result else { break };
            let injected = matches!(err, Error::Io(_));
            assert!(injected || matches!(err, Error::TooLarge(_)), "{err:?}");
            assert_same(&subject, &twin, &format!("{stmt:?} with write {n} failed"));
            if durable && (n == reopen_at || !injected) {
                for db in [&subject, &twin] {
                    db.execute_sql(&format!("CREATE TABLE later{n} (z INT)"))
                        .unwrap();
                }
                drop((subject, twin));
                (subject, twin) = (open(&vfs.0), open(&vfs.1));
                assert_same(
                    &subject,
                    &twin,
                    &format!("{stmt:?}, reopened after write {n}"),
                );
            }
            if !injected {
                break;
            }
        }
    }
}

props! {
    config: Config::with_cases(32);

    fn a_failed_statement_leaves_the_database_as_it_found_it(
        rows in vec_of(row(), 8..60),
        stmt in stmt(),
    ) {
        check_atomic(rows, stmt);
    }
}

/// A failure nothing injects: a multi-row `UPDATE` whose later row's
/// key goes over the cap, after an earlier row has changed.
#[test]
fn over_cap_key_on_a_later_row_undoes_the_earlier_rows() {
    let short = (1, 0, "p".to_owned(), "q".to_owned());
    let wide = (2, 0, "p".to_owned(), "w".repeat(3_000));
    let long = "v".repeat(1_500);
    check_atomic(
        &[short, wide],
        &Stmt::Sql(format!("UPDATE t SET s = '{long}'")),
    );
}

/// Run `stmt`, which must fail, while an online `CREATE INDEX` on
/// `columns` is between its snapshot and its catch-up. The build scans
/// the heap while the statement stands just before its `at`-th page
/// write; there the statement fails (`inject`) or goes on to fail by
/// itself. The database must then equal a twin that built the index
/// after the failure: the same tree, page for page.
fn check_build_across_failure(
    rows: &[Row],
    stmt: &Stmt,
    (at, inject): (u64, bool),
    columns: &[&str],
) {
    let (subject, twin) = (fixture(rows, None), fixture(rows, None));
    let spec = IndexSpec::new("t", columns);
    let (to_stmt, at_stmt) = mpsc::channel();
    let (to_build, at_build) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let (db, spec, scanned) = (&subject, &spec, to_stmt.clone());
        let build = s.spawn(move || {
            // Wait after the snapshot for the half-done statement; say
            // when the scan is over, at the load's first page write.
            before_next_build(move || {
                to_stmt.send(()).unwrap();
                at_build.recv().expect("the statement reaches the pause");
            });
            at_nth_write(1, move || {
                scanned.send(()).unwrap();
                Ok(())
            });
            db.create_index(spec)
        });
        at_stmt.recv().unwrap();
        at_nth_write(at, move || {
            to_build.send(()).unwrap();
            at_stmt.recv().expect("the build scans");
            match inject {
                true => Err(Error::Io(std::io::Error::other("injected"))),
                false => Ok(()),
            }
        });
        let result = run(&subject, stmt);
        fail_nth_write(0);
        assert!(result.is_err(), "{stmt:?} must fail");
        build.join().unwrap().unwrap();
    });
    twin.create_index(&spec).unwrap();
    let what = format!("{stmt:?} during a build on {columns:?}");
    assert_same(&subject, &twin, &what);
}

/// Pause `stmt` on `rows` before its last page write and fail it there.
fn fail_last(rows: &[Row], stmt: &Stmt) -> (u64, bool) {
    (page_writes(rows, stmt), true)
}

fn forty_rows() -> Vec<Row> {
    (0..40)
        .map(|i| (i, i % 8, format!("s{i}"), format!("u{}", i % 5)))
        .collect()
}

#[test]
fn a_failed_update_leaves_an_online_build_as_it_found_it() {
    let rows = forty_rows();
    let update = Stmt::Sql("UPDATE t SET b = 5 WHERE a >= 0".to_owned());
    check_build_across_failure(&rows, &update, fail_last(&rows, &update), &["b", "a"]);
    // `s` keys of two lengths, so neither tree keeps a fixed key width;
    // the second row's key goes over the cap.
    let short = (1, 0, "p".to_owned(), "q".to_owned());
    let wide = (2, 0, "pp".to_owned(), "w".repeat(3_000));
    let rows = [short, wide];
    let long = Stmt::Sql(format!("UPDATE t SET s = '{}'", "v".repeat(1_500)));
    let last = page_writes(&rows, &long);
    check_build_across_failure(&rows, &long, (last, false), &["s"]);
}

#[test]
fn a_failed_insert_many_leaves_an_online_build_as_it_found_it() {
    let rows = forty_rows();
    let batch: Vec<Row> = (40..43)
        .map(|i| (i, 3, format!("n{i}"), "u9".to_owned()))
        .collect();
    let insert = Stmt::InsertMany(batch);
    check_build_across_failure(&rows, &insert, fail_last(&rows, &insert), &["s"]);
    // Forty 200-byte rows fill the last heap page and start another,
    // then the batch's last row is refused with its key over the cap.
    let mut batch: Vec<Row> = (40..80)
        .map(|i| (i, 3, "n".repeat(200), "u9".to_owned()))
        .collect();
    batch.push((7, 1, "v".repeat(1_600), "w".repeat(2_500)));
    check_build_across_failure(&rows, &Stmt::InsertMany(batch), (2, false), &["u"]);
}

#[test]
fn a_failed_delete_leaves_an_online_build_as_it_found_it() {
    let rows = forty_rows();
    let delete = Stmt::Sql("DELETE FROM t WHERE a < 30".to_owned());
    check_build_across_failure(&rows, &delete, fail_last(&rows, &delete), &["u"]);
}
