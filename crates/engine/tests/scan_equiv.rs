//! Scan equivalence: every full heap walk goes through one page visitor
//! (`HeapFile::for_each_row`), and a sequential scan whose conjuncts
//! are all integer tests at fixed offsets checks them with a row kernel
//! (`Filter::row_kernel`). Three families hold both to the per-row
//! paths they replaced, and to definitions independent of either:
//!
//! * the visitor yields exactly the cursor's (`HeapScan::next_row`)
//!   `(rid, bytes)` sequence with the same page reads, and both yield
//!   exactly the live rows of a model of the heap, in chain order —
//!   over heaps with tombstones, in-place and moving updates, and pages
//!   emptied by deletes;
//! * the kernel exists exactly when every conjunct is an integer test on
//!   an `INT` column behind only `INT` ones, answers and errs exactly as
//!   `Filter::matches_row` on any row bytes (mistyped and truncated rows
//!   included), and agrees with `Condition::matches` on well-typed rows;
//! * a sequential scan's count, rows and aggregates, and the rows an
//!   UPDATE or DELETE locates, equal the cursor path that runs
//!   `Filter::matches_row` row by row.

use cdpd_engine::{BoundCondition, Database, Filter};
use cdpd_sql::{AggFunc, Condition, DeleteStmt, Dml, Projection, SelectStmt, UpdateStmt};
use cdpd_storage::codec::{decode_row, encode_row, RowView};
use cdpd_storage::{HeapFile, Pager, ThreadIoScope};
use cdpd_testkit::prop::{any_bool, string_of, vec_of, Config, Just, Strategy};
use cdpd_testkit::{one_of, props};
use cdpd_types::{ColumnDef, ColumnId, Error, Result, Rid, Schema, Value, ValueType};
use std::collections::BTreeMap;
use std::sync::Arc;

// --- The visitor against the cursor and a model of the heap -------------

/// One change to a heap of raw records. Row indices pick among the live
/// rows, modulo their number.
#[derive(Clone, Debug)]
enum HeapOp {
    /// Append a record of this length.
    Insert(usize),
    /// Delete `len` consecutive live rows from the `i`-th on: long runs
    /// empty whole pages.
    DeleteRun(usize, usize),
    /// Rewrite the `i`-th live row at this length: in place when it does
    /// not grow, else it moves to the end of the heap.
    Rewrite(usize, usize),
}

fn heap_op() -> impl Strategy<Value = HeapOp> {
    one_of![
        4 => (0usize..48).prop_map(HeapOp::Insert),
        2 => (0usize..4096, 1usize..6).prop_map(|(i, n)| HeapOp::DeleteRun(i, n)),
        1 => (0usize..4096, 150usize..600).prop_map(|(i, n)| HeapOp::DeleteRun(i, n)),
        3 => (0usize..4096, 0usize..64).prop_map(|(i, n)| HeapOp::Rewrite(i, n)),
    ]
}

/// A heap built by `ops` after `preload` appends, and the model of its
/// live rows.
fn heap_and_model(preload: usize, ops: &[HeapOp]) -> (HeapFile, BTreeMap<Rid, Vec<u8>>) {
    let mut heap = HeapFile::create(Arc::new(Pager::new()));
    let mut model = BTreeMap::new();
    let mut live: Vec<Rid> = Vec::new();
    let mut stamp = 0u8;
    let mut record = |len: usize| {
        stamp = stamp.wrapping_add(1);
        (0..len).map(|i| stamp ^ i as u8).collect::<Vec<u8>>()
    };
    let ops = (0..preload)
        .map(|i| HeapOp::Insert(i % 40))
        .chain(ops.iter().cloned());
    for op in ops {
        match op {
            HeapOp::Insert(len) => {
                let bytes = record(len);
                let rid = heap.insert(&bytes).unwrap();
                model.insert(rid, bytes);
                live.push(rid);
            }
            HeapOp::DeleteRun(i, n) if !live.is_empty() => {
                let from = i % live.len();
                let to = live.len().min(from + n);
                for rid in live.drain(from..to) {
                    assert!(heap.delete(rid).unwrap());
                    model.remove(&rid);
                }
            }
            HeapOp::Rewrite(i, len) if !live.is_empty() => {
                let at = i % live.len();
                let bytes = record(len);
                model.remove(&live[at]);
                live[at] = heap.update(live[at], &bytes).unwrap();
                model.insert(live[at], bytes);
            }
            _ => {}
        }
    }
    (heap, model)
}

props! {
    config: Config::with_cases(48);

    fn visitor_yields_the_cursors_rows_and_reads(
        preload in one_of![1 => Just(0usize), 3 => 0usize..1200],
        ops in vec_of(heap_op(), 0..60),
    ) {
        let (heap, model) = heap_and_model(*preload, ops);
        let scope = ThreadIoScope::start();
        let mut visited = Vec::new();
        heap.for_each_row(|rid, row| {
            visited.push((rid, row.bytes().to_vec()));
            Ok(())
        })
        .unwrap();
        let visitor_io = scope.delta();

        let scope = ThreadIoScope::start();
        let mut cursor = Vec::new();
        let mut scan = heap.scan();
        while let Some((rid, row)) = scan.next_row().unwrap() {
            cursor.push((rid, row.bytes().to_vec()));
        }
        let cursor_io = scope.delta();

        assert_eq!(visited, cursor, "visitor vs cursor rows");
        assert_eq!(visitor_io, cursor_io, "visitor vs cursor I/O");
        assert_eq!(visitor_io.reads, heap.page_count(), "one read per page");
        // Chain order is page order, then slot order.
        let chain: BTreeMap<_, _> = heap.pages().iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut want: Vec<(Rid, Vec<u8>)> = model.into_iter().collect();
        want.sort_by_key(|(rid, _)| (chain[&rid.page], rid.slot));
        assert_eq!(visited, want, "visitor vs model");
        assert_eq!(visited.len() as u64, heap.row_count());

        // A visit that fails stops the walk at that row.
        if let Some(stop) = visited.len().checked_sub(1).map(|n| n / 2) {
            let mut seen = 0;
            let err = heap.for_each_row(|_, _| {
                seen += 1;
                if seen > stop {
                    Err(Error::Corrupt("stop".into()))
                } else {
                    Ok(())
                }
            });
            assert!(matches!(err, Err(Error::Corrupt(_))), "{err:?}");
            assert_eq!(seen, stop + 1);
        }
    }
}

// --- The row kernel against the filter and `Condition::matches` ----------

/// Column types of the three table shapes: all `INT`, and a `STR`
/// column first (every `INT` column sits behind it) or in the middle
/// (`c` sits behind it, `a` does not).
const SHAPES: [[ValueType; 3]; 3] = [
    [ValueType::Int, ValueType::Int, ValueType::Int],
    [ValueType::Str, ValueType::Int, ValueType::Int],
    [ValueType::Int, ValueType::Str, ValueType::Int],
];
const NAMES: [&str; 3] = ["a", "b", "c"];

fn edge_int() -> impl Strategy<Value = i64> {
    one_of![
        4 => -3i64..4,
        1 => Just(i64::MIN),
        1 => Just(i64::MIN + 1),
        1 => Just(i64::MAX - 1),
        1 => Just(i64::MAX),
    ]
}

/// One simple condition: kind (Eq, Range, In), column, literals (an
/// `IN` list takes them all, 1–40), whether the first literal is a
/// string, and the Range's bound presence and inclusiveness.
type Simple = (u8, usize, Vec<i64>, bool, (bool, bool, bool, bool));

fn simple() -> impl Strategy<Value = Simple> {
    (
        0u8..3,
        0usize..3,
        one_of![3 => vec_of(edge_int(), 1..4), 1 => vec_of(edge_int(), 1..41)],
        one_of![9 => Just(false), 1 => Just(true)],
        (any_bool(), any_bool(), any_bool(), any_bool()),
    )
}

/// A conjunct: one simple condition, or an `OR` of two or three (on one
/// column or several).
fn conjunct() -> impl Strategy<Value = Vec<Simple>> {
    one_of![
        4 => simple().prop_map(|s| vec![s]),
        1 => vec_of(simple(), 2..4),
        1 => (simple(), vec_of(simple(), 1..3)).prop_map(|(first, rest)| {
            let mut same = vec![first.clone()];
            same.extend(rest.into_iter().map(|s| (s.0, first.1, s.2, s.3, s.4)));
            same
        }),
    ]
}

/// `spec` as a condition. With `typed`, every literal takes the column's
/// type (statements need that); without, a `STR` literal appears where
/// `spec` asks for one.
fn condition(spec: &Simple, shape: usize, typed: bool) -> Condition {
    let (kind, col, ints, str_first, (lo, hi, lo_inclusive, hi_inclusive)) = spec;
    let column = NAMES[*col].to_owned();
    let is_str = SHAPES[shape][*col] == ValueType::Str;
    let lits: Vec<Value> = ints
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let str_lit = if typed { is_str } else { i == 0 && *str_first };
            if str_lit {
                Value::Str(format!("{}", v.rem_euclid(5)))
            } else {
                Value::Int(*v)
            }
        })
        .collect();
    match kind {
        0 => Condition::Eq {
            column,
            value: lits[0].clone(),
        },
        1 => Condition::Range {
            column,
            lo: (*lo || !*hi).then(|| lits[0].clone()),
            lo_inclusive: *lo_inclusive,
            hi: hi.then(|| lits[lits.len() - 1].clone()),
            hi_inclusive: *hi_inclusive,
        },
        _ => Condition::In {
            column,
            values: lits,
        },
    }
}

fn bound(conj: &[Simple], shape: usize, typed: bool) -> BoundCondition {
    let col = |s: &Simple| ColumnId(s.1 as u16);
    if let [only] = conj {
        return BoundCondition {
            column: col(only),
            condition: condition(only, shape, typed),
            branch_columns: Vec::new(),
        };
    }
    BoundCondition {
        column: col(&conj[0]),
        condition: Condition::Or(conj.iter().map(|s| condition(s, shape, typed)).collect()),
        branch_columns: conj.iter().map(col).collect(),
    }
}

fn schema_of(shape: usize) -> Schema {
    Schema::new(
        NAMES
            .iter()
            .zip(SHAPES[shape])
            .map(|(n, ty)| ColumnDef::new(*n, ty))
            .collect(),
    )
}

/// Whether a kernel must exist for `conds`: every conjunct reads one
/// column, which is `INT` with only `INT` columns before it, against
/// integer literals only.
fn kernel_expected(shape: usize, conds: &[BoundCondition]) -> bool {
    let int_literals = |c: &Condition| match c {
        Condition::Eq { value, .. } => value.as_int().is_some(),
        Condition::Range { lo, hi, .. } => lo.iter().chain(hi).all(|v| v.as_int().is_some()),
        Condition::In { values, .. } => values.iter().all(|v| v.as_int().is_some()),
        Condition::Or(_) => false,
    };
    let fixed = |c: ColumnId| {
        SHAPES[shape][..=c.index()]
            .iter()
            .all(|t| *t == ValueType::Int)
    };
    conds.iter().all(|bc| {
        fixed(bc.column)
            && match &bc.condition {
                Condition::Or(branches) => {
                    bc.branch_columns.iter().all(|c| *c == bc.column)
                        && branches.iter().all(int_literals)
                }
                simple => int_literals(simple),
            }
    })
}

/// The predicate's definition, on a decoded row.
fn reference_matches(conds: &[BoundCondition], row: &[Value]) -> bool {
    conds.iter().all(|bc| match &bc.condition {
        Condition::Or(branches) => branches
            .iter()
            .zip(&bc.branch_columns)
            .any(|(b, c)| b.matches(&row[c.index()])),
        simple => simple.matches(&row[bc.column.index()]),
    })
}

/// One generated row: per column an integer, a string and whether to
/// store the type the schema does *not* have; then how many bytes to
/// cut off the encoding (mostly none).
type RawRow = ([(i64, String, bool); 3], usize);

fn raw_row() -> impl Strategy<Value = RawRow> {
    let cell = || {
        (
            edge_int(),
            string_of("ab", 0..3),
            one_of![7 => Just(false), 1 => Just(true)],
        )
    };
    (
        (cell(), cell(), cell()).prop_map(|(a, b, c)| [a, b, c]),
        one_of![6 => Just(0usize), 1 => 1usize..12],
    )
}

/// The row's values and encoded bytes, and whether the bytes are whole.
fn encode_raw(shape: usize, (cells, cut): &RawRow) -> (Vec<Value>, Vec<u8>, bool) {
    let values: Vec<Value> = cells
        .iter()
        .zip(SHAPES[shape])
        .map(|((i, s, flip), ty)| match (ty == ValueType::Int) != *flip {
            true => Value::Int(*i),
            false => Value::Str(s.clone()),
        })
        .collect();
    let mut bytes = Vec::new();
    encode_row(&values, &mut bytes);
    bytes.truncate(bytes.len().saturating_sub(*cut));
    (values, bytes, *cut == 0)
}

/// What a kernel must answer on a whole row, from the decoded values
/// alone: conjuncts are judged in order; the first that fails answers
/// `false`; one whose column holds a string is a type mismatch
/// (`Err`). `None` where a string sits before a judged column: the
/// fixed offsets then point into it, and no decoded definition exists.
fn defined_outcome(
    conds: &[BoundCondition],
    values: &[Value],
) -> Option<std::result::Result<bool, ()>> {
    for bc in conds {
        let col = bc.column.index();
        if values[..col].iter().any(|v| v.as_int().is_none()) {
            return None;
        }
        if values[col].as_int().is_none() {
            return Some(Err(()));
        }
        if !reference_matches(std::slice::from_ref(bc), values) {
            return Some(Ok(false));
        }
    }
    Some(Ok(true))
}

/// The integer literals of `cond`.
fn literals(cond: &Condition) -> Vec<i64> {
    let values: Vec<&Value> = match cond {
        Condition::Eq { value, .. } => vec![value],
        Condition::Range { lo, hi, .. } => lo.iter().chain(hi).collect(),
        Condition::In { values, .. } => values.iter().collect(),
        Condition::Or(branches) => return branches.iter().flat_map(literals).collect(),
    };
    values.into_iter().filter_map(Value::as_int).collect()
}

/// The kernel of `conds` exists exactly when expected, and on every
/// row answers as the filter does and as [`defined_outcome`] says.
fn check_kernel(shape: usize, conds: &[BoundCondition], rows: &[RawRow]) {
    let schema = schema_of(shape);
    let filter = Filter::for_rows(&schema, conds).unwrap();
    let kernel = filter.row_kernel();
    assert_eq!(
        kernel.is_some(),
        kernel_expected(shape, conds),
        "kernel for {conds:?} on shape {shape}"
    );
    let Some(kernel) = kernel else { return };
    for raw in rows {
        let (values, bytes, whole) = encode_raw(shape, raw);
        let row = RowView::new(&bytes);
        let got = kernel.matches(row);
        let what = format!("row {values:?} (bytes {bytes:?}) under {conds:?}");
        assert_eq!(
            format!("{got:?}"),
            format!("{:?}", filter.matches_row(row)),
            "{what}"
        );
        match defined_outcome(conds, &values).filter(|_| whole) {
            Some(Ok(want)) => assert_eq!(got.unwrap(), want, "{what}"),
            Some(Err(())) => assert!(
                matches!(got, Err(Error::TypeMismatch(_))),
                "{what}: {got:?}"
            ),
            None => {}
        }
    }
}

props! {
    config: Config::with_cases(256);

    fn row_kernel_agrees_with_filter_and_condition(
        shape in 0usize..3,
        conjuncts in vec_of(conjunct(), 0..4),
        rows in vec_of(raw_row(), 1..24),
    ) {
        let conds: Vec<BoundCondition> =
            conjuncts.iter().map(|c| bound(c, *shape, false)).collect();
        check_kernel(*shape, &conds, rows);
        // Each conjunct alone, so that rows failing a sibling do not
        // hide its own answers, and on rows that hold each of its
        // literals and their neighbours: every span edge is probed.
        for one in conds.chunks(1) {
            let col = one[0].column.index();
            let mut probes = rows.clone();
            for lit in literals(&one[0].condition) {
                for v in [lit.wrapping_sub(1), lit, lit.wrapping_add(1)] {
                    let mut probe = rows[0].clone();
                    probe.0[col] = (v, String::new(), false);
                    probes.push(probe);
                }
            }
            check_kernel(*shape, one, &probes);
        }
        let schema = schema_of(*shape);
        let keys = [ColumnId(0), ColumnId(1), ColumnId(2)];
        let key_filter = Filter::for_keys(&schema, &keys, &conds).unwrap();
        assert!(key_filter.row_kernel().is_none(), "a key filter has no row kernel");
    }
}

// --- Sequential scans against the cursor path ------------------------------

/// A table of `shape` plus a trailing `STR` column `s`, loaded from
/// `rows`, then churned: every 7th row deleted, a run of rows deleted
/// (emptying pages), every 5th row's `s` grown (moving it) and every
/// 3rd row's `s` shrunk in place.
fn churned_table(shape: usize, rows: &[(i64, i64, i64)]) -> Database {
    let mut cols: Vec<ColumnDef> = NAMES
        .iter()
        .zip(SHAPES[shape])
        .map(|(n, ty)| ColumnDef::new(*n, ty))
        .collect();
    cols.push(ColumnDef::new("s", ValueType::Str));
    cols.push(ColumnDef::int("id"));
    let db = Database::new();
    db.create_table("t", Schema::new(cols)).unwrap();
    let rows: Vec<Vec<Value>> = (0..COPIES)
        .flat_map(|_| rows)
        .enumerate()
        .map(|(id, (a, b, c))| {
            let mut row: Vec<Value> = [a, b, c]
                .iter()
                .zip(SHAPES[shape])
                .map(|(v, ty)| match ty {
                    ValueType::Int => Value::Int(**v),
                    ValueType::Str => Value::Str(format!("{}", v.rem_euclid(5))),
                })
                .collect();
            row.push(Value::from("xxxx"));
            row.push(Value::Int(id as i64));
            row
        })
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
    let n = rows.len() as i64;
    let id_mod = |m: i64, set: Option<&str>| {
        let ids = (0..n).filter(|i| i % m == 0).map(Value::Int).collect();
        let conditions = vec![Condition::In {
            column: "id".into(),
            values: ids,
        }];
        match set {
            None => Dml::Delete(DeleteStmt {
                table: "t".into(),
                conditions,
            }),
            Some(s) => Dml::Update(UpdateStmt {
                table: "t".into(),
                set: vec![("s".into(), Value::from(s))],
                conditions,
            }),
        }
    };
    db.execute_dml(&id_mod(7, None)).unwrap();
    db.execute_dml(&Dml::Delete(DeleteStmt {
        table: "t".into(),
        conditions: vec![Condition::Range {
            column: "id".into(),
            lo: Some(Value::Int(n / 4)),
            lo_inclusive: true,
            hi: Some(Value::Int(n / 4 + 250)),
            hi_inclusive: false,
        }],
    }))
    .unwrap();
    db.execute_dml(&id_mod(5, Some("a much longer string, so the row moves")))
        .unwrap();
    db.execute_dml(&id_mod(3, Some("x"))).unwrap();
    db
}

/// How many times [`churned_table`] loads each generated row.
const COPIES: usize = 20;

/// The live rows of `t`, with their rids, as the cursor walks them.
fn heap_rows(db: &Database) -> Vec<(Rid, Vec<Value>)> {
    let snap = db.pin("t").unwrap();
    let mut out = Vec::new();
    let mut scan = snap.heap.scan();
    while let Some((rid, row)) = scan.next_row().unwrap() {
        out.push((rid, decode_row(row.bytes()).unwrap()));
    }
    out
}

/// The cursor path: every live row the per-row filter accepts, in heap
/// order.
fn cursor_matches(db: &Database, conds: &[BoundCondition]) -> Result<Vec<(Rid, Vec<Value>)>> {
    let snap = db.pin("t").unwrap();
    let filter = Filter::for_rows(&snap.schema, conds)?;
    let mut out = Vec::new();
    let mut scan = snap.heap.scan();
    while let Some((rid, row)) = scan.next_row()? {
        if filter.matches_row(row)? {
            out.push((rid, decode_row(row.bytes())?));
        }
    }
    Ok(out)
}

/// The fold the executor defines: `SUM`/`AVG` wrap, empty input folds
/// to 0, a non-integer `SUM`/`AVG` input is a type mismatch.
fn reference_fold(func: AggFunc, values: Vec<Value>) -> std::result::Result<Value, ()> {
    let n = values.len() as i64;
    match func {
        AggFunc::Count => Ok(Value::Int(n)),
        AggFunc::Min => Ok(values.into_iter().min().unwrap_or(Value::Int(0))),
        AggFunc::Max => Ok(values.into_iter().max().unwrap_or(Value::Int(0))),
        AggFunc::Sum | AggFunc::Avg => {
            let mut sum = 0i64;
            for v in values {
                sum = sum.wrapping_add(v.as_int().ok_or(())?);
            }
            Ok(Value::Int(match func {
                AggFunc::Sum => sum,
                _ if n == 0 => 0,
                _ => sum / n,
            }))
        }
    }
}

fn check_selects(db: &Database, conds: &[BoundCondition]) {
    let matched = cursor_matches(db, conds).unwrap();
    let all = ["a", "b", "c", "s", "id"];
    let mut projections = vec![
        Projection::Star,
        Projection::CountStar,
        Projection::Columns(vec!["id".into(), "a".into()]),
    ];
    for col in all {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            projections.push(Projection::Aggregate(func, col.into()));
        }
    }
    for projection in projections {
        let stmt = SelectStmt {
            projection: projection.clone(),
            table: "t".into(),
            conditions: conds.iter().map(|bc| bc.condition.clone()).collect(),
            order_by: None,
            limit: None,
        };
        let got = db.query(&stmt);
        let what = format!("{stmt}");
        match &projection {
            Projection::Aggregate(func, col) => {
                let c = all.iter().position(|n| n == col).unwrap();
                let values = matched.iter().map(|(_, r)| r[c].clone()).collect();
                match reference_fold(*func, values) {
                    Ok(want) => {
                        let got = got.unwrap_or_else(|e| panic!("{what}: {e}"));
                        assert!(got.plan.starts_with("SeqScan"), "{what}: {}", got.plan);
                        assert_eq!(got.aggregate, Some(want), "{what}");
                        assert_eq!(got.count, matched.len() as u64, "{what}");
                    }
                    Err(()) => assert!(
                        matches!(got, Err(Error::TypeMismatch(_))),
                        "{what}: {got:?}"
                    ),
                }
            }
            Projection::CountStar => {
                assert_eq!(got.unwrap().count, matched.len() as u64, "{what}");
            }
            _ => {
                let cols: Vec<usize> = match &projection {
                    Projection::Columns(names) => names
                        .iter()
                        .map(|n| all.iter().position(|m| m == n).unwrap())
                        .collect(),
                    _ => (0..all.len()).collect(),
                };
                let want: Vec<Vec<Value>> = matched
                    .iter()
                    .map(|(_, r)| cols.iter().map(|&c| r[c].clone()).collect())
                    .collect();
                // A scan returns rows in heap order: compared verbatim.
                assert_eq!(got.unwrap().rows.unwrap(), want, "{what}");
            }
        }
    }
}

/// An UPDATE of `conds` changes exactly the rows the cursor path
/// locates (in place: the new `id` is as wide as the old), and a DELETE
/// then removes exactly the rows it locates.
fn check_writes(db: &Database, conds: &[BoundCondition]) {
    let conditions: Vec<Condition> = conds.iter().map(|bc| bc.condition.clone()).collect();
    let located: Vec<Rid> = cursor_matches(db, conds)
        .unwrap()
        .into_iter()
        .map(|(rid, _)| rid)
        .collect();
    let mut want = heap_rows(db);
    for (rid, row) in &mut want {
        if located.contains(rid) {
            row[4] = Value::Int(-1);
        }
    }
    let update = Dml::Update(UpdateStmt {
        table: "t".into(),
        set: vec![("id".into(), Value::Int(-1))],
        conditions: conditions.clone(),
    });
    let res = db.execute_dml(&update).unwrap();
    assert!(res.plan.contains("SeqScan"), "{}", res.plan);
    assert_eq!(res.count, located.len() as u64, "rows updated");
    assert_eq!(heap_rows(db), want, "table after the update");

    let located: Vec<Rid> = cursor_matches(db, conds)
        .unwrap()
        .into_iter()
        .map(|(rid, _)| rid)
        .collect();
    want.retain(|(rid, _)| !located.contains(rid));
    let res = db
        .execute_dml(&Dml::Delete(DeleteStmt {
            table: "t".into(),
            conditions,
        }))
        .unwrap();
    assert_eq!(res.count, located.len() as u64, "rows deleted");
    assert_eq!(heap_rows(db), want, "table after the delete");
}

props! {
    config: Config::with_cases(24);

    fn seq_scans_equal_the_cursor_path(
        shape in 0usize..3,
        rows in vec_of((edge_int(), edge_int(), edge_int()), 0..40),
        queries in vec_of(vec_of(conjunct(), 0..3), 1..4),
    ) {
        let db = churned_table(*shape, rows);
        for conjuncts in queries {
            let conds: Vec<BoundCondition> =
                conjuncts.iter().map(|c| bound(c, *shape, true)).collect();
            check_selects(&db, &conds);
        }
        let last: Vec<BoundCondition> =
            queries[queries.len() - 1].iter().map(|c| bound(c, *shape, true)).collect();
        check_writes(&db, &last);
    }
}
