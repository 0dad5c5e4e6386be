//! Statement predicates compiled to integer tests on encoded bytes.
//!
//! A [`Filter`] is built once per statement, before the access path
//! starts walking, for one record layout: heap rows or the keys of one
//! index. Each conjunct compiles to an integer test when every column it
//! reads is `INT` and every literal it names is an integer. `Eq`, `Range`
//! and `IN` (and an `OR` of them on one column) become a short list of
//! inclusive spans `lo ≤ v ≤ hi`; an exclusive bound is folded to an
//! inclusive one with a checked ±1, and a bound that cannot be folded
//! (`v > i64::MAX`) leaves the conjunct with no span, matching nothing.
//!
//! The integer is read where the layout puts it. A row column whose
//! earlier schema columns are all `INT` sits at the fixed byte offset
//! `9·col` ([`RowView::int_fixed`]); one behind a `STR` column is reached
//! by walking tags ([`RowView::int`]). A key column whose earlier key
//! columns are all `INT` is the 8 bytes at `9·pos + 1` ([`key_int`]).
//! Both readers check the tag byte.
//!
//! Everything else — a `STR` column, a non-integer literal, an `OR`
//! across columns, an `INT` key column behind a `STR` one — falls back
//! to decoding the [`Value`] and calling [`Condition::matches`], the
//! definition the compiled tests must agree with.

use crate::planner::BoundCondition;
use cdpd_sql::Condition;
use cdpd_storage::codec::{decode_key, key_int, RowView};
use cdpd_types::{ColumnId, Error, Result, Schema, Value, ValueType};

/// Where one column's value sits in a record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Field {
    /// An `INT` column behind only `INT` columns, at position `i` of the
    /// record: its tag sits at the fixed byte offset `9·i`.
    Int9(usize),
    /// An `INT` row column behind a `STR` one: reached by walking tags.
    Int(usize),
    /// Any other column, at position `i`: decoded to a [`Value`].
    Value(usize),
}

/// Which columns one record layout holds, and where: heap rows hold
/// every schema column, an index key only its key columns.
#[derive(Clone, Copy)]
pub(crate) enum Layout<'a> {
    /// The heap rows of a table.
    Rows(&'a Schema),
    /// The keys of an index on these columns of a table.
    Key(&'a Schema, &'a [ColumnId]),
}

impl Layout<'_> {
    /// Where `col` sits, or an error if this layout does not hold it.
    pub(crate) fn field(&self, col: ColumnId) -> Result<Field> {
        let is_int =
            |schema: &Schema, c: ColumnId| schema.column(c).map(|d| d.ty) == Some(ValueType::Int);
        let missing = || Error::Corrupt(format!("column {} is not in the record", col.index()));
        match *self {
            Layout::Rows(schema) => {
                let i = col.index();
                let def = schema.columns().get(i).ok_or_else(missing)?;
                let int_before = schema.columns()[..i].iter().all(|d| d.ty == ValueType::Int);
                Ok(match def.ty {
                    ValueType::Int if int_before => Field::Int9(i),
                    ValueType::Int => Field::Int(i),
                    ValueType::Str => Field::Value(i),
                })
            }
            Layout::Key(schema, key) => {
                let pos = key.iter().position(|k| *k == col).ok_or_else(missing)?;
                Ok(if key[..=pos].iter().all(|k| is_int(schema, *k)) {
                    Field::Int9(pos)
                } else {
                    Field::Value(pos)
                })
            }
        }
    }
}

/// A record columns are read out of: a heap row or an index key.
pub(crate) trait Record {
    /// The integer in `field`; [`Error::TypeMismatch`] if it is not one.
    fn int(&mut self, field: Field) -> Result<i64>;
    /// The value in `field`.
    fn value(&mut self, field: Field) -> Result<Value>;
}

/// A heap row as a [`Record`].
pub(crate) struct Row<'a>(pub(crate) RowView<'a>);

impl Record for Row<'_> {
    #[inline(always)]
    fn int(&mut self, field: Field) -> Result<i64> {
        match field {
            Field::Int9(c) => self.0.int_fixed(c),
            Field::Int(c) | Field::Value(c) => self.0.int(c),
        }
    }

    fn value(&mut self, field: Field) -> Result<Value> {
        match field {
            Field::Value(c) => self.0.value(c),
            int => self.int(int).map(Value::Int),
        }
    }
}

/// An index key (without its rid) as a [`Record`]. A fallback read
/// decodes the whole key once and keeps it for the record's other reads.
pub(crate) struct Key<'a> {
    bytes: &'a [u8],
    decoded: Option<Vec<Value>>,
}

impl<'a> Key<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Key<'a> {
        Key {
            bytes,
            decoded: None,
        }
    }
}

impl Record for Key<'_> {
    fn int(&mut self, field: Field) -> Result<i64> {
        match field {
            Field::Int9(pos) => key_int(self.bytes, pos),
            other => self
                .value(other)?
                .as_int()
                .ok_or_else(|| Error::TypeMismatch("key column is not INT".into())),
        }
    }

    fn value(&mut self, field: Field) -> Result<Value> {
        match field {
            Field::Int9(pos) => key_int(self.bytes, pos).map(Value::Int),
            Field::Int(pos) | Field::Value(pos) => {
                if self.decoded.is_none() {
                    self.decoded = Some(decode_key(self.bytes)?);
                }
                self.decoded
                    .as_ref()
                    .and_then(|vals| vals.get(pos))
                    .cloned()
                    .ok_or_else(|| Error::Corrupt("short index key".into()))
            }
        }
    }
}

/// The inclusive spans an integer test accepts. The first is kept
/// inline, so the common one-span test allocates nothing; `(1, 0)`
/// there means no span at all.
#[derive(Debug)]
struct Spans {
    first: (i64, i64),
    more: Vec<(i64, i64)>,
}

impl Spans {
    const NONE: (i64, i64) = (1, 0);

    fn new() -> Spans {
        Spans {
            first: Spans::NONE,
            more: Vec::new(),
        }
    }

    fn push(&mut self, span: (i64, i64)) {
        if self.first == Spans::NONE {
            self.first = span;
        } else {
            self.more.push(span);
        }
    }

    /// Whether `v` lies in a span, tested without branching on `v`.
    #[inline(always)]
    fn contains(&self, v: i64) -> bool {
        let within = |hit: bool, &(lo, hi): &(i64, i64)| hit | ((lo <= v) & (v <= hi));
        self.more.iter().fold(within(false, &self.first), within)
    }
}

/// One compiled conjunct.
#[derive(Debug)]
enum Conjunct {
    /// The integer in `field` lies in one of the spans.
    Int { field: Field, spans: Spans },
    /// Fallback: some branch's decoded value satisfies its condition.
    Value(Vec<(Field, Condition)>),
}

/// A statement's conjuncts compiled for one record layout (see the
/// module docs for which conjuncts compile to integer tests).
#[derive(Debug)]
pub struct Filter {
    conjuncts: Vec<Conjunct>,
    /// Whether the layout is heap rows (else index keys).
    rows: bool,
}

impl Filter {
    /// Compile `conditions` for the records of `layout`.
    pub(crate) fn compile<'c>(
        layout: Layout<'_>,
        conditions: impl IntoIterator<Item = &'c BoundCondition>,
    ) -> Result<Filter> {
        let mut conjuncts = Vec::new();
        for bc in conditions {
            let (conds, cols) = match &bc.condition {
                Condition::Or(branches) => (branches.as_slice(), bc.branch_columns.as_slice()),
                simple => (
                    std::slice::from_ref(simple),
                    std::slice::from_ref(&bc.column),
                ),
            };
            // Compiled when every branch reads the same integer field.
            let mut spans = Spans::new();
            let int_field = match cols.split_first() {
                Some((col, rest)) if rest.iter().all(|c| c == col) => {
                    let field = layout.field(*col)?;
                    let int = matches!(field, Field::Int9(_) | Field::Int(_));
                    (int && conds.iter().all(|c| int_spans(c, &mut spans))).then_some(field)
                }
                _ => None,
            };
            conjuncts.push(match int_field {
                Some(field) => Conjunct::Int { field, spans },
                None => Conjunct::Value(
                    cols.iter()
                        .zip(conds)
                        .map(|(col, c)| Ok((layout.field(*col)?, c.clone())))
                        .collect::<Result<_>>()?,
                ),
            });
        }
        Ok(Filter {
            conjuncts,
            rows: matches!(layout, Layout::Rows(_)),
        })
    }

    /// Compile `conditions` for the heap rows of `schema`.
    pub fn for_rows(schema: &Schema, conditions: &[BoundCondition]) -> Result<Filter> {
        Filter::compile(Layout::Rows(schema), conditions)
    }

    /// Compile `conditions` for the keys of an index on `key_columns`
    /// of `schema`. Every column the conditions read must be a key
    /// column.
    pub fn for_keys(
        schema: &Schema,
        key_columns: &[ColumnId],
        conditions: &[BoundCondition],
    ) -> Result<Filter> {
        Filter::compile(Layout::Key(schema, key_columns), conditions)
    }

    /// How many conjuncts compiled to integer tests; the rest decode.
    pub fn int_conjuncts(&self) -> usize {
        self.conjuncts
            .iter()
            .filter(|c| matches!(c, Conjunct::Int { .. }))
            .count()
    }

    /// The fixed-offset form of a heap-row filter: `Some` when every
    /// conjunct is an integer test on an `INT` column behind only `INT`
    /// columns (at byte offset `9·col`), `None` for a key filter or when
    /// any conjunct reads a column behind a `STR` one or decodes.
    pub fn row_kernel(&self) -> Option<RowKernel<'_>> {
        if !self.rows {
            return None;
        }
        let tests = self.conjuncts.iter().map(|conjunct| match conjunct {
            Conjunct::Int {
                field: Field::Int9(col),
                spans,
            } => Some((*col, spans)),
            _ => None,
        });
        Some(RowKernel {
            tests: tests.collect::<Option<_>>()?,
        })
    }

    /// Whether `record` satisfies every conjunct.
    #[inline(always)]
    pub(crate) fn matches(&self, record: &mut impl Record) -> Result<bool> {
        for conjunct in &self.conjuncts {
            let hit = match conjunct {
                Conjunct::Int { field, spans } => spans.contains(record.int(*field)?),
                Conjunct::Value(branches) => {
                    let mut hit = false;
                    for (field, cond) in branches {
                        if cond.matches(&record.value(*field)?) {
                            hit = true;
                            break;
                        }
                    }
                    hit
                }
            };
            if !hit {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether the encoded heap row `row` satisfies every conjunct
    /// (for a filter from [`Filter::for_rows`]).
    pub fn matches_row(&self, row: RowView<'_>) -> Result<bool> {
        self.matches(&mut Row(row))
    }

    /// Whether the encoded index key `key` (without its rid) satisfies
    /// every conjunct (for a filter from [`Filter::for_keys`]).
    pub fn matches_key(&self, key: &[u8]) -> Result<bool> {
        self.matches(&mut Key::new(key))
    }
}

/// A heap-row [`Filter`] whose every conjunct is an integer test at a
/// fixed offset, flattened for the sequential scan: the `(column,
/// spans)` of each conjunct, in the filter's order.
#[derive(Debug)]
pub struct RowKernel<'f> {
    tests: Vec<(usize, &'f Spans)>,
}

impl RowKernel<'_> {
    /// Whether `row` satisfies every conjunct, answered and erring
    /// exactly as [`Filter::matches_row`]: each integer is read with
    /// [`RowView::int_fixed`] (the same tag check and errors), and a
    /// read error surfaces only if every earlier conjunct held, which
    /// is when the filter would have made that read. No test branches
    /// on the value read, so a scan pays no misprediction per match.
    #[inline(always)]
    pub fn matches(&self, row: RowView<'_>) -> Result<bool> {
        let mut all = true;
        for &(col, spans) in &self.tests {
            match row.int_fixed(col) {
                Ok(v) => all &= spans.contains(v),
                Err(e) if all => return Err(e),
                Err(_) => return Ok(false),
            }
        }
        Ok(all)
    }
}

/// Append the inclusive spans `cond` accepts of an integer, or return
/// false if a literal is not an integer (the conjunct then decodes).
fn int_spans(cond: &Condition, spans: &mut Spans) -> bool {
    let int = |v: &Value| v.as_int();
    match cond {
        Condition::Eq { value, .. } => match int(value) {
            Some(v) => spans.push((v, v)),
            None => return false,
        },
        Condition::In { values, .. } => {
            for value in values {
                match int(value) {
                    Some(v) => spans.push((v, v)),
                    None => return false,
                }
            }
        }
        Condition::Range {
            lo,
            lo_inclusive,
            hi,
            hi_inclusive,
            ..
        } => {
            // `None` after folding: the bound excludes every integer.
            let lo = match lo {
                None => Some(i64::MIN),
                Some(v) => match int(v) {
                    Some(v) if *lo_inclusive => Some(v),
                    Some(v) => v.checked_add(1),
                    None => return false,
                },
            };
            let hi = match hi {
                None => Some(i64::MAX),
                Some(v) => match int(v) {
                    Some(v) if *hi_inclusive => Some(v),
                    Some(v) => v.checked_sub(1),
                    None => return false,
                },
            };
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo <= hi {
                    spans.push((lo, hi));
                }
            }
        }
        Condition::Or(_) => return false,
    }
    true
}
