//! Plan execution against the storage substrate.
//!
//! The executor is deliberately dumb: it runs exactly the access path
//! the planner chose and lets the pager count the I/O. It changes the
//! CPU spent per page, never which pages are read.
//!
//! Before the walk starts, the statement's conjuncts are compiled once
//! into a [`Filter`] for the records the path judges: the keys of a
//! covering index, else heap rows. Conjuncts on `INT` columns with
//! integer literals become integer span tests read straight out of the
//! encoded bytes; a `STR` column, a non-integer literal or an `OR`
//! across columns falls back to decoding the [`Value`] and calling
//! `Condition::matches` (the rule is spelled out in [`crate::filter`]).
//! An index range scan stops on the same compiler's test of its upper
//! bound. A sequential scan walks the heap a page at a time through
//! `HeapFile::for_each_row`; when every conjunct is an integer test at
//! a fixed row offset it checks the filter's
//! [`RowKernel`](crate::RowKernel) form straight on the row bytes; a
//! `COUNT(*)` adds each answer without branching on it, and a `SUM` or
//! `AVG` of a fixed-offset `INT` column folds it the same way
//! ([`RowKernel::sum`](crate::RowKernel::sum)).
//!
//! Every access path feeds one [`Sink`]: a count, the rids of the
//! matches (the locate phase of UPDATE/DELETE), projected rows, or an
//! aggregate folded in place. Hot paths avoid per-row allocation: a scan
//! reads each row as a borrowed `RowView`, an index plan borrows each
//! fetched row from its pinned page, and only projected rows or a decoded
//! fallback value allocate.
//!
//! Execution borrows the [`TableEntry`] immutably, so it is part of
//! the engine's shared read surface: any number of statements may
//! execute concurrently against one entry (each under its own
//! `ThreadIoScope`, so per-statement I/O attribution survives the
//! interleaving).

use crate::catalog::{IndexEntry, TableEntry};
use crate::filter::{sum_operand, Field, Filter, Key, Layout, Record, Row};
use crate::planner::{BoundCondition, IndexInfo, Plan, PlannedQuery, Planner};
use cdpd_sql::{AggFunc, Condition};
use cdpd_storage::codec::{decode_key, encode_key};
use cdpd_types::{ColumnId, Error, Result, Rid, Value};

/// Result of executing one query.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecOutcome {
    /// Number of rows that matched.
    pub count: u64,
    /// Materialized rows (only when requested).
    pub rows: Option<Vec<Vec<Value>>>,
    /// Aggregate result, for aggregate projections.
    pub aggregate: Option<Value>,
}

/// Execute `planned` against `table`. `materialize` controls whether
/// result rows are built (query results) or merely counted (workload
/// replay, where only cost matters). Aggregates, ORDER BY, and LIMIT
/// are applied here, on top of the chosen access path.
pub(crate) fn execute(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    planned: &PlannedQuery,
    materialize: bool,
) -> Result<ExecOutcome> {
    // Extremum plans answer the aggregate directly from one tree spine.
    if let Plan::IndexExtremum { index, max } = planned.plan {
        return index_extremum(table, planner, index, max);
    }
    let mut sink = if let Some((func, col)) = planned.aggregate {
        Sink::Fold(Fold::new(func, col))
    } else if !planned.count_only && (materialize || planned.order_by.is_some()) {
        Sink::Rows(output_columns(table, planned), Vec::new())
    } else {
        Sink::Count(0)
    };
    walk(table, planner, planned, &mut sink)?;
    let mut rows = match sink {
        Sink::Fold(fold) => {
            return Ok(ExecOutcome {
                count: fold.n,
                rows: None,
                aggregate: Some(fold.finish()),
            })
        }
        Sink::Count(n) => {
            return Ok(ExecOutcome {
                count: planned.limit.map_or(n, |limit| n.min(limit)),
                rows: None,
                aggregate: None,
            })
        }
        Sink::Rows(_, rows) => rows,
        Sink::Rids(_) => unreachable!("execute never collects rids"),
    };
    if let Some((col, desc)) = planned.order_by {
        if !planned.plan_ordered || desc {
            // The order column was appended as the last output column
            // when absent from the projection; sort on the position
            // output_columns() placed it at.
            let pos = order_column_position(planned, col);
            rows.sort_by(|a, b| a[pos].cmp(&b[pos]));
        }
        if desc {
            rows.reverse();
        }
    }
    if let Some(limit) = planned.limit {
        rows.truncate(limit as usize);
    }
    // Strip a trailing order-by helper column not in the projection.
    if let (Some(proj), Some((col, _))) = (&planned.projection, planned.order_by) {
        if !proj.contains(&col) {
            for row in rows.iter_mut() {
                row.pop();
            }
        }
    }
    Ok(ExecOutcome {
        count: rows.len() as u64,
        rows: Some(rows),
        aggregate: None,
    })
}

/// Collect the rids of every row matching `planned`'s predicate, using
/// the planned access path. This is the locate phase of UPDATE/DELETE:
/// rids are fully materialized *before* any mutation, so the write
/// phase cannot re-see rows it already changed (no Halloween problem).
pub(crate) fn collect_rids(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    planned: &PlannedQuery,
) -> Result<Vec<Rid>> {
    let mut sink = Sink::Rids(Vec::new());
    walk(table, planner, planned, &mut sink)?;
    match sink {
        Sink::Rids(rids) => Ok(rids),
        _ => unreachable!("the sink keeps its kind"),
    }
}

/// Position of the ORDER BY column in the executed output rows.
fn order_column_position(planned: &PlannedQuery, col: ColumnId) -> usize {
    match &planned.projection {
        Some(proj) => proj.iter().position(|c| *c == col).unwrap_or(proj.len()),
        None => col.index(), // SELECT * keeps schema order
    }
}

/// Output columns of the query, in order. When an ORDER BY column is
/// not part of the projection it is appended as a helper column (the
/// execute() wrapper sorts on it and strips it before returning).
fn output_columns(table: &TableEntry, planned: &PlannedQuery) -> Vec<ColumnId> {
    let mut cols = match &planned.projection {
        Some(cols) => cols.clone(),
        None => (0..table.schema.len())
            .map(|i| ColumnId(i as u16))
            .collect(),
    };
    if let Some((col, _)) = planned.order_by {
        if !cols.contains(&col) {
            cols.push(col);
        }
    }
    cols
}

// --- Sinks ------------------------------------------------------------------

/// Where an access path delivers each matching record.
enum Sink {
    /// Count the matches.
    Count(u64),
    /// Collect the matches' rids.
    Rids(Vec<Rid>),
    /// Project each match onto the output columns.
    Rows(Vec<ColumnId>, Vec<Vec<Value>>),
    /// Fold one column of each match into an aggregate.
    Fold(Fold),
}

impl Sink {
    /// The columns each match is read for.
    fn columns(&self) -> &[ColumnId] {
        match self {
            Sink::Rows(cols, _) => cols,
            Sink::Fold(fold) => std::slice::from_ref(&fold.col),
            Sink::Count(_) | Sink::Rids(_) => &[],
        }
    }

    /// Deliver one match; `fields` locates [`Sink::columns`] in it.
    #[inline]
    fn push(&mut self, rid: Rid, record: &mut impl Record, fields: &[Field]) -> Result<()> {
        match self {
            Sink::Count(n) => *n += 1,
            Sink::Rids(rids) => rids.push(rid),
            Sink::Rows(_, rows) => {
                let row = fields
                    .iter()
                    .map(|f| record.value(*f))
                    .collect::<Result<_>>()?;
                rows.push(row);
            }
            Sink::Fold(fold) => fold.push(record, fields[0])?,
        }
        Ok(())
    }
}

/// A single-column aggregate folded one match at a time. Empty input
/// folds to `0` for every function; `SUM` wraps and `AVG` is the
/// wrapped sum divided by the count, truncated.
struct Fold {
    func: AggFunc,
    col: ColumnId,
    /// Matches folded so far.
    n: u64,
    sum: i64,
    best: Option<Value>,
}

impl Fold {
    fn new(func: AggFunc, col: ColumnId) -> Fold {
        Fold {
            func,
            col,
            n: 0,
            sum: 0,
            best: None,
        }
    }

    /// The heap-row column a `SUM`/`AVG` adds, when it sits at a fixed
    /// offset (`fields` is where [`Sink::columns`] sit).
    fn sums(&self, fields: &[Field]) -> Option<usize> {
        match (self.func, fields) {
            (AggFunc::Sum | AggFunc::Avg, &[Field::Int9(col)]) => Some(col),
            _ => None,
        }
    }

    #[inline]
    fn push(&mut self, record: &mut impl Record, field: Field) -> Result<()> {
        self.n += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                let v = record.int(field).map_err(sum_operand)?;
                self.sum = self.sum.wrapping_add(v);
            }
            AggFunc::Min | AggFunc::Max => {
                let v = record.value(field)?;
                let better = match &self.best {
                    None => true,
                    Some(best) if self.func == AggFunc::Min => v < *best,
                    Some(best) => v > *best,
                };
                if better {
                    self.best = Some(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.n as i64),
            AggFunc::Sum => Value::Int(self.sum),
            AggFunc::Avg if self.n == 0 => Value::Int(0),
            AggFunc::Avg => Value::Int(self.sum / self.n as i64),
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Int(0)),
        }
    }
}

// --- Access paths -------------------------------------------------------------

/// How one access path judges its records: the statement's filter
/// compiled for their layout (heap rows, or the keys of a covering
/// index), and where the sink's columns sit in them.
struct Judge<'t> {
    table: &'t TableEntry,
    layout: Layout<'t>,
    filter: Filter,
    fields: Vec<Field>,
}

impl<'t> Judge<'t> {
    fn new(
        table: &'t TableEntry,
        layout: Layout<'t>,
        planned: &PlannedQuery,
        sink: &Sink,
    ) -> Result<Judge<'t>> {
        Ok(Judge {
            table,
            layout,
            filter: Filter::compile(layout, &planned.conditions)?,
            fields: sink
                .columns()
                .iter()
                .map(|c| layout.field(*c))
                .collect::<Result<_>>()?,
        })
    }

    /// Judge index entries on their keys when `entry` covers the
    /// statement, else on the heap rows they point at.
    fn for_index(
        table: &'t TableEntry,
        entry: &'t IndexEntry,
        covering: bool,
        planned: &PlannedQuery,
        sink: &Sink,
    ) -> Result<Judge<'t>> {
        let layout = if covering {
            Layout::Key(&table.schema, &entry.info.columns)
        } else {
            Layout::Rows(&table.schema)
        };
        Judge::new(table, layout, planned, sink)
    }

    #[inline(always)]
    fn record(&self, rid: Rid, record: &mut impl Record, sink: &mut Sink) -> Result<()> {
        if self.filter.matches(record)? {
            sink.push(rid, record, &self.fields)?;
        }
        Ok(())
    }

    fn fetch(&self, rid: Rid, sink: &mut Sink) -> Result<()> {
        let row = self.table.heap.pin(rid)?;
        self.record(rid, &mut Row(row.view()), sink)
    }

    /// One index entry (see [`Judge::for_index`]).
    fn entry(&self, key: &[u8], rid: Rid, sink: &mut Sink) -> Result<()> {
        match self.layout {
            Layout::Key(..) => self.record(rid, &mut Key::new(key), sink),
            Layout::Rows(_) => self.fetch(rid, sink),
        }
    }
}

/// Run `planned`'s access path, delivering every match to `sink`.
fn walk(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    planned: &PlannedQuery,
    sink: &mut Sink,
) -> Result<()> {
    let rows = Layout::Rows(&table.schema);
    match &planned.plan {
        Plan::SeqScan => {
            let judge = Judge::new(table, rows, planned, sink)?;
            let sum_column = match &*sink {
                Sink::Fold(fold) => fold.sums(&judge.fields),
                _ => None,
            };
            match (judge.filter.row_kernel(), &mut *sink, sum_column) {
                (Some(kernel), Sink::Count(n), _) => table.heap.for_each_row(|_, view| {
                    *n += u64::from(kernel.matches(view)?);
                    Ok(())
                })?,
                (Some(kernel), Sink::Fold(fold), Some(col)) => {
                    let (sum, n) = kernel.sum(&table.heap, col)?;
                    fold.sum = fold.sum.wrapping_add(sum);
                    fold.n += n;
                }
                (Some(kernel), sink, _) => table.heap.for_each_row(|rid, view| {
                    if kernel.matches(view)? {
                        sink.push(rid, &mut Row(view), &judge.fields)?;
                    }
                    Ok(())
                })?,
                (None, sink, _) => table
                    .heap
                    .for_each_row(|rid, view| judge.record(rid, &mut Row(view), sink))?,
            }
        }
        Plan::IndexSeek {
            index,
            eq_prefix,
            covering,
        } => {
            let entry = index_entry(table, planner, *index)?;
            let judge = Judge::for_index(table, entry, *covering, planned, sink)?;
            let probe = planner.seek_probe(planned, *index, *eq_prefix);
            let probe_bytes = encode_key(&probe);
            let mut cursor = entry.btree.seek(&probe)?;
            while let Some((key, rid)) = cursor.next_entry()? {
                if !key.starts_with(&probe_bytes) {
                    break;
                }
                judge.entry(key, rid, sink)?;
            }
        }
        Plan::IndexRange { index, covering } => {
            let entry = index_entry(table, planner, *index)?;
            let judge = Judge::for_index(table, entry, *covering, planned, sink)?;
            let leading = entry.info.columns[0];
            let range = planned
                .conditions
                .iter()
                .find(|c| c.column == leading && matches!(c.condition, Condition::Range { .. }))
                .ok_or_else(|| Error::Corrupt("range plan without range condition".into()))?;
            let Condition::Range {
                lo,
                hi,
                hi_inclusive,
                ..
            } = &range.condition
            else {
                unreachable!("found as a range above")
            };
            // Keys ascend, so the scan ends at the first key past `hi`.
            let below_hi = BoundCondition {
                column: leading,
                condition: Condition::Range {
                    column: String::new(),
                    lo: None,
                    lo_inclusive: false,
                    hi: hi.clone(),
                    hi_inclusive: *hi_inclusive,
                },
                branch_columns: Vec::new(),
            };
            let keys = Layout::Key(&table.schema, &entry.info.columns);
            let stop = hi
                .is_some()
                .then(|| Filter::compile(keys, [&below_hi]))
                .transpose()?;
            let mut cursor = match lo {
                Some(lo) => entry.btree.seek(std::slice::from_ref(lo))?,
                None => entry.btree.scan_all()?,
            };
            while let Some((key, rid)) = cursor.next_entry()? {
                if let Some(stop) = &stop {
                    if !stop.matches(&mut Key::new(key))? {
                        break;
                    }
                }
                // The entry may still fail the rest of the predicate,
                // e.g. an exclusive lower bound.
                judge.entry(key, rid, sink)?;
            }
        }
        Plan::IndexOnlyScan { index } => {
            let entry = index_entry(table, planner, *index)?;
            let judge = Judge::for_index(table, entry, true, planned, sink)?;
            let mut cursor = entry.btree.scan_all()?;
            while let Some((key, rid)) = cursor.next_entry()? {
                judge.entry(key, rid, sink)?;
            }
        }
        Plan::IndexAnd { probes } => {
            let value = |t: usize| planned.conditions[t].eq_value().expect("an Eq term");
            let probes = probes.map(|(t, j)| (j, value(t)));
            let rids = intersect_rids(table, planner, &probes)?;
            fetch_rids(table, planned, rids, sink)?;
        }
        Plan::IndexOr { term } => {
            let probes = planner.union_probes(&planned.conditions[*term]);
            let rids = union_rids(table, planner, &probes)?;
            fetch_rids(table, planned, rids, sink)?;
        }
        Plan::IndexExtremum { .. } => {
            return Err(Error::Corrupt(
                "extremum plans are answered from the tree spine".into(),
            ))
        }
    }
    Ok(())
}

/// `O(height)` MIN/MAX: read one end of the index.
fn index_extremum(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    index: usize,
    max: bool,
) -> Result<ExecOutcome> {
    let entry = index_entry(table, planner, index)?;
    let key = if max {
        entry.btree.last_entry()?.map(|(k, _)| k)
    } else {
        let mut cur = entry.btree.scan_all()?;
        cur.next_entry()?.map(|(k, _)| k.to_vec())
    };
    let aggregate = match key {
        Some(k) => Some(decode_key(&k)?.swap_remove(0)),
        None => Some(Value::Int(0)), // empty-table aggregate convention
    };
    // For aggregate queries `count` is the number of rows aggregated,
    // matching the fold-based paths.
    Ok(ExecOutcome {
        count: entry.btree.entry_count(),
        rows: None,
        aggregate,
    })
}

fn index_entry<'t>(
    table: &'t TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    index: usize,
) -> Result<&'t IndexEntry> {
    let name = &planner.indexes()[index].name;
    table
        .indexes
        .get(name)
        .ok_or_else(|| Error::NotFound(format!("index {name} is not materialized")))
}

// --- Multi-index rid operators -------------------------------------------

/// Fetch the rows a rid operator collected. The probes satisfied only
/// their own term; every conjunct (for a union, the OR itself too) is
/// re-checked on the row.
fn fetch_rids(
    table: &TableEntry,
    planned: &PlannedQuery,
    rids: Vec<Rid>,
    sink: &mut Sink,
) -> Result<()> {
    let judge = Judge::new(table, Layout::Rows(&table.schema), planned, sink)?;
    for rid in rids {
        judge.fetch(rid, sink)?;
    }
    Ok(())
}

/// The sorted, deduplicated rid list of one equality probe
/// `(index, value)` on the index's leading key column.
fn probe_rids(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    index: usize,
    value: &Value,
) -> Result<Vec<Rid>> {
    let entry = index_entry(table, planner, index)?;
    let probe = std::slice::from_ref(value);
    let probe_bytes = encode_key(probe);
    let mut cursor = entry.btree.seek(probe)?;
    let mut rids = Vec::new();
    while let Some((key, rid)) = cursor.next_entry()? {
        if !key.starts_with(&probe_bytes) {
            break;
        }
        rids.push(rid);
    }
    rids.sort_unstable();
    rids.dedup();
    Ok(rids)
}

/// Union of the per-probe rid lists, sorted and deduplicated — the
/// rid set of an [`Plan::IndexOr`] before heap fetch.
fn union_rids(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    probes: &[(usize, &Value)],
) -> Result<Vec<Rid>> {
    let mut all = Vec::new();
    for (index, value) in probes {
        all.extend(probe_rids(table, planner, *index, value)?);
    }
    all.sort_unstable();
    all.dedup();
    Ok(all)
}

/// Intersection of the per-probe sorted rid lists — the rid set of an
/// [`Plan::IndexAnd`] before heap fetch.
fn intersect_rids(
    table: &TableEntry,
    planner: &Planner<'_, &IndexInfo>,
    probes: &[(usize, &Value)],
) -> Result<Vec<Rid>> {
    let mut iter = probes.iter();
    let Some((i0, v0)) = iter.next() else {
        return Ok(Vec::new());
    };
    let mut acc = probe_rids(table, planner, *i0, v0)?;
    for (i, v) in iter {
        if acc.is_empty() {
            break;
        }
        let next = probe_rids(table, planner, *i, v)?;
        let mut out = Vec::with_capacity(acc.len().min(next.len()));
        let (mut a, mut b) = (0usize, 0usize);
        while a < acc.len() && b < next.len() {
            match acc[a].cmp(&next[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    out.push(acc[a]);
                    a += 1;
                    b += 1;
                }
            }
        }
        acc = out;
    }
    Ok(acc)
}
