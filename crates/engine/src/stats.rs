//! Table and column statistics, built by `ANALYZE`-style full scans.
//!
//! The what-if optimizer never touches data; everything it knows comes
//! from here: row/page counts, exact distinct counts (collected during
//! the analyze scan — affordable in-memory, and it removes one source
//! of estimation noise the paper's SQL Server setup had), min/max, and
//! an equi-depth histogram over a strided sample for range selectivity.
//!
//! Catalog entries hold a built [`TableStats`] behind an `Arc` and
//! replace it *wholesale* on refresh — never mutate it in place — so a
//! held `Arc<TableStats>` (e.g. inside a `WhatIfEngine` snapshot or a
//! concurrent planner run) is a stable point-in-time view. Keep it
//! that way: any future incremental maintenance must build a new value
//! and swap it.

use cdpd_storage::codec;
use cdpd_types::{ColumnId, Value};

/// An optional value in the record codec: statistics persist `min`/`max`
/// this way.
fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    codec::put_opt(out, v.as_ref(), codec::put_value);
}

/// Equi-depth histogram: `bounds[i]` is the upper bound of a bucket and
/// `cum[i]` the fraction of sampled values ≤ that bound. Duplicate
/// bounds are merged by keeping the *largest* cumulative fraction, so
/// heavily skewed data (many buckets ending at the same value) keeps its
/// depth information.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Vec<Value>,
    cum: Vec<f64>,
    min: Option<Value>,
}

impl Histogram {
    /// Build from a (not necessarily sorted) sample with `buckets`
    /// buckets. Empty samples yield an empty histogram.
    pub fn build(mut sample: Vec<Value>, buckets: usize) -> Histogram {
        assert!(buckets > 0, "histogram needs at least one bucket");
        if sample.is_empty() {
            return Histogram {
                bounds: Vec::new(),
                cum: Vec::new(),
                min: None,
            };
        }
        sample.sort();
        let n = sample.len();
        let min = Some(sample[0].clone());
        let mut bounds: Vec<Value> = Vec::with_capacity(buckets);
        let mut cum: Vec<f64> = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            let idx = (n * b / buckets).saturating_sub(1);
            let bound = sample[idx].clone();
            let frac = (idx + 1) as f64 / n as f64;
            if bounds.last() == Some(&bound) {
                *cum.last_mut().expect("non-empty") = frac.max(*cum.last().expect("non-empty"));
            } else {
                bounds.push(bound);
                cum.push(frac);
            }
        }
        *cum.last_mut().expect("non-empty") = 1.0;
        Histogram { bounds, cum, min }
    }

    /// Estimated fraction of values that are `< v` (or `≤ v` when
    /// `inclusive`). Buckets are assumed internally uniform; integer
    /// buckets interpolate linearly.
    pub fn fraction_below(&self, v: &Value, inclusive: bool) -> f64 {
        if self.bounds.is_empty() {
            return 0.5; // no information
        }
        let mut prev_cum = 0.0f64;
        let mut prev_bound: Option<&Value> = self.min.as_ref();
        for (b, c) in self.bounds.iter().zip(&self.cum) {
            if v <= b {
                if v == b && inclusive {
                    return *c;
                }
                let depth = c - prev_cum;
                let frac_in_bucket =
                    match (prev_bound.and_then(Value::as_int), b.as_int(), v.as_int()) {
                        // i128: a bucket may span i64::MIN..i64::MAX.
                        (Some(lo), Some(hi), Some(x)) if hi > lo => {
                            let (lo, hi, x) = (lo as i128, hi as i128, x as i128);
                            ((x - lo) as f64 / (hi - lo) as f64).clamp(0.0, 1.0)
                        }
                        _ => 0.5,
                    };
                return (prev_cum + depth * frac_in_bucket).clamp(0.0, 1.0);
            }
            prev_cum = *c;
            prev_bound = Some(b);
        }
        1.0
    }

    /// Estimated selectivity of a (possibly one-sided) range.
    pub fn range_selectivity(
        &self,
        lo: Option<&Value>,
        lo_inclusive: bool,
        hi: Option<&Value>,
        hi_inclusive: bool,
    ) -> f64 {
        let below_hi = match hi {
            Some(h) => self.fraction_below(h, hi_inclusive),
            None => 1.0,
        };
        let below_lo = match lo {
            Some(l) => self.fraction_below(l, !lo_inclusive),
            None => 0.0,
        };
        (below_hi - below_lo).clamp(0.0, 1.0)
    }

    /// Number of buckets actually stored.
    pub fn bucket_count(&self) -> usize {
        self.bounds.len()
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_values(out, self.bounds.iter());
        codec::put_list(out, &self.cum, |out, c| codec::put_f64(out, *c));
        put_opt_value(out, &self.min);
    }

    pub(crate) fn decode(r: &mut codec::Reader<'_>) -> cdpd_types::Result<Histogram> {
        let bounds = r.values()?;
        let cum = r.list(codec::Reader::f64)?;
        if cum.len() != bounds.len() {
            return Err(cdpd_types::Error::Corrupt(
                "histogram bounds/cum length mismatch".into(),
            ));
        }
        let min = r.opt(codec::Reader::value)?;
        Ok(Histogram { bounds, cum, min })
    }
}

/// Per-column statistics.
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Exact number of distinct values at analyze time.
    pub distinct: u64,
    /// Minimum value seen.
    pub min: Option<Value>,
    /// Maximum value seen.
    pub max: Option<Value>,
    /// Equi-depth histogram over a strided sample.
    pub histogram: Histogram,
    /// Average encoded width in bytes (for index size estimates).
    pub avg_width: f64,
}

impl ColumnStats {
    /// Selectivity of `col = v`: `1 / distinct`, bounded to [0, 1].
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            1.0 / self.distinct as f64
        }
    }

    /// Histogram-informed selectivity of `col = v` for a *specific*
    /// literal, as IN-list and OR-branch estimates need: values outside
    /// the observed [min, max] domain match nothing, a point mass at an
    /// equi-depth bucket bound (a heavy hitter) dominates, and anything
    /// else falls back to the uniform `1 / distinct` estimate.
    pub fn point_selectivity(&self, v: &Value) -> f64 {
        if let (Some(min), Some(max)) = (&self.min, &self.max) {
            if v < min || v > max {
                return 0.0;
            }
        }
        let mass = self.histogram.fraction_below(v, true) - self.histogram.fraction_below(v, false);
        mass.max(0.0).max(self.eq_selectivity()).min(1.0)
    }
}

/// Statistics for one table.
#[derive(Clone, Debug)]
pub struct TableStats {
    /// Live row count at analyze time.
    pub row_count: u64,
    /// Heap page count (sequential scan cost).
    pub heap_pages: u64,
    /// Average encoded row width in bytes.
    pub avg_row_width: f64,
    /// Per-column stats, indexed by [`ColumnId`].
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for column `col`.
    pub fn column(&self, col: ColumnId) -> &ColumnStats {
        &self.columns[col.index()]
    }

    /// Expected number of rows matching an equality on `col`.
    pub fn eq_rows(&self, col: ColumnId) -> f64 {
        self.row_count as f64 * self.column(col).eq_selectivity()
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        use codec::{put_f64, put_u16, put_u64};
        put_u64(out, self.row_count);
        put_u64(out, self.heap_pages);
        put_f64(out, self.avg_row_width);
        put_u16(out, self.columns.len() as u16);
        for c in &self.columns {
            put_u64(out, c.distinct);
            put_opt_value(out, &c.min);
            put_opt_value(out, &c.max);
            c.histogram.encode(out);
            put_f64(out, c.avg_width);
        }
    }

    pub(crate) fn decode(r: &mut codec::Reader<'_>) -> cdpd_types::Result<TableStats> {
        let row_count = r.u64()?;
        let heap_pages = r.u64()?;
        let avg_row_width = r.f64()?;
        let n = r.u16()? as usize;
        let columns = r.items(n, |r| {
            Ok(ColumnStats {
                distinct: r.u64()?,
                min: r.opt(codec::Reader::value)?,
                max: r.opt(codec::Reader::value)?,
                histogram: Histogram::decode(r)?,
                avg_width: r.f64()?,
            })
        })?;
        Ok(TableStats {
            row_count,
            heap_pages,
            avg_row_width,
            columns,
        })
    }
}

/// Which statistics changed in a [`refresh`](crate::Database::refresh_stats).
///
/// The oracle layer uses this to invalidate only the memo entries whose
/// relevance masks intersect the changed columns instead of discarding
/// everything after every DML batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsRefresh {
    /// True when the table's row or page count moved — row count scales
    /// every cost estimate, so callers must treat *all* cached costs as
    /// stale.
    pub rows_changed: bool,
    /// Columns whose per-column statistics were rebuilt, in id order.
    /// Empty together with `rows_changed == false` means the refresh
    /// was a no-op (no DML since the last refresh).
    pub changed_columns: Vec<ColumnId>,
}

impl StatsRefresh {
    /// True when nothing changed since the last refresh.
    pub fn is_noop(&self) -> bool {
        !self.rows_changed && self.changed_columns.is_empty()
    }
}

/// Accumulates statistics during an analyze scan and *maintains* them
/// under subsequent DML, so statistics can be refreshed per batch in
/// O(sample size) instead of re-scanning the heap.
///
/// Maintenance is deliberately one-sided where exactness would require
/// a scan: distinct counts, min/max, and the histogram sample only ever
/// *gain* values (deletes leave them as stale upper bounds — the
/// standard engineering trade-off incremental ANALYZE makes). Row and
/// byte counts are exact.
///
/// That growth-only shape is also what makes durable commits cheap:
/// between two commits a sample gains a suffix and a distinct set gains
/// members, so a commit frame carries just those ([`MaintainerMark`],
/// [`StatsMaintainer::encode`]) instead of the whole state.
pub(crate) struct StatsMaintainer {
    rows: u64,
    bytes: u64,
    /// Per column: distinct hash set, min, max, sample.
    cols: Vec<ColBuilder>,
    stride: u64,
    /// Sampling clock for updated values (inserts use the row counter).
    update_events: u64,
    /// Per-column dirty flags since the last snapshot.
    dirty: Vec<bool>,
    /// Row/byte counts moved since the last snapshot.
    rows_dirty: bool,
    /// What the last durable commit recorded. Behind a mutex so the
    /// commit path can advance it through the shared table lock
    /// readers hold; mutators reach it lock-free via `get_mut`.
    mark: std::sync::Mutex<MaintainerMark>,
}

/// What the last durable commit recorded of a maintainer: the next
/// frame carries only what lies past it.
#[derive(Default)]
struct MaintainerMark {
    /// Whether any durable commit has carried this maintainer. Until
    /// one has — fresh from `ANALYZE`, or forever in an in-memory
    /// database — the next frame carries it whole and `added` stays
    /// empty.
    committed: bool,
    /// Per column: `sample[..len]` is what the commit recorded.
    sample_lens: Vec<usize>,
    /// Per column: the values that entered `distinct` since, in
    /// arrival order.
    added: Vec<Vec<Value>>,
}

struct ColBuilder {
    distinct: std::collections::HashSet<Value>,
    min: Option<Value>,
    max: Option<Value>,
    sample: Vec<Value>,
    width_sum: u64,
}

impl ColBuilder {
    /// Fold one value in; a value new to `distinct` is also noted in
    /// `added` when the commit mark is tracking.
    fn absorb(&mut self, v: &Value, sampled: bool, added: Option<&mut Vec<Value>>) {
        if !self.distinct.contains(v) {
            self.distinct.insert(v.clone());
            if let Some(added) = added {
                added.push(v.clone());
            }
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        if sampled {
            self.sample.push(v.clone());
        }
    }
}

pub(crate) const HISTOGRAM_BUCKETS: usize = 64;
const SAMPLE_TARGET: u64 = 20_000;

impl StatsMaintainer {
    pub(crate) fn new(n_columns: usize, expected_rows: u64) -> StatsMaintainer {
        StatsMaintainer {
            rows: 0,
            bytes: 0,
            cols: (0..n_columns)
                .map(|_| ColBuilder {
                    distinct: std::collections::HashSet::new(),
                    min: None,
                    max: None,
                    sample: Vec::new(),
                    width_sum: 0,
                })
                .collect(),
            stride: (expected_rows / SAMPLE_TARGET).max(1),
            update_events: 0,
            dirty: vec![false; n_columns],
            rows_dirty: false,
            mark: std::sync::Mutex::default(),
        }
    }

    pub(crate) fn add_row(&mut self, values: &[Value]) {
        let sampled = self.rows.is_multiple_of(self.stride);
        self.rows += 1;
        self.rows_dirty = true;
        let mark = self.mark.get_mut().expect("commit mark poisoned");
        for (i, (cb, v)) in self.cols.iter_mut().zip(values).enumerate() {
            let w = v.encoded_len() as u64;
            self.bytes += w;
            cb.width_sum += w;
            cb.absorb(v, sampled, mark.added.get_mut(i));
            self.dirty[i] = true;
        }
    }

    /// Fold one executed UPDATE into the statistics: only the columns
    /// whose value actually changed are touched (and marked dirty).
    pub(crate) fn update_row(&mut self, old: &[Value], new: &[Value]) {
        let sampled = self.update_events.is_multiple_of(self.stride);
        self.update_events += 1;
        let mark = self.mark.get_mut().expect("commit mark poisoned");
        for (i, (o, n)) in old.iter().zip(new).enumerate() {
            if o == n {
                continue;
            }
            let cb = &mut self.cols[i];
            let (ow, nw) = (o.encoded_len() as u64, n.encoded_len() as u64);
            self.bytes = self.bytes + nw - ow;
            cb.width_sum = cb.width_sum + nw - ow;
            cb.absorb(n, sampled, mark.added.get_mut(i));
            self.dirty[i] = true;
        }
    }

    /// Fold one executed DELETE into the statistics. Distinct counts,
    /// bounds, and samples keep the deleted values (stale upper
    /// bounds); row and byte counts shrink exactly.
    pub(crate) fn delete_row(&mut self, values: &[Value]) {
        self.rows = self.rows.saturating_sub(1);
        self.rows_dirty = true;
        for ((cb, v), dirty) in self.cols.iter_mut().zip(values).zip(&mut self.dirty) {
            let w = v.encoded_len() as u64;
            self.bytes = self.bytes.saturating_sub(w);
            cb.width_sum = cb.width_sum.saturating_sub(w);
            *dirty = true;
        }
    }

    /// True if any DML has been folded in since the last
    /// [`take_refresh`](StatsMaintainer::take_refresh).
    pub(crate) fn is_dirty(&self) -> bool {
        self.rows_dirty || self.dirty.iter().any(|&d| d)
    }

    /// Consume the dirty flags, reporting what changed.
    pub(crate) fn take_refresh(&mut self) -> StatsRefresh {
        let refresh = StatsRefresh {
            rows_changed: self.rows_dirty,
            changed_columns: self
                .dirty
                .iter()
                .enumerate()
                .filter(|&(_, &d)| d)
                .map(|(i, _)| ColumnId(i as u16))
                .collect(),
        };
        self.rows_dirty = false;
        self.dirty.iter_mut().for_each(|d| *d = false);
        refresh
    }

    /// Append this maintainer's part of a commit record. The maintainer
    /// is *state*, not a cache: folded-forward statistics differ from a
    /// fresh analyze (deletes leave stale upper bounds), and the
    /// stride/`update_events` sampling clock decides which future
    /// values enter the histogram sample — so bit-identical recovery
    /// requires all of it.
    ///
    /// Scalars are written as they stand. A sample is written as
    /// "keep the first `n`, then append these"; a distinct set as "add
    /// these". Against the commit mark that is the few values the
    /// committed statements contributed, and nothing is cloned or
    /// sorted; with `whole` set, or before any commit has carried this
    /// maintainer, it is the same record against the *empty* maintainer
    /// (keep 0, add everything — sorted, so equal states serialize to
    /// equal bytes), flagged so [`StatsMaintainer::apply`] starts from
    /// empty. Applying a record twice, or on top of a later record that
    /// covered a prefix of the same changes, yields the same state.
    pub(crate) fn encode(&self, whole: bool, out: &mut Vec<u8>) {
        use codec::{put_bool, put_len, put_u16, put_u64, put_values};
        let mark = self.mark.lock().expect("commit mark poisoned");
        let whole = whole || !mark.committed;
        put_bool(out, whole);
        put_u64(out, self.rows);
        put_u64(out, self.bytes);
        put_u64(out, self.stride);
        put_u64(out, self.update_events);
        put_bool(out, self.rows_dirty);
        put_u16(out, self.cols.len() as u16);
        for (i, (cb, dirty)) in self.cols.iter().zip(&self.dirty).enumerate() {
            let keep = if whole {
                let mut distinct: Vec<&Value> = cb.distinct.iter().collect();
                distinct.sort_unstable();
                put_values(out, distinct.into_iter());
                0
            } else {
                put_values(out, mark.added[i].iter());
                mark.sample_lens[i]
            };
            put_opt_value(out, &cb.min);
            put_opt_value(out, &cb.max);
            put_len(out, keep);
            put_values(out, cb.sample[keep..].iter());
            put_u64(out, cb.width_sum);
            put_bool(out, *dirty);
        }
    }

    /// The commit that carried [`StatsMaintainer::encode`]'s record is
    /// durable: what it recorded is the new mark.
    pub(crate) fn advance_mark(&self) {
        let mut mark = self.mark.lock().expect("commit mark poisoned");
        mark.committed = true;
        mark.sample_lens.clear();
        mark.sample_lens
            .extend(self.cols.iter().map(|cb| cb.sample.len()));
        mark.added.iter_mut().for_each(Vec::clear);
        mark.added.resize_with(self.cols.len(), Vec::new);
    }

    /// Fold one [`StatsMaintainer::encode`] record into `slot`: a whole
    /// record replaces whatever is there, a difference patches it.
    pub(crate) fn apply(
        slot: &mut Option<StatsMaintainer>,
        r: &mut codec::Reader<'_>,
    ) -> cdpd_types::Result<()> {
        use cdpd_types::Error::Corrupt;
        let whole = r.bool()?;
        let rows = r.u64()?;
        let bytes = r.u64()?;
        let stride = r.u64()?;
        if stride == 0 {
            return Err(Corrupt("zero sampling stride".into()));
        }
        let update_events = r.u64()?;
        let rows_dirty = r.bool()?;
        let n = r.u16()? as usize;
        if whole {
            *slot = Some(StatsMaintainer::new(n, 0));
        }
        let m = match slot {
            Some(m) if m.cols.len() == n => m,
            _ => return Err(Corrupt("maintainer patch matches no maintainer".into())),
        };
        (m.rows, m.bytes, m.stride) = (rows, bytes, stride);
        (m.update_events, m.rows_dirty) = (update_events, rows_dirty);
        for (cb, dirty) in m.cols.iter_mut().zip(&mut m.dirty) {
            cb.distinct.extend(r.values()?);
            cb.min = r.opt(codec::Reader::value)?;
            cb.max = r.opt(codec::Reader::value)?;
            let keep = r.u32()? as usize;
            if keep > cb.sample.len() {
                return Err(Corrupt("sample patch starts past the sample".into()));
            }
            cb.sample.truncate(keep);
            cb.sample.extend(r.values()?);
            cb.width_sum = r.u64()?;
            *dirty = r.bool()?;
        }
        Ok(())
    }

    /// Materialize [`TableStats`] from the retained state: O(sample)
    /// histogram rebuilds, no heap scan.
    pub(crate) fn snapshot(&self, heap_pages: u64) -> TableStats {
        let rows = self.rows;
        TableStats {
            row_count: rows,
            heap_pages,
            avg_row_width: if rows == 0 {
                0.0
            } else {
                self.bytes as f64 / rows as f64
            },
            columns: self
                .cols
                .iter()
                .map(|cb| ColumnStats {
                    distinct: cb.distinct.len() as u64,
                    min: cb.min.clone(),
                    max: cb.max.clone(),
                    histogram: Histogram::build(cb.sample.clone(), HISTOGRAM_BUCKETS),
                    avg_width: if rows == 0 {
                        0.0
                    } else {
                        cb.width_sum as f64 / rows as f64
                    },
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(i: i64) -> Value {
        Value::Int(i)
    }

    #[test]
    fn histogram_uniform_fractions() {
        let sample: Vec<Value> = (0..10_000).map(iv).collect();
        let h = Histogram::build(sample, 64);
        let f = h.fraction_below(&iv(2500), false);
        assert!((f - 0.25).abs() < 0.05, "got {f}");
        let f = h.fraction_below(&iv(9999), true);
        assert!(f > 0.98, "got {f}");
        let f = h.fraction_below(&iv(-5), false);
        assert!(f < 0.02, "got {f}");
    }

    #[test]
    fn histogram_range_selectivity() {
        let sample: Vec<Value> = (0..10_000).map(iv).collect();
        let h = Histogram::build(sample, 64);
        let s = h.range_selectivity(Some(&iv(1000)), true, Some(&iv(2000)), true);
        assert!((s - 0.10).abs() < 0.05, "got {s}");
        let s = h.range_selectivity(None, false, Some(&iv(5000)), false);
        assert!((s - 0.50).abs() < 0.05, "got {s}");
        assert_eq!(h.range_selectivity(None, false, None, false), 1.0);
    }

    #[test]
    fn empty_histogram_is_agnostic() {
        let h = Histogram::build(Vec::new(), 8);
        assert_eq!(h.bucket_count(), 0);
        assert_eq!(h.fraction_below(&iv(3), false), 0.5);
    }

    #[test]
    fn skewed_histogram_tracks_depth_not_width() {
        // 90% of values are < 10; equi-depth must reflect that.
        let mut sample: Vec<Value> = (0..9000).map(|i| iv(i % 10)).collect();
        sample.extend((0..1000).map(|i| iv(1000 + i)));
        let h = Histogram::build(sample, 64);
        let f = h.fraction_below(&iv(100), false);
        assert!(f > 0.85, "got {f}");
    }

    #[test]
    fn builder_computes_exact_distinct_and_bounds() {
        let mut b = StatsMaintainer::new(2, 100);
        for i in 0..100i64 {
            b.add_row(&[iv(i % 10), iv(i)]);
        }
        let stats = b.snapshot(7);
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.heap_pages, 7);
        assert_eq!(stats.columns[0].distinct, 10);
        assert_eq!(stats.columns[1].distinct, 100);
        assert_eq!(stats.columns[0].min, Some(iv(0)));
        assert_eq!(stats.columns[0].max, Some(iv(9)));
        assert!((stats.column(cdpd_types::ColumnId(0)).eq_selectivity() - 0.1).abs() < 1e-9);
        assert!((stats.eq_rows(cdpd_types::ColumnId(0)) - 10.0).abs() < 1e-9);
        assert!((stats.avg_row_width - 18.0).abs() < 1e-9);
    }

    #[test]
    fn builder_handles_empty_table() {
        let b = StatsMaintainer::new(1, 0);
        let stats = b.snapshot(0);
        assert_eq!(stats.row_count, 0);
        assert_eq!(stats.columns[0].distinct, 0);
        assert_eq!(stats.columns[0].eq_selectivity(), 0.0);
    }

    #[test]
    fn maintainer_folds_dml_without_rescans() {
        let mut m = StatsMaintainer::new(2, 100);
        for i in 0..100i64 {
            m.add_row(&[iv(i % 10), iv(i)]);
        }
        // The analyze scan itself marks everything dirty; drain it.
        let seed = m.take_refresh();
        assert!(seed.rows_changed);
        assert_eq!(seed.changed_columns.len(), 2);
        assert!(!m.is_dirty());
        assert!(m.take_refresh().is_noop());

        // An update touching only column 1 dirties only column 1.
        m.update_row(&[iv(3), iv(50)], &[iv(3), iv(5000)]);
        let r = m.take_refresh();
        assert!(!r.rows_changed);
        assert_eq!(r.changed_columns, vec![cdpd_types::ColumnId(1)]);
        let stats = m.snapshot(7);
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns[1].max, Some(iv(5000)), "max extends");
        assert_eq!(stats.columns[1].distinct, 101, "new value counted");
        assert_eq!(stats.columns[0].distinct, 10, "untouched column intact");

        // A no-op update (old == new everywhere) dirties nothing.
        m.update_row(&[iv(3), iv(7)], &[iv(3), iv(7)]);
        assert!(!m.is_dirty());

        // Deletes shrink the exact counters and dirty everything.
        m.delete_row(&[iv(3), iv(50)]);
        let r = m.take_refresh();
        assert!(r.rows_changed);
        assert_eq!(r.changed_columns.len(), 2);
        assert_eq!(m.snapshot(7).row_count, 99);

        // Inserts grow them back.
        m.add_row(&[iv(11), iv(200)]);
        let stats = m.snapshot(7);
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.columns[0].distinct, 11);
        assert_eq!(stats.columns[0].max, Some(iv(11)));
    }
}
