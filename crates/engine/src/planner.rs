//! Cost-based access-path selection, in two steps.
//!
//! * **Bind** ([`Planner::prepare`]; its query half also starts
//!   [`Planner::plan`]) reads only the schema, the statistics and the
//!   statement: column ids and literal checks, the projection, each
//!   term's selectivity, the row estimate, the equality probes of
//!   `IN`/`OR` terms, and a write's SET columns. Every error a
//!   statement can raise is raised here.
//! * **Choose** walks an index set and returns the cheapest candidate
//!   as the [`Plan`] the executor runs, named by index and term
//!   positions. It formats no names and allocates nothing.
//!
//! [`Planner::plan`] is bind and choose, plus the winner's index names
//! and ordering flag in a [`PlannedQuery`]; [`Planner::plan_write`] is
//! the same for a write's locate phase plus its write-side charges. The
//! executor reads its probe values from the bound terms
//! ([`Planner::seek_probe`], [`Planner::union_probes`]).
//!
//! The planner is configuration-driven: it receives a list of
//! [`IndexInfo`]s describing the indexes *assumed to exist* and knows
//! nothing about whether they are real B+-trees or hypothetical
//! what-if structures. `Database` plans against its materialized
//! indexes; [`crate::WhatIfEngine`] plans against estimated shapes.
//! One planner, two callers — that is the what-if interface. A bound
//! statement does not depend on the index set, so the what-if engine
//! binds each workload statement once ([`crate::WhatIfEngine::prepare`])
//! and prices it under every configuration a solver asks about with
//! choose alone ([`Planner::cost`]). It does depend on the statistics:
//! after a statistics refresh a statement must be bound again.
//!
//! Planning is a pure function of the schema, the statistics snapshot,
//! and the assumed index shapes — no interior mutability — so
//! concurrent statements plan freely against one shared
//! `Arc<TableStats>` without synchronization.

use crate::cost::{CostModel, IndexShape};
use crate::stats::TableStats;
use cdpd_sql::{AggFunc, Condition, Dml, Projection, SelectStmt};
use cdpd_types::{ColumnId, Cost, Error, Result, Schema, Value};
use std::borrow::Borrow;

/// An index as the planner sees it.
#[derive(Clone, Debug)]
pub struct IndexInfo {
    /// Canonical name (for plan descriptions and executor lookup).
    pub name: String,
    /// Key columns in key order.
    pub columns: Vec<ColumnId>,
    /// Physical shape (real or estimated).
    pub shape: IndexShape,
}

/// Bound projection: output columns (`None` = all), whether only a
/// count is needed, and an optional aggregate fold.
type BoundProjection = (Option<Vec<ColumnId>>, bool, Option<(AggFunc, ColumnId)>);

/// A resolved predicate term: condition with its column id(s).
#[derive(Clone, Debug)]
pub struct BoundCondition {
    /// Column the term constrains — for an `Or`, its first branch's
    /// column (see `branch_columns` for the full set).
    pub column: ColumnId,
    /// The original condition.
    pub condition: Condition,
    /// For [`Condition::Or`] terms: the column id of each branch,
    /// parallel to the branch list. Empty for simple terms.
    pub branch_columns: Vec<ColumnId>,
}

impl BoundCondition {
    /// Columns the term reads (every `Or` branch's column).
    fn columns(&self) -> &[ColumnId] {
        if self.branch_columns.is_empty() {
            std::slice::from_ref(&self.column)
        } else {
            &self.branch_columns
        }
    }

    fn is_eq(&self) -> bool {
        matches!(self.condition, Condition::Eq { .. })
    }

    /// The literal of an `Eq` term.
    pub(crate) fn eq_value(&self) -> Option<&Value> {
        match &self.condition {
            Condition::Eq { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The deduplicated `(column, value)` equality probes the term
    /// expands into for a rowid-union plan, or `None` when the term is
    /// not union-servable: simple Eq/Range terms, an OR with a Range
    /// branch, an empty probe list, or fanout beyond
    /// [`Planner::MAX_OR_PROBES`].
    fn or_probes(&self) -> Option<Vec<(ColumnId, &Value)>> {
        let mut raw: Vec<(ColumnId, &Value)> = Vec::new();
        match &self.condition {
            Condition::In { values, .. } => {
                for v in values {
                    raw.push((self.column, v));
                }
            }
            Condition::Or(branches) => {
                for (b, col) in branches.iter().zip(&self.branch_columns) {
                    match b {
                        Condition::Eq { value, .. } => raw.push((*col, value)),
                        Condition::In { values, .. } => {
                            for v in values {
                                raw.push((*col, v));
                            }
                        }
                        // A Range branch has no equality probe: the
                        // whole term falls out of the union path.
                        _ => return None,
                    }
                }
            }
            _ => return None,
        }
        // Plan-time dedup: repeated IN values probe once.
        let mut probes: Vec<(ColumnId, &Value)> = Vec::new();
        for (c, v) in raw {
            if !probes.iter().any(|(pc, pv)| *pc == c && *pv == v) {
                probes.push((c, v));
            }
        }
        if probes.is_empty() || probes.len() > Planner::MAX_OR_PROBES {
            return None;
        }
        Some(probes)
    }
}

/// A query bound against one schema and statistics snapshot: everything
/// path choice reads that does not depend on the index set.
#[derive(Clone, Debug)]
struct BoundQuery {
    conditions: Vec<BoundCondition>,
    /// Selectivity of each term, parallel to `conditions`.
    selectivity: Vec<f64>,
    projection: Option<Vec<ColumnId>>,
    count_only: bool,
    aggregate: Option<(AggFunc, ColumnId)>,
    order_by: Option<(ColumnId, bool)>,
    limit: Option<u64>,
    /// Some term reads several columns. Key-side evaluation handles one
    /// column per term, so no index covers the query.
    multi_col_or: bool,
    /// Independence-assumption row estimate over all conjuncts.
    est_rows: f64,
    /// Union-servable terms: term position and the column of each of
    /// its deduplicated equality probes ([`Planner::or_probes`]). Boxed
    /// so that the oracle's per-statement bound form holds no spare
    /// capacity.
    unions: Box<[(usize, Vec<ColumnId>)]>,
}

/// A workload statement (query, update or delete) bound for costing by
/// [`Planner::prepare`]: the query that locates its rows and, for a
/// write, what it modifies. Valid only under the schema and statistics
/// it was bound against.
#[derive(Clone, Debug)]
pub struct Prepared {
    query: BoundQuery,
    write: Option<Write>,
}

impl Prepared {
    /// The predicate conjuncts, bound to column ids.
    pub fn conditions(&self) -> &[BoundCondition] {
        &self.query.conditions
    }
}

/// The write side of a [`Prepared`] statement.
#[derive(Clone, Debug)]
enum Write {
    /// An `UPDATE` and the columns its SET list assigns.
    Update(Vec<ColumnId>),
    Delete,
}

impl Write {
    /// Whether `info` needs per-row maintenance under this write: every
    /// index for a delete, those keyed on a SET column for an update.
    fn maintains(&self, info: &IndexInfo) -> bool {
        match self {
            Write::Update(set) => info.columns.iter().any(|c| set.contains(c)),
            Write::Delete => true,
        }
    }
}

/// The chosen access path, named by index and term positions: what
/// the planner chooses and the executor runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Plan {
    /// Scan the heap, filter, project.
    SeqScan,
    /// Descend the index with an equality probe on the leading
    /// `eq_prefix` key columns ([`Planner::seek_probe`]).
    IndexSeek {
        /// Position in the planner's index list.
        index: usize,
        /// Number of leading key columns bound by equality.
        eq_prefix: usize,
        /// Whether the index covers the query (no heap fetches).
        covering: bool,
    },
    /// Scan the index range where the leading key column falls in the
    /// predicate's range.
    IndexRange {
        /// Position in the planner's index list.
        index: usize,
        /// Whether the index covers the query.
        covering: bool,
    },
    /// Scan every leaf of a covering index instead of the (wider) heap.
    IndexOnlyScan {
        /// Position in the planner's index list.
        index: usize,
    },
    /// Read one end of an index: `O(height)` evaluation of an
    /// unpredicated `MIN(col)` / `MAX(col)` over the leading key column.
    IndexExtremum {
        /// Position in the planner's index list.
        index: usize,
        /// True for `MAX` (rightmost entry), false for `MIN`.
        max: bool,
    },
    /// Rowid intersection: equality probes on two distinct indexes,
    /// each collecting the rids of one `Eq` conjunct; the sorted rid
    /// lists are intersected, the survivors fetched from the heap and
    /// residual-filtered.
    IndexAnd {
        /// `(term position, index position)` per participant: the
        /// term's `Eq` literal probes that index's leading key column.
        probes: [(usize, usize); 2],
    },
    /// Rowid union: one equality probe per distinct `IN` value or `OR`
    /// branch of one term, each through the cheapest index leading on
    /// its column ([`Planner::union_probes`]); the sorted rid lists are
    /// deduplicated, the union fetched from the heap and
    /// residual-filtered.
    IndexOr {
        /// Position of the `IN` or all-equality `OR` term.
        term: usize,
    },
}

impl Plan {
    /// The access path this plan takes.
    pub fn kind(&self) -> PathKind {
        match self {
            Plan::SeqScan => PathKind::SeqScan,
            Plan::IndexSeek { .. } => PathKind::IndexSeek,
            Plan::IndexRange { .. } => PathKind::IndexRange,
            Plan::IndexOnlyScan { .. } => PathKind::IndexOnlyScan,
            Plan::IndexExtremum { .. } => PathKind::IndexExtremum,
            Plan::IndexAnd { .. } => PathKind::IndexAnd,
            Plan::IndexOr { .. } => PathKind::IndexOr,
        }
    }
}

/// The access path of an executed statement: a query's [`Plan::kind`],
/// or what else the statement was. Reports enumerate kinds in
/// declaration order ([`PathKind::ALL`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathKind {
    /// Full heap scan.
    SeqScan,
    /// B-tree point lookup (possibly covering).
    IndexSeek,
    /// B-tree range scan.
    IndexRange,
    /// Index-only scan over a covering index.
    IndexOnlyScan,
    /// MIN/MAX answered by an index edge descent.
    IndexExtremum,
    /// Rowid intersection of equality probes on distinct indexes.
    IndexAnd,
    /// Rowid union of equality probes (IN lists / OR disjunctions).
    IndexOr,
    /// `UPDATE`/`DELETE` (locate phase plus index maintenance).
    Write,
    /// Any other statement (DDL, `INSERT`).
    Other,
}

impl PathKind {
    /// Every variant, in declaration order.
    pub const ALL: [PathKind; 9] = [
        PathKind::SeqScan,
        PathKind::IndexSeek,
        PathKind::IndexRange,
        PathKind::IndexOnlyScan,
        PathKind::IndexExtremum,
        PathKind::IndexAnd,
        PathKind::IndexOr,
        PathKind::Write,
        PathKind::Other,
    ];

    /// Stable snake_case label used in metric names and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::SeqScan => "seq_scan",
            PathKind::IndexSeek => "index_seek",
            PathKind::IndexRange => "index_range",
            PathKind::IndexOnlyScan => "index_only_scan",
            PathKind::IndexExtremum => "index_extremum",
            PathKind::IndexAnd => "index_and",
            PathKind::IndexOr => "index_or",
            PathKind::Write => "write",
            PathKind::Other => "other",
        }
    }
}

/// Planner output: the plan, its cost estimate, and bound predicate.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// Chosen access path.
    pub plan: Plan,
    /// Estimated cost in logical I/Os.
    pub est_cost: Cost,
    /// Estimated number of matching rows.
    pub est_rows: f64,
    /// All predicate conjuncts, bound to column ids.
    pub conditions: Vec<BoundCondition>,
    /// Projected column ids (`None` = all columns).
    pub projection: Option<Vec<ColumnId>>,
    /// Whether the query only needs a row count (`COUNT(*)`).
    pub count_only: bool,
    /// Single-column aggregate to fold, if any.
    pub aggregate: Option<(AggFunc, ColumnId)>,
    /// Requested ordering `(column, desc)`, if any.
    pub order_by: Option<(ColumnId, bool)>,
    /// Row limit, if any.
    pub limit: Option<u64>,
    /// Whether the chosen access path already emits rows in the
    /// requested order (no sort needed).
    pub plan_ordered: bool,
    /// Index name used, if any.
    pub index_name: Option<String>,
}

impl PlannedQuery {
    /// One-line plan description, e.g. `IndexSeek(ix_t_a) cost=9`.
    pub fn describe(&self) -> String {
        let kind = match &self.plan {
            Plan::SeqScan => "SeqScan".to_owned(),
            Plan::IndexSeek { covering, .. } => format!(
                "IndexSeek({}{})",
                self.index_name.as_deref().unwrap_or("?"),
                if *covering { ", covering" } else { "" }
            ),
            Plan::IndexRange { covering, .. } => format!(
                "IndexRange({}{})",
                self.index_name.as_deref().unwrap_or("?"),
                if *covering { ", covering" } else { "" }
            ),
            Plan::IndexOnlyScan { .. } => {
                format!(
                    "IndexOnlyScan({})",
                    self.index_name.as_deref().unwrap_or("?")
                )
            }
            Plan::IndexExtremum { max, .. } => format!(
                "IndexExtremum({}, {})",
                self.index_name.as_deref().unwrap_or("?"),
                if *max { "max" } else { "min" }
            ),
            Plan::IndexAnd { probes } => format!(
                "IndexAnd({}, {} probes)",
                self.index_name.as_deref().unwrap_or("?"),
                probes.len()
            ),
            Plan::IndexOr { term } => {
                let probes = self.conditions[*term].or_probes().map_or(0, |p| p.len());
                format!(
                    "IndexOr({}, {} probe{})",
                    self.index_name.as_deref().unwrap_or("?"),
                    probes,
                    if probes == 1 { "" } else { "s" }
                )
            }
        };
        format!("{kind} cost={}", self.est_cost)
    }
}

/// A planned `UPDATE` or `DELETE`: the row-locating access path plus
/// the estimated write-side cost.
#[derive(Clone, Debug)]
pub struct PlannedWrite {
    /// Access path used to locate the affected rows.
    pub find: PlannedQuery,
    /// Estimated total cost: locate + heap writes + index maintenance.
    pub est_total: Cost,
    /// Positions (in the planner's index list) of indexes that need
    /// per-row maintenance under this statement.
    pub maintained: Vec<usize>,
    /// Whether this is an update (vs a delete).
    pub is_update: bool,
}

impl PlannedWrite {
    /// One-line description, e.g. `Update via SeqScan, 2 index(es) maintained`.
    pub fn describe(&self) -> String {
        format!(
            "{} via {} maintaining {} index(es), cost={}",
            if self.is_update { "Update" } else { "Delete" },
            self.find.describe(),
            self.maintained.len(),
            self.est_total
        )
    }
}

/// Access-path flags for the one ablation a claim rests on: disabling
/// `index_only_scans` demotes `I(a,b)` from the paper's Table 2 winner
/// for mix A to a loser — the covering-scan path IS the Table 2 driver
/// (EXPERIMENTS.md; pinned by `ablation_flags_disable_paths`).
#[derive(Clone, Copy, Debug)]
pub struct PlannerFlags {
    /// Allow full index-only scans of covering indexes.
    pub index_only_scans: bool,
}

impl Default for PlannerFlags {
    fn default() -> Self {
        PlannerFlags {
            index_only_scans: true,
        }
    }
}

/// Cost-based single-table planner over an index list of owned
/// [`IndexInfo`]s or of references to them.
pub struct Planner<'a, I = IndexInfo> {
    schema: &'a Schema,
    stats: &'a TableStats,
    indexes: &'a [I],
    flags: PlannerFlags,
}

impl Planner<'_> {
    /// Fanout gate for rowid-union plans: beyond this many probes a
    /// union of point seeks loses its locality advantage and the
    /// planner stops generating the candidate (large IN lists fall
    /// back to the scan-based paths).
    pub const MAX_OR_PROBES: usize = 16;
}

impl<'a, I: Borrow<IndexInfo>> Planner<'a, I> {
    /// Plan against `schema`/`stats` with `indexes` assumed available.
    pub fn new(schema: &'a Schema, stats: &'a TableStats, indexes: &'a [I]) -> Planner<'a, I> {
        Self::with_flags(schema, stats, indexes, PlannerFlags::default())
    }

    /// Planner with non-default access-path flags (ablations).
    pub fn with_flags(
        schema: &'a Schema,
        stats: &'a TableStats,
        indexes: &'a [I],
        flags: PlannerFlags,
    ) -> Planner<'a, I> {
        Planner {
            schema,
            stats,
            indexes,
            flags,
        }
    }

    /// The index list this planner was constructed with.
    pub fn indexes(&self) -> &[I] {
        self.indexes
    }

    fn index(&self, i: usize) -> &IndexInfo {
        self.indexes[i].borrow()
    }

    fn infos(&self) -> impl Iterator<Item = &IndexInfo> {
        self.indexes.iter().map(Borrow::borrow)
    }

    /// Resolve and validate the statement, then pick the cheapest path.
    pub fn plan(&self, stmt: &SelectStmt) -> Result<PlannedQuery> {
        let query = self.bind(stmt)?;
        let (cost, plan) = self.choose(&query);
        Ok(self.planned(query, cost, plan))
    }

    /// Plan the write statements of Definition 1's "queries and
    /// updates": locate the affected rows with the cheapest access
    /// path, then charge heap writes plus per-row maintenance on every
    /// index the write invalidates (all indexes for a delete; indexes
    /// whose key columns intersect the SET list for an update).
    ///
    /// Updates are costed as in-place heap writes — exact for the
    /// fixed-width integer rows of this engine's workloads; a moved row
    /// additionally reindexes everything, which execution handles
    /// correctly but estimation ignores.
    ///
    /// # Errors
    /// `stmt` must be an `UPDATE` or `DELETE` (queries go through
    /// [`Planner::plan`]); SET columns must exist and be type-correct.
    pub fn plan_write(&self, stmt: &Dml) -> Result<PlannedWrite> {
        if matches!(stmt, Dml::Select(_)) {
            return Err(Error::InvalidArgument(
                "plan_write takes UPDATE or DELETE statements".into(),
            ));
        }
        let Prepared { query, write } = self.prepare(stmt)?;
        let write = write.expect("a prepared UPDATE or DELETE has a write side");
        let (find_cost, plan) = self.choose(&query);
        let est_total = self.write_cost(&write, find_cost, query.est_rows);
        let maintained = self
            .infos()
            .enumerate()
            .filter(|(_, info)| write.maintains(info))
            .map(|(i, _)| i)
            .collect();
        Ok(PlannedWrite {
            find: self.planned(query, find_cost, plan),
            est_total,
            maintained,
            is_update: matches!(write, Write::Update(_)),
        })
    }

    /// Estimated cost of a statement this planner's schema and
    /// statistics [`Planner::prepare`]d, under this planner's index
    /// set: bit for bit [`Planner::plan`]'s `est_cost` for a query and
    /// [`Planner::plan_write`]'s `est_total` for a write. Allocates
    /// nothing.
    pub fn cost(&self, prepared: &Prepared) -> Cost {
        let (cost, _) = self.choose(&prepared.query);
        match &prepared.write {
            None => cost,
            Some(write) => self.write_cost(write, cost, prepared.query.est_rows),
        }
    }

    /// Locate cost plus a heap write per affected row plus per-row
    /// maintenance of every index `write` invalidates, in index order.
    fn write_cost(&self, write: &Write, find_cost: Cost, rows: f64) -> Cost {
        let mut total = find_cost + CostModel::heap_row_write().scale(rows.ceil() as u64);
        for info in self.infos().filter(|info| write.maintains(info)) {
            total += match write {
                Write::Update(_) => CostModel::update_maintenance(info.shape, rows),
                Write::Delete => CostModel::delete_maintenance(info.shape, rows),
            };
        }
        total
    }

    /// Bind a query: resolve and type-check every column and literal,
    /// and estimate what does not depend on the index set.
    ///
    /// # Errors
    /// Unknown columns, mistyped literals, malformed `OR` terms, and
    /// `ORDER BY` / `LIMIT` on an aggregate.
    fn bind(&self, stmt: &SelectStmt) -> Result<BoundQuery> {
        let conditions = self.bind_conditions(&stmt.conditions)?;
        let (projection, count_only, aggregate) = self.bind_projection(&stmt.projection)?;
        let order_by = stmt
            .order_by
            .as_ref()
            .map(|ob| {
                self.schema
                    .column_id(&ob.column)
                    .map(|id| (id, ob.desc))
                    .ok_or_else(|| Error::NotFound(format!("column {}", ob.column)))
            })
            .transpose()?;
        if aggregate.is_some() && (order_by.is_some() || stmt.limit.is_some()) {
            return Err(Error::InvalidArgument(
                "ORDER BY / LIMIT on an aggregate query is meaningless (one result row)".into(),
            ));
        }
        Ok(self.bound(
            conditions,
            (projection, count_only, aggregate),
            order_by,
            stmt.limit,
        ))
    }

    /// Bind any workload statement for costing. A write's locate phase
    /// is bound as a `COUNT(*)` over its predicate: it needs only the
    /// predicate columns (rids are collected first, then rows are
    /// mutated — no Halloween hazard).
    ///
    /// # Errors
    /// Unknown columns, mistyped literals (SET literals included),
    /// malformed `OR` terms, and `ORDER BY` / `LIMIT` on an aggregate.
    pub fn prepare(&self, stmt: &Dml) -> Result<Prepared> {
        let write = match stmt {
            Dml::Select(s) => {
                return Ok(Prepared {
                    query: self.bind(s)?,
                    write: None,
                })
            }
            Dml::Update(u) => Write::Update(
                u.set
                    .iter()
                    .map(|(name, value)| {
                        let id = self
                            .schema
                            .column_id(name)
                            .ok_or_else(|| Error::NotFound(format!("column {name}")))?;
                        let ty = self.schema.column(id).expect("id just resolved").ty;
                        if value.value_type() != ty {
                            return Err(Error::TypeMismatch(format!(
                                "SET literal type does not match column {name}"
                            )));
                        }
                        Ok(id)
                    })
                    .collect::<Result<Vec<_>>>()?,
            ),
            Dml::Delete(_) => Write::Delete,
        };
        let conditions = self.bind_conditions(stmt.conditions())?;
        Ok(Prepared {
            query: self.bound(conditions, (None, true, None), None, None),
            write: Some(write),
        })
    }

    /// Everything path choice needs from bound terms and projection.
    fn bound(
        &self,
        conditions: Vec<BoundCondition>,
        (projection, count_only, aggregate): BoundProjection,
        order_by: Option<(ColumnId, bool)>,
        limit: Option<u64>,
    ) -> BoundQuery {
        let multi_col_or = conditions
            .iter()
            .any(|c| c.branch_columns.windows(2).any(|w| w[0] != w[1]));
        let unions = conditions
            .iter()
            .enumerate()
            .filter_map(|(t, bc)| {
                let probes = bc.or_probes()?;
                Some((t, probes.into_iter().map(|(col, _)| col).collect()))
            })
            .collect();
        let mut query = BoundQuery {
            selectivity: vec![0.0; conditions.len()],
            conditions,
            projection,
            count_only,
            aggregate,
            order_by,
            limit,
            multi_col_or,
            est_rows: 0.0,
            unions,
        };
        self.estimate(&mut query);
        query
    }

    /// Re-estimate a statement bound against older statistics of the
    /// same table: only selectivities and the row estimate read the
    /// statistics, so afterwards `prepared` is what
    /// [`Planner::prepare`] would bind under this planner's.
    pub(crate) fn reestimate(&self, prepared: &mut Prepared) {
        self.estimate(&mut prepared.query);
    }

    /// Each term's selectivity and the independence-assumption row
    /// estimate over all of them.
    fn estimate(&self, query: &mut BoundQuery) {
        for (sel, bc) in query.selectivity.iter_mut().zip(&query.conditions) {
            *sel = self.term_selectivity(bc);
        }
        query.est_rows = self.stats.row_count as f64 * query.selectivity.iter().product::<f64>();
    }

    /// The cheapest candidate path for `query` under this planner's
    /// index set, as `(cost, plan)`: the minimum by cost, then by rank
    /// (seek/extremum 0, range/union/intersection 1, index-only scan 2,
    /// heap scan 3), then by generation order.
    fn choose(&self, query: &BoundQuery) -> (Cost, Plan) {
        let stats = self.stats;
        let mut best = (CostModel::seq_scan(stats), 3u32, Plan::SeqScan);
        let mut consider = |cost: Cost, rank: u32, plan: Plan| {
            if cost < best.0 || (cost == best.0 && rank < best.1) {
                best = (cost, rank, plan);
            }
        };

        // Unpredicated MIN/MAX over an index's leading column: read one
        // end of the tree.
        if query.conditions.is_empty() {
            if let Some((func @ (AggFunc::Min | AggFunc::Max), col)) = query.aggregate {
                for (index, info) in self.infos().enumerate() {
                    if info.columns[0] == col {
                        let max = func == AggFunc::Max;
                        let cost = Cost::from_ios(info.shape.height as u64);
                        consider(cost, 0, Plan::IndexExtremum { index, max });
                    }
                }
            }
        }

        for (index, info) in self.infos().enumerate() {
            let covering = !query.multi_col_or && self.covers(info, query);

            // Longest leading prefix bound by equality.
            let eq_prefix = info
                .columns
                .iter()
                .take_while(|col| {
                    query
                        .conditions
                        .iter()
                        .any(|c| c.column == **col && c.is_eq())
                })
                .count();
            if eq_prefix > 0 {
                let rows = self.eq_prefix_rows(info, eq_prefix);
                let cost = CostModel::index_seek(stats, info.shape, rows, covering);
                let plan = Plan::IndexSeek {
                    index,
                    eq_prefix,
                    covering,
                };
                consider(cost, 0, plan);
                continue;
            }

            // Range on the leading key column?
            let leading = info.columns[0];
            let range = query.conditions.iter().position(|c| {
                c.column == leading && matches!(c.condition, Condition::Range { .. })
            });
            if let Some(t) = range {
                let frac = query.selectivity[t];
                let rows = stats.row_count as f64 * frac;
                let cost = CostModel::index_range(stats, info.shape, frac, rows, covering);
                consider(cost, 1, Plan::IndexRange { index, covering });
                continue;
            }

            if covering && self.flags.index_only_scans {
                let cost = CostModel::index_only_scan(info.shape);
                consider(cost, 2, Plan::IndexOnlyScan { index });
            }
        }

        // Rowid-union candidates: one per IN / all-equality OR term.
        // Each probe uses the cheapest index leading on its column; the
        // union is fetched and residual-filtered, so the other
        // conjuncts still apply.
        'unions: for (t, probes) in query.unions.iter() {
            let mut cost = Cost::ZERO;
            for col in probes {
                // A probe column without a leading index sinks the
                // whole union: its branch rows would be missed.
                let Some((_, c)) = self.cheapest_probe(*col) else {
                    continue 'unions;
                };
                cost += c;
            }
            cost += CostModel::rid_fetches(stats.row_count as f64 * query.selectivity[*t]);
            consider(cost, 1, Plan::IndexOr { term: *t });
        }

        // Rowid-intersection candidates: pairs of equality conjuncts on
        // distinct columns, each probed through its own leading index;
        // the intersected rid list is fetched and residual-filtered.
        let eq_terms = || {
            query
                .conditions
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_eq())
        };
        for (pt, p) in eq_terms() {
            for (qt, q) in eq_terms().filter(|(qt, _)| *qt > pt) {
                if p.column == q.column {
                    continue;
                }
                let (Some((pj, pc)), Some((qj, qc))) =
                    (self.cheapest_probe(p.column), self.cheapest_probe(q.column))
                else {
                    continue;
                };
                let sel = stats.column(p.column).eq_selectivity()
                    * stats.column(q.column).eq_selectivity();
                let rows = stats.row_count as f64 * sel;
                let cost = pc + qc + CostModel::rid_fetches(rows);
                let probes = [(pt, pj), (qt, qj)];
                consider(cost, 1, Plan::IndexAnd { probes });
            }
        }

        let (cost, _, plan) = best;
        match plan {
            Plan::SeqScan => cdpd_obs::counter!("engine.planner.pick.seq_scan").inc(),
            Plan::IndexSeek { .. } => cdpd_obs::counter!("engine.planner.pick.index_seek").inc(),
            Plan::IndexRange { .. } => cdpd_obs::counter!("engine.planner.pick.index_range").inc(),
            Plan::IndexOnlyScan { .. } => {
                cdpd_obs::counter!("engine.planner.pick.index_only_scan").inc()
            }
            Plan::IndexExtremum { .. } => {
                cdpd_obs::counter!("engine.planner.pick.index_extremum").inc()
            }
            Plan::IndexAnd { .. } => cdpd_obs::counter!("engine.planner.pick.index_and").inc(),
            Plan::IndexOr { .. } => cdpd_obs::counter!("engine.planner.pick.index_or").inc(),
        }
        (cost, plan)
    }

    /// `plan` with what the executor and the plan description read
    /// besides: the bound query, index names and the ordering flag.
    fn planned(&self, query: BoundQuery, est_cost: Cost, plan: Plan) -> PlannedQuery {
        let name = |i: usize| self.index(i).name.as_str();
        let index_name = match plan {
            Plan::SeqScan => None,
            Plan::IndexSeek { index, .. }
            | Plan::IndexRange { index, .. }
            | Plan::IndexOnlyScan { index }
            | Plan::IndexExtremum { index, .. } => Some(name(index).to_owned()),
            Plan::IndexAnd {
                probes: [(_, p), (_, q)],
            } => Some(format!("{}, {}", name(p), name(q))),
            Plan::IndexOr { term } => {
                let mut names: Vec<&str> = Vec::new();
                for (j, _) in self.union_probes(&query.conditions[term]) {
                    if !names.contains(&name(j)) {
                        names.push(name(j));
                    }
                }
                Some(names.join(", "))
            }
        };
        // Does the chosen path already emit rows in the requested order?
        // Index cursors run ascending over the key, so an ascending
        // ORDER BY on the index's leading column is free.
        let plan_ordered = match (plan, query.order_by) {
            (_, None) => true,
            (
                Plan::IndexSeek { index, .. }
                | Plan::IndexRange { index, .. }
                | Plan::IndexOnlyScan { index },
                Some((col, false)),
            ) => self.index(index).columns[0] == col,
            _ => false,
        };
        PlannedQuery {
            plan,
            est_cost,
            est_rows: query.est_rows,
            conditions: query.conditions,
            projection: query.projection,
            count_only: query.count_only,
            aggregate: query.aggregate,
            order_by: query.order_by,
            limit: query.limit,
            plan_ordered,
            index_name,
        }
    }

    /// True if `info` holds every column the plan must produce: the
    /// projection and every predicate column, or every column for
    /// `SELECT *`.
    fn covers(&self, info: &IndexInfo, query: &BoundQuery) -> bool {
        let has = |c: &ColumnId| info.columns.contains(c);
        match (&query.projection, query.count_only) {
            (None, false) => (0..self.schema.columns().len()).all(|j| has(&ColumnId(j as u16))),
            (projection, _) => {
                projection.iter().flatten().all(has)
                    && query
                        .conditions
                        .iter()
                        .flat_map(BoundCondition::columns)
                        .all(has)
            }
        }
    }

    /// Which indexes are *relevant* to `stmt`: `relevant[i]` is true
    /// iff index `i` can change the statement's estimated cost.
    ///
    /// An index only enters [`Planner::plan`]'s search when it
    /// generates a candidate access path, and each candidate's cost
    /// depends solely on that index (shape + key columns), the table
    /// statistics, and the statement — never on which *other* indexes
    /// exist. The chosen cost is a minimum over per-index candidates
    /// plus the always-present seq scan, so dropping a non-candidate
    /// index leaves the minimum untouched: relevance here is exact,
    /// not heuristic. Writes additionally charge per-row maintenance,
    /// which makes every maintained index relevant. This is what the
    /// oracle layer's configuration projection is built on.
    ///
    /// # Errors
    /// Binding errors (unknown columns, type mismatches): the
    /// statements [`Planner::plan`]/[`Planner::plan_write`] reject.
    pub fn relevant_indexes(&self, stmt: &Dml) -> Result<Vec<bool>> {
        Ok(self.relevant(&self.prepare(stmt)?))
    }

    /// [`Planner::relevant_indexes`] for a statement already bound
    /// against this planner's schema and statistics.
    pub fn relevant(&self, prepared: &Prepared) -> Vec<bool> {
        let query = &prepared.query;
        let extremum_col = match query.aggregate {
            Some((AggFunc::Min | AggFunc::Max, col)) if query.conditions.is_empty() => Some(col),
            _ => None,
        };
        self.infos()
            .map(|info| {
                prepared.write.as_ref().is_some_and(|w| w.maintains(info))
                    || self.generates_candidate(query, info, extremum_col)
            })
            .collect()
    }

    /// True iff `info` generates at least one candidate in
    /// [`Planner::choose`]'s search (seek, range, index-only scan,
    /// extremum read, or a probe of a union or intersection) — mirrors
    /// the candidate-generation conditions there, flags included.
    fn generates_candidate(
        &self,
        query: &BoundQuery,
        info: &IndexInfo,
        extremum_col: Option<ColumnId>,
    ) -> bool {
        let leading = info.columns[0];
        let leads = |pred: fn(&Condition) -> bool| {
            query
                .conditions
                .iter()
                .any(|c| c.column == leading && pred(&c.condition))
        };
        // Eq-leading serves seeks and IndexAnd probes alike. An index
        // leading on a union probe column can join — and thereby
        // change the cost of — a union plan. Marking it relevant even
        // when a sibling probe column lacks an index over-approximates,
        // which is safe: relevance masks only need to *keep* every
        // cost-affecting index.
        extremum_col == Some(leading)
            || leads(|c| matches!(c, Condition::Eq { .. }))
            || query
                .unions
                .iter()
                .any(|(_, probes)| probes.contains(&leading))
            || leads(|c| matches!(c, Condition::Range { .. }))
            || (self.flags.index_only_scans && !query.multi_col_or && self.covers(info, query))
    }

    fn bind_conditions(&self, conditions: &[Condition]) -> Result<Vec<BoundCondition>> {
        // Sized up front: a collect through `Result` would round a
        // one-term statement up to four slots, and the oracle keeps a
        // bound form per workload statement.
        let mut bound = Vec::with_capacity(conditions.len());
        for cond in conditions {
            bound.push(self.bind_condition(cond)?);
        }
        Ok(bound)
    }

    /// Resolve one predicate term, type-checking every literal. `Or`
    /// terms resolve each branch to its own column id.
    fn bind_condition(&self, cond: &Condition) -> Result<BoundCondition> {
        if let Condition::Or(branches) = cond {
            if branches.is_empty() {
                return Err(Error::InvalidArgument("empty OR disjunction".into()));
            }
            let branch_columns = branches
                .iter()
                .map(|b| {
                    if matches!(b, Condition::Or(_)) {
                        return Err(Error::InvalidArgument(
                            "nested OR branches are not supported".into(),
                        ));
                    }
                    self.bind_simple(b)
                })
                .collect::<Result<Vec<_>>>()?;
            return Ok(BoundCondition {
                column: branch_columns[0],
                condition: cond.clone(),
                branch_columns,
            });
        }
        let column = self.bind_simple(cond)?;
        Ok(BoundCondition {
            column,
            condition: cond.clone(),
            branch_columns: Vec::new(),
        })
    }

    /// Resolve a simple (non-`Or`) condition's column id.
    fn bind_simple(&self, cond: &Condition) -> Result<ColumnId> {
        let name = cond.column();
        let column = self
            .schema
            .column_id(name)
            .ok_or_else(|| Error::NotFound(format!("column {name}")))?;
        let ty = self.schema.column(column).expect("id just resolved").ty;
        let lit_ok = match cond {
            Condition::Eq { value, .. } => value.value_type() == ty,
            Condition::Range { lo, hi, .. } => {
                lo.as_ref().is_none_or(|v| v.value_type() == ty)
                    && hi.as_ref().is_none_or(|v| v.value_type() == ty)
            }
            Condition::In { values, .. } => values.iter().all(|v| v.value_type() == ty),
            Condition::Or(_) => unreachable!("Or terms go through bind_condition"),
        };
        if !lit_ok {
            return Err(Error::TypeMismatch(format!(
                "literal type does not match column {name} ({ty:?})",
                ty = ty
            )));
        }
        Ok(column)
    }

    fn bind_projection(&self, projection: &Projection) -> Result<BoundProjection> {
        match projection {
            Projection::Star => Ok((None, false, None)),
            Projection::CountStar => Ok((None, true, None)),
            Projection::Columns(cols) => {
                let ids = cols
                    .iter()
                    .map(|c| {
                        self.schema
                            .column_id(c)
                            .ok_or_else(|| Error::NotFound(format!("column {c}")))
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok((Some(ids), false, None))
            }
            Projection::Aggregate(func, col) => {
                let id = self
                    .schema
                    .column_id(col)
                    .ok_or_else(|| Error::NotFound(format!("column {col}")))?;
                Ok((Some(vec![id]), false, Some((*func, id))))
            }
        }
    }

    /// Selectivity of a simple (non-`Or`) condition on `column`.
    fn simple_selectivity(&self, column: ColumnId, cond: &Condition) -> f64 {
        let col = self.stats.column(column);
        match cond {
            Condition::Eq { .. } => col.eq_selectivity(),
            Condition::Range {
                lo,
                lo_inclusive,
                hi,
                hi_inclusive,
                ..
            } => col.histogram.range_selectivity(
                lo.as_ref(),
                *lo_inclusive,
                hi.as_ref(),
                *hi_inclusive,
            ),
            Condition::In { values, .. } => {
                // Sum per-value point estimates over *distinct* values
                // (the executor probes each value once), capped at 1.
                let mut sel = 0.0f64;
                for (i, v) in values.iter().enumerate() {
                    if !values[..i].contains(v) {
                        sel += col.point_selectivity(v);
                    }
                }
                sel.min(1.0)
            }
            Condition::Or(_) => unreachable!("Or terms go through term_selectivity"),
        }
    }

    /// Selectivity of one bound term; a disjunction is the capped sum
    /// of its branch selectivities (upper bound; exact when disjoint).
    fn term_selectivity(&self, bc: &BoundCondition) -> f64 {
        match &bc.condition {
            Condition::Or(branches) => branches
                .iter()
                .zip(&bc.branch_columns)
                .map(|(b, col)| self.simple_selectivity(*col, b))
                .sum::<f64>()
                .min(1.0),
            cond => self.simple_selectivity(bc.column, cond),
        }
    }

    /// Rows matching an equality probe on the first `eq_prefix` key
    /// columns of `info` (independence assumption).
    fn eq_prefix_rows(&self, info: &IndexInfo, eq_prefix: usize) -> f64 {
        let mut sel = 1.0f64;
        for col in &info.columns[..eq_prefix] {
            sel *= self.stats.column(*col).eq_selectivity();
        }
        self.stats.row_count as f64 * sel
    }

    /// Cheapest single-value equality probe on `col`: index position
    /// and probe cost, or `None` when no index leads on `col`.
    fn cheapest_probe(&self, col: ColumnId) -> Option<(usize, Cost)> {
        let rows = self.stats.eq_rows(col);
        let mut best: Option<(usize, Cost)> = None;
        for (j, info) in self.infos().enumerate() {
            if info.columns[0] == col {
                let c = CostModel::index_probe(self.stats, info.shape, rows);
                if best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((j, c));
                }
            }
        }
        best
    }

    /// The probe values for an [`Plan::IndexSeek`], in key order.
    pub fn seek_probe(&self, planned: &PlannedQuery, index: usize, eq_prefix: usize) -> Vec<Value> {
        self.index(index).columns[..eq_prefix]
            .iter()
            .map(|col| {
                planned
                    .conditions
                    .iter()
                    .filter(|c| c.column == *col)
                    .find_map(BoundCondition::eq_value)
                    .expect("eq_prefix column must have an Eq condition")
                    .clone()
            })
            .collect()
    }

    /// The `(index position, value)` probes of an [`Plan::IndexOr`]
    /// over `term`: one per distinct value, each through the cheapest
    /// index leading on its column.
    pub fn union_probes<'t>(&self, term: &'t BoundCondition) -> Vec<(usize, &'t Value)> {
        term.or_probes()
            .expect("a union term has probes")
            .into_iter()
            .map(|(col, v)| {
                let (j, _) = self
                    .cheapest_probe(col)
                    .expect("a chosen union probes only indexed columns");
                (j, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsMaintainer;
    use cdpd_sql::parse;
    use cdpd_types::{ColumnDef, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            ColumnDef::int("a"),
            ColumnDef::int("b"),
            ColumnDef::int("c"),
            ColumnDef::int("d"),
        ])
    }

    fn stats(rows: u64) -> TableStats {
        let mut b = StatsMaintainer::new(4, rows);
        for i in 0..rows as i64 {
            let v = (i * 2654435761) % 50_000;
            b.add_row(&[
                Value::Int(v),
                Value::Int(v / 2),
                Value::Int(v / 3),
                Value::Int(v / 4),
            ]);
        }
        b.snapshot((rows / 200).max(1))
    }

    fn info(name: &str, cols: &[u16], stats: &TableStats) -> IndexInfo {
        let ids: Vec<ColumnId> = cols.iter().map(|&c| ColumnId(c)).collect();
        IndexInfo {
            name: name.into(),
            shape: CostModel::estimate_shape(stats, &ids),
            columns: ids,
        }
    }

    fn plan_sql(sql: &str, schema: &Schema, stats: &TableStats, idx: &[IndexInfo]) -> PlannedQuery {
        let stmt = match parse(sql).unwrap() {
            cdpd_sql::Statement::Select(s) => s,
            _ => panic!("not a select"),
        };
        Planner::new(schema, stats, idx).plan(&stmt).unwrap()
    }

    #[test]
    fn no_indexes_means_seq_scan() {
        let (sc, st) = (schema(), stats(100_000));
        let p = plan_sql("SELECT a FROM t WHERE a = 5", &sc, &st, &[]);
        assert_eq!(p.plan, Plan::SeqScan);
        assert_eq!(p.est_cost, CostModel::seq_scan(&st));
    }

    #[test]
    fn matching_index_becomes_seek() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st)];
        let p = plan_sql("SELECT a FROM t WHERE a = 5", &sc, &st, &idx);
        assert!(
            matches!(
                p.plan,
                Plan::IndexSeek {
                    index: 0,
                    eq_prefix: 1,
                    covering: true
                }
            ),
            "{:?}",
            p.plan
        );
        assert!(p.est_cost.ios() < 20);
    }

    #[test]
    fn composite_index_serves_leading_column() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_ab", &[0, 1], &st)];
        let p = plan_sql("SELECT a FROM t WHERE a = 5", &sc, &st, &idx);
        assert!(matches!(p.plan, Plan::IndexSeek { covering: true, .. }));
    }

    #[test]
    fn composite_index_covers_second_column_via_index_only_scan() {
        // The Table 2 linchpin: query on b, index I(a,b) → index-only
        // scan, cheaper than the heap scan but dearer than a seek.
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_ab", &[0, 1], &st)];
        let p = plan_sql("SELECT b FROM t WHERE b = 5", &sc, &st, &idx);
        assert!(
            matches!(p.plan, Plan::IndexOnlyScan { index: 0 }),
            "{:?}",
            p.plan
        );
        assert!(p.est_cost < CostModel::seq_scan(&st));
    }

    #[test]
    fn non_covering_index_on_other_column_is_useless() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_c", &[2], &st)];
        let p = plan_sql("SELECT a FROM t WHERE a = 5", &sc, &st, &idx);
        assert_eq!(p.plan, Plan::SeqScan);
    }

    #[test]
    fn narrow_range_uses_index_range_scan() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st)];
        let p = plan_sql("SELECT a FROM t WHERE a BETWEEN 10 AND 20", &sc, &st, &idx);
        assert!(
            matches!(
                p.plan,
                Plan::IndexRange {
                    index: 0,
                    covering: true
                }
            ),
            "{:?}",
            p.plan
        );
    }

    #[test]
    fn wide_non_covering_range_falls_back_to_scan() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st)];
        let p = plan_sql(
            "SELECT d FROM t WHERE a BETWEEN 0 AND 49000",
            &sc,
            &st,
            &idx,
        );
        assert_eq!(
            p.plan,
            Plan::SeqScan,
            "fetching half the table via rids must lose"
        );
    }

    #[test]
    fn two_column_equality_uses_longest_prefix() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_ab", &[0, 1], &st)];
        let p = plan_sql("SELECT a FROM t WHERE a = 5 AND b = 2", &sc, &st, &idx);
        assert!(
            matches!(p.plan, Plan::IndexSeek { eq_prefix: 2, .. }),
            "{:?}",
            p.plan
        );
    }

    #[test]
    fn picks_cheapest_among_indexes() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_ab", &[0, 1], &st), info("ix_b", &[1], &st)];
        let p = plan_sql("SELECT b FROM t WHERE b = 5", &sc, &st, &idx);
        assert!(
            matches!(p.plan, Plan::IndexSeek { index: 1, .. }),
            "seek on I(b) must beat index-only scan of I(a,b): {:?}",
            p.plan
        );
    }

    #[test]
    fn unknown_column_and_type_mismatch_rejected() {
        let (sc, st) = (schema(), stats(1000));
        let planner_idx: [IndexInfo; 0] = [];
        let stmt = match parse("SELECT z FROM t").unwrap() {
            cdpd_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(Planner::new(&sc, &st, &planner_idx).plan(&stmt).is_err());
        let stmt = match parse("SELECT a FROM t WHERE a = 'x'").unwrap() {
            cdpd_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(Planner::new(&sc, &st, &planner_idx).plan(&stmt).is_err());
    }

    #[test]
    fn write_planning_charges_maintenance() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st), info("ix_bc", &[1, 2], &st)];
        let planner = Planner::new(&sc, &st, &idx);
        let upd = match cdpd_sql::parse("UPDATE t SET b = 7 WHERE a = 5").unwrap() {
            cdpd_sql::Statement::Update(u) => cdpd_sql::Dml::Update(u),
            _ => unreachable!(),
        };
        let p = planner.plan_write(&upd).unwrap();
        assert!(p.is_update);
        // Only ix_bc contains the SET column b.
        assert_eq!(p.maintained, vec![1]);
        // The locate phase uses the index on a.
        assert!(
            matches!(p.find.plan, Plan::IndexSeek { index: 0, .. }),
            "{:?}",
            p.find.plan
        );
        assert!(p.est_total > p.find.est_cost);

        let del = match cdpd_sql::parse("DELETE FROM t WHERE a = 5").unwrap() {
            cdpd_sql::Statement::Delete(d) => cdpd_sql::Dml::Delete(d),
            _ => unreachable!(),
        };
        let p = planner.plan_write(&del).unwrap();
        assert!(!p.is_update);
        assert_eq!(p.maintained, vec![0, 1], "deletes maintain every index");
    }

    #[test]
    fn write_planning_validates_set_columns() {
        let (sc, st) = (schema(), stats(1_000));
        let planner_idx: [IndexInfo; 0] = [];
        let planner = Planner::new(&sc, &st, &planner_idx);
        for bad in ["UPDATE t SET z = 1", "UPDATE t SET a = 'x'"] {
            let stmt = match cdpd_sql::parse(bad).unwrap() {
                cdpd_sql::Statement::Update(u) => cdpd_sql::Dml::Update(u),
                _ => unreachable!(),
            };
            assert!(planner.plan_write(&stmt).is_err(), "should reject {bad}");
        }
        // Selects are rejected by plan_write.
        let sel = cdpd_sql::Dml::Select(SelectStmt::point("t", "a", 1));
        assert!(planner.plan_write(&sel).is_err());
    }

    #[test]
    fn more_indexes_make_writes_costlier() {
        let (sc, st) = (schema(), stats(100_000));
        let del = match cdpd_sql::parse("DELETE FROM t WHERE a = 5").unwrap() {
            cdpd_sql::Statement::Delete(d) => cdpd_sql::Dml::Delete(d),
            _ => unreachable!(),
        };
        let one = [info("ix_a", &[0], &st)];
        let three = [
            info("ix_a", &[0], &st),
            info("ix_b", &[1], &st),
            info("ix_cd", &[2, 3], &st),
        ];
        let cheap = Planner::new(&sc, &st, &one).plan_write(&del).unwrap();
        let dear = Planner::new(&sc, &st, &three).plan_write(&del).unwrap();
        assert!(
            dear.est_total > cheap.est_total,
            "every extra index taxes the delete: {} vs {}",
            dear.est_total,
            cheap.est_total
        );
    }

    #[test]
    fn ablation_flags_disable_paths() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_ab", &[0, 1], &st)];
        let stmt = match parse("SELECT b FROM t WHERE b = 5").unwrap() {
            cdpd_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        // Default: covering index-only scan (the Table 2 driver).
        let p = Planner::new(&sc, &st, &idx).plan(&stmt).unwrap();
        assert!(matches!(p.plan, Plan::IndexOnlyScan { .. }));
        // Ablated: the index cannot serve the b-query at all.
        let flags = PlannerFlags {
            index_only_scans: false,
        };
        let p = Planner::with_flags(&sc, &st, &idx, flags)
            .plan(&stmt)
            .unwrap();
        assert_eq!(
            p.plan,
            Plan::SeqScan,
            "without covering scans I(a,b) is useless for b"
        );
    }

    fn dml(sql: &str) -> Dml {
        match cdpd_sql::parse(sql).unwrap() {
            cdpd_sql::Statement::Select(s) => Dml::Select(s),
            cdpd_sql::Statement::Update(u) => Dml::Update(u),
            cdpd_sql::Statement::Delete(d) => Dml::Delete(d),
            _ => panic!("not a dml"),
        }
    }

    #[test]
    fn relevance_mirrors_candidate_generation() {
        let (sc, st) = (schema(), stats(100_000));
        // I(a), I(b), I(a,b), I(c,d) — the interesting shapes.
        let idx = [
            info("ix_a", &[0], &st),
            info("ix_b", &[1], &st),
            info("ix_ab", &[0, 1], &st),
            info("ix_cd", &[2, 3], &st),
        ];
        let planner = Planner::new(&sc, &st, &idx);
        let rel = |sql: &str| planner.relevant_indexes(&dml(sql)).unwrap();

        // Point query on a: seek on I(a)/I(a,b); I(b) neither seeks
        // nor covers {a}; I(c,d) is fully inert.
        assert_eq!(
            rel("SELECT a FROM t WHERE a = 5"),
            vec![true, false, true, false]
        );
        // Point query on b: seek on I(b), covering scan on I(a,b).
        assert_eq!(
            rel("SELECT b FROM t WHERE b = 5"),
            vec![false, true, true, false]
        );
        // Range on a: range scan on I(a)/I(a,b).
        assert_eq!(
            rel("SELECT a FROM t WHERE a BETWEEN 10 AND 20"),
            vec![true, false, true, false]
        );
        // SELECT * covers nothing short of the full schema: only the
        // seek on a remains.
        assert_eq!(
            rel("SELECT * FROM t WHERE a = 5"),
            vec![true, false, true, false]
        );
        // Updates: locate via a, maintain indexes whose keys contain b.
        assert_eq!(
            rel("UPDATE t SET b = 7 WHERE a = 5"),
            vec![true, true, true, false]
        );
        // Deletes maintain everything.
        assert_eq!(rel("DELETE FROM t WHERE a = 5"), vec![true; 4]);
        // Binding errors propagate, as in plan().
        assert!(planner.relevant_indexes(&dml("SELECT z FROM t")).is_err());
    }

    #[test]
    fn relevance_respects_flags_and_aggregates() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_b", &[1], &st), info("ix_ab", &[0, 1], &st)];
        let q = dml("SELECT b FROM t WHERE b = 5");
        // Default: I(a,b) is relevant through the covering scan...
        let planner = Planner::new(&sc, &st, &idx);
        assert_eq!(planner.relevant_indexes(&q).unwrap(), vec![true, true]);
        // ...and ablating index-only scans makes it inert, exactly as
        // plan() stops generating the candidate.
        let flags = PlannerFlags {
            index_only_scans: false,
        };
        let planner = Planner::with_flags(&sc, &st, &idx, flags);
        assert_eq!(planner.relevant_indexes(&q).unwrap(), vec![true, false]);

        // Unpredicated MIN reads one end of a leading-a index; I(b)
        // can't serve it, I(a,b) also covers the single-column scan.
        let idx = [
            info("ix_b", &[1], &st),
            info("ix_ab", &[0, 1], &st),
            info("ix_a", &[0], &st),
        ];
        let planner = Planner::new(&sc, &st, &idx);
        let agg = dml("SELECT MIN(a) FROM t");
        assert_eq!(
            planner.relevant_indexes(&agg).unwrap(),
            vec![false, true, true]
        );
    }

    #[test]
    fn in_list_plans_union_probes_with_dedup() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st)];
        let p = plan_sql("SELECT * FROM t WHERE a IN (1, 2, 3)", &sc, &st, &idx);
        let planner = Planner::new(&sc, &st, &idx);
        let probes = |p: &PlannedQuery| match p.plan {
            Plan::IndexOr { term } => planner
                .union_probes(&p.conditions[term])
                .into_iter()
                .map(|(i, v)| (i, v.clone()))
                .collect::<Vec<_>>(),
            other => panic!("expected IndexOr: {other:?}"),
        };
        let three = probes(&p);
        assert_eq!(three.len(), 3);
        assert!(three.iter().all(|(i, _)| *i == 0));
        assert!(p.est_cost < CostModel::seq_scan(&st));
        assert!(
            p.describe().starts_with("IndexOr(ix_a, 3 probes)"),
            "{}",
            p.describe()
        );

        // Duplicate values probe once (plan-time dedup).
        let p = plan_sql("SELECT * FROM t WHERE a IN (7, 7, 7)", &sc, &st, &idx);
        assert_eq!(probes(&p), vec![(0, Value::Int(7))]);
        assert!(
            p.describe().starts_with("IndexOr(ix_a, 1 probe)"),
            "{}",
            p.describe()
        );
    }

    #[test]
    fn in_list_boundaries_zero_one_large() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st)];
        let planner = Planner::new(&sc, &st, &idx);

        // Empty IN list (unbuildable from SQL, reachable via the AST):
        // matches nothing, never panics, and costs no more than a scan.
        let stmt = SelectStmt {
            projection: cdpd_sql::Projection::Star,
            table: "t".into(),
            conditions: vec![Condition::In {
                column: "a".into(),
                values: vec![],
            }],
            order_by: None,
            limit: None,
        };
        let p = planner.plan(&stmt).unwrap();
        assert_eq!(p.plan, Plan::SeqScan, "{:?}", p.plan);
        assert_eq!(p.est_rows, 0.0);

        // Single-element IN behaves like a one-probe union.
        let p = plan_sql("SELECT * FROM t WHERE a IN (5)", &sc, &st, &idx);
        assert_eq!(p.plan, Plan::IndexOr { term: 0 });
        assert_eq!(planner.union_probes(&p.conditions[0]).len(), 1);

        // Beyond the fanout gate the candidate is not generated at all.
        let many: Vec<String> = (0..(Planner::MAX_OR_PROBES as i64 + 1))
            .map(|v| (v * 97).to_string())
            .collect();
        let sql = format!("SELECT * FROM t WHERE a IN ({})", many.join(", "));
        let p = plan_sql(&sql, &sc, &st, &idx);
        assert_eq!(p.plan, Plan::SeqScan, "{:?}", p.plan);
    }

    #[test]
    fn or_disjunction_unions_across_indexes() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_a", &[0], &st), info("ix_b", &[1], &st)];
        let p = plan_sql("SELECT * FROM t WHERE (a = 1 OR b = 2)", &sc, &st, &idx);
        assert_eq!(p.plan, Plan::IndexOr { term: 0 });
        let probes = Planner::new(&sc, &st, &idx).union_probes(&p.conditions[0]);
        assert_eq!(probes, vec![(0, &Value::Int(1)), (1, &Value::Int(2))]);
        assert!(
            p.describe().starts_with("IndexOr(ix_a, ix_b, 2 probes)"),
            "{}",
            p.describe()
        );

        // One branch without a leading index sinks the whole union.
        let only_a = [info("ix_a", &[0], &st)];
        let p = plan_sql("SELECT * FROM t WHERE (a = 1 OR b = 2)", &sc, &st, &only_a);
        assert_eq!(p.plan, Plan::SeqScan, "{:?}", p.plan);

        // A Range branch disqualifies the union path entirely; the
        // single-column disjunction is still served covering.
        let p = plan_sql(
            "SELECT a FROM t WHERE (a = 1 OR a >= 40000)",
            &sc,
            &st,
            &only_a,
        );
        assert!(
            matches!(p.plan, Plan::IndexOnlyScan { .. } | Plan::SeqScan),
            "{:?}",
            p.plan
        );
        assert!(!matches!(p.plan, Plan::IndexOr { .. }));
    }

    /// Stats with coarse 50-valued a/b columns: each equality matches
    /// ~2000 rows, so single-index seeks pay heavy fetch bills and the
    /// a∧b conjunction (≈40 rows) favours a rowid intersection.
    fn coarse_stats(rows: u64) -> TableStats {
        let mut b = StatsMaintainer::new(4, rows);
        for i in 0..rows as i64 {
            b.add_row(&[
                Value::Int(i % 50),
                Value::Int((i * 7) % 50),
                Value::Int(i % 1000),
                Value::Int(i),
            ]);
        }
        b.snapshot((rows / 200).max(1))
    }

    #[test]
    fn eq_pair_intersects_two_single_column_indexes() {
        let (sc, st) = (schema(), coarse_stats(100_000));
        let idx = [info("ix_a", &[0], &st), info("ix_b", &[1], &st)];
        let p = plan_sql("SELECT * FROM t WHERE a = 5 AND b = 2", &sc, &st, &idx);
        assert_eq!(
            p.plan,
            Plan::IndexAnd {
                probes: [(0, 0), (1, 1)]
            }
        );
        assert!(
            p.describe().starts_with("IndexAnd(ix_a, ix_b, 2 probes)"),
            "{}",
            p.describe()
        );
        // A composite covering both columns still beats the intersection.
        let with_ab = [
            info("ix_a", &[0], &st),
            info("ix_b", &[1], &st),
            info("ix_ab", &[0, 1], &st),
        ];
        let p = plan_sql("SELECT a FROM t WHERE a = 5 AND b = 2", &sc, &st, &with_ab);
        assert!(
            matches!(
                p.plan,
                Plan::IndexSeek {
                    index: 2,
                    eq_prefix: 2,
                    ..
                }
            ),
            "{:?}",
            p.plan
        );
    }

    #[test]
    fn fanout_gating_never_costs_more_than_scan_baseline() {
        // Property sweep: for IN lists of every size (including far past
        // the gate) and weak multi-branch ORs, the chosen plan's cost
        // never exceeds the seq-scan baseline, and beyond the gate the
        // union candidate disappears entirely.
        let (sc, st) = (schema(), stats(100_000));
        let idx = [
            info("ix_a", &[0], &st),
            info("ix_b", &[1], &st),
            info("ix_c", &[2], &st),
        ];
        let baseline = CostModel::seq_scan(&st);
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for len in 0..40usize {
            let vals: Vec<String> = (0..len.max(1))
                .map(|_| ((next() % 50_000) as i64).to_string())
                .collect();
            let sql = format!("SELECT * FROM t WHERE a IN ({})", vals.join(", "));
            let p = plan_sql(&sql, &sc, &st, &idx);
            assert!(
                p.est_cost <= baseline,
                "len={len}: {} > {baseline}",
                p.est_cost
            );
            let distinct = {
                let mut v = vals.clone();
                v.sort();
                v.dedup();
                v.len()
            };
            if distinct > Planner::MAX_OR_PROBES {
                assert_eq!(p.plan, Plan::SeqScan, "len={len} must be gated");
            }
        }
        // Weak OR branches (wide ranges / heavy fan-in) degrade to the
        // scan without ever exceeding it.
        for sql in [
            "SELECT * FROM t WHERE (a = 1 OR b >= 0)",
            "SELECT * FROM t WHERE (a = 1 OR b = 2 OR c = 3)",
        ] {
            let p = plan_sql(sql, &sc, &st, &idx);
            assert!(p.est_cost <= baseline, "{sql}: {}", p.est_cost);
        }
    }

    #[test]
    fn relevance_covers_union_and_intersection_paths() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [
            info("ix_a", &[0], &st),
            info("ix_b", &[1], &st),
            info("ix_ab", &[0, 1], &st),
            info("ix_cd", &[2, 3], &st),
        ];
        let planner = Planner::new(&sc, &st, &idx);
        let rel = |sql: &str| planner.relevant_indexes(&dml(sql)).unwrap();

        // IN on a: probes through anything leading on a.
        assert_eq!(
            rel("SELECT * FROM t WHERE a IN (1, 2)"),
            vec![true, false, true, false]
        );
        // Disjunction over a and b: both probe columns light up.
        assert_eq!(
            rel("SELECT * FROM t WHERE (a = 1 OR b = 2)"),
            vec![true, true, true, false]
        );
        // Eq conjuncts feed both seeks and intersections: covered by
        // the existing eq-leading rule.
        assert_eq!(
            rel("SELECT * FROM t WHERE a = 1 AND b = 2"),
            vec![true, true, true, false]
        );
    }

    #[test]
    fn path_kinds_enumerate_in_declaration_order() {
        for (i, kind) in PathKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{kind:?}");
        }
        assert_eq!(Plan::SeqScan.kind(), PathKind::SeqScan);
        assert_eq!(Plan::IndexOr { term: 0 }.kind(), PathKind::IndexOr);
    }

    #[test]
    fn count_star_plans_and_probe_extraction() {
        let (sc, st) = (schema(), stats(100_000));
        let idx = [info("ix_ab", &[0, 1], &st)];
        let p = plan_sql("SELECT COUNT(*) FROM t WHERE a = 7", &sc, &st, &idx);
        assert!(p.count_only);
        if let Plan::IndexSeek {
            index, eq_prefix, ..
        } = p.plan
        {
            let planner = Planner::new(&sc, &st, &idx);
            let probe = planner.seek_probe(&p, index, eq_prefix);
            assert_eq!(probe, vec![Value::Int(7)]);
        } else {
            panic!("expected seek: {:?}", p.plan);
        }
    }
}
