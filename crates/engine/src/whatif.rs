//! The what-if optimizer: `EXEC`, `TRANS`, and `SIZE` estimates for
//! hypothetical index configurations.
//!
//! Commercial design advisors rely on the server's "what-if" interface:
//! plant fake index metadata, ask the optimizer to cost a query, read
//! the estimate. [`WhatIfEngine`] is that interface for this engine.
//! It snapshots a table's schema and statistics once, fabricates
//! [`IndexShape`]s for any [`IndexSpec`] from the statistics, and runs
//! the *same planner* the executor uses — so estimates and measured
//! costs diverge only where statistics do.

use crate::catalog::IndexSpec;
use crate::cost::{CostModel, IndexShape};
use crate::db::Database;
use crate::planner::{IndexInfo, Planner, Prepared};
use crate::stats::TableStats;
use cdpd_sql::{Dml, SelectStmt};
use cdpd_types::{ColumnId, Cost, Error, Result, Schema};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

/// Snapshot-based what-if cost oracle for one table.
///
/// Schema and statistics are shared via `Arc` with the engine's
/// catalog, so a snapshot is two refcount bumps — cheap enough to take
/// per window in the online pipeline. Statistics objects are replaced
/// wholesale on `refresh_stats`/`analyze`, never mutated in place, so
/// the snapshot stays immutable even as the database moves on.
pub struct WhatIfEngine {
    table: String,
    schema: Arc<Schema>,
    stats: Arc<TableStats>,
    /// Materialized shapes of currently-built indexes, by canonical
    /// index name — captured by [`WhatIfEngine::snapshot_live`] so
    /// costing the *current* configuration uses the executor's real
    /// B-tree geometry instead of a statistics estimate. Empty for
    /// plain snapshots; hypothetical indexes always fall back to
    /// [`CostModel::estimate_shape`].
    live_shapes: HashMap<String, IndexShape>,
}

impl WhatIfEngine {
    /// Snapshot `table`'s schema and statistics from `db` (cheap: the
    /// snapshot shares them with the catalog, no copies).
    ///
    /// # Errors
    /// The table must exist and have been `ANALYZE`d.
    pub fn snapshot(db: &Database, table: &str) -> Result<WhatIfEngine> {
        let _span = cdpd_obs::span!("whatif.snapshot");
        let schema = db.schema(table)?;
        let stats = db.stats(table)?.ok_or_else(|| {
            Error::InvalidArgument(format!("table {table} has no statistics; run analyze()"))
        })?;
        Ok(WhatIfEngine {
            table: table.to_owned(),
            schema,
            stats,
            live_shapes: HashMap::new(),
        })
    }

    /// Like [`WhatIfEngine::snapshot`], but additionally captures the
    /// materialized shapes of every index currently built on `table`.
    /// Costing a configuration then uses the executor's real B-tree
    /// geometry for indexes that are built (matched by canonical name)
    /// and falls back to the statistics estimate for hypothetical ones
    /// — so predictions for the *live* configuration agree exactly
    /// with the planner costs the executor reports.
    ///
    /// # Errors
    /// The table must exist and have been `ANALYZE`d.
    pub fn snapshot_live(db: &Database, table: &str) -> Result<WhatIfEngine> {
        let mut engine = Self::snapshot(db, table)?;
        engine.live_shapes = db
            .index_shapes(table)?
            .into_iter()
            .map(|(spec, shape)| (spec.name(), shape))
            .collect();
        Ok(engine)
    }

    /// Number of materialized shapes captured at snapshot time (0 for
    /// plain snapshots).
    pub fn live_shape_count(&self) -> usize {
        self.live_shapes.len()
    }

    /// Build directly from parts (tests, simulations). Accepts plain
    /// values or pre-shared `Arc`s.
    pub fn from_parts(
        table: impl Into<String>,
        schema: impl Into<Arc<Schema>>,
        stats: impl Into<Arc<TableStats>>,
    ) -> WhatIfEngine {
        WhatIfEngine {
            table: table.into(),
            schema: schema.into(),
            stats: stats.into(),
            live_shapes: HashMap::new(),
        }
    }

    /// The table this oracle describes.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The snapshot statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The snapshot schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    fn resolve(&self, spec: &IndexSpec) -> Result<Vec<ColumnId>> {
        if spec.table != self.table {
            return Err(Error::InvalidArgument(format!(
                "index {} is on table {}, oracle is for {}",
                spec.name(),
                spec.table,
                self.table
            )));
        }
        spec.columns
            .iter()
            .map(|c| {
                self.schema
                    .column_id(c)
                    .ok_or_else(|| Error::NotFound(format!("column {c}")))
            })
            .collect()
    }

    /// `spec` as the planner sees it: column ids bound against the
    /// snapshot schema, and the captured materialized shape for indexes
    /// built at [`WhatIfEngine::snapshot_live`] time, else the
    /// statistics estimate.
    ///
    /// Resolving is the statement-independent half of a what-if call
    /// (name formatting, column lookup, shape estimation), as
    /// [`WhatIfEngine::prepare`] is the configuration-independent half;
    /// a caller that costs many statements over one structure list
    /// resolves it once and passes it to [`WhatIfEngine::price`] /
    /// [`WhatIfEngine::relevant_prepared`]. A resolved structure is
    /// only meaningful to the snapshot that resolved it — shapes follow
    /// the statistics.
    ///
    /// # Errors
    /// `spec` must be on this table and name real columns.
    pub fn resolve_structure(&self, spec: &IndexSpec) -> Result<IndexInfo> {
        let columns = self.resolve(spec)?;
        let name = spec.name();
        let shape = match self.live_shapes.get(&name) {
            Some(shape) => *shape,
            None => CostModel::estimate_shape(&self.stats, &columns),
        };
        Ok(IndexInfo {
            name,
            shape,
            columns,
        })
    }

    /// [`WhatIfEngine::resolve_structure`] over a list, in order.
    pub fn resolve_structures(&self, specs: &[IndexSpec]) -> Result<Vec<IndexInfo>> {
        specs.iter().map(|s| self.resolve_structure(s)).collect()
    }

    /// Physical shape of an index (see
    /// [`WhatIfEngine::resolve_structure`]).
    pub fn shape(&self, spec: &IndexSpec) -> Result<IndexShape> {
        Ok(self.resolve_structure(spec)?.shape)
    }

    /// Estimated size of one index, in pages.
    pub fn index_size_pages(&self, spec: &IndexSpec) -> Result<u64> {
        Ok(self.shape(spec)?.total_pages)
    }

    /// Estimated size of a whole configuration, in pages (`SIZE(C)`).
    pub fn config_size_pages(&self, config: &[IndexSpec]) -> Result<u64> {
        config.iter().map(|s| self.index_size_pages(s)).sum()
    }

    fn check_table(&self, table: &str) -> Result<()> {
        if table != self.table {
            return Err(Error::InvalidArgument(format!(
                "statement is on table {table}, oracle is for {}",
                self.table
            )));
        }
        Ok(())
    }

    fn planner<'s, I: Borrow<IndexInfo>>(&'s self, indexes: &'s [I]) -> Planner<'s, I> {
        Planner::new(&self.schema, &self.stats, indexes)
    }

    /// Estimated cost of executing `stmt` under hypothetical
    /// configuration `config` (`EXEC(S, C)`).
    pub fn exec_cost(&self, stmt: &SelectStmt, config: &[IndexSpec]) -> Result<Cost> {
        let indexes = self.resolve_structures(config)?;
        self.check_table(&stmt.table)?;
        cdpd_obs::tracked_counter!("engine.whatif.calls").inc();
        Ok(self.planner(&indexes).plan(stmt)?.est_cost)
    }

    /// Estimated cost of executing any workload statement (query,
    /// update, or delete) under hypothetical configuration `config` —
    /// the general `EXEC(S, C)` of Definition 1's "queries and
    /// updates". Writes charge the cheapest row-locating path *plus*
    /// per-row maintenance of every hypothetical index the statement
    /// would invalidate, so update-heavy phases penalize configurations
    /// with many (or wide) indexes.
    pub fn dml_cost(&self, stmt: &Dml, config: &[IndexSpec]) -> Result<Cost> {
        let indexes = self.resolve_structures(config)?;
        Ok(self.price(&self.prepare(stmt)?, &indexes))
    }

    /// Bind `stmt` against this snapshot once, for pricing under any
    /// number of configurations with [`WhatIfEngine::price`]. What a
    /// statement binds to depends on the statistics, so a statement
    /// prepared by one snapshot is priced only by that snapshot.
    ///
    /// # Errors
    /// Every error pricing `stmt` can raise: a statement on another
    /// table, unknown columns, mistyped literals.
    pub fn prepare(&self, stmt: &Dml) -> Result<Prepared> {
        self.check_table(stmt.table())?;
        self.planner::<IndexInfo>(&[]).prepare(stmt)
    }

    /// Bring a statement another snapshot of this table
    /// [`WhatIfEngine::prepare`]d up to this snapshot's statistics:
    /// afterwards it prices exactly as if this snapshot had prepared
    /// it. Binding to the schema is kept, so it allocates nothing.
    pub fn reprepare(&self, prepared: &mut Prepared) {
        self.planner::<IndexInfo>(&[]).reestimate(prepared);
    }

    /// `EXEC(S, C)` of a statement this snapshot
    /// [`WhatIfEngine::prepare`]d, under structures it resolved
    /// ([`WhatIfEngine::resolve_structures`]), owned or by reference:
    /// bit for bit [`WhatIfEngine::dml_cost`]. Binding is already done,
    /// so this only walks the index set; it allocates nothing.
    pub fn price<I: Borrow<IndexInfo>>(&self, prepared: &Prepared, indexes: &[I]) -> Cost {
        cdpd_obs::tracked_counter!("engine.whatif.calls").inc();
        self.planner(indexes).cost(prepared)
    }

    /// Which of `structures` are *relevant* to `stmt` — can change its
    /// estimated cost under any configuration drawn from `structures`.
    /// Entry `i` of the returned vector corresponds to `structures[i]`
    /// (a vector, not a fixed-width mask, so the candidate vocabulary
    /// is unbounded).
    ///
    /// Exactness comes from the planner (see
    /// `Planner::relevant_indexes`): an index outside the mask
    /// generates no candidate access path and no maintenance charge
    /// for `stmt`, so adding or removing it cannot move the min-cost
    /// plan. The oracle layer uses these masks to project
    /// configurations before costing.
    ///
    /// # Errors
    /// `structures` must belong to this table and name real columns;
    /// `stmt` must bind against the schema.
    pub fn relevant_structures(&self, stmt: &Dml, structures: &[IndexSpec]) -> Result<Vec<bool>> {
        let structures = self.resolve_structures(structures)?;
        Ok(self.relevant_prepared(&self.prepare(stmt)?, &structures))
    }

    /// [`WhatIfEngine::relevant_structures`] for a statement this
    /// snapshot prepared, over a structure list it resolved.
    pub fn relevant_prepared(&self, prepared: &Prepared, structures: &[IndexInfo]) -> Vec<bool> {
        self.planner(structures).relevant(prepared)
    }

    /// Estimated cost of building one resolved structure: the `TRANS`
    /// term it contributes when a design change adds it.
    pub fn build_cost(&self, index: &IndexInfo) -> Cost {
        CostModel::build(&self.stats, index.shape)
    }

    /// Estimated cost of changing the design from `from` to `to`
    /// (`TRANS(C_i, C_j)`): builds for new indexes, a catalog write per
    /// dropped index, zero when the sets match.
    pub fn trans_cost(&self, from: &[IndexSpec], to: &[IndexSpec]) -> Result<Cost> {
        let mut total = Cost::ZERO;
        for spec in to {
            if !from.contains(spec) {
                total += self.build_cost(&self.resolve_structure(spec)?);
            }
        }
        for spec in from {
            if !to.contains(spec) {
                total += CostModel::drop();
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use cdpd_types::{ColumnDef, Value};

    fn paper_db(rows: i64) -> Database {
        let db = Database::new();
        db.create_table(
            "t",
            Schema::new(vec![
                ColumnDef::int("a"),
                ColumnDef::int("b"),
                ColumnDef::int("c"),
                ColumnDef::int("d"),
            ]),
        )
        .unwrap();
        let dom = rows / 5; // ~5 rows per value, like the paper's 2.5M/500k
        for i in 0..rows {
            let h = |k: i64| Value::Int(((i * 2654435761).wrapping_mul(k + 1) % dom + dom) % dom);
            db.insert("t", &[h(0), h(1), h(2), h(3)]).unwrap();
        }
        db.analyze("t").unwrap();
        db
    }

    fn spec(cols: &[&str]) -> IndexSpec {
        IndexSpec::new("t", cols)
    }

    #[test]
    fn snapshot_requires_stats() {
        let db = Database::new();
        db.create_table("t", Schema::new(vec![ColumnDef::int("a")]))
            .unwrap();
        assert!(WhatIfEngine::snapshot(&db, "t").is_err());
        db.analyze("t").unwrap();
        assert!(WhatIfEngine::snapshot(&db, "t").is_ok());
        assert!(WhatIfEngine::snapshot(&db, "missing").is_err());
    }

    #[test]
    fn exec_cost_orderings_match_table2_logic() {
        let db = paper_db(50_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let qa = SelectStmt::point("t", "a", 7);
        let qb = SelectStmt::point("t", "b", 7);

        let empty: Vec<IndexSpec> = vec![];
        let ia = vec![spec(&["a"])];
        let iab = vec![spec(&["a", "b"])];
        let ib = vec![spec(&["b"])];

        // Seek beats everything for the indexed column.
        let seek_a = w.exec_cost(&qa, &ia).unwrap();
        let scan = w.exec_cost(&qa, &empty).unwrap();
        assert!(seek_a.ios() * 20 < scan.ios());

        // I(a,b) serves a-queries via seek AND b-queries via covering
        // index-only scan (cheaper than heap scan) — the Table 2 driver.
        let seek_a_ab = w.exec_cost(&qa, &iab).unwrap();
        assert!(seek_a_ab.ios() < 30);
        let b_under_ab = w.exec_cost(&qb, &iab).unwrap();
        assert!(b_under_ab < scan, "index-only scan must beat heap scan");
        let b_under_b = w.exec_cost(&qb, &ib).unwrap();
        assert!(b_under_b < b_under_ab, "seek must beat index-only scan");
    }

    #[test]
    fn mix_economics_reproduce_paper_design_choices() {
        // Mix A = 55% a, 25% b, 10% c, 10% d. Under the paper's Table 2,
        // I(a,b) must be the best single-index configuration for mix A
        // and I(b) the best for mix B (the mirror).
        let db = paper_db(50_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let q: Vec<SelectStmt> = ["a", "b", "c", "d"]
            .iter()
            .map(|c| SelectStmt::point("t", *c, 7))
            .collect();
        let mix_cost = |weights: [u64; 4], config: &[IndexSpec]| -> u64 {
            weights
                .iter()
                .zip(&q)
                .map(|(wt, stmt)| w.exec_cost(stmt, config).unwrap().ios() * wt)
                .sum()
        };
        let configs: Vec<(&str, Vec<IndexSpec>)> = vec![
            ("empty", vec![]),
            ("I(a)", vec![spec(&["a"])]),
            ("I(b)", vec![spec(&["b"])]),
            ("I(c)", vec![spec(&["c"])]),
            ("I(d)", vec![spec(&["d"])]),
            ("I(a,b)", vec![spec(&["a", "b"])]),
            ("I(c,d)", vec![spec(&["c", "d"])]),
        ];
        let best = |weights: [u64; 4]| -> &str {
            configs
                .iter()
                .min_by_key(|(_, c)| mix_cost(weights, c))
                .unwrap()
                .0
        };
        assert_eq!(best([55, 25, 10, 10]), "I(a,b)", "mix A");
        assert_eq!(best([25, 55, 10, 10]), "I(b)", "mix B");
        assert_eq!(best([10, 10, 55, 25]), "I(c,d)", "mix C");
        assert_eq!(best([10, 10, 25, 55]), "I(d)", "mix D");
    }

    #[test]
    fn write_costs_penalize_indexes() {
        let db = paper_db(50_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let upd = match cdpd_sql::parse("UPDATE t SET b = 1 WHERE a = 7").unwrap() {
            cdpd_sql::Statement::Update(u) => Dml::Update(u),
            _ => unreachable!(),
        };
        let empty: Vec<IndexSpec> = vec![];
        let ia = vec![spec(&["a"])];
        let iab = vec![spec(&["a", "b"])];

        // I(a) speeds up the locate phase and is not maintained (b is
        // not in its key) → cheaper than no index at all.
        let bare = w.dml_cost(&upd, &empty).unwrap();
        let with_a = w.dml_cost(&upd, &ia).unwrap();
        assert!(with_a < bare, "{with_a} !< {bare}");
        // I(a,b) also locates fast but must be maintained.
        let with_ab = w.dml_cost(&upd, &iab).unwrap();
        assert!(with_ab > with_a, "maintenance must cost something");

        // A full-table update under many indexes is much worse than
        // under none.
        let touch_all = match cdpd_sql::parse("UPDATE t SET a = 1").unwrap() {
            cdpd_sql::Statement::Update(u) => Dml::Update(u),
            _ => unreachable!(),
        };
        let none = w.dml_cost(&touch_all, &empty).unwrap();
        let many = w
            .dml_cost(&touch_all, &[spec(&["a"]), spec(&["a", "b"])])
            .unwrap();
        assert!(many.raw() > none.raw() * 2, "{many} vs {none}");

        // Deletes maintain every index, even ones not containing the
        // SET columns.
        let del = match cdpd_sql::parse("DELETE FROM t WHERE a = 7").unwrap() {
            cdpd_sql::Statement::Delete(d) => Dml::Delete(d),
            _ => unreachable!(),
        };
        let d_bare = w.dml_cost(&del, &empty).unwrap();
        let d_ab = w.dml_cost(&del, &iab).unwrap();
        let _ = (d_bare, d_ab); // locate savings vs maintenance can go either way
                                // Select delegation matches exec_cost.
        let q = Dml::Select(SelectStmt::point("t", "a", 7));
        assert_eq!(
            w.dml_cost(&q, &ia).unwrap(),
            w.exec_cost(&SelectStmt::point("t", "a", 7), &ia).unwrap()
        );
    }

    #[test]
    fn relevance_projection_is_exact() {
        // The guarantee the oracle layer's projection rests on: for any
        // statement and any configuration C drawn from the candidate
        // set, cost(stmt, C) == cost(stmt, C ∩ mask(stmt)).
        let db = paper_db(20_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let structures = [
            spec(&["a"]),
            spec(&["b"]),
            spec(&["c"]),
            spec(&["d"]),
            spec(&["a", "b"]),
            spec(&["c", "d"]),
        ];
        let stmts: Vec<Dml> = vec![
            Dml::Select(SelectStmt::point("t", "a", 7)),
            Dml::Select(SelectStmt::point("t", "c", 7)),
            match cdpd_sql::parse("SELECT b FROM t WHERE b BETWEEN 5 AND 9").unwrap() {
                cdpd_sql::Statement::Select(s) => Dml::Select(s),
                _ => unreachable!(),
            },
            match cdpd_sql::parse("UPDATE t SET b = 1 WHERE a = 7").unwrap() {
                cdpd_sql::Statement::Update(u) => Dml::Update(u),
                _ => unreachable!(),
            },
            match cdpd_sql::parse("DELETE FROM t WHERE d = 3").unwrap() {
                cdpd_sql::Statement::Delete(d) => Dml::Delete(d),
                _ => unreachable!(),
            },
            // Multi-index paths: the IN probes light up every a-leading
            // structure; the disjunction spans a and c at once; the Eq
            // pair can intersect through I(a) × I(b).
            match cdpd_sql::parse("SELECT * FROM t WHERE a IN (2, 4, 6)").unwrap() {
                cdpd_sql::Statement::Select(s) => Dml::Select(s),
                _ => unreachable!(),
            },
            match cdpd_sql::parse("SELECT * FROM t WHERE (a = 1 OR c = 2)").unwrap() {
                cdpd_sql::Statement::Select(s) => Dml::Select(s),
                _ => unreachable!(),
            },
            match cdpd_sql::parse("SELECT * FROM t WHERE a = 1 AND b = 2").unwrap() {
                cdpd_sql::Statement::Select(s) => Dml::Select(s),
                _ => unreachable!(),
            },
        ];
        let specs_of = |bits: u64| -> Vec<IndexSpec> {
            structures
                .iter()
                .enumerate()
                .filter(|(i, _)| (bits >> i) & 1 == 1)
                .map(|(_, s)| s.clone())
                .collect()
        };
        for stmt in &stmts {
            let relevant = w.relevant_structures(stmt, &structures).unwrap();
            assert_eq!(relevant.len(), structures.len());
            let mask = relevant
                .iter()
                .enumerate()
                .fold(0u64, |m, (i, &r)| if r { m | (1 << i) } else { m });
            let mut projection_bit = false;
            for bits in 0..(1u64 << structures.len()) {
                let full = w.dml_cost(stmt, &specs_of(bits)).unwrap();
                let projected = w.dml_cost(stmt, &specs_of(bits & mask)).unwrap();
                assert_eq!(full, projected, "stmt {stmt} bits {bits:b} mask {mask:b}");
                projection_bit |= bits & mask != bits;
            }
            // Every statement here has at least one irrelevant
            // structure except the delete (which maintains all six).
            if !matches!(stmt, Dml::Delete(_)) {
                assert!(projection_bit, "mask {mask:b} projected nothing for {stmt}");
            }
        }
        // No fixed-width cap: a 65+-structure vocabulary is accepted.
        let many: Vec<IndexSpec> = (0..65).map(|_| spec(&["a"])).collect();
        let wide = w
            .relevant_structures(&Dml::Select(SelectStmt::point("t", "a", 1)), &many)
            .unwrap();
        assert_eq!(wide.len(), 65);
        assert!(wide.iter().all(|&r| r), "every copy of I(a) is relevant");
    }

    #[test]
    fn trans_cost_asymmetry() {
        let db = paper_db(20_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let ia = vec![spec(&["a"])];
        let ib = vec![spec(&["b"])];
        assert_eq!(w.trans_cost(&ia, &ia).unwrap(), Cost::ZERO);
        let build = w.trans_cost(&[], &ia).unwrap();
        let drop = w.trans_cost(&ia, &[]).unwrap();
        assert!(build.ios() > 100 * drop.ios());
        let swap = w.trans_cost(&ia, &ib).unwrap();
        assert_eq!(swap, build + drop, "swap = build new + drop old");
    }

    #[test]
    fn size_estimates_scale_with_width() {
        let db = paper_db(20_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let one = w.index_size_pages(&spec(&["a"])).unwrap();
        let two = w.index_size_pages(&spec(&["a", "b"])).unwrap();
        assert!(two > one);
        assert_eq!(
            w.config_size_pages(&[spec(&["a"]), spec(&["a", "b"])])
                .unwrap(),
            one + two
        );
        assert_eq!(w.config_size_pages(&[]).unwrap(), 0);
    }

    #[test]
    fn estimated_shape_tracks_real_build() {
        let db = paper_db(30_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let s = spec(&["a", "b"]);
        let est = w.shape(&s).unwrap();
        db.create_index(&s).unwrap();
        // Compare against the materialized tree via a fresh snapshot of
        // the executor's measured seek cost.
        let q = SelectStmt::point("t", "a", 7);
        let measured = db.query_count(&q).unwrap();
        let estimated = w.exec_cost(&q, &[s]).unwrap();
        let (e, m) = (estimated.ios().max(1), measured.io.total().max(1));
        assert!(
            e.max(m) / e.min(m) < 3,
            "estimated {e} vs measured {m} (shape {est:?})"
        );
    }

    #[test]
    fn live_snapshot_matches_executor_estimates_exactly() {
        let db = paper_db(30_000);
        db.create_index(&spec(&["a"])).unwrap();
        db.create_index(&spec(&["c", "d"])).unwrap();
        let w = WhatIfEngine::snapshot_live(&db, "t").unwrap();
        assert_eq!(w.live_shape_count(), 2);
        let config = [spec(&["a"]), spec(&["c", "d"])];
        // Reads: the oracle's prediction for the live configuration is
        // bit-identical to the planner estimate the executor reports —
        // same model, same stats, same materialized shapes.
        for q in [
            SelectStmt::point("t", "a", 7),
            SelectStmt::point("t", "c", 3),
            SelectStmt::point("t", "b", 1), // seq scan: no index helps
        ] {
            let predicted = w.exec_cost(&q, &config).unwrap();
            let reported = db.query_count(&q).unwrap().est_cost;
            assert_eq!(predicted, reported, "query on {q}");
        }
        // Writes too: predicted before execution, compared to the
        // est_total the executor attaches to the result.
        let upd = match cdpd_sql::parse("UPDATE t SET b = 1 WHERE a = 7").unwrap() {
            cdpd_sql::Statement::Update(u) => Dml::Update(u),
            _ => unreachable!(),
        };
        let predicted = w.dml_cost(&upd, &config).unwrap();
        let reported = db.execute_dml(&upd).unwrap().est_cost;
        assert_eq!(predicted, reported, "update est_total");
        // A plain (statistics-only) snapshot is close but not exact in
        // general; the live capture is what removes the shape gap.
        let plain = WhatIfEngine::snapshot(&db, "t").unwrap();
        assert_eq!(plain.live_shape_count(), 0);
    }

    #[test]
    fn wrong_table_rejected() {
        let db = paper_db(1_000);
        let w = WhatIfEngine::snapshot(&db, "t").unwrap();
        let other = IndexSpec::new("u", &["a"]);
        assert!(w.index_size_pages(&other).is_err());
        assert!(w.exec_cost(&SelectStmt::point("u", "a", 1), &[]).is_err());
        assert!(w.shape(&IndexSpec::new("t", &["nope"])).is_err());
    }
}
