use cdpd_core::{Config, CostOracle, OracleStats, ProjectableOracle, ProjectedOracle};
use cdpd_engine::{CostModel, IndexInfo, IndexSpec, Prepared, WhatIfEngine};
use cdpd_types::{Cost, Error, Result};
use cdpd_workload::SummarizedWorkload;
use std::sync::Arc;

/// A group of statements within one stage that share a relevance mask:
/// the unit of the oracle layer's projected caching.
struct Part {
    /// Structures that can affect these statements' costs.
    mask: Config,
    /// `(statement bound against the what-if snapshot, multiplicity)`
    /// members.
    members: Vec<(Prepared, u64)>,
}

/// The relevance vector the planner answers, as a [`Config`] mask.
fn mask_of(relevant: &[bool]) -> Config {
    relevant
        .iter()
        .enumerate()
        .filter(|(_, &r)| r)
        .fold(Config::EMPTY, |acc, (i, _)| acc.with(i))
}

/// Adapts the engine's [`WhatIfEngine`] to the solver-facing
/// [`CostOracle`] trait.
///
/// A [`Config`] bit `i` means "candidate structure `structures[i]` is
/// materialized" — positions are the structures, so a spec listed twice
/// is two structures. `EXEC(stage, C)` is the weighted sum of what-if
/// estimates for the stage's summarized statements under that index
/// set; `TRANS` is a build per structure gained plus a drop per
/// structure lost, `SIZE` the sum of their pages.
///
/// The structure list is resolved against the snapshot once
/// ([`WhatIfEngine::resolve_structures`]), and every statement is bound
/// once ([`WhatIfEngine::prepare`]); both again on
/// [`EngineOracle::refresh_whatif`], since shapes and selectivities
/// follow the statistics. Every relevance mask, what-if call,
/// transition and size reads those resolved and bound forms, so a
/// what-if call only walks the configuration's indexes.
///
/// The oracle performs no caching itself, but it *exports relevance*:
/// at construction it asks the planner which structures can affect
/// each statement and groups every stage's statements into equal-mask
/// parts, implementing [`ProjectableOracle`]. Hand it to a solver
/// through [`EngineOracle::into_shared`] — the sharded projected memo,
/// which counts raw what-if calls and cache hits into one shared
/// [`OracleStats`] bundle.
pub struct EngineOracle {
    whatif: WhatIfEngine,
    structures: Vec<IndexSpec>,
    /// `structures` as `whatif` resolved them, position for position.
    resolved: Vec<IndexInfo>,
    /// Per stage: equal-mask statement groups.
    parts: Vec<Vec<Part>>,
    /// Per stage: union of the stage's part masks.
    stage_masks: Vec<Config>,
    /// Counts raw what-if cost calls; shared with any wrapping layer.
    stats: Arc<OracleStats>,
}

impl EngineOracle {
    /// Build an oracle for `workload` over candidate `structures` —
    /// any number of them; configurations are width-agnostic.
    ///
    /// Validates everything up front — structures resolvable against
    /// the schema, statements on the oracle's table — so the trait
    /// methods (which cannot return errors) cannot fail later.
    pub fn new(
        whatif: WhatIfEngine,
        structures: Vec<IndexSpec>,
        workload: &SummarizedWorkload,
    ) -> Result<EngineOracle> {
        let _span = cdpd_obs::span!(
            "advisor.oracle_build",
            stages = workload.blocks.len(),
            structures = structures.len()
        );
        if workload.is_empty() {
            return Err(Error::InvalidArgument("workload has no blocks".into()));
        }
        if workload.table != whatif.table() {
            return Err(Error::InvalidArgument(format!(
                "workload is on table {}, what-if oracle on {}",
                workload.table,
                whatif.table()
            )));
        }
        let resolved = whatif.resolve_structures(&structures)?; // validates table + columns
        let mut oracle = EngineOracle {
            whatif,
            structures,
            resolved,
            parts: Vec::with_capacity(workload.blocks.len()),
            stage_masks: Vec::with_capacity(workload.blocks.len()),
            stats: OracleStats::shared(),
        };
        for block in &workload.blocks {
            oracle.append_block(block)?;
        }
        Ok(oracle)
    }

    /// Append one workload block as a new stage, without touching the
    /// existing stages (the constructor is this, folded over the
    /// workload). Stage indices of everything already built are
    /// stable, so a wrapping [`ProjectedOracle`] keeps every memo entry
    /// for earlier stages warm across the extension.
    ///
    /// Every statement is bound once: that binding surfaces unknown
    /// columns and type mismatches now, gives the planner relevance
    /// mask the stage's statements are grouped by, and is what every
    /// later what-if call prices.
    ///
    /// # Errors
    /// A statement that does not bind against the oracle's table; the
    /// oracle is left as it was.
    pub fn append_block(&mut self, block: &cdpd_workload::Block) -> Result<()> {
        let _span = cdpd_obs::span!(
            "oracle.engine.append_block",
            stage = self.parts.len(),
            statements = block.len
        );
        let mut stage_parts: Vec<Part> = Vec::new();
        for w in &block.weighted {
            let prepared = self.whatif.prepare(&w.statement)?;
            let mask = mask_of(&self.whatif.relevant_prepared(&prepared, &self.resolved));
            let member = (prepared, w.count);
            match stage_parts.iter_mut().find(|p| p.mask == mask) {
                Some(part) => part.members.push(member),
                None => stage_parts.push(Part {
                    mask,
                    members: vec![member],
                }),
            }
        }
        self.stage_masks.push(
            stage_parts
                .iter()
                .fold(Config::EMPTY, |acc, p| acc.union(&p.mask)),
        );
        self.parts.push(stage_parts);
        Ok(())
    }

    /// Swap in a fresh what-if snapshot (same table, same structures)
    /// after a statistics refresh, keeping parts and relevance masks:
    /// which structures *can* affect a statement depends only on its
    /// shape and the structure columns, not on the statistics, so the
    /// part decomposition survives a stats change — only the cached
    /// *costs* go stale, and which of those to evict is exactly what
    /// [`EngineOracle::part_references`] answers. The structure list is
    /// resolved again: shapes, and with them `TRANS` and `SIZE`, follow
    /// the statistics. Every statement is prepared again
    /// ([`WhatIfEngine::reprepare`]): its bound form carries
    /// selectivities and row estimates from the old statistics.
    ///
    /// # Errors
    /// The new snapshot must be over the same table, with the same
    /// schema the statements were bound to, and resolve every candidate
    /// structure.
    pub fn refresh_whatif(&mut self, whatif: WhatIfEngine) -> Result<()> {
        if whatif.table() != self.whatif.table() {
            return Err(Error::InvalidArgument(format!(
                "refresh snapshot is on table {}, oracle on {}",
                whatif.table(),
                self.whatif.table()
            )));
        }
        if whatif.schema() != self.whatif.schema() {
            return Err(Error::InvalidArgument(format!(
                "table {} changed its schema since the oracle bound its statements",
                whatif.table()
            )));
        }
        self.resolved = whatif.resolve_structures(&self.structures)?;
        for (prepared, _) in self.parts.iter_mut().flatten().flat_map(|p| &mut p.members) {
            whatif.reprepare(prepared);
        }
        self.whatif = whatif;
        Ok(())
    }

    /// Whether any statement of `(stage, part)` predicates on one of
    /// `columns` — the staleness test for delta-maintained statistics:
    /// a histogram refresh on those columns can only move the costs of
    /// parts this returns `true` for (plan *choice* depends on the
    /// configuration, not the statistics, so predicate columns are the
    /// whole dependency).
    pub fn part_references(&self, stage: usize, part: usize, columns: &[String]) -> bool {
        self.parts[stage][part].members.iter().any(|(prepared, _)| {
            prepared.conditions().iter().any(|c| {
                c.condition
                    .columns()
                    .iter()
                    .any(|cc| columns.iter().any(|col| col == cc))
            })
        })
    }

    /// The candidate structure list (bit order of [`Config`]).
    pub fn structures(&self) -> &[IndexSpec] {
        &self.structures
    }

    /// The index specs present in `config`, in bit order.
    pub fn specs_of(&self, config: &Config) -> Vec<IndexSpec> {
        config
            .structures()
            .map(|i| self.structures[i].clone())
            .collect()
    }

    /// The configuration encoding exactly `specs`, if every spec is a
    /// known candidate structure.
    pub fn config_of(&self, specs: &[IndexSpec]) -> Option<Config> {
        let mut config = Config::EMPTY;
        for spec in specs {
            let i = self.structures.iter().position(|s| s == spec)?;
            config = config.with(i);
        }
        Some(config)
    }

    /// The underlying what-if engine.
    pub fn whatif(&self) -> &WhatIfEngine {
        &self.whatif
    }

    /// The stats bundle this oracle counts raw what-if calls into.
    pub fn stats(&self) -> &Arc<OracleStats> {
        &self.stats
    }

    /// Wrap in the sharded projected-memo layer, sharing one stats
    /// bundle between the engine adapter (raw what-if calls) and the
    /// cache (hits/misses). The standard solver-facing form.
    pub fn into_shared(mut self) -> ProjectedOracle<EngineOracle> {
        let stats = OracleStats::shared();
        self.stats = stats.clone();
        ProjectedOracle::with_stats(self, stats)
    }
}

impl CostOracle for EngineOracle {
    fn n_stages(&self) -> usize {
        self.parts.len()
    }

    fn n_structures(&self) -> usize {
        self.structures.len()
    }

    fn exec(&self, stage: usize, config: &Config) -> Cost {
        // Deliberately unprojected: the raw path sums every part under
        // the full configuration, which keeps this method a reference
        // implementation the projected memo is differentially tested
        // against. (Saturating sums are grouping-independent,
        // so summing part-by-part equals the seed's statement order.)
        (0..self.parts[stage].len())
            .map(|p| self.exec_part(stage, p, config))
            .sum()
    }

    fn trans(&self, from: &Config, to: &Config) -> Cost {
        let builds: Cost = to
            .minus(from)
            .structures()
            .map(|i| self.whatif.build_cost(&self.resolved[i]))
            .sum();
        builds + CostModel::drop().scale(from.minus(to).len() as u64)
    }

    fn size(&self, config: &Config) -> u64 {
        config
            .structures()
            .map(|i| self.resolved[i].shape.total_pages)
            .sum()
    }
}

impl ProjectableOracle for EngineOracle {
    fn relevance_mask(&self, stage: usize) -> Config {
        self.stage_masks[stage].clone()
    }

    fn n_parts(&self, stage: usize) -> usize {
        self.parts[stage].len()
    }

    fn part_mask(&self, stage: usize, part: usize) -> Config {
        self.parts[stage][part].mask.clone()
    }

    fn exec_part(&self, stage: usize, part: usize, config: &Config) -> Cost {
        let part = &self.parts[stage][part];
        let indexes: Vec<&IndexInfo> = config.structures().map(|i| &self.resolved[i]).collect();
        self.stats.record_whatif_calls(part.members.len() as u64);
        part.members
            .iter()
            .map(|(prepared, count)| self.whatif.price(prepared, &indexes).scale(*count))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdpd_engine::Database;
    use cdpd_types::{ColumnDef, Schema, Value};
    use cdpd_workload::{generate, paper, summarize};

    fn test_db(rows: i64) -> Database {
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
        let dom = rows / 5;
        for i in 0..rows {
            let h = |k: i64| Value::Int((i * 2654435761 * (k + 1)).rem_euclid(dom));
            db.insert("t", &[h(0), h(1), h(2), h(3)]).unwrap();
        }
        db.analyze("t").unwrap();
        db
    }

    fn paper_structures() -> Vec<IndexSpec> {
        vec![
            IndexSpec::new("t", &["a"]),
            IndexSpec::new("t", &["b"]),
            IndexSpec::new("t", &["c"]),
            IndexSpec::new("t", &["d"]),
            IndexSpec::new("t", &["a", "b"]),
            IndexSpec::new("t", &["c", "d"]),
        ]
    }

    fn oracle(rows: i64) -> EngineOracle {
        let db = test_db(rows);
        let params = paper::PaperParams {
            domain: rows / 5,
            window_len: 100,
            ..Default::default()
        };
        let trace = generate(&paper::w1_with(&params), 11);
        let workload = summarize(&trace, 100).unwrap();
        EngineOracle::new(
            WhatIfEngine::snapshot(&db, "t").unwrap(),
            paper_structures(),
            &workload,
        )
        .unwrap()
    }

    #[test]
    fn dimensions_match_workload() {
        let o = oracle(10_000);
        assert_eq!(o.n_stages(), 30);
        assert_eq!(o.n_structures(), 6);
    }

    #[test]
    fn spec_config_roundtrip() {
        let o = oracle(5_000);
        let config = Config::EMPTY.with(1).with(4);
        let specs = o.specs_of(&config);
        assert_eq!(specs.len(), 2);
        assert_eq!(o.config_of(&specs), Some(config));
        assert_eq!(o.config_of(&[IndexSpec::new("t", &["z"])]), None);
        assert_eq!(o.config_of(&[]), Some(Config::EMPTY));
    }

    #[test]
    fn exec_improves_with_relevant_index() {
        let o = oracle(10_000);
        // Stage 0 of W1 is mix A (a-heavy): I(a,b) must help a lot.
        let empty = o.exec(0, &Config::EMPTY);
        let with_ab = o.exec(0, &Config::single(4));
        assert!(with_ab.raw() * 2 < empty.raw(), "{with_ab} !<< {empty}");
        // An index on c helps mix A only a little.
        let with_c = o.exec(0, &Config::single(2));
        assert!(with_c > with_ab);
    }

    #[test]
    fn trans_and_size_delegate() {
        let o = oracle(5_000);
        assert_eq!(o.trans(&Config::EMPTY, &Config::EMPTY), Cost::ZERO);
        assert!(o.trans(&Config::EMPTY, &Config::single(0)).ios() > 10);
        assert_eq!(o.size(&Config::EMPTY), 0);
        assert!(o.size(&Config::single(4)) > o.size(&Config::single(0)));
    }

    #[test]
    fn stages_decompose_into_equal_mask_parts() {
        let o = oracle(10_000);
        for stage in 0..o.n_stages() {
            // W1 point-queries every column, so each stage splits into
            // per-column parts: query on x ⇒ mask {I(x), composites
            // containing x} — four distinct masks, never one blob.
            assert!(
                o.n_parts(stage) >= 4,
                "stage {stage} has {} parts",
                o.n_parts(stage)
            );
            let union = (0..o.n_parts(stage))
                .fold(Config::EMPTY, |acc, p| acc.union(&o.part_mask(stage, p)));
            assert_eq!(union, o.relevance_mask(stage));
            // Parts are strictly narrower than the full structure set.
            for p in 0..o.n_parts(stage) {
                assert!(o.part_mask(stage, p).len() < o.n_structures());
            }
        }
    }

    #[test]
    fn part_decomposition_preserves_exec() {
        let o = oracle(10_000);
        for stage in [0, 10, 20] {
            for bits in [0u64, 0b1, 0b10000, 0b110011, 0b111111] {
                let cfg = Config::from_words(&[bits]);
                let whole = o.exec(stage, &cfg);
                let parts: Cost = (0..o.n_parts(stage))
                    .map(|p| o.exec_part(stage, p, &cfg.intersect(&o.part_mask(stage, p))))
                    .sum();
                assert_eq!(whole, parts, "stage {stage} cfg {cfg}");
            }
        }
    }

    #[test]
    fn shared_counts_fewer_whatif_calls_than_raw() {
        let probe = |o: &dyn CostOracle| {
            for stage in 0..o.n_stages() {
                for bits in 0..(1u64 << 6) {
                    o.exec(stage, &Config::from_words(&[bits]));
                }
            }
        };
        let raw = oracle(5_000);
        probe(&raw);
        let raw_calls = cdpd_core::OracleStatsSnapshot::from(&**raw.stats()).whatif_calls;

        let shared = oracle(5_000).into_shared();
        probe(&shared);
        let shared_calls = shared.stats_snapshot().whatif_calls;

        assert!(shared_calls < raw_calls, "{shared_calls} !< {raw_calls}");
        // And the memo agrees with the raw reference.
        for stage in [0, 15, 29] {
            for bits in [0u64, 0b101, 0b111111] {
                let cfg = Config::from_words(&[bits]);
                assert_eq!(shared.exec(stage, &cfg), raw.exec(stage, &cfg));
            }
        }
    }

    #[test]
    fn append_block_matches_batch_construction() {
        let db = test_db(5_000);
        let params = paper::PaperParams {
            domain: 1_000,
            window_len: 100,
            ..Default::default()
        };
        let trace = generate(&paper::w1_with(&params), 11);
        let workload = summarize(&trace, 100).unwrap();
        let batch = EngineOracle::new(
            WhatIfEngine::snapshot(&db, "t").unwrap(),
            paper_structures(),
            &workload,
        )
        .unwrap();
        // Construct over the first block, then stream in the rest.
        let head = cdpd_workload::SummarizedWorkload {
            table: workload.table.clone(),
            blocks: vec![workload.blocks[0].clone()],
        };
        let mut inc = EngineOracle::new(
            WhatIfEngine::snapshot(&db, "t").unwrap(),
            paper_structures(),
            &head,
        )
        .unwrap();
        for block in &workload.blocks[1..] {
            inc.append_block(block).unwrap();
        }
        assert_eq!(inc.n_stages(), batch.n_stages());
        for stage in 0..batch.n_stages() {
            assert_eq!(inc.n_parts(stage), batch.n_parts(stage));
            assert_eq!(inc.relevance_mask(stage), batch.relevance_mask(stage));
            for bits in [0u64, 0b1, 0b10110, 0b111111] {
                let cfg = Config::from_words(&[bits]);
                assert_eq!(inc.exec(stage, &cfg), batch.exec(stage, &cfg));
            }
        }
        // Appending an invalid statement fails without corrupting state.
        let stages_before = inc.n_stages();
        let bad = cdpd_workload::summarize(
            &cdpd_workload::Trace::from_selects(
                "t",
                vec![cdpd_sql::SelectStmt::point("t", "nope", 1)],
            ),
            10,
        )
        .unwrap();
        assert!(inc.append_block(&bad.blocks[0]).is_err());
        assert_eq!(inc.n_stages(), stages_before);
    }

    #[test]
    fn part_references_tracks_predicate_columns() {
        let o = oracle(5_000);
        let a = vec!["a".to_owned()];
        let z = vec!["z".to_owned()];
        // W1 queries every column in every window: some part must
        // predicate on `a`, and none on an unknown column.
        let hits = (0..o.n_parts(0))
            .filter(|&p| o.part_references(0, p, &a))
            .count();
        assert!(hits >= 1);
        assert!((0..o.n_parts(0)).all(|p| !o.part_references(0, p, &z)));
    }

    #[test]
    fn refresh_keeps_the_table_and_schema_statements_were_bound_to() {
        let mut o = oracle(1_000);
        let same = test_db(2_000);
        o.refresh_whatif(WhatIfEngine::snapshot(&same, "t").unwrap())
            .unwrap();
        // Same table name, one more column: the bound column ids and
        // selectivities would describe the wrong table.
        let other = Database::new();
        let mut columns: Vec<ColumnDef> = ["a", "b", "c", "d"].map(ColumnDef::int).to_vec();
        columns.insert(0, ColumnDef::int("z"));
        other.create_table("t", Schema::new(columns)).unwrap();
        other.analyze("t").unwrap();
        let err = o
            .refresh_whatif(WhatIfEngine::snapshot(&other, "t").unwrap())
            .unwrap_err();
        assert!(err.to_string().contains("changed its schema"), "{err}");
    }

    #[test]
    fn constructor_validates() {
        let db = test_db(1_000);
        let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
        let trace = generate(
            &paper::w1_with(&paper::PaperParams {
                domain: 200,
                window_len: 10,
                ..Default::default()
            }),
            1,
        );
        let workload = summarize(&trace, 10).unwrap();
        // Unknown column in a structure.
        let bad = vec![IndexSpec::new("t", &["nope"])];
        assert!(EngineOracle::new(whatif, bad, &workload).is_err());
        // Wrong table in the workload.
        let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
        let other =
            cdpd_workload::Trace::from_selects("u", vec![cdpd_sql::SelectStmt::point("u", "a", 1)]);
        let other_sum = summarize(&other, 10).unwrap();
        assert!(EngineOracle::new(whatif, vec![], &other_sum).is_err());
    }
}
