//! Differential property test for prepared pricing: a statement bound
//! once ([`Planner::prepare`], [`WhatIfEngine::prepare`]) and priced
//! under many index sets must cost bit for bit what planning it from
//! scratch under each set costs — and what the single-pass planner this
//! crate had before the bind/choose split costs, kept below as
//! `reference`.
//!
//! Statements are random ASTs: `Eq`, open and exclusive ranges, `IN`
//! lists with duplicates and past the union fanout gate, single- and
//! multi-column `OR`s, every projection including unpredicated
//! `MIN`/`MAX`, `ORDER BY`, `LIMIT`, `UPDATE` and `DELETE`, and
//! statements that fail to bind. Index sets are random subsets of a
//! pool with composite, covering and shared-leading-column indexes, and
//! every set is priced with and without index-only scans (the one
//! [`PlannerFlags`] ablation). The cases must produce a union, an
//! intersection, an extremum, a range and a covering-seek plan, so
//! every candidate generator is under the check.

use cdpd_engine::{Database, IndexInfo, IndexSpec, Plan, Planner, PlannerFlags, WhatIfEngine};
use cdpd_sql::{AggFunc, Condition, DeleteStmt, Dml, OrderBy, Projection, SelectStmt, UpdateStmt};
use cdpd_testkit::prop::{check, Config};
use cdpd_testkit::Prng;
use cdpd_types::{ColumnDef, Schema, Value};
use std::sync::atomic::{AtomicU64, Ordering};

const COLUMNS: [&str; 5] = ["a", "b", "c", "d", "s"];

/// Values 0..domain, skewed toward small ones so histograms carry heavy
/// hitters; `s` is a string column.
fn database(rng: &mut Prng, rows: usize, domain: i64) -> Database {
    let db = Database::new();
    let mut columns: Vec<ColumnDef> = COLUMNS[..4].iter().map(|c| ColumnDef::int(*c)).collect();
    columns.push(ColumnDef::text("s"));
    db.create_table("t", Schema::new(columns)).unwrap();
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            let mut row: Vec<Value> = (0..4)
                .map(|_| {
                    let v = rng.gen_range(0..domain);
                    Value::Int(if rng.gen_bool(0.3) { v % 5 } else { v })
                })
                .collect();
            row.push(Value::Str(format!("k{}", rng.gen_range(0..40u32))));
            row
        })
        .collect();
    db.insert_many("t", rows.iter().map(Vec::as_slice)).unwrap();
    db.analyze("t").unwrap();
    db
}

fn pool() -> Vec<IndexSpec> {
    [
        &["a"][..],
        &["b"],
        &["c"],
        &["s"],
        &["a", "b"],
        &["a", "c"],
        &["b", "c", "d"],
        &["c", "a"],
        &["a", "b", "c", "d", "s"],
    ]
    .iter()
    .map(|cols| IndexSpec::new("t", cols))
    .collect()
}

fn literal(rng: &mut Prng, column: &str, domain: i64) -> Value {
    // Now and then a literal of the wrong type, which must not bind.
    let string = (column == "s") != rng.gen_bool(0.02);
    if string {
        Value::Str(format!("k{}", rng.gen_range(0..45u32)))
    } else {
        Value::Int(rng.gen_range(-2..domain + 2))
    }
}

fn column(rng: &mut Prng) -> String {
    // Now and then a column that does not exist.
    if rng.gen_bool(0.02) {
        return "zz".into();
    }
    COLUMNS[rng.gen_range(0..COLUMNS.len())].into()
}

fn simple(rng: &mut Prng, column: String, domain: i64) -> Condition {
    match rng.gen_range(0..3u32) {
        0 => Condition::Eq {
            value: literal(rng, &column, domain),
            column,
        },
        1 => {
            let mut bound = || rng.gen_bool(0.8).then(|| literal(rng, &column, domain));
            let (lo, hi) = (bound(), bound());
            Condition::Range {
                lo,
                lo_inclusive: rng.gen_bool(0.5),
                hi,
                hi_inclusive: rng.gen_bool(0.5),
                column,
            }
        }
        _ => {
            // Short lists from a narrow range repeat values; long ones
            // pass the union fanout gate.
            let len = rng.gen_range(0..Planner::MAX_OR_PROBES + 6);
            let narrow = rng.gen_bool(0.5);
            let values = (0..len)
                .map(|_| match literal(rng, &column, domain) {
                    Value::Int(v) if narrow => Value::Int(v % 4),
                    v => v,
                })
                .collect();
            Condition::In { column, values }
        }
    }
}

fn condition(rng: &mut Prng, domain: i64) -> Condition {
    if rng.gen_bool(0.75) {
        let column = column(rng);
        return simple(rng, column, domain);
    }
    // An OR over one column or several; rarely empty or nested.
    let one_column = rng.gen_bool(0.4).then(|| column(rng));
    let branches = rng.gen_range(1..4usize);
    let mut or: Vec<Condition> = (0..branches)
        .map(|_| {
            let column = one_column.clone().unwrap_or_else(|| column(rng));
            simple(rng, column, domain)
        })
        .collect();
    match rng.gen_range(0..50u32) {
        0 => or.clear(),
        1 => or.push(Condition::Or(vec![or[0].clone()])),
        _ => {}
    }
    Condition::Or(or)
}

fn statement(rng: &mut Prng, domain: i64) -> Dml {
    let conditions: Vec<Condition> = (0..rng.gen_range(0..4usize))
        .map(|_| condition(rng, domain))
        .collect();
    let table = "t".to_owned();
    match rng.gen_range(0..10u32) {
        0 | 1 => {
            let set = (0..rng.gen_range(1..3usize))
                .map(|_| {
                    let column = column(rng);
                    let value = literal(rng, &column, domain);
                    (column, value)
                })
                .collect();
            Dml::Update(UpdateStmt {
                table,
                set,
                conditions,
            })
        }
        2 => Dml::Delete(DeleteStmt { table, conditions }),
        _ => {
            let projection = match rng.gen_range(0..4u32) {
                0 => Projection::Star,
                1 => Projection::CountStar,
                2 => Projection::Columns(
                    (0..rng.gen_range(1..4usize)).map(|_| column(rng)).collect(),
                ),
                _ => {
                    let funcs = [
                        AggFunc::Min,
                        AggFunc::Max,
                        AggFunc::Sum,
                        AggFunc::Avg,
                        AggFunc::Count,
                    ];
                    Projection::Aggregate(funcs[rng.gen_range(0..funcs.len())], column(rng))
                }
            };
            // Unpredicated MIN/MAX, the extremum path, needs no terms.
            let conditions = if rng.gen_bool(0.15) {
                Vec::new()
            } else {
                conditions
            };
            let order_by = rng.gen_bool(0.25).then(|| OrderBy {
                column: column(rng),
                desc: rng.gen_bool(0.5),
            });
            Dml::Select(SelectStmt {
                projection,
                table,
                conditions,
                order_by,
                limit: rng.gen_bool(0.2).then(|| rng.gen_range(1..50u64)),
            })
        }
    }
}

const FLAGS: [PlannerFlags; 2] = [
    PlannerFlags {
        index_only_scans: true,
    },
    PlannerFlags {
        index_only_scans: false,
    },
];

/// The plan kinds the cases must produce between them (the default 24
/// cases do; a single case may not).
const KINDS: [&str; 5] = [
    "a union",
    "an intersection",
    "an extremum",
    "a range",
    "a covering seek",
];

fn kind(plan: &Plan) -> Option<usize> {
    match plan {
        Plan::IndexOr { .. } => Some(0),
        Plan::IndexAnd { .. } => Some(1),
        Plan::IndexExtremum { .. } => Some(2),
        Plan::IndexRange { .. } => Some(3),
        Plan::IndexSeek { covering: true, .. } => Some(4),
        _ => None,
    }
}

#[test]
fn prepared_pricing_matches_planning_from_scratch() {
    let regressions = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("regressions")
        .join("prepared_prop.prepared_pricing_matches_planning_from_scratch.seeds");
    let seen: [AtomicU64; KINDS.len()] = Default::default();
    check(
        "prepared_prop::prepared_pricing_matches_planning_from_scratch",
        Some(&regressions),
        &Config::with_cases(24),
        (0u64..1_000_000,),
        |&(seed,)| case(seed, &seen),
    );
    for (kind, n) in KINDS.iter().zip(&seen) {
        assert!(n.load(Ordering::Relaxed) > 0, "no case planned {kind}");
    }
}

/// One case: a database, six index sets and 30 statements. Counts the
/// kinds of the default-flag plans into `seen`.
fn case(seed: u64, seen: &[AtomicU64; KINDS.len()]) {
    let mut rng = Prng::seed_from_u64(seed);
    // Enough rows that seeks, unions and intersections beat the
    // heap scan, and domains from dense to nearly distinct.
    let domain = rng.gen_range(20..3_000i64);
    let db = database(&mut rng, 3_000, domain);
    let whatif = WhatIfEngine::snapshot(&db, "t").unwrap();
    let (schema, stats) = (whatif.schema(), whatif.stats());
    let pool = whatif.resolve_structures(&pool()).unwrap();
    let subsets: Vec<Vec<IndexInfo>> = (0..6)
        .map(|_| {
            let mut subset: Vec<IndexInfo> = pool
                .iter()
                .filter(|_| rng.gen_bool(0.35))
                .cloned()
                .collect();
            rng.shuffle(&mut subset);
            subset
        })
        .collect();
    for _ in 0..30 {
        let stmt = statement(&mut rng, domain);
        let from_scratch = |indexes: &[IndexInfo], flags| {
            let planner = Planner::with_flags(schema, stats, indexes, flags);
            match &stmt {
                Dml::Select(s) => planner.plan(s).map(|p| (p.est_cost, p.plan)),
                write => planner
                    .plan_write(write)
                    .map(|p| (p.est_total, p.find.plan)),
            }
        };
        let prepared = match whatif.prepare(&stmt) {
            Ok(prepared) => prepared,
            Err(e) => {
                // The same error planning raises, under any index set.
                let planned = from_scratch(&pool, PlannerFlags::default());
                assert_eq!(planned.unwrap_err().to_string(), e.to_string(), "{stmt}");
                let unbound = Planner::new(schema, stats, &pool).relevant_indexes(&stmt);
                assert_eq!(unbound.unwrap_err().to_string(), e.to_string(), "{stmt}");
                continue;
            }
        };
        for subset in &subsets {
            let by_ref: Vec<&IndexInfo> = subset.iter().collect();
            let priced = whatif.price(&prepared, &by_ref);
            let (planned, plan) = from_scratch(subset, PlannerFlags::default()).unwrap();
            assert_eq!(priced, planned, "{stmt}");
            if let Some(k) = kind(&plan) {
                seen[k].fetch_add(1, Ordering::Relaxed);
            }
            for flags in FLAGS {
                let planner = Planner::with_flags(schema, stats, &by_ref[..], flags);
                let cost = planner.cost(&prepared);
                assert_eq!(
                    cost,
                    from_scratch(subset, flags).unwrap().0,
                    "{stmt} {flags:?}"
                );
                let old = reference::cost(schema, stats, subset, flags, &stmt);
                assert_eq!(cost, old, "{stmt} {flags:?}");

                let relevant = planner.relevant(&prepared);
                let unbound = Planner::with_flags(schema, stats, subset, flags);
                assert_eq!(relevant, unbound.relevant_indexes(&stmt).unwrap(), "{stmt}");
                let old = reference::relevant(schema, subset, flags, &stmt);
                assert_eq!(relevant, old, "{stmt} {flags:?}");
                // Relevance is exact: the irrelevant indexes cannot
                // move the price.
                let kept: Vec<&IndexInfo> = by_ref
                    .iter()
                    .zip(&relevant)
                    .filter(|(_, r)| **r)
                    .map(|(i, _)| *i)
                    .collect();
                let projected = Planner::with_flags(schema, stats, &kept[..], flags);
                assert_eq!(projected.cost(&prepared), cost, "{stmt} {flags:?}");
            }
        }
    }
}

/// The single-pass planner as it was before the bind/choose split:
/// bind, estimate and choose in one walk per statement and index set.
/// Only for statements that bind; returns what it returned as
/// `est_cost` / `est_total`, and its relevance masks.
mod reference {
    use cdpd_engine::{CostModel, IndexInfo, Planner, PlannerFlags, TableStats};
    use cdpd_sql::{AggFunc, Condition, Dml, Projection};
    use cdpd_types::{ColumnId, Cost, Schema, Value};

    struct Term<'s> {
        column: ColumnId,
        condition: &'s Condition,
        branch_columns: Vec<ColumnId>,
    }

    fn id(schema: &Schema, name: &str) -> ColumnId {
        schema.column_id(name).expect("reference statements bind")
    }

    fn terms<'s>(schema: &Schema, stmt: &'s Dml) -> Vec<Term<'s>> {
        stmt.conditions()
            .iter()
            .map(|c| match c {
                Condition::Or(branches) => {
                    let branch_columns: Vec<ColumnId> =
                        branches.iter().map(|b| id(schema, b.column())).collect();
                    Term {
                        column: branch_columns[0],
                        condition: c,
                        branch_columns,
                    }
                }
                _ => Term {
                    column: id(schema, c.column()),
                    condition: c,
                    branch_columns: Vec::new(),
                },
            })
            .collect()
    }

    /// `(projection, count_only, aggregate)`; a write locates its rows
    /// as a `COUNT(*)`.
    type Shape = (Option<Vec<ColumnId>>, bool, Option<(AggFunc, ColumnId)>);

    fn shape(schema: &Schema, stmt: &Dml) -> Shape {
        let Dml::Select(s) = stmt else {
            return (None, true, None);
        };
        match &s.projection {
            Projection::Star => (None, false, None),
            Projection::CountStar => (None, true, None),
            Projection::Columns(cols) => (
                Some(cols.iter().map(|c| id(schema, c)).collect()),
                false,
                None,
            ),
            Projection::Aggregate(f, c) => {
                (Some(vec![id(schema, c)]), false, Some((*f, id(schema, c))))
            }
        }
    }

    fn needed(terms: &[Term], shape: &Shape) -> Option<Vec<ColumnId>> {
        let mut v = match shape {
            (Some(p), _, _) => p.clone(),
            (None, true, _) => Vec::new(),
            (None, false, _) => return None,
        };
        for t in terms {
            let cols = if t.branch_columns.is_empty() {
                vec![t.column]
            } else {
                t.branch_columns.clone()
            };
            for c in cols {
                if !v.contains(&c) {
                    v.push(c);
                }
            }
        }
        Some(v)
    }

    fn covers(schema: &Schema, info: &IndexInfo, needed: &Option<Vec<ColumnId>>) -> bool {
        match needed {
            Some(cols) => cols.iter().all(|c| info.columns.contains(c)),
            None => (0..schema.columns().len()).all(|j| info.columns.contains(&ColumnId(j as u16))),
        }
    }

    fn multi_col_or(terms: &[Term]) -> bool {
        terms
            .iter()
            .any(|t| t.branch_columns.windows(2).any(|w| w[0] != w[1]))
    }

    fn simple_sel(stats: &TableStats, column: ColumnId, cond: &Condition) -> f64 {
        let col = stats.column(column);
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
                let mut seen: Vec<&Value> = Vec::new();
                let mut sel = 0.0f64;
                for v in values {
                    if !seen.contains(&v) {
                        seen.push(v);
                        sel += col.point_selectivity(v);
                    }
                }
                sel.min(1.0)
            }
            Condition::Or(_) => unreachable!(),
        }
    }

    fn term_sel(stats: &TableStats, t: &Term) -> f64 {
        match t.condition {
            Condition::Or(branches) => branches
                .iter()
                .zip(&t.branch_columns)
                .map(|(b, c)| simple_sel(stats, *c, b))
                .sum::<f64>()
                .min(1.0),
            c => simple_sel(stats, t.column, c),
        }
    }

    fn or_probes(t: &Term) -> Option<Vec<(ColumnId, Value)>> {
        let mut raw: Vec<(ColumnId, &Value)> = Vec::new();
        match t.condition {
            Condition::In { values, .. } => raw.extend(values.iter().map(|v| (t.column, v))),
            Condition::Or(branches) => {
                for (b, col) in branches.iter().zip(&t.branch_columns) {
                    match b {
                        Condition::Eq { value, .. } => raw.push((*col, value)),
                        Condition::In { values, .. } => {
                            raw.extend(values.iter().map(|v| (*col, v)))
                        }
                        _ => return None,
                    }
                }
            }
            _ => return None,
        }
        let mut probes: Vec<(ColumnId, Value)> = Vec::new();
        for (c, v) in raw {
            if !probes.iter().any(|(pc, pv)| *pc == c && pv == v) {
                probes.push((c, v.clone()));
            }
        }
        (!probes.is_empty() && probes.len() <= Planner::MAX_OR_PROBES).then_some(probes)
    }

    fn cheapest_probe(
        stats: &TableStats,
        indexes: &[IndexInfo],
        col: ColumnId,
    ) -> Option<(usize, Cost)> {
        let rows = stats.eq_rows(col);
        let mut best: Option<(usize, Cost)> = None;
        for (j, info) in indexes.iter().enumerate() {
            if info.columns[0] == col {
                let c = CostModel::index_probe(stats, info.shape, rows);
                if best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((j, c));
                }
            }
        }
        best
    }

    fn is_eq(t: &Term) -> bool {
        matches!(t.condition, Condition::Eq { .. })
    }

    /// The chosen locate cost and the estimated matching rows.
    fn query(
        schema: &Schema,
        stats: &TableStats,
        indexes: &[IndexInfo],
        flags: PlannerFlags,
        stmt: &Dml,
    ) -> (Cost, f64) {
        let terms = terms(schema, stmt);
        let shape = shape(schema, stmt);
        let needed = needed(&terms, &shape);
        let multi = multi_col_or(&terms);
        let mut sel = 1.0f64;
        for t in &terms {
            sel *= term_sel(stats, t);
        }
        let est_rows = stats.row_count as f64 * sel;
        let mut best: Option<(Cost, u32)> = None;
        let mut consider = |cost: Cost, rank: u32| {
            if best.is_none_or(|(bc, br)| cost < bc || (cost == bc && rank < br)) {
                best = Some((cost, rank));
            }
        };
        consider(CostModel::seq_scan(stats), 3);
        if terms.is_empty() {
            if let Some((AggFunc::Min | AggFunc::Max, col)) = shape.2 {
                for info in indexes.iter().filter(|i| i.columns[0] == col) {
                    consider(Cost::from_ios(info.shape.height as u64), 0);
                }
            }
        }
        for info in indexes {
            let covering = !multi && covers(schema, info, &needed);
            let eq_prefix = info
                .columns
                .iter()
                .take_while(|col| terms.iter().any(|t| t.column == **col && is_eq(t)))
                .count();
            if eq_prefix > 0 {
                let mut s = 1.0f64;
                for col in &info.columns[..eq_prefix] {
                    s *= stats.column(*col).eq_selectivity();
                }
                let rows = stats.row_count as f64 * s;
                consider(CostModel::index_seek(stats, info.shape, rows, covering), 0);
                continue;
            }
            let leading = info.columns[0];
            let range = terms
                .iter()
                .find(|t| t.column == leading && matches!(t.condition, Condition::Range { .. }));
            if let Some(t) = range {
                let frac = simple_sel(stats, leading, t.condition);
                let rows = stats.row_count as f64 * frac;
                consider(
                    CostModel::index_range(stats, info.shape, frac, rows, covering),
                    1,
                );
                continue;
            }
            if covering && flags.index_only_scans {
                consider(CostModel::index_only_scan(info.shape), 2);
            }
        }
        'terms: for t in &terms {
            let Some(probes) = or_probes(t) else { continue };
            let mut cost = Cost::ZERO;
            for (col, _) in probes {
                let Some((_, c)) = cheapest_probe(stats, indexes, col) else {
                    continue 'terms;
                };
                cost += c;
            }
            cost += CostModel::rid_fetches(stats.row_count as f64 * term_sel(stats, t));
            consider(cost, 1);
        }
        let eq: Vec<ColumnId> = terms
            .iter()
            .filter(|t| is_eq(t))
            .map(|t| t.column)
            .collect();
        for (pi, p) in eq.iter().enumerate() {
            for q in eq.iter().skip(pi + 1) {
                if p == q {
                    continue;
                }
                let (Some((_, pc)), Some((_, qc))) = (
                    cheapest_probe(stats, indexes, *p),
                    cheapest_probe(stats, indexes, *q),
                ) else {
                    continue;
                };
                let s = stats.column(*p).eq_selectivity() * stats.column(*q).eq_selectivity();
                consider(
                    pc + qc + CostModel::rid_fetches(stats.row_count as f64 * s),
                    1,
                );
            }
        }
        (best.expect("seq scan is a candidate").0, est_rows)
    }

    fn set_columns(schema: &Schema, stmt: &Dml) -> Option<Vec<ColumnId>> {
        match stmt {
            Dml::Select(_) => None,
            Dml::Update(u) => Some(u.set.iter().map(|(c, _)| id(schema, c)).collect()),
            Dml::Delete(_) => Some(Vec::new()),
        }
    }

    fn maintains(stmt: &Dml, set: &[ColumnId], info: &IndexInfo) -> bool {
        matches!(stmt, Dml::Delete(_)) || info.columns.iter().any(|c| set.contains(c))
    }

    pub fn cost(
        schema: &Schema,
        stats: &TableStats,
        indexes: &[IndexInfo],
        flags: PlannerFlags,
        stmt: &Dml,
    ) -> Cost {
        let (find, rows) = query(schema, stats, indexes, flags, stmt);
        let Some(set) = set_columns(schema, stmt) else {
            return find;
        };
        let mut total = find + CostModel::heap_row_write().scale(rows.ceil() as u64);
        for info in indexes.iter().filter(|i| maintains(stmt, &set, i)) {
            total += match stmt {
                Dml::Update(_) => CostModel::update_maintenance(info.shape, rows),
                _ => CostModel::delete_maintenance(info.shape, rows),
            };
        }
        total
    }

    pub fn relevant(
        schema: &Schema,
        indexes: &[IndexInfo],
        flags: PlannerFlags,
        stmt: &Dml,
    ) -> Vec<bool> {
        let terms = terms(schema, stmt);
        let shape = shape(schema, stmt);
        let needed = needed(&terms, &shape);
        let multi = multi_col_or(&terms);
        let set = set_columns(schema, stmt);
        let extremum = match shape.2 {
            Some((AggFunc::Min | AggFunc::Max, col)) if terms.is_empty() => Some(col),
            _ => None,
        };
        let mut union_cols: Vec<ColumnId> = Vec::new();
        for t in &terms {
            for (col, _) in or_probes(t).unwrap_or_default() {
                if !union_cols.contains(&col) {
                    union_cols.push(col);
                }
            }
        }
        indexes
            .iter()
            .map(|info| {
                let leading = info.columns[0];
                set.as_ref().is_some_and(|set| maintains(stmt, set, info))
                    || extremum == Some(leading)
                    || terms.iter().any(|t| t.column == leading && is_eq(t))
                    || union_cols.contains(&leading)
                    || terms.iter().any(|t| {
                        t.column == leading && matches!(t.condition, Condition::Range { .. })
                    })
                    || (flags.index_only_scans && !multi && covers(schema, info, &needed))
            })
            .collect()
    }
}
